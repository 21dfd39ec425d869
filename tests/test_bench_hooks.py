"""The benchmark's traced runs wrap mgsched functions where their callers look
them up (`perfbench/spans.py`, SITES).  A refactor that drops one of those
names breaks `perfbench/run.py --trace 1`; this test makes it fail here first."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_benchmark_hook_point_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.SITES
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in spans.SITES
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
