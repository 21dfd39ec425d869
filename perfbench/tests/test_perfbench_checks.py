"""Every output check passes on mgsched's real outputs and fails on a wrong one."""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed, SweepRow  # noqa: E402

SEED = 3


def _round(name: str, work: Path) -> list[str]:
    """Build a workload's inputs and run one round of its commands."""
    wl = workloads.WORKLOADS[name]
    wl.build(SEED, work)
    stdouts = []
    for argv in wl.commands(SEED, work):
        code, out = workloads.run_cli(argv)
        assert code == 0, argv
        stdouts.append(out)
    return stdouts


def _failures(name: str, work: Path, stdouts: list[str]) -> list[str]:
    failed = []
    for label, op in workloads.WORKLOADS[name].output_checks(SEED, work, stdouts):
        try:
            op()
        except CheckFailed:
            failed.append(label)
    return failed


def _replace_word(text: str, key: str, shift: float) -> str:
    """Add `shift` to the number printed after `key`."""
    out = []
    for line in text.splitlines(keepends=True):
        head, _, rest = line.partition(" ")
        if head == key:
            value = float(rest.split()[0]) + shift
            line = f"{head} {value!r}\n"
        out.append(line)
    return "".join(out)


# ---------------------------------------------------------------------------
# Workload checks on real and perturbed outputs.
# ---------------------------------------------------------------------------


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(workloads, "SWEEP_TRIALS", 20)
    monkeypatch.setattr(workloads, "SWEEP_SAMPLE", 3)
    monkeypatch.setattr(workloads, "LB_K", 6)
    monkeypatch.setattr(workloads, "LB_ORACLE_K", 4)
    monkeypatch.setattr(workloads, "SPARSE_BURSTS", 4)


def _edit_csv(path: Path, variant: str, field: str, value: str) -> None:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    for i, line in enumerate(lines[1:], start=1):
        cols = line.split(",")
        if cols[0] == variant:
            cols[header.index(field)] = value
            lines[i] = ",".join(cols)
    path.write_text("\n".join(lines) + "\n")


def test_sweep_checks_pass_and_catch_wrong_rows(small, tmp_path):
    stdouts = _round("table1-sweep", tmp_path)
    assert _failures("table1-sweep", tmp_path, stdouts) == []
    csv_path = tmp_path / "sweep.csv"
    original = csv_path.read_text()

    _edit_csv(csv_path, "general", "mean_ratio", "3.5")  # max < mean, and above 2
    assert _failures("table1-sweep", tmp_path, stdouts) == [
        "rows: nine, full trials, 1 <= mean <= max",
    ]

    csv_path.write_text(original)
    _edit_csv(csv_path, "anti-agreeable-value", "max_ratio", "1.25")
    assert _failures("table1-sweep", tmp_path, stdouts) == [
        "exact variants: max = 1",
        "argmax seed re-solved: anti-agreeable-value",
    ]

    csv_path.write_text(original)
    _edit_csv(csv_path, "agreeable-deadline", "max_ratio", "1.7")
    assert _failures("table1-sweep", tmp_path, stdouts) == [
        "agreeable variants: max <= phi",
        "argmax seed re-solved: agreeable-deadline",
    ]

    csv_path.write_text(original)
    _edit_csv(csv_path, "general", "max_ratio", "2.5")
    assert _failures("table1-sweep", tmp_path, stdouts) == [
        "every variant: max <= 2",
        "argmax seed re-solved: general",
    ]

    csv_path.write_text(original)
    _edit_csv(csv_path, "general", "trials", "19")
    assert _failures("table1-sweep", tmp_path, stdouts) == ["rows: nine, full trials, 1 <= mean <= max"]


def test_sweep_oracle_checks_catch_opt_plus_one(small, tmp_path, monkeypatch):
    stdouts = _round("table1-sweep", tmp_path)
    monkeypatch.setattr(workloads, "oracle_opt", lambda inst, true_opt=oracle.oracle_opt: true_opt(inst) + 1)
    variants = [r.variant for r in checks.parse_sweep_csv((tmp_path / "sweep.csv").read_text())]
    assert _failures("table1-sweep", tmp_path, stdouts) == (
        [f"argmax seed re-solved: {v}" for v in variants] + [f"oracle OPT on sampled trials: {v}" for v in variants]
    )


def test_lower_bound_checks_pass_and_catch_wrong_values(small, tmp_path, monkeypatch):
    stdouts = _round("lower-bound", tmp_path)
    assert _failures("lower-bound", tmp_path, stdouts) == []
    run_out, opt_out = stdouts

    assert _failures("lower-bound", tmp_path, [_replace_word(run_out, "totalValue", 1.0), opt_out]) == [
        "ALG = fsum of the unbounded values",
        "trace summary matches run",
    ]
    below_alg = checks.parse_run_stdout(run_out)["totalValue"] - checks.parse_opt_stdout(opt_out) - 1.0
    assert _failures("lower-bound", tmp_path, [run_out, _replace_word(opt_out, "optValue", below_alg)]) == [
        "OPT >= ALG",
    ]

    trace_path = tmp_path / "lb-trace.jsonl"
    records = [json.loads(line) for line in trace_path.read_text().splitlines()]
    inst = workloads._load(tmp_path / "lb.jsonl")
    bounded = next(p.id for p in inst.packets if not math.isinf(p.deadline))
    records[0]["sent_id"] = bounded
    trace_path.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert _failures("lower-bound", tmp_path, stdouts) == ["every sent packet is unbounded"]

    monkeypatch.setattr(workloads, "oracle_opt", lambda inst: 1.0)
    assert "oracle = mgsched opt at k=4" in _failures("lower-bound", tmp_path, stdouts)


def test_sparse_span_checks_pass_and_catch_wrong_values(small, tmp_path):
    stdouts = _round("sparse-span", tmp_path)
    assert _failures("sparse-span", tmp_path, stdouts) == []
    run_out, opt_out = stdouts
    assert _failures("sparse-span", tmp_path, [_replace_word(run_out, "totalValue", 0.5), opt_out]) == [
        "ALG = sum of MG on each burst alone",
    ]
    assert _failures("sparse-span", tmp_path, [run_out, _replace_word(opt_out, "optValue", 1.0)]) == [
        "OPT = sum of the oracle on each burst",
    ]


def test_sparse_bursts_are_separated_by_idle_gaps(small, tmp_path):
    workloads.WORKLOADS["sparse-span"].build(SEED, tmp_path)
    inst = workloads._load(tmp_path / "sparse.jsonl")
    assert len(inst) == 4 * workloads.SPARSE_BURST_N
    for b in range(1, 4):
        earlier = [p for p in inst.packets if p.id < b * workloads.SPARSE_BURST_N]
        later = [p for p in inst.packets if p.id >= b * workloads.SPARSE_BURST_N]
        assert max(p.deadline for p in earlier) < min(p.release for p in later)


def test_inputs_depend_only_on_the_seed(small, tmp_path):
    for name in ("lower-bound", "sparse-span"):
        a, b, c = tmp_path / f"{name}-a", tmp_path / f"{name}-b", tmp_path / f"{name}-c"
        for d in (a, b, c):
            d.mkdir()
        workloads.WORKLOADS[name].build(SEED, a)
        workloads.WORKLOADS[name].build(SEED, b)
        workloads.WORKLOADS[name].build(SEED + 1, c)
        files = sorted(p.name for p in a.iterdir())
        assert [(a / f).read_bytes() == (b / f).read_bytes() for f in files] == [True] * len(files)
        assert any((a / f).read_bytes() != (c / f).read_bytes() for f in files)


# ---------------------------------------------------------------------------
# The check functions on hand-made values.
# ---------------------------------------------------------------------------


def _row(variant="general", trials=5, max_ratio=1.5, mean_ratio=1.2):
    return SweepRow(variant, trials, max_ratio, mean_ratio, 42)


def test_check_sweep_rows():
    checks.check_sweep_rows([_row("a"), _row("b")], ["a", "b"], 5)
    with pytest.raises(CheckFailed):
        checks.check_sweep_rows([_row("a")], ["a", "b"], 5)
    with pytest.raises(CheckFailed):
        checks.check_sweep_rows([_row("a", trials=4)], ["a"], 5)
    with pytest.raises(CheckFailed):
        checks.check_sweep_rows([_row("a", max_ratio=1.1, mean_ratio=1.2)], ["a"], 5)
    with pytest.raises(CheckFailed):
        checks.check_sweep_rows([_row("a", max_ratio=0.9, mean_ratio=0.8)], ["a"], 5)


def test_check_max_bounds():
    checks.check_max_equals_one([_row("a", max_ratio=1.0, mean_ratio=1.0)], ["a"])
    with pytest.raises(CheckFailed):
        checks.check_max_equals_one([_row("a", max_ratio=1.0 + 1e-12, mean_ratio=1.0)], ["a"])
    checks.check_max_at_most([_row("a", max_ratio=checks.PHI)], ["a"], checks.PHI)
    with pytest.raises(CheckFailed):
        checks.check_max_at_most([_row("a", max_ratio=checks.PHI + 1e-12)], ["a"], checks.PHI)


def test_check_argmax_ratio():
    checks.check_argmax_ratio(_row(max_ratio=1.5), 3.0, 2.0)
    with pytest.raises(CheckFailed):
        checks.check_argmax_ratio(_row(max_ratio=1.5), 4.0, 2.0)


def test_check_opt():
    checks.check_opt(10.0, 10.0, 8.0, rel_tol=0.0)
    with pytest.raises(CheckFailed):
        checks.check_opt(10.0, 11.0, 8.0, rel_tol=0.0)
    with pytest.raises(CheckFailed):
        checks.check_opt(7.0, 7.0, 8.0, rel_tol=0.0)
    checks.check_opt(10.0, 10.0 * (1 + 1e-12), 8.0, rel_tol=1e-9)


def test_check_alg_sum():
    checks.check_alg_sum(0.1 + 0.2 + 0.3, [0.1, 0.2, 0.3], rel_tol=1e-9)
    with pytest.raises(CheckFailed):
        checks.check_alg_sum(1.6, [0.1, 0.2, 0.3], rel_tol=1e-9)
    with pytest.raises(CheckFailed):
        checks.check_alg_sum(0.5, [0.25, 0.125], rel_tol=0.0)


def test_check_same_outputs():
    checks.check_same_outputs([("x", "h"), ("x", "h")])
    with pytest.raises(CheckFailed):
        checks.check_same_outputs([("x", "h"), ("x", "g")])
    with pytest.raises(CheckFailed):
        checks.check_same_outputs([])


def test_check_trace_summary():
    summary = {"totalValue": 3.5, "sentCount": 2, "droppedCount": 1}
    checks.check_trace_summary(summary, {"totalValue": 3.5, "sent": 2, "dropped": 1})
    for wrong in ({"totalValue": 4.5, "sent": 2, "dropped": 1}, {"totalValue": 3.5, "sent": 3, "dropped": 1},
                  {"totalValue": 3.5, "sent": 2, "dropped": 0}):
        with pytest.raises(CheckFailed):
            checks.check_trace_summary(summary, wrong)


def test_check_sent_unbounded():
    steps = [{"sent_id": 1}, {"sent_id": None}, {"sent_id": 2}]
    checks.check_sent_unbounded(steps, {1, 2})
    with pytest.raises(CheckFailed):
        checks.check_sent_unbounded(steps, {1})


# ---------------------------------------------------------------------------
# Spans and the metric names.
# ---------------------------------------------------------------------------


def test_spans_count_the_work_of_a_run(small, tmp_path):
    workloads.WORKLOADS["sparse-span"].build(SEED, tmp_path)
    argv = workloads.WORKLOADS["sparse-span"].commands(SEED, tmp_path)[0]
    traced = spans.Spans()
    with traced.installed():
        code, out = workloads.run_cli(argv)
    assert code == 0
    m = spans.layer_metrics(traced)
    sent = checks.parse_run_stdout(out)["sent"]
    assert m["policies.simulate.sends"] == sent
    assert m["provisional.optimal_provisional_schedule.calls"] == m["policies.mg_select.calls"] == sent
    assert m["model.load_instance.packets"] == 4 * workloads.SPARSE_BURST_N
    assert m["model.validate_instance.calls"] == 1
    assert m["policies.simulate.steps"] > 3 * workloads.SPARSE_GAP
    assert 0 < m["policies.simulate.self_s"] < traced.seconds["policies.simulate"] <= traced.seconds["cli.main"]
    import mgsched.cli
    import mgsched.policies

    assert mgsched.cli.main.__module__ == "mgsched.cli"  # wrappers are gone after the block
    assert mgsched.policies.optimal_provisional_schedule.__module__ == "mgsched.provisional"


def test_benchmark_json_names_what_the_run_reports():
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: run.unit_of(name) for name in ("setup_s", "wall_s", "peak_rss_mb")
    }
    layer_names = list(spans.layer_metrics(spans.Spans())) + ["trace.wall_s", "trace.overhead_s"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {name: run.unit_of(name) for name in layer_names}
