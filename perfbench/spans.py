"""Per-layer spans, taken from outside mgsched.

Each traced function is wrapped where its callers look it up (for example
`mgsched.policies.optimal_provisional_schedule`, which `simulate` calls by that
module global), so nothing under src/ changes.  A span's self time is its
duration minus the time of the spans it encloses.
"""

from __future__ import annotations

import contextlib
import importlib
from collections import Counter
from time import perf_counter


# Counters of work done: (arguments, result) -> (metric name, amount) pairs.
def _loaded(args, inst):
    return (("model.load_instance.packets", len(inst)),)


def _simulated(args, trace):
    return (("policies.simulate.steps", len(trace.steps)), ("policies.simulate.sends", trace.sent_count))


def _dumped(args, result):
    return (("policies.dump_trace.records", len(args[0].steps) + 1),)  # plus the summary line


def _solved(args, schedule):
    return (("offline.offline_optimal.packets", len(args[0])),)


def _scheduled(args, schedule):
    return (("provisional.optimal_provisional_schedule.pending_packets", len(args[0])),)


# (module the caller reads, attribute, layer span name, counter of work done)
SITES = [
    ("mgsched.cli", "main", "cli.main", None),
    ("mgsched.cli", "sweep", "analysis.sweep", None),
    ("mgsched.cli", "load_instance", "model.load_instance", _loaded),
    ("mgsched.cli", "simulate", "policies.simulate", _simulated),
    ("mgsched.offline", "simulate", "policies.simulate", _simulated),
    ("mgsched.cli", "dump_trace", "policies.dump_trace", _dumped),
    ("mgsched.cli", "offline_optimal", "offline.offline_optimal", _solved),
    ("mgsched.offline", "offline_optimal", "offline.offline_optimal", _solved),
    ("mgsched.policies", "optimal_provisional_schedule", "provisional.optimal_provisional_schedule", _scheduled),
    ("mgsched.policies", "mg_select", "policies.mg_select", None),
    ("mgsched.analysis", "generate", "generators.generate", None),
    ("mgsched.model", "validate_instance", "model.validate_instance", None),
]


class Spans:
    """Calls, seconds and self seconds per layer, plus the layers' work counts."""

    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.seconds: Counter[str] = Counter()
        self.self_seconds: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._open: list[list[float]] = []  # enclosed-span time of each open span

    def wrap(self, name, fn, count):
        open_spans, calls, seconds, self_seconds = self._open, self.calls, self.seconds, self.self_seconds
        counts = self.counts

        def traced(*args, **kwargs):
            enclosed = [0.0]
            open_spans.append(enclosed)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                open_spans.pop()
                if open_spans:
                    open_spans[-1][0] += took
                calls[name] += 1
                seconds[name] += took
                self_seconds[name] += took - enclosed[0]
            if count is not None:
                for key, n in count(args, result):
                    counts[key] += n
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every site for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name, count in SITES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, count))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def layer_metrics(spans: Spans) -> dict[str, float]:
    """The per-layer metrics of one traced round."""
    s, c, n = spans.seconds, spans.calls, spans.counts
    prov = "provisional.optimal_provisional_schedule"
    steps = n["policies.simulate.steps"]
    return {
        f"{prov}.calls": c[prov],
        f"{prov}.s": s[prov],
        f"{prov}.pending_packets": n[f"{prov}.pending_packets"],
        f"{prov}.us_per_call": 1e6 * s[prov] / c[prov] if c[prov] else 0.0,
        "policies.mg_select.calls": c["policies.mg_select"],
        "policies.mg_select.s": s["policies.mg_select"],
        "offline.offline_optimal.calls": c["offline.offline_optimal"],
        "offline.offline_optimal.s": s["offline.offline_optimal"],
        "offline.offline_optimal.us_per_packet": (
            1e6 * s["offline.offline_optimal"] / n["offline.offline_optimal.packets"]
            if n["offline.offline_optimal.packets"] else 0.0
        ),
        "policies.simulate.self_s": spans.self_seconds["policies.simulate"],
        "policies.simulate.steps": steps,
        "policies.simulate.sends": n["policies.simulate.sends"],
        "policies.simulate.sends_per_step": n["policies.simulate.sends"] / steps if steps else 0.0,
        "generators.generate.calls": c["generators.generate"],
        "generators.generate.s": s["generators.generate"],
        "model.validate_instance.calls": c["model.validate_instance"],
        "model.validate_instance.s": s["model.validate_instance"],
        "analysis.sweep.self_s": spans.self_seconds["analysis.sweep"],
        "cli.main.self_s": spans.self_seconds["cli.main"],
        "model.load_instance.s": s["model.load_instance"],
        "model.load_instance.packets": n["model.load_instance.packets"],
        "policies.dump_trace.s": s["policies.dump_trace"],
        "policies.dump_trace.records": n["policies.dump_trace.records"],
    }
