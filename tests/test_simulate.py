"""The event-driven simulator against a reference stepper that walks every
step and rebuilds the optimal provisional schedule from scratch each time."""

from __future__ import annotations

import io
import math
from random import Random

import pytest

from conftest import inst_of, mk
from mgsched.generators import GenSpec, LowerBoundSpec, generate, generate_lower_bound
from mgsched.model import ALL_VARIANTS, PHI, UNBOUNDED, Instance, InvalidInstanceError, Packet
from mgsched.offline import empirical_ratio, offline_optimal
from mgsched.policies import (
    PolicyKind,
    PolicyParams,
    StepRecord,
    dump_trace,
    edf_alpha_select,
    simulate,
)
from mgsched.provisional import IncrementalSchedule, optimal_provisional_schedule

POLICIES = (
    PolicyParams.mg(PHI, PHI),
    PolicyParams.mg(PHI**2, PHI**2),
    PolicyParams.mg(UNBOUNDED, 1.0),
    PolicyParams.mg(2.0, 1.25),
    PolicyParams.edf(2.0),
    PolicyParams.edf(UNBOUNDED),
    PolicyParams.mg(1.0, 1.0),  # Greedy
)


def _mg_reference(entries, params) -> Packet:
    """MG's rule over every schedule entry, not only the deadline heads."""
    e = entries[0]
    top = max(p.value for p in entries)
    h = next(p for p in entries if p.value == top)
    h_over_alpha = 0.0 if params.alpha == UNBOUNDED else h.value / params.alpha
    if e.value >= h_over_alpha:
        return e
    threshold = max(h_over_alpha, params.beta * e.value)
    return next(p for p in entries if p.value >= threshold)


def reference_steps(inst: Instance, params: PolicyParams):
    """Walk every step from t = 1, rebuilding the schedule at each one."""
    arrivals: dict[int, list[Packet]] = {}
    for p in inst.packets:
        arrivals.setdefault(p.release, []).append(p)
    remaining = len(inst.packets)
    buffer: list[Packet] = []
    steps: list[StepRecord] = []
    dropped: list[int] = []
    total = 0.0
    t = 1
    while True:
        buffer += arrivals.get(t, [])
        remaining -= len(arrivals.get(t, []))
        dropped += sorted(p.id for p in buffer if p.deadline < t)
        buffer = [p for p in buffer if p.deadline >= t]
        if not buffer:
            if not remaining:
                break
            steps.append(StepRecord(t, None, 0.0, 0, 0.0))
            t += 1
            continue
        schedule = optimal_provisional_schedule(buffer, t)
        if params.kind is PolicyKind.MG:
            chosen = _mg_reference(schedule, params)
        else:
            chosen = edf_alpha_select(buffer, params.alpha)
        steps.append(StepRecord(t, chosen.id, chosen.value, len(buffer), math.fsum(p.value for p in schedule)))
        buffer.remove(chosen)
        total += chosen.value
        t += 1
    return tuple(steps), total, tuple(dropped)


def _assert_matches_reference(inst: Instance, params: PolicyParams) -> None:
    trace = simulate(inst, params)
    steps, total, dropped = reference_steps(inst, params)
    assert trace.steps == steps, (params.describe(), inst)
    assert trace.total_value == total
    assert trace.dropped_expired == dropped
    assert trace.sends == tuple(s for s in steps if s.sent_id is not None)


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_simulate_matches_reference_on_every_variant_and_policy(variant):
    rng = Random(f"simulate:{variant}")
    for _ in range(25):
        inst = generate(GenSpec(variant, rng.randint(0, 30), max_slack=rng.randint(0, 8), seed=rng.getrandbits(32)))
        for params in POLICIES:
            _assert_matches_reference(inst, params)


@pytest.mark.parametrize("k", range(1, 9))
def test_simulate_matches_reference_on_lower_bound_family(k):
    inst = generate_lower_bound(LowerBoundSpec(k, 1e-7))
    _assert_matches_reference(inst, PolicyParams.mg(PHI, PHI))
    if k <= 6:
        for params in POLICIES[1:]:
            _assert_matches_reference(inst, params)


def test_simulate_matches_reference_across_idle_gaps():
    rng = Random(17)
    for _ in range(60):
        packets = []
        for i in range(rng.randint(1, 15)):
            release = rng.choice([1, 2, 3, 20, 21, 45, 46, 47, 90])
            deadline = UNBOUNDED if rng.random() < 0.15 else release + rng.randint(0, 4)
            packets.append(Packet(i, release, deadline, rng.randint(1, 4) / 2.0))
        for params in POLICIES:
            _assert_matches_reference(Instance(tuple(packets)), params)


def test_long_idle_gap_is_jumped(monkeypatch):
    advances = []
    original = IncrementalSchedule.advance

    def counting(self):
        advances.append(self.time)
        return original(self)

    monkeypatch.setattr(IncrementalSchedule, "advance", counting)
    inst = inst_of(mk(0, 1, 1, 1.0), mk(1, 10**7, UNBOUNDED, 2.5))
    trace = simulate(inst, PolicyParams.mg(PHI, PHI))
    assert trace.sends == (StepRecord(1, 0, 1.0, 1, 1.0), StepRecord(10**7, 1, 2.5, 1, 2.5))
    assert trace.sent_count == 2
    assert trace.sent_ids == (0, 1)
    assert trace.total_value == 3.5
    assert trace.dropped_expired == ()
    assert advances == [1, 10**7]  # one schedule step per send, none across the gap


def test_dump_trace_writes_idle_rows_of_a_gap():
    inst = inst_of(mk(0, 1, 1, 1.0), mk(1, 1, 2, 1.5), mk(2, 6, 7, 2.0), mk(3, 6, 6, 0.5))
    trace = simulate(inst, PolicyParams.mg(PHI, PHI))
    fp = io.StringIO()
    dump_trace(trace, fp)
    assert fp.getvalue().splitlines() == [
        '{"buffer_size": 2, "schedule_value": 2.5, "sent_id": 0, "sent_value": 1.0, "t": 1}',
        '{"buffer_size": 1, "schedule_value": 1.5, "sent_id": 1, "sent_value": 1.5, "t": 2}',
        '{"buffer_size": 0, "schedule_value": 0.0, "sent_id": null, "sent_value": 0.0, "t": 3}',
        '{"buffer_size": 0, "schedule_value": 0.0, "sent_id": null, "sent_value": 0.0, "t": 4}',
        '{"buffer_size": 0, "schedule_value": 0.0, "sent_id": null, "sent_value": 0.0, "t": 5}',
        '{"buffer_size": 2, "schedule_value": 2.5, "sent_id": 2, "sent_value": 2.0, "t": 6}',
        '{"summary": {"droppedCount": 1, "sentCount": 3, "totalValue": 4.5}}',
    ]
    assert len(trace.steps) == 6 and trace.sent_count == 3


def test_empirical_ratio_validates_once(monkeypatch):
    import mgsched.model

    calls = []
    original = mgsched.model.validate_instance

    def counting(packets):
        calls.append(packets)
        return original(packets)

    monkeypatch.setattr(mgsched.model, "validate_instance", counting)
    inst = generate(GenSpec("general", 20, seed=4))
    assert calls == [inst.packets]  # once, when the instance is made
    empirical_ratio(inst, PolicyParams.mg(PHI, PHI))
    simulate(inst, PolicyParams.mg(PHI, PHI))
    offline_optimal(inst)
    assert len(calls) == 1


def test_direct_calls_still_validate():
    # an invalid instance cannot be made, so no solver or policy ever sees one
    with pytest.raises(InvalidInstanceError) as info:
        inst_of(mk(0, 3, 2, 1.0))
    assert [v.rule for v in info.value.violations] == ["deadline-before-release"]
