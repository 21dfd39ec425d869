"""The event-driven simulator against a reference stepper that walks every
step and rebuilds the optimal provisional schedule from scratch each time."""

from __future__ import annotations

import copy
import io
import json
import math
import pickle
from random import Random

import numpy
import pytest
from hypothesis import given

from conftest import edf_reference, inst_of, mk, packet_to_obj, sent_ids, written_instances
from mgsched.generators import GenSpec, LowerBoundSpec, generate, generate_lower_bound
from mgsched.model import (
    ALL_VARIANTS,
    PHI,
    UNBOUNDED,
    Instance,
    InvalidInstanceError,
    Packet,
    dumps_instance,
)
from mgsched.offline import empirical_ratio, offline_optimal
from mgsched.policies import (
    PolicyKind,
    PolicyParams,
    StepRecord,
    dump_trace,
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
            chosen = edf_reference(buffer, params.alpha)
        steps.append(StepRecord(t, chosen.id, chosen.value, len(buffer), math.fsum(p.value for p in schedule)))
        buffer.remove(chosen)
        t += 1
    return tuple(steps), math.fsum(s.sent_value for s in steps), tuple(dropped)


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
    sends = []
    original = IncrementalSchedule.step

    def counting(self, *rule):
        sends.append(self.time)
        return original(self, *rule)

    monkeypatch.setattr(IncrementalSchedule, "step", counting)
    inst = inst_of(mk(0, 1, 1, 1.0), mk(1, 10**7, UNBOUNDED, 2.5))
    trace = simulate(inst, PolicyParams.mg(PHI, PHI))
    assert trace.sends == (StepRecord(1, 0, 1.0, 1, 1.0), StepRecord(10**7, 1, 2.5, 1, 2.5))
    assert trace.sent_count == 2
    assert sent_ids(trace) == (0, 1)
    assert trace.total_value == 3.5
    assert trace.dropped_expired == ()
    assert sends == [1, 10**7]  # one schedule step per send, none across the gap


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


def test_dump_trace_writes_the_same_bytes_once_sends_are_built():
    # A trace is written from its rows, the same after a read of `sends`, a
    # pickle round trip or a deep copy.
    def dumped(trace):
        fp = io.StringIO()
        dump_trace(trace, fp)
        return fp.getvalue()

    params = PolicyParams.mg(PHI, PHI)
    gap = inst_of(mk(0, 1, 1, 1.0), mk(1, 1, 2, 1.5), mk(2, 6, 7, 2.0), mk(3, 6, 6, 0.5))
    for inst in (gap, generate(GenSpec("general", 40, max_slack=3, seed=11))):
        want = dumped(simulate(inst, params))
        read = simulate(inst, params)
        read.sends  # a read builds the records
        for trace in (read, pickle.loads(pickle.dumps(simulate(inst, params))), copy.deepcopy(simulate(inst, params))):
            assert dumped(trace) == want


@given(written_instances)
def test_each_trace_line_is_json_dumps_of_its_record(inst):
    trace = simulate(inst, PolicyParams.mg(PHI, PHI))
    fp = io.StringIO()
    dump_trace(trace, fp)
    summary = {
        "totalValue": trace.total_value,
        "sentCount": trace.sent_count,
        "droppedCount": len(trace.dropped_expired),
    }
    objs = [s._asdict() for s in trace.steps] + [{"summary": summary}]  # idle rows included
    assert fp.getvalue() == "".join(json.dumps(obj, sort_keys=True) + "\n" for obj in objs)


def _assert_lines_are_json_dumps(inst: Instance) -> None:
    """Each line dump_instance and dump_trace write for `inst` is
    json.dumps(obj, sort_keys=True) of its object."""
    objs = [packet_to_obj(p) for p in inst.packets]
    assert dumps_instance(inst) == "".join(json.dumps(obj, sort_keys=True) + "\n" for obj in objs)
    trace = simulate(inst, PolicyParams.mg(PHI, PHI))
    fp = io.StringIO()
    dump_trace(trace, fp)
    summary = {"totalValue": trace.total_value, "sentCount": trace.sent_count, "droppedCount": 0}
    objs = [s._asdict() for s in trace.steps] + [{"summary": summary}]
    assert fp.getvalue() == "".join(json.dumps(obj, sort_keys=True) + "\n" for obj in objs)


def test_the_writers_memo_changes_no_byte():
    # 3, 3.0 and numpy.float64(3.0) are one dict key, but 3 is written "3":
    # each comes first once, and each packet is sent at its release.
    threes = (3, 3.0, numpy.float64(3.0))
    for first in range(3):
        values = (threes[first:] + threes[:first]) * 3
        inst = inst_of(*(mk(i, i + 1, i + 1, v) for i, v in enumerate(values)))
        sends = simulate(inst, PolicyParams.mg(PHI, PHI)).sends
        assert [type(s.sent_value) for s in sends] == list(map(type, values))
        _assert_lines_are_json_dumps(inst)
    # More distinct values than the memo keeps, each written twice.
    rng = Random(23)
    pool = [rng.uniform(0.1, 100.0) for _ in range(3000)]
    values = pool + rng.sample(pool, len(pool))
    _assert_lines_are_json_dumps(inst_of(*(mk(i, i + 1, i + 1, v) for i, v in enumerate(values))))


def test_the_writers_convert_each_distinct_float_once(monkeypatch):
    # The lower-bound family at k = 10: 6033 packets of 29 distinct values.
    # Its MG(phi, phi) run makes 2032 sends of 11 distinct values.
    import mgsched.model
    import mgsched.policies

    calls = []
    original = mgsched.model.json_number

    def counting(x):
        calls.append(x)
        return original(x)

    inst = generate_lower_bound(LowerBoundSpec(10, 1e-7))
    trace = simulate(inst, PolicyParams.mg(PHI, PHI))
    monkeypatch.setattr(mgsched.model, "json_number", counting)
    dumps_instance(inst)
    assert len(calls) == len({p.value for p in inst.packets}) == 29
    calls.clear()
    monkeypatch.setattr(mgsched.policies, "json_number", counting)
    dump_trace(trace, io.StringIO())
    sent = {s.sent_value for s in trace.sends}
    # one call per schedule value, one per distinct sent value
    assert (len(calls), len(sent)) == (trace.sent_count + len(sent), 11)


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


def test_a_ratio_builds_no_step_record_and_sorts_no_witness(monkeypatch):
    # A sweep trial reads two totals; the trace's records are built only for a
    # caller that reads them.
    import mgsched.policies
    from mgsched.analysis import sweep, table1_cells

    records = []

    def counting_record(*fields):
        records.append(fields)
        return StepRecord(*fields)

    monkeypatch.setattr(mgsched.policies, "StepRecord", counting_record)
    inst = generate(GenSpec("general", 30, seed=4))
    for params in POLICIES:
        empirical_ratio(inst, params)
    sweep(table1_cells(n=12), trials=4, seed=5, jobs=1)
    assert records == []
    # the counter sees the build once the records are read
    trace = simulate(inst, POLICIES[0])
    assert len(records) == 0 < trace.sent_count
    assert len(trace.sends) == len(records)


def test_direct_calls_still_validate():
    # an invalid instance cannot be made, so no solver or policy ever sees one
    with pytest.raises(InvalidInstanceError) as info:
        inst_of(mk(0, 3, 2, 1.0))
    assert [v.rule for v in info.value.violations] == ["deadline-before-release"]
