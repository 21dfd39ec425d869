from __future__ import annotations

import math
from random import Random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assignment_opt, brute_best_pending_value, heads_of, mk
from mgsched.model import PHI, UNBOUNDED, Instance, Packet
from mgsched.policies import EmptyBufferError, PolicyKind, PolicyParams, mg_select
from mgsched import provisional
from mgsched.provisional import IncrementalSchedule, canonical_key, optimal_provisional_schedule, values_at

GREEDY = PolicyParams.mg(1.0, 1.0)  # sends h: the first head of the top value
HEAD_FIRST = PolicyParams.mg(UNBOUNDED, 1.0)  # sends e: the first scheduled packet
# The policies whose send rule the schedule's step applies in the event tests.
STEP_POLICIES = (
    PolicyParams.mg(PHI, PHI),
    GREEDY,
    HEAD_FIRST,
    PolicyParams.edf(2.0),
    PolicyParams.edf(UNBOUNDED),
)


def value_of(scheduled) -> float:
    return math.fsum(p.value for p in scheduled)


def test_optimal_example_drops_cheap_conflicting():
    a, b, c = mk(0, 1, 1, 3.0), mk(1, 1, 1, 1.0), mk(2, 1, 2, 2.0)
    s = optimal_provisional_schedule([a, b, c], 1)
    assert [(p.id, slot) for slot, p in enumerate(s, 1)] == [(0, 1), (2, 2)]
    assert value_of(s) == 5.0


def test_optimal_example_deadline_tie_kept_by_value():
    x, y, z = mk(0, 1, 1, 1.0), mk(1, 1, 2, 5.0), mk(2, 1, 2, 4.0)
    s = optimal_provisional_schedule([x, y, z], 1)
    assert [(p.id, slot) for slot, p in enumerate(s, 1)] == [(1, 1), (2, 2)]
    assert value_of(s) == 9.0


def test_optimal_empty_pending():
    s = optimal_provisional_schedule([], 3)
    assert s == () and value_of(s) == 0.0


def test_select_e_h_example():
    entries = [mk(0, 1, 2, 1.0), mk(1, 1, 3, 7.0), mk(2, 1, 9, 7.0)]
    heads = heads_of(optimal_provisional_schedule(entries, 1))
    assert mg_select(heads, HEAD_FIRST).id == 0  # e
    assert mg_select(heads, GREEDY).id == 1  # h: first of the two value-7 packets in canonical order


def test_select_e_h_singleton_and_uniform():
    s = optimal_provisional_schedule([mk(0, 1, 4, 2.0)], 1)
    assert (mg_select(heads_of(s), HEAD_FIRST), mg_select(heads_of(s), GREEDY)) == (s[0], s[0])
    s = optimal_provisional_schedule([mk(0, 1, 2, 3.0), mk(1, 1, 5, 3.0)], 1)
    e, h = mg_select(heads_of(s), HEAD_FIRST), mg_select(heads_of(s), GREEDY)
    assert e is h


def test_select_e_h_empty_raises():
    with pytest.raises(EmptyBufferError):
        mg_select(heads_of(optimal_provisional_schedule([], 1)), GREEDY)


def test_unbounded_deadlines_sort_last_by_value_then_id():
    pending = [mk(0, 1, UNBOUNDED, 2.0), mk(1, 1, UNBOUNDED, 5.0), mk(2, 1, 3, 1.0)]
    s = optimal_provisional_schedule(pending, 1)
    assert [p.id for p in s] == [2, 1, 0]


_pending = st.integers(1, 6).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(st.integers(0, 6), st.integers(1, 64)),  # (deadline offset, value grid)
            min_size=n,
            max_size=n,
        ),
    )
)


@given(_pending, st.integers(1, 5))
def test_oracle_equivalence_small(data, t):
    _, raw = data
    pending = [Packet(i, 1, t + off, grid / 8.0) for i, (off, grid) in enumerate(raw)]
    s = optimal_provisional_schedule(pending, t)
    assert value_of(s) == brute_best_pending_value(pending, t)


@given(_pending, st.integers(1, 5))
def test_canonical_slots_feasible_and_ordered(data, t):
    _, raw = data
    pending = [Packet(i, 1, t + off, grid / 8.0) for i, (off, grid) in enumerate(raw)]
    s = optimal_provisional_schedule(pending, t)
    for slot, p in enumerate(s, t):
        assert p.deadline >= slot
    keys = [(p.deadline, -p.value, p.id) for p in s]
    assert keys == sorted(keys)


@given(_pending, st.integers(1, 5))
def test_highest_value_packet_always_scheduled(data, t):
    _, raw = data
    pending = [Packet(i, 1, t + off, grid / 8.0) for i, (off, grid) in enumerate(raw)]
    s = optimal_provisional_schedule(pending, t)
    top = max(p.value for p in pending)
    assert any(p.value == top for p in s)


# Few deadlines and few values, so that value ties and long per-deadline
# lists are common.  Offset 4 stands for UNBOUNDED.
_crowded = st.lists(st.tuples(st.integers(0, 4), st.integers(1, 3)), max_size=40)


@given(_crowded, st.integers(1, 5))
def test_each_deadline_keeps_a_prefix_in_value_order(raw, t):
    # IncrementalSchedule stores each deadline's scheduled packets as a
    # counted prefix of its pending packets; this is the fact that allows it.
    pending = [Packet(i, 1, UNBOUNDED if off == 4 else t + off, float(v)) for i, (off, v) in enumerate(raw)]
    kept = {p.id for p in optimal_provisional_schedule(pending, t)}
    for d in {p.deadline for p in pending}:
        ordered = sorted((p for p in pending if p.deadline == d), key=lambda p: (-p.value, p.id))
        k = sum(p.id in kept for p in ordered)
        assert [p.id in kept for p in ordered] == [True] * k + [False] * (len(ordered) - k)


def test_adding_packet_never_decreases_value():
    rng = Random(11)
    for _ in range(300):
        t = rng.randint(1, 4)
        pending = [
            Packet(i, 1, t + rng.randint(0, 6), rng.randint(1, 64) / 8.0)
            for i in range(rng.randint(1, 7))
        ]
        base = value_of(optimal_provisional_schedule(pending[:-1], t))
        assert value_of(optimal_provisional_schedule(pending, t)) >= base


# One event of a random buffer history: (kind, deadline offset, value, pick).
# Offset 6 stands for UNBOUNDED; seven values make equal values common, and the
# smallest float, the float just above 1 and 1e300 test the exact keys and
# total at both ends of the float range.  1.5 lies between 2 / phi and phi, so
# beta * v_e decides MG(phi, phi)'s threshold when e is worth 1.
_event = st.tuples(
    st.sampled_from(["arrive", "arrive", "arrive", "send", "send-any", "step"]),
    st.integers(0, 6),
    st.sampled_from([1.0, 1.5, 2.0, 3.0, 5e-324, 1.0 + 2**-52, 1e300]),
    st.integers(0, 10**6),
)


def _assert_is_rebuild(schedule: IncrementalSchedule, pending: list[Packet], t: int) -> None:
    want = optimal_provisional_schedule(pending, t)
    assert schedule.time == t
    assert schedule.snapshot() == want
    assert schedule.total_value == value_of(want)
    assert schedule.group_heads() == heads_of(want)
    assert schedule.pending_count == len(pending)
    heads: dict[float, Packet] = {}
    for p in sorted(pending, key=canonical_key):
        heads.setdefault(p.deadline, p)
    assert schedule.heads() == list(heads.values())
    # step reads MG's heads off every deadline's first key: the greedy always
    # keeps the top pending packet, and a rejected packet due after the first
    # scheduled one is worth no more than it.
    if pending:
        assert max(p.value for p in want) == max(p.value for p in pending)
        e, rejected = want[0], set(pending) - set(want)
        assert all(p.value <= e.value for p in rejected if p.deadline > e.deadline)


def _send(schedule: IncrementalSchedule, pending: list[Packet], p: Packet, t: int, expired=None) -> list[Packet]:
    """Send p at step t on both sides (by send, unless `expired` holds what
    a step that sent it returned); return the pending packets left at t + 1."""
    pending = [q for q in pending if q is not p]
    if expired is None:
        expired = schedule.send(p)
    assert expired == sorted(q.id for q in pending if q.deadline <= t)
    return [q for q in pending if q.deadline > t]


def _step(schedule: IncrementalSchedule, pending: list[Packet], params: PolicyParams, t: int):
    """One step of the policy's send rule, which must send what mg_select picks
    from the heads read just before it; return the packet sent and the
    pending packets left at t + 1."""
    mg = params.kind is PolicyKind.MG
    want = mg_select(schedule.group_heads() if mg else schedule.heads(), params)
    sent, expired = schedule.step(params.alpha, params.beta, mg)
    assert sent is want
    return sent, _send(schedule, pending, sent, t, expired)


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 5), st.lists(_event, max_size=80))
def test_incremental_schedule_equals_rebuild_after_every_event(start, events):
    t = start
    schedule = IncrementalSchedule(t)
    pending: list[Packet] = []
    for pid, (kind, offset, value, pick) in enumerate(events):
        if kind == "arrive":
            p = Packet(pid, t, UNBOUNDED if offset == 6 else t + offset, value)
            schedule.insert(p)
            pending.append(p)
        elif pending:
            if kind == "step":  # the send rule of one of the policies
                _, pending = _step(schedule, pending, STEP_POLICIES[pick % len(STEP_POLICIES)], t)
            elif kind == "send":  # a scheduled packet, as MG sends
                scheduled = schedule.snapshot()
                pending = _send(schedule, pending, scheduled[pick % len(scheduled)], t)
            else:  # any pending packet, rejected ones too, as EDF may send
                pending = _send(schedule, pending, pending[pick % len(pending)], t)
            t += 1
        _assert_is_rebuild(schedule, pending, t)


def _after_one_send(pending: list[Packet], sent_id: int) -> IncrementalSchedule:
    schedule = IncrementalSchedule(1)
    for p in pending:
        schedule.insert(p)
    _assert_is_rebuild(schedule, pending, 1)
    sent = next(p for p in pending if p.id == sent_id)
    _assert_is_rebuild(schedule, _send(schedule, pending, sent, 1), 2)
    return schedule


def test_send_with_no_tight_deadline_ahead_keeps_the_rest():
    # Slots 1-3 hold a (deadline 2), f and g; b waits behind a at deadline 2,
    # h behind f and g at 3.  Nothing before f's deadline is tight, so all
    # that moves is f leaving.
    a, b, f, g, h = mk(0, 1, 2, 4.0), mk(1, 1, 2, 1.0), mk(2, 1, 3, 5.0), mk(3, 1, 3, 3.0), mk(4, 1, 3, 2.0)
    schedule = _after_one_send([a, b, f, g, h], sent_id=2)
    assert [p.id for p in schedule.snapshot()] == [0, 3]


def test_send_past_a_tight_deadline_readmits_and_rejects():
    # a is due in slot 1, so sending f there loses a; f's place goes to h,
    # the best packet waiting past a's deadline.
    a, f, g, h = mk(0, 1, 1, 3.0), mk(1, 1, 3, 5.0), mk(2, 1, 3, 4.0), mk(3, 1, 3, 1.0)
    schedule = _after_one_send([a, f, g, h], sent_id=1)
    assert [p.id for p in schedule.snapshot()] == [2, 3]


def test_send_past_two_tight_deadlines_rejects_through_the_first():
    # Deadlines 1 and 2 are both tight ahead of f, nothing waits past them,
    # and the slot-1 packet a is the one lost: not b, the cheapest through 2.
    a, b, f = mk(0, 1, 1, 5.0), mk(1, 1, 2, 1.0), mk(2, 1, 4, 9.0)
    schedule = _after_one_send([a, b, f], sent_id=2)
    assert [p.id for p in schedule.snapshot()] == [1]


def test_send_a_rejected_packet():
    # r waits behind b at deadline 2; sending it in slot 1 loses a, due there.
    a, b, r = mk(0, 1, 1, 5.0), mk(1, 1, 2, 4.0), mk(2, 1, 2, 1.0)
    schedule = _after_one_send([a, b, r], sent_id=2)
    assert [p.id for p in schedule.snapshot()] == [1]


# (buffer at t = 1, the ids that STEP_POLICIES send from it, in that order)
STEP_CASES = [
    # x, due at 1, is rejected: y and z fill slots 1 and 2.  So MG's first
    # head is y and EDF's is x.
    ((mk(0, 1, 1, 1.0), mk(1, 1, 2, 5.0), mk(2, 1, 2, 4.0)), (1, 1, 1, 1, 0)),
    # e (1.0) fails 2 / phi; 1.5 passes that, but not beta * v_e = phi.
    ((mk(0, 1, 1, 1.0), mk(1, 1, 2, 1.5), mk(2, 1, 3, 2.0)), (2, 2, 0, 0, 0)),
]


@pytest.mark.parametrize("buffer, sent_ids", STEP_CASES)
def test_step_sends_what_mg_select_picks_from_the_policys_heads(buffer, sent_ids):
    for params, sent_id in zip(STEP_POLICIES, sent_ids):
        schedule = IncrementalSchedule(1)
        for p in buffer:
            schedule.insert(p)
        sent, _ = _step(schedule, list(buffer), params, 1)
        assert sent.id == sent_id, params.describe()


def test_group_heads_are_first_packet_of_each_deadline():
    pending = [mk(0, 1, 2, 1.0), mk(1, 1, 2, 3.0), mk(2, 1, 4, 2.0), mk(3, 1, UNBOUNDED, 1.0), mk(4, 1, UNBOUNDED, 5.0)]
    schedule = IncrementalSchedule(1)
    for p in pending:
        schedule.insert(p)
    assert [p.id for p in schedule.group_heads()] == [1, 2, 4]
    assert schedule.group_heads() == heads_of(optimal_provisional_schedule(pending, 1))
    assert IncrementalSchedule(1).group_heads() == heads_of(optimal_provisional_schedule([], 1)) == []


@pytest.mark.parametrize("target", [100, 250, 400])
def test_incremental_value_equals_assignment_oracle_at_hundreds_pending(target):
    """Random insert/send histories that hold `target` pending packets or so,
    with dyadic values (so every sum is exact) and some UNBOUNDED deadlines:
    after each burst of inserts and each send, the schedule's value is the
    assignment optimum of the pending packets, all taken as released now.
    Sends take a scheduled head, as MG does, or any pending packet, as
    EDF_alpha may."""
    rng = Random(f"assignment:{target}")
    t = rng.randint(1, 50)
    schedule = IncrementalSchedule(t)
    pending: list[Packet] = []
    pid = 0
    for _ in range(120):
        if len(pending) < target and rng.random() < 0.6:
            for _ in range(rng.randint(1, target // 4)):  # a burst of arrivals, one insert each
                deadline = UNBOUNDED if rng.random() < 0.1 else t + rng.randint(0, target // 2)
                p = Packet(pid, t, deadline, rng.randint(1, 64) / 8.0)
                pid += 1
                schedule.insert(p)
                pending.append(p)
        elif pending:
            p = rng.choice(schedule.group_heads()) if rng.random() < 0.7 else rng.choice(pending)
            pending = _send(schedule, pending, p, t)
            t += 1
        assert schedule.pending_count == len(pending)
        now = Instance(tuple(Packet(p.id, t, p.deadline, p.value) for p in pending))
        assert schedule.total_value == assignment_opt(now)


# (kind, deadline offset, value, pick, reads of total_value after the event).
# Four deadlines crowd the slots, so arrivals are often rejected and sends
# past a tight deadline re-admit them.
_read_event = st.tuples(
    st.sampled_from(["arrive", "arrive", "arrive", "send", "send-any", "step"]),
    st.integers(0, 3),
    st.sampled_from([1.0, 3.0, 0.1, 5e-324, 1.0 + 2**-52, 1e300]),
    st.integers(0, 10**6),
    st.sampled_from([0, 0, 1, 2]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_read_event, max_size=60))
def test_total_value_read_anywhere_is_the_fsum_of_the_schedule(events):
    # Reads come after some events, twice in a row after others, and the
    # events convert no value to units: only a read folds the log.
    converted = []
    to_units = provisional._units
    with mock.patch.object(provisional, "_units", lambda v: converted.append(v) or to_units(v)):
        t = 1
        schedule = IncrementalSchedule(t)
        pending: list[Packet] = []
        for pid, (kind, offset, value, pick, reads) in enumerate(events):
            if kind == "arrive":
                p = Packet(pid, t, t + offset, value)
                schedule.insert(p)
                pending.append(p)
            elif pending:
                scheduled = schedule.snapshot()
                pool = scheduled if kind == "send" and scheduled else pending
                pending = _send(schedule, pending, pool[pick % len(pool)], t)
                t += 1
            assert converted == []
            for _ in range(reads):
                assert schedule.total_value == value_of(schedule.snapshot())
                converted.clear()
        assert schedule.total_value == value_of(optimal_provisional_schedule(pending, t))


def test_values_at_is_the_fsum_of_each_prefix_of_the_log():
    # More distinct values than the replay's memo keeps, each logged in and
    # out, with tiny and huge ones that a float running sum would lose.
    rng = Random(20)
    pool = [rng.uniform(0.1, 100.0) for _ in range(3000)] + [5e-324, 1e300, 1.0 + 2**-52]
    changes: list[float] = []
    live: list[float] = []
    for _ in range(8000):
        if live and rng.random() < 0.45:
            changes.append(-live.pop(rng.randrange(len(live))))
        else:
            live.append(rng.choice(pool))
            changes.append(live[-1])
    positions = sorted(rng.sample(range(len(changes) + 1), 400)) + [len(changes)] * 2
    assert list(values_at(changes, positions)) == [math.fsum(changes[:pos]) for pos in positions]
