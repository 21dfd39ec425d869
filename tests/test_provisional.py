from __future__ import annotations

import math
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_best_pending_value, heads_of, mk
from mgsched.model import UNBOUNDED, Packet
from mgsched.policies import EmptyBufferError, PolicyParams, mg_select
from mgsched.provisional import IncrementalSchedule, canonical_key, optimal_provisional_schedule

GREEDY = PolicyParams.mg(1.0, 1.0)  # sends h: the first head of the top value
HEAD_FIRST = PolicyParams.mg(UNBOUNDED, 1.0)  # sends e: the first scheduled packet


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
# Offset 6 stands for UNBOUNDED; three values make equal values common.
_event = st.tuples(
    st.sampled_from(["arrive", "arrive", "arrive", "send", "discard", "step"]),
    st.integers(0, 6),
    st.integers(1, 3),
    st.integers(0, 10**6),
)


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 5), st.lists(_event, max_size=80))
def test_incremental_schedule_equals_rebuild_after_every_event(start, events):
    t = start
    schedule = IncrementalSchedule(t)
    pending: list[Packet] = []
    for pid, (kind, offset, value, pick) in enumerate(events):
        if kind == "arrive":
            p = Packet(pid, t, UNBOUNDED if offset == 6 else t + offset, float(value))
            schedule.insert(p)
            pending.append(p)
        elif kind == "send" and pending:  # a scheduled packet leaves
            scheduled = schedule.snapshot()
            p = scheduled[pick % len(scheduled)]
            schedule.remove(p)
            pending.remove(p)
        elif kind == "discard" and pending:  # any pending packet leaves, rejected ones too
            p = pending[pick % len(pending)]
            schedule.remove(p)
            pending.remove(p)
        elif kind == "step":
            expired = schedule.advance()
            t += 1
            assert expired == sorted(p.id for p in pending if p.deadline < t)
            pending = [p for p in pending if p.deadline >= t]
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


def test_group_heads_are_first_packet_of_each_deadline():
    pending = [mk(0, 1, 2, 1.0), mk(1, 1, 2, 3.0), mk(2, 1, 4, 2.0), mk(3, 1, UNBOUNDED, 1.0), mk(4, 1, UNBOUNDED, 5.0)]
    schedule = IncrementalSchedule(1)
    for p in pending:
        schedule.insert(p)
    assert [p.id for p in schedule.group_heads()] == [1, 2, 4]
    assert schedule.group_heads() == heads_of(optimal_provisional_schedule(pending, 1))
    assert IncrementalSchedule(1).group_heads() == heads_of(optimal_provisional_schedule([], 1)) == []
