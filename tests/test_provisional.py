from __future__ import annotations

import math
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_best_pending_value, mk
from mgsched.model import UNBOUNDED, Packet
from mgsched.provisional import (
    EmptyScheduleError,
    IncrementalSchedule,
    canonical_key,
    e_h_of_heads,
    optimal_provisional_schedule,
)


def test_optimal_example_drops_cheap_conflicting():
    a, b, c = mk(0, 1, 1, 3.0), mk(1, 1, 1, 1.0), mk(2, 1, 2, 2.0)
    s = optimal_provisional_schedule([a, b, c], 1)
    assert [(p.id, slot) for p, slot in s.entries] == [(0, 1), (2, 2)]
    assert s.total_value == 5.0


def test_optimal_example_deadline_tie_kept_by_value():
    x, y, z = mk(0, 1, 1, 1.0), mk(1, 1, 2, 5.0), mk(2, 1, 2, 4.0)
    s = optimal_provisional_schedule([x, y, z], 1)
    assert [(p.id, slot) for p, slot in s.entries] == [(1, 1), (2, 2)]
    assert s.total_value == 9.0


def test_optimal_empty_pending():
    s = optimal_provisional_schedule([], 3)
    assert s.entries == () and s.total_value == 0.0


def test_select_e_h_example():
    entries = [mk(0, 1, 2, 1.0), mk(1, 1, 3, 7.0), mk(2, 1, 9, 7.0)]
    s = optimal_provisional_schedule(entries, 1)
    e, h = e_h_of_heads(s.group_heads())
    assert e.id == 0
    assert h.id == 1  # first of the two value-7 packets in canonical order


def test_select_e_h_singleton_and_uniform():
    s = optimal_provisional_schedule([mk(0, 1, 4, 2.0)], 1)
    assert e_h_of_heads(s.group_heads()) == (s.entries[0][0], s.entries[0][0])
    s = optimal_provisional_schedule([mk(0, 1, 2, 3.0), mk(1, 1, 5, 3.0)], 1)
    e, h = e_h_of_heads(s.group_heads())
    assert e is h


def test_select_e_h_empty_raises():
    with pytest.raises(EmptyScheduleError):
        e_h_of_heads(optimal_provisional_schedule([], 1).group_heads())


def test_unbounded_deadlines_sort_last_by_value_then_id():
    pending = [mk(0, 1, UNBOUNDED, 2.0), mk(1, 1, UNBOUNDED, 5.0), mk(2, 1, 3, 1.0)]
    s = optimal_provisional_schedule(pending, 1)
    assert [p.id for p, _ in s.entries] == [2, 1, 0]


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
    assert s.total_value == brute_best_pending_value(pending, t)


@given(_pending, st.integers(1, 5))
def test_canonical_slots_feasible_and_ordered(data, t):
    _, raw = data
    pending = [Packet(i, 1, t + off, grid / 8.0) for i, (off, grid) in enumerate(raw)]
    s = optimal_provisional_schedule(pending, t)
    for i, (p, slot) in enumerate(s.entries):
        assert slot == t + i
        assert p.deadline >= slot
    keys = [(p.deadline, -p.value, p.id) for p, _ in s.entries]
    assert keys == sorted(keys)


@given(_pending, st.integers(1, 5))
def test_highest_value_packet_always_scheduled(data, t):
    _, raw = data
    pending = [Packet(i, 1, t + off, grid / 8.0) for i, (off, grid) in enumerate(raw)]
    s = optimal_provisional_schedule(pending, t)
    top = max(p.value for p in pending)
    assert any(p.value == top for p, _ in s.entries)


# Few deadlines and few values, so that value ties and long per-deadline
# lists are common.  Offset 4 stands for UNBOUNDED.
_crowded = st.lists(st.tuples(st.integers(0, 4), st.integers(1, 3)), max_size=40)


@given(_crowded, st.integers(1, 5))
def test_each_deadline_keeps_a_prefix_in_value_order(raw, t):
    # IncrementalSchedule stores each deadline's scheduled packets as a
    # counted prefix of its pending packets; this is the fact that allows it.
    pending = [Packet(i, 1, UNBOUNDED if off == 4 else t + off, float(v)) for i, (off, v) in enumerate(raw)]
    kept = {p.id for p in optimal_provisional_schedule(pending, t).packets}
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
        base = optimal_provisional_schedule(pending[:-1], t).total_value
        assert optimal_provisional_schedule(pending, t).total_value >= base


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
            scheduled = schedule.snapshot().packets
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
        assert schedule.total_value == want.total_value
        assert schedule.group_heads() == want.group_heads()
        assert schedule.pending_count == len(pending)
        heads: dict[float, Packet] = {}
        for p in sorted(pending, key=canonical_key):
            heads.setdefault(p.deadline, p)
        assert schedule.heads() == list(heads.values())


def test_group_heads_are_first_packet_of_each_deadline():
    pending = [mk(0, 1, 2, 1.0), mk(1, 1, 2, 3.0), mk(2, 1, 4, 2.0), mk(3, 1, UNBOUNDED, 1.0), mk(4, 1, UNBOUNDED, 5.0)]
    s = optimal_provisional_schedule(pending, 1)
    assert [p.id for p in s.group_heads()] == [1, 2, 4]
    assert optimal_provisional_schedule([], 1).group_heads() == []
