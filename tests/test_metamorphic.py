"""Metamorphic relations that both engines must keep exactly, at any size and
with no oracle: moving every window in time and relabelling the ids in order
change nothing but the times and the ids, scaling every value by a power of
two changes nothing but the values, and deleting a packet that OPT leaves out
changes nothing that OPT chooses.  Deleting a packet OPT chooses, or adding
one, changes OPT's chosen set by at most that packet and one exchange."""

from __future__ import annotations

import math
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mgsched.generators import GenSpec, LowerBoundSpec, generate, generate_lower_bound
from mgsched.model import ALL_VARIANTS, PHI, UNBOUNDED, Instance, Packet
from mgsched.offline import RatioReport, offline_optimal
from mgsched.policies import PolicyParams, simulate

POLICIES = (
    PolicyParams.mg(PHI, PHI),
    PolicyParams.mg(1.0, 1.0),  # Greedy
    PolicyParams.mg(UNBOUNDED, 1.0),
    PolicyParams.edf(2.0),
    PolicyParams.edf(UNBOUNDED),
)

#: Generated instances of every variant at up to 60 packets, and the
#: lower-bound family at k = 1 to 8.
instances = st.one_of(
    st.builds(
        lambda variant, n, seed: generate(GenSpec(variant, n, seed=seed)),
        st.sampled_from(ALL_VARIANTS),
        st.integers(0, 60),
        st.integers(0, 2**32 - 1),
    ),
    st.builds(lambda k: generate_lower_bound(LowerBoundSpec(k, 1e-6)), st.integers(1, 8)),
)


def _rebuilt(inst: Instance, packet) -> Instance:
    return Instance(tuple(packet(p) for p in inst.packets), inst.meta)


def _rebuilt_without(inst: Instance, gone: Packet) -> Instance:
    return Instance(tuple(p for p in inst.packets if p is not gone), inst.meta)


def _opt_ids(inst: Instance) -> tuple[float, dict[int, int]]:
    """OPT's total and its slot -> packet id map."""
    schedule = offline_optimal(inst)
    return schedule.total_value, {s: p.id for s, p in schedule.slots.items()}


@settings(max_examples=50, deadline=None)
@given(instances, st.integers(1, 10**9))
def test_a_time_shift_moves_every_send_and_opt_slot(inst, c):
    shifted = _rebuilt(inst, lambda p: Packet(p.id, p.release + c, p.deadline + c, p.value))  # inf + c is inf
    for params in POLICIES:
        base, moved = simulate(inst, params), simulate(shifted, params)
        assert moved.sends == tuple(s._replace(t=s.t + c) for s in base.sends), params
        assert moved.dropped_expired == base.dropped_expired, params
        assert moved.total_value.hex() == base.total_value.hex(), params
    total, slots = _opt_ids(inst)
    moved_total, moved_slots = _opt_ids(shifted)
    assert moved_slots == {s + c: pid for s, pid in slots.items()}
    assert moved_total.hex() == total.hex()


@settings(max_examples=50, deadline=None)
@given(instances, st.lists(st.integers(1, 10**6), min_size=1))
def test_an_increasing_relabelling_maps_every_send_and_opt_id(inst, gaps):
    # The map sends the i-th smallest id to the sum of the first i + 1 gaps,
    # the last gap repeating when the instance has more ids than gaps.
    new_id, at = {}, 0
    for i, pid in enumerate(sorted(p.id for p in inst.packets)):
        at += gaps[min(i, len(gaps) - 1)]
        new_id[pid] = at
    relabelled = _rebuilt(inst, lambda p: Packet(new_id[p.id], p.release, p.deadline, p.value))
    for params in POLICIES:
        base, mapped = simulate(inst, params), simulate(relabelled, params)
        assert mapped.sends == tuple(s._replace(sent_id=new_id[s.sent_id]) for s in base.sends), params
        assert mapped.dropped_expired == tuple(new_id[pid] for pid in base.dropped_expired), params
        assert mapped.total_value.hex() == base.total_value.hex(), params
    total, slots = _opt_ids(inst)
    mapped_total, mapped_slots = _opt_ids(relabelled)
    assert mapped_slots == {s: new_id[pid] for s, pid in slots.items()}
    assert mapped_total.hex() == total.hex()


@settings(max_examples=50, deadline=None)
@given(instances, st.integers(-900, 900))
def test_scaling_every_value_by_a_power_of_two_scales_only_the_values(inst, k):
    # Every value is at least 0.5 and their sum below 2**100, so no scaled
    # value or sum leaves the normal range: each product, quotient and
    # rounded sum the engines form scales exactly, and every comparison holds.
    def scale(x: float) -> float:
        return math.ldexp(x, k)

    assert all(p.value >= 0.5 for p in inst.packets) and math.fsum(p.value for p in inst.packets) < 2.0**100
    scaled = _rebuilt(inst, lambda p: Packet(p.id, p.release, p.deadline, scale(p.value)))
    total, slots = _opt_ids(inst)
    scaled_total, scaled_slots = _opt_ids(scaled)
    assert scaled_slots == slots
    assert scaled_total.hex() == scale(total).hex()
    for params in POLICIES:
        base, moved = simulate(inst, params), simulate(scaled, params)
        assert moved.sends == tuple(
            s._replace(sent_value=scale(s.sent_value), schedule_value=scale(s.schedule_value)) for s in base.sends
        ), params
        assert moved.dropped_expired == base.dropped_expired, params
        assert moved.total_value.hex() == scale(base.total_value).hex(), params
        ratio = RatioReport.from_values(total, base.total_value).ratio
        assert RatioReport.from_values(scaled_total, moved.total_value).ratio.hex() == ratio.hex(), params


@settings(max_examples=50, deadline=None)
@given(instances, st.integers(0, 2**32 - 1))
def test_deleting_a_packet_opt_leaves_out_keeps_the_chosen_set(inst, pick):
    # The chosen set is the matroid greedy's basis: a packet it leaves out
    # was dependent on packets that outrank it, so no choice ever read it.
    total, slots = _opt_ids(inst)
    chosen = set(slots.values())
    left_out = [p for p in inst.packets if p.id not in chosen]
    assume(left_out)
    gone = left_out[pick % len(left_out)]
    smaller_total, smaller_slots = _opt_ids(_rebuilt_without(inst, gone))
    assert set(smaller_slots.values()) == chosen
    assert smaller_total.hex() == total.hex()


def _exact_value(inst: Instance, ids) -> Fraction:
    by_id = {p.id: p for p in inst.packets}
    return sum((Fraction(by_id[pid].value) for pid in ids), Fraction(0))


@settings(max_examples=50, deadline=None)
@given(instances, st.integers(0, 2**32 - 1))
def test_deleting_a_chosen_packet_exchanges_at_most_one_packet(inst, pick):
    # Matroid basis exchange: without p, the greedy's basis is B - p, or
    # B - p + q for a q that ranks after p, so OPT loses between 0 and v_p.
    total, slots = _opt_ids(inst)
    chosen = set(slots.values())
    assume(chosen)
    gone = next(p for p in inst.packets if p.id == sorted(chosen)[pick % len(chosen)])
    smaller = _rebuilt_without(inst, gone)
    smaller_total, smaller_slots = _opt_ids(smaller)
    after = set(smaller_slots.values())
    assert chosen - after == {gone.id}
    swapped_in = after - chosen
    assert len(swapped_in) <= 1
    assert all(_exact_value(inst, [q]) <= Fraction(gone.value) for q in swapped_in)
    assert _exact_value(inst, chosen) - Fraction(gone.value) <= _exact_value(smaller, after)
    assert smaller_total <= total  # fsum rounds each exact sum, and rounding keeps their order


@settings(max_examples=50, deadline=None)
@given(instances, st.data())
def test_adding_a_packet_exchanges_at_most_one_packet(inst, data):
    # The greedy's basis with p added is B, B + p, or B + p - q for a q that
    # ranks after p.  A drawn value repeats one of the instance's half the
    # time, so that ties fall to the deadline and id order.
    values = [p.value for p in inst.packets]
    release = data.draw(st.integers(1, inst.max_release + 2))
    slack = data.draw(st.none() | st.integers(0, 8))
    value = data.draw(st.sampled_from(values) if values and data.draw(st.booleans()) else st.floats(0.5, 64.0))
    added = Packet(max((p.id for p in inst.packets), default=-1) + 1, release,
                   UNBOUNDED if slack is None else release + slack, value)
    total, slots = _opt_ids(inst)
    chosen = set(slots.values())
    larger_total, larger_slots = _opt_ids(Instance(inst.packets + (added,), inst.meta))
    after = set(larger_slots.values())
    assert after - chosen <= {added.id}
    dropped = chosen - after
    assert len(dropped) <= 1
    if dropped:
        assert added.id in after
        assert all(_exact_value(inst, [q]) <= Fraction(added.value) for q in dropped)
    assert larger_total >= total
