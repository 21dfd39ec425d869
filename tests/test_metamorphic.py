"""Metamorphic relations that both engines must keep exactly, at any size and
with no oracle: moving every window in time and relabelling the ids in order
change nothing but the times and the ids."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from mgsched.generators import GenSpec, LowerBoundSpec, generate, generate_lower_bound
from mgsched.model import ALL_VARIANTS, PHI, UNBOUNDED, Instance, Packet
from mgsched.offline import offline_optimal
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
