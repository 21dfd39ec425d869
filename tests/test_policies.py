from __future__ import annotations

import math
from random import Random

import pytest

from conftest import heads_of, inst_of, mk, value_order_held
from mgsched.model import PHI, UNBOUNDED, Instance, Packet
from mgsched.offline import brute_force_optimal
from mgsched.policies import (
    EmptyBufferError,
    PolicyKind,
    PolicyParams,
    edf_alpha_select,
    mg_select,
    simulate,
)
from mgsched.provisional import optimal_provisional_schedule


def _schedule(*packets):
    """The group heads of the optimal provisional schedule at t = 1."""
    return heads_of(optimal_provisional_schedule(list(packets), 1))


def test_params_validation():
    with pytest.raises(ValueError):
        PolicyParams.mg(1.0, 1.5)  # beta > alpha
    with pytest.raises(ValueError):
        PolicyParams(PolicyKind.MG, 0.5, 0.5)
    with pytest.raises(ValueError, match="alpha must be >= 1, got nan"):
        PolicyParams.mg(math.nan, 1.0)
    with pytest.raises(ValueError, match="alpha must be >= 1, got nan"):
        PolicyParams.edf(math.nan)
    assert PolicyParams.mg(UNBOUNDED, 3.0).alpha == UNBOUNDED


def test_mg_select_tie_sends_e():
    s = _schedule(mk(0, 1, 1, 1.0), mk(1, 1, 2, 1.3), mk(2, 1, 3, PHI))
    assert mg_select(s, PolicyParams.mg(PHI, PHI)).id == 0  # v_e = v_h/alpha exactly


def test_mg_select_skips_to_qualifying_packet():
    s = _schedule(mk(0, 1, 1, 0.9), mk(1, 1, 2, 1.3), mk(2, 1, 3, PHI))
    # threshold max(1.0, phi*0.9 ~ 1.456): the 1.3 packet fails, h qualifies
    assert mg_select(s, PolicyParams.mg(PHI, PHI)).id == 2


def test_mg_select_unbounded_alpha_sends_e():
    s = _schedule(mk(0, 1, 1, 0.01), mk(1, 1, 2, 99.0))
    assert mg_select(s, PolicyParams.mg(UNBOUNDED, 5.0)).id == 0


def test_mg_sent_value_always_at_least_h_over_alpha():
    rng = Random(5)
    for _ in range(300):
        pending = [
            Packet(i, 1, 1 + rng.randint(0, 5), rng.randint(1, 64) / 8.0)
            for i in range(rng.randint(1, 7))
        ]
        s = optimal_provisional_schedule(pending, 1)
        alpha = rng.choice([1.0, 1.25, PHI, 2.0, PHI**2])
        beta = min(alpha, rng.choice([1.0, 1.2, PHI]))
        chosen = mg_select(heads_of(s), PolicyParams.mg(alpha, beta))
        top = max(p.value for p in s)
        assert chosen.value >= top / alpha


def test_edf_alpha_one_is_greedy():
    pending = [mk(0, 1, 9, 5.0), mk(1, 1, 1, 3.0)]
    assert edf_alpha_select(pending, 1.0).id == 0


def test_edf_alpha_threshold_example():
    pending = [mk(0, 1, 1, 1.0), mk(1, 1, 5, 2.0)]
    assert edf_alpha_select(pending, 2.0).id == 0


def test_edf_singleton_and_empty():
    assert edf_alpha_select([mk(0, 1, 1, 1.0)], 3.0).id == 0
    with pytest.raises(EmptyBufferError):
        edf_alpha_select([], 2.0)


def test_greedy_examples():
    greedy = PolicyParams.mg(1.0, 1.0)  # Greedy: a highest-value packet
    assert mg_select(_schedule(mk(0, 1, 9, 5.0), mk(1, 1, 1, 3.0)), greedy).id == 0
    assert mg_select(_schedule(mk(0, 1, 9, 5.0), mk(1, 1, 1, 5.0)), greedy).id == 1  # tie: earlier deadline
    assert mg_select(_schedule(mk(0, 1, 9, 5.0)), greedy).id == 0
    with pytest.raises(EmptyBufferError):
        mg_select(_schedule(), greedy)


def test_simulate_single_packet_any_policy():
    inst = inst_of(mk(0, 1, 1, 4.0))
    for params in (PolicyParams.mg(1.0, 1.0), PolicyParams.mg(PHI, PHI), PolicyParams.edf(2.0)):
        trace = simulate(inst, params)
        assert trace.total_value == 4.0
        assert trace.sent_ids == (0,)
        assert trace.steps[0].t == 1


def test_simulate_greedy_drops_expiring_small_packet():
    inst = inst_of(mk(0, 1, 1, 1.0), mk(1, 1, 2, 10.0))
    trace = simulate(inst, PolicyParams.mg(1.0, 1.0))
    assert trace.total_value == 10.0
    assert trace.dropped_expired == (0,)


def test_simulate_unbounded_alpha_keeps_both():
    inst = inst_of(mk(0, 1, 1, 1.0), mk(1, 1, 2, 10.0))
    trace = simulate(inst, PolicyParams.mg(UNBOUNDED, 1.0))
    assert trace.sent_ids == (0, 1)
    assert trace.total_value == 11.0


def test_simulate_trace_is_well_formed():
    rng = Random(9)
    for _ in range(60):
        packets = tuple(
            Packet(i, rng.randint(1, 6), rng.randint(0, 6) + rng.randint(1, 6), rng.randint(1, 64) / 8.0)
            for i in range(rng.randint(1, 12))
        )
        packets = tuple(Packet(p.id, p.release, max(p.release, p.deadline), p.value) for p in packets)
        inst = Instance(packets)
        trace = simulate(inst, PolicyParams.mg(PHI, PHI))
        by_id = {p.id: p for p in packets}
        assert len(set(trace.sent_ids)) == len(trace.sent_ids)  # nothing sent twice
        for step in trace.steps:
            if step.sent_id is not None:
                p = by_id[step.sent_id]
                assert p.release <= step.t <= p.deadline
        assert trace.total_value == sum(s.sent_value for s in trace.steps)
        # every packet is sent or expired, never lost
        assert len(trace.sent_ids) + len(trace.dropped_expired) == len(packets)


def test_simulate_unbounded_alpha_sends_schedule_head():
    rng = Random(21)
    for _ in range(40):
        packets = tuple(
            Packet(i, rng.randint(1, 5), rng.randint(1, 5) + rng.randint(0, 5), rng.randint(1, 64) / 8.0)
            for i in range(rng.randint(1, 9))
        )
        packets = tuple(Packet(p.id, p.release, max(p.release, p.deadline), p.value) for p in packets)
        trace = simulate(Instance(packets), PolicyParams.mg(UNBOUNDED, 1.0))
        # replay: at each step the sent packet must be the canonical head
        pending: list[Packet] = []
        by_t: dict[int, list[Packet]] = {}
        for p in packets:
            by_t.setdefault(p.release, []).append(p)
        for step in trace.steps:
            pending += by_t.get(step.t, [])
            pending = [p for p in pending if p.deadline >= step.t]
            if step.sent_id is None:
                assert not pending
                continue
            head = optimal_provisional_schedule(pending, step.t)[0]
            assert step.sent_id == head.id
            pending.remove(head)


# A valid anti-agreeable slack/value instance on which the claimed schedule
# property (deadline order implies nonincreasing value) fails, and with it
# the exact-optimality of the earliest-deadline parameterization.  A packet
# released late with a later deadline but smaller slack is forced by the
# variant to carry a *larger* value than an old long-slack packet ahead of it.
SLACK_VALUE_COUNTEREXAMPLE = Instance(
    (
        Packet(0, 1, 1, 6.0),  # slack 0
        Packet(1, 1, 3, 4.0),  # slack 2: cheap, early deadline, long slack
        Packet(2, 2, 3, 5.0),  # slack 1
        Packet(3, 3, 4, 5.0),  # slack 1: later deadline, higher value than packet 1
        Packet(4, 4, 4, 6.0),  # slack 0: evicts packet 3
    )
)


def test_slack_value_property_violation_is_detected():
    from mgsched.model import classify_variants

    assert classify_variants(SLACK_VALUE_COUNTEREXAMPLE)["anti-agreeable-slack-value"]
    trace = simulate(SLACK_VALUE_COUNTEREXAMPLE, PolicyParams.mg(UNBOUNDED, 1.0))
    assert not value_order_held(SLACK_VALUE_COUNTEREXAMPLE, trace)


def test_slack_value_exactness_counterexample():
    # The earliest-deadline parameterization spends step 3 on the cheap packet
    # and loses the valuable one to the final arrival: 21 < 22.
    opt = brute_force_optimal(SLACK_VALUE_COUNTEREXAMPLE).total_value
    alg = simulate(SLACK_VALUE_COUNTEREXAMPLE, PolicyParams.mg(UNBOUNDED, 1.0)).total_value
    assert opt == 22.0
    assert alg == 21.0


# Two anti-agreeable slack/value instances that agree on every packet released
# up to t = 3.  OPT must send packet 2 at t = 3 on A (its deadline) and packet 3
# at t = 3 on B (packet 4 takes slot 4), so any deterministic online algorithm
# misses OPT on one of them: no such algorithm is exact on this class.
SLACK_VALUE_ADVERSARY_A = Instance(
    (
        Packet(0, 1, 1, 6.0),  # slack 0
        Packet(1, 2, 2, 6.0),  # slack 0
        Packet(2, 1, 3, 4.0),  # slack 2
        Packet(3, 3, 4, 5.0),  # slack 1
    )
)
SLACK_VALUE_ADVERSARY_B = Instance(SLACK_VALUE_ADVERSARY_A.packets + (Packet(4, 4, 4, 6.0),))


def test_slack_value_adversary_defeats_every_online_algorithm():
    from mgsched.model import classify_variants

    a, b = SLACK_VALUE_ADVERSARY_A, SLACK_VALUE_ADVERSARY_B
    assert classify_variants(a)["anti-agreeable-slack-value"]
    assert classify_variants(b)["anti-agreeable-slack-value"]
    assert [p for p in b.packets if p.release <= 3] == list(a.packets)
    opt_a, opt_b = brute_force_optimal(a), brute_force_optimal(b)
    assert (opt_a.total_value, opt_b.total_value) == (21.0, 23.0)
    assert (2, 3) in opt_a.assignments and (3, 3) in opt_b.assignments
    for params, want in ((PolicyParams.mg(UNBOUNDED, 1.0), (21.0, 22.0)), (PolicyParams.mg(1.0, 1.0), (17.0, 23.0))):
        assert (simulate(a, params).total_value, simulate(b, params).total_value) == want
