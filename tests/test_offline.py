from __future__ import annotations

import math
from random import Random

import pytest

from conftest import assignment_opt, inst_of, mk
from mgsched.analysis import derive_seed, table1_cells
from mgsched.generators import GenSpec, LowerBoundSpec, generate, generate_lower_bound
from mgsched.model import ALL_VARIANTS, UNBOUNDED, Instance, Packet
from mgsched.offline import (
    RatioReport,
    SizeLimitError,
    _chain_shift,
    _exchange,
    _walk_budget,
    brute_force_optimal,
    empirical_ratio,
    offline_optimal,
    ratio_csv_row,
)
from mgsched.policies import PolicyParams, simulate
from mgsched.provisional import _priority


def test_single_packet():
    assert offline_optimal(inst_of(mk(0, 1, 1, 4.0))).total_value == 4.0


def test_one_slot_keeps_larger():
    s = offline_optimal(inst_of(mk(0, 1, 1, 1.0), mk(1, 1, 1, 3.0)))
    assert s.total_value == 3.0
    assert s.assignments == ((1, 1),)


def test_three_packet_example_matches_oracle():
    inst = inst_of(mk(0, 1, 1, 1.0), mk(1, 1, 2, 10.0), mk(2, 2, 2, 2.0))
    assert brute_force_optimal(inst).total_value == 12.0
    assert offline_optimal(inst).total_value == 12.0


def test_brute_force_trivial():
    assert brute_force_optimal(Instance(())).total_value == 0.0
    assert brute_force_optimal(inst_of(mk(0, 3, 7, 2.5))).total_value == 2.5


def test_brute_force_size_limit():
    inst = Instance(tuple(Packet(i, 1, 9, 1.0) for i in range(11)))
    with pytest.raises(SizeLimitError):
        brute_force_optimal(inst)


def test_assignments_respect_windows_and_distinct_slots():
    rng = Random(2)
    for _ in range(100):
        packets = tuple(
            Packet(i, rng.randint(1, 5), rng.randint(1, 5) + rng.randint(0, 5), rng.randint(1, 64) / 8.0)
            for i in range(rng.randint(1, 9))
        )
        packets = tuple(Packet(p.id, p.release, max(p.release, p.deadline), p.value) for p in packets)
        inst = Instance(packets)
        sched = offline_optimal(inst)
        by_id = {p.id: p for p in packets}
        slots = [slot for _, slot in sched.assignments]
        assert len(slots) == len(set(slots))
        for pid, slot in sched.assignments:
            assert by_id[pid].release <= slot <= by_id[pid].deadline
        assert sched.total_value == sum(by_id[pid].value for pid, _ in sched.assignments)


def test_matching_equals_brute_force_on_random_instances():
    rng = Random(4)
    for _ in range(250):
        seed = rng.getrandbits(48)
        n = rng.randint(1, 8)
        inst = generate(GenSpec("general", n, max_slack=5, seed=seed))
        assert offline_optimal(inst).total_value == brute_force_optimal(inst).total_value


def test_opt_dominates_every_policy():
    rng = Random(6)
    for _ in range(60):
        inst = generate(GenSpec("general", rng.randint(1, 25), seed=rng.getrandbits(48)))
        opt = offline_optimal(inst).total_value
        for params in (PolicyParams.mg(1.0, 1.0), PolicyParams.mg(1.5, 1.25), PolicyParams.edf(2.0)):
            assert opt >= simulate(inst, params).total_value - 1e-12


def test_horizon_cap_is_lossless():
    rng = Random(8)
    for _ in range(40):
        inst = generate(GenSpec("general", rng.randint(1, 15), seed=rng.getrandbits(48)))
        base = offline_optimal(inst).total_value
        # widen the cap by padding phantom never-sendable packets is intrusive;
        # instead re-run with extra slots by appending a far-future packet and
        # removing its own contribution
        far = Packet(10**6, inst.max_release + len(inst) + 7, UNBOUNDED, 1e-9)
        widened = Instance(inst.packets + (far,))
        assert offline_optimal(widened).total_value - 1e-9 <= base + 1e-12


def test_unbounded_deadlines_drain_after_releases():
    inst = Instance(tuple(Packet(i, 1, UNBOUNDED, 1.0) for i in range(5)))
    assert offline_optimal(inst).total_value == 5.0


def test_ratio_report_conventions():
    assert RatioReport.from_values(0.0, 0.0).ratio == 1.0
    assert RatioReport.from_values(3.0, 0.0).ratio == math.inf
    assert RatioReport.from_values(3.0, 2.0).ratio == 1.5


def test_empirical_ratio_trivial_and_bounded_below():
    inst = inst_of(mk(0, 1, 1, 4.0))
    report = empirical_ratio(inst, PolicyParams.mg(1.0, 1.0))
    assert report.ratio == 1.0
    rng = Random(10)
    for _ in range(40):
        inst = generate(GenSpec("general", rng.randint(1, 20), seed=rng.getrandbits(48)))
        assert empirical_ratio(inst, PolicyParams.mg(1.5, 1.5)).ratio >= 1.0 - 1e-12


def test_ratio_csv_row_shape():
    inst = generate(GenSpec("general", 5, seed=123))
    params = PolicyParams.mg(UNBOUNDED, 1.0)
    row = ratio_csv_row(empirical_ratio(inst, params), inst, params)
    fields = row.split(",")
    assert len(fields) == 8
    assert fields[0] == "123" and fields[1] == "general" and fields[2] == "mg" and fields[3] == "inf"


# ---------------------------------------------------------------------------
# The two exact solvers: the chain shift and the matroid exchange.


def _order(inst: Instance) -> list[Packet]:
    return sorted(inst.packets, key=_priority)


def _shift_ids(inst: Instance) -> set[int]:
    slots = _chain_shift(_order(inst), inst.slot_cap(), math.inf)
    return {p.id for p in slots.values()}


def _exchange_ids(inst: Instance) -> set[int]:
    return {p.id for p in _exchange(_order(inst))}


def _exchange_value(inst: Instance) -> float:
    return math.fsum(p.value for p in _exchange(_order(inst)))


def _shift_within_budget(inst: Instance) -> bool:
    order = _order(inst)
    return _chain_shift(order, inst.slot_cap(), _walk_budget(len(order))) is not None


def test_both_solvers_equal_the_assignment_oracle_at_hundreds_of_packets():
    rng = Random(12)
    for variant in ALL_VARIANTS:
        for _ in range(2):
            inst = generate(GenSpec(variant, rng.randint(100, 200), max_slack=rng.choice((3, 8, 20)),
                                    seed=rng.getrandbits(48)))
            want = assignment_opt(inst)  # dyadic values: every sum is exact
            assert offline_optimal(inst).total_value == want, variant
            assert _exchange_value(inst) == want, variant


def test_both_solvers_match_the_assignment_oracle_on_the_lower_bound_family():
    for k in range(1, 7):
        inst = generate_lower_bound(LowerBoundSpec(k, 1e-6))
        want = assignment_opt(inst)  # values are not dyadic: sums depend on order
        assert offline_optimal(inst).total_value == pytest.approx(want, rel=1e-9, abs=0.0), k
        assert _exchange_value(inst) == pytest.approx(want, rel=1e-9, abs=0.0), k


def test_exchange_equals_brute_force_on_small_instances():
    rng = Random(14)
    for _ in range(300):
        inst = generate(GenSpec(rng.choice(ALL_VARIANTS), rng.randint(1, 10), max_slack=rng.choice((1, 3, 8)),
                                seed=rng.getrandbits(48)))
        assert _exchange_value(inst) == brute_force_optimal(inst).total_value


def test_both_solvers_choose_the_same_set():
    rng = Random(16)
    for _ in range(300):
        inst = generate(GenSpec(rng.choice(ALL_VARIANTS), rng.randint(1, 60), max_slack=rng.choice((1, 3, 8, 20)),
                                seed=rng.getrandbits(48)))
        assert _shift_ids(inst) == _exchange_ids(inst)
    # equal values: the strict (-value, deadline, id) order alone decides
    tied = Instance(tuple(Packet(i, 1 + i % 3, 1 + i % 3 + i % 5, 1.0) for i in range(12)))
    assert _shift_ids(tied) == _exchange_ids(tied)
    for k in range(1, 9):
        inst = generate_lower_bound(LowerBoundSpec(k, 1e-6))
        assert _shift_ids(inst) == _exchange_ids(inst), k


def test_exchange_path_returns_a_valid_witness():
    inst = generate_lower_bound(LowerBoundSpec(8, 1e-6))
    assert not _shift_within_budget(inst)  # so offline_optimal takes the exchange solver
    sched = offline_optimal(inst)
    by_id = {p.id: p for p in inst.packets}
    slots = [slot for _, slot in sched.assignments]
    assert len(slots) == len(set(slots)) == len(_exchange_ids(inst))
    for pid, slot in sched.assignments:
        assert by_id[pid].release <= slot <= min(by_id[pid].deadline, inst.slot_cap())
    assert sched.total_value == math.fsum(by_id[pid].value for pid, _ in sched.assignments)


def test_chain_shift_gives_up_early_on_the_lower_bound_family():
    # The budget grows with the packets read, so a long walk is dropped near
    # the start of the greedy order rather than after a fixed total.
    inst = generate_lower_bound(LowerBoundSpec(10, 1e-6))
    order = _order(inst)
    read = 0

    def counted():
        nonlocal read
        for p in order:
            read += 1
            yield p

    assert _chain_shift(counted(), inst.slot_cap(), _walk_budget(len(order))) is None
    assert read <= 300, read  # 272 of 6033 packets


def test_walk_budget_sends_each_benchmark_shape_to_its_solver():
    # The adversarial family's chain shift walks far past n*log2(n) slots.
    assert not _shift_within_budget(generate_lower_bound(LowerBoundSpec(8, 1e-6)))
    # The ratio sweep's instances (the nine table1 cells, n <= 40) stay on the chain shift.
    for cell in table1_cells():
        for trial in range(200):
            seed = derive_seed(0, cell.variant, trial)
            n = Random(seed).randint(1, cell.n)
            inst = generate(GenSpec(cell.variant, n, max_slack=cell.max_slack, seed=seed))
            assert _shift_within_budget(inst), (cell.variant, trial)
    # So do 100 bursts of 30 general packets, 5000 steps apart.
    rng = Random(18)
    packets = []
    for b in range(100):
        burst = generate(GenSpec("general", 30, max_slack=8, seed=rng.getrandbits(32)))
        packets.extend(Packet(30 * b + p.id, p.release + 5000 * b, p.deadline + 5000 * b, p.value) for p in burst)
    assert _shift_within_budget(Instance(tuple(packets)))
