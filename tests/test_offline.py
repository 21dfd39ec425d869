from __future__ import annotations

import math
from random import Random

import pytest

from conftest import inst_of, mk
from mgsched.generators import GenSpec, generate
from mgsched.model import UNBOUNDED, Instance, Packet
from mgsched.offline import (
    RatioReport,
    SizeLimitError,
    brute_force_optimal,
    empirical_ratio,
    offline_optimal,
    ratio_csv_row,
)
from mgsched.policies import PolicyParams, simulate


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
