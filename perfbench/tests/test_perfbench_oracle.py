"""The assignment oracle against mgsched's exhaustive and fast optima."""

from __future__ import annotations

import math
import sys
from pathlib import Path
from random import Random

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from mgsched.generators import GenSpec, LowerBoundSpec, generate, generate_lower_bound  # noqa: E402
from mgsched.model import ALL_VARIANTS, UNBOUNDED, Instance, Packet  # noqa: E402
from mgsched.offline import brute_force_optimal, offline_optimal  # noqa: E402
from oracle import oracle_opt  # noqa: E402


def test_oracle_matches_brute_force_on_tiny_generated_instances():
    for variant in ALL_VARIANTS:
        for seed in range(15):
            n = Random(seed).randint(1, 8)
            inst = generate(GenSpec(variant, n, max_slack=3, seed=seed))
            assert oracle_opt(inst) == brute_force_optimal(inst).total_value, (variant, seed)


def test_oracle_matches_brute_force_with_unbounded_deadlines():
    rng = Random(7)
    for _ in range(200):
        packets = []
        for i in range(rng.randint(1, 8)):
            r = rng.randint(1, 4)
            d = UNBOUNDED if rng.random() < 0.3 else r + rng.randint(0, 3)
            packets.append(Packet(i, r, d, rng.randint(1, 64) / 8.0))
        inst = Instance(tuple(packets))
        assert oracle_opt(inst) == brute_force_optimal(inst).total_value, packets


def test_oracle_on_empty_and_single_packet():
    assert oracle_opt(Instance(())) == 0.0
    assert oracle_opt(Instance((Packet(0, 5, 5, 2.5),))) == 2.5


def test_oracle_matches_offline_optimal_on_the_lower_bound_family():
    for k in range(1, 6):
        inst = generate_lower_bound(LowerBoundSpec(k, 1e-7))
        assert math.isclose(oracle_opt(inst), offline_optimal(inst).total_value, rel_tol=1e-9), k
