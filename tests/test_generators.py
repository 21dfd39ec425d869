from __future__ import annotations

import hashlib
import math
from random import Random

import pytest

from conftest import sent_ids
from mgsched.generators import (
    VALUE_GRID_STEPS,
    GenSpec,
    LowerBoundSpec,
    _build_general,
    _draws,
    generate,
    generate_lower_bound,
    lb_ratio_formula,
)
from mgsched.model import (
    ALL_VARIANTS,
    CONSTRAINED_VARIANTS,
    PHI,
    UNBOUNDED,
    classify_variants,
    dumps_instance,
    validate_instance,
)
from mgsched.offline import empirical_ratio
from mgsched.policies import PolicyParams, simulate


def test_empty_spec():
    inst = generate(GenSpec("general", 0, seed=1))
    assert len(inst) == 0
    assert inst.meta["variant"] == "general"


def test_spec_validation():
    with pytest.raises(ValueError):
        GenSpec("bogus", 5)
    with pytest.raises(ValueError):
        GenSpec("general", -1)
    # The draws take the bit length of n and max_slack, so both must be ints;
    # a bool would count one packet or one step of slack.
    for bad in (2.0, True, False, "5", None):
        with pytest.raises(ValueError):
            GenSpec("general", bad)
        with pytest.raises(ValueError):
            GenSpec("general", 5, max_slack=bad)
    # The seed goes to the meta line: true there, or a seed of 1.5, is one
    # that `mgsched gen --seed` cannot reproduce.
    for bad in (True, 1.5):
        with pytest.raises(ValueError, match="seed must be an int"):
            GenSpec("general", 2, seed=bad)


#: sha256 of every instance of the grid below, concatenated; the same on
#: Python 3.10 to 3.13.  If it moves, every sweep's instances have changed.
GRID_DIGEST = "36fec70ac765f7171e0c541b127013b3d50ea8c97d945f8b4c4a25be2cf883be"


def test_generated_bytes_are_pinned():
    digest = hashlib.sha256()
    for variant in ALL_VARIANTS:
        for n in (0, 1, 2, 3, 5, 17, 40, 97):
            for max_slack in (0, 1, 2, 8, 31):
                for seed in (0, 1, 13, 2**40 + 7):
                    inst = generate(GenSpec(variant, n, max_slack=max_slack, seed=seed))
                    digest.update(dumps_instance(inst).encode())
    assert digest.hexdigest() == GRID_DIGEST


_WIDTHS = sorted(
    set(range(1, 301))
    | {2**k for k in range(1, 41)}
    | {2**k + d for k in range(1, 41) for d in (-1, 1)}
    | {4097}
)


@pytest.mark.parametrize("seed", [0, 1, 2**40 + 7, 20260810])
def test_draws_match_randrange(seed):
    """The sampler makes randrange's draws from the same state.  If a Python
    changes randrange, this fails while the pinned bytes above still hold."""
    ours, theirs = Random(seed), Random(seed)
    for width in _WIDTHS:
        for count in (1, 3):
            drawn = _draws(ours.getrandbits, width, count)
            assert drawn == [theirs.randrange(width) for _ in range(count)], width
    assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("variant", CONSTRAINED_VARIANTS)
@pytest.mark.parametrize("seed", [7, 20260810])
def test_generated_instances_satisfy_their_variant(variant, seed):
    inst = generate(GenSpec(variant, 50, seed=seed))
    assert validate_instance(inst.packets) == []
    assert classify_variants(inst)[variant]


def test_agreeable_deadline_value_pairwise_explicitly():
    inst = generate(GenSpec("agreeable-deadline-value", 50, seed=7))
    for p in inst.packets:
        for q in inst.packets:
            if p.deadline <= q.deadline:
                assert p.value <= q.value


def test_seed_determinism_and_distinct_seeds():
    spec = GenSpec("agreeable-deadline", 100, seed=42)
    a, b = generate(spec), generate(spec)
    assert dumps_instance(a) == dumps_instance(b)
    c = generate(GenSpec("agreeable-deadline", 100, seed=43))
    assert dumps_instance(c) != dumps_instance(a)


def test_value_gaps_respect_grid():
    inst = generate(GenSpec("general", 200, seed=3))
    values = sorted({p.value for p in inst.packets})
    gaps = [b - a for a, b in zip(values, values[1:])]
    assert all(g >= 1e-9 for g in gaps)


def test_general_redraws_a_grid_draw_past_the_top():
    # One packet at n = 1, max_slack 0: a 1-bit release draw and a 1-bit
    # slack draw, then 13-bit grid draws until one is at most VALUE_GRID_STEPS.
    script = [(1, 0), (1, 0), (13, VALUE_GRID_STEPS + 1), (13, VALUE_GRID_STEPS)]

    def getrandbits(bits):
        want_bits, r = script.pop(0)
        assert bits == want_bits
        return r

    (p,) = _build_general(getrandbits, GenSpec("general", 1, max_slack=0))
    assert script == []
    assert p.value == 8.5  # the grid's top, k = VALUE_GRID_STEPS


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_generated_values_lie_on_the_grid_inside_value_range(variant):
    for seed in range(4):
        inst = generate(GenSpec(variant, 3000, max_slack=5, seed=seed))
        lo, hi = inst.meta["value_range"]
        step = (hi - lo) / VALUE_GRID_STEPS  # a power of two, so k below is exact
        for p in inst.packets:
            k = (p.value - lo) / step
            assert lo <= p.value <= hi and k == int(k), (seed, p)


# --- adversarial lower-bound family ---------------------------------------


def test_lb_spec_validation():
    with pytest.raises(ValueError):
        LowerBoundSpec(0)
    with pytest.raises(ValueError):
        LowerBoundSpec(5, epsilon=0.5)  # above the 1/(10*phi^(k+1)) ceiling
    for k in (True, 2.5):  # True would pass k >= 1 and reach the file's meta
        with pytest.raises(ValueError, match="k must be an int"):
            LowerBoundSpec(k)
    LowerBoundSpec(5, epsilon=1e-6)


def _h_only(inst, trace) -> bool:
    by_id = {p.id: p for p in inst.packets}
    return all(by_id[i].deadline == UNBOUNDED for i in sent_ids(trace))


def test_lb_k1_degenerate_sends_top_only():
    inst = generate_lower_bound(LowerBoundSpec(1))
    assert len(inst) == 2
    trace = simulate(inst, PolicyParams.mg(PHI, PHI))
    assert _h_only(inst, trace)
    assert trace.sent_count == 1


def test_lb_trace_forcing_mid_k():
    inst = generate_lower_bound(LowerBoundSpec(6))
    trace = simulate(inst, PolicyParams.mg(PHI, PHI))
    assert _h_only(inst, trace)
    # one send per release step, nothing after
    releases = {p.release for p in inst.packets}
    assert trace.sent_count == len(releases)


def test_lb_metadata_round_trip():
    inst = generate_lower_bound(LowerBoundSpec(4, epsilon=2e-7))
    assert inst.meta["k"] == 4
    assert inst.meta["epsilon"] == 2e-7
    assert validate_instance(inst.packets) == []


def test_lb_ratio_grows_toward_two():
    r3 = empirical_ratio(generate_lower_bound(LowerBoundSpec(3)), PolicyParams.mg(PHI, PHI)).ratio
    r6 = empirical_ratio(generate_lower_bound(LowerBoundSpec(6)), PolicyParams.mg(PHI, PHI)).ratio
    assert 1.0 < r3 < r6 < 2.0


def test_lb_formula_near_two_for_large_k():
    assert abs(lb_ratio_formula(60) - 2.0) < 1e-6
    # the limit, correctly rounded, also where 2 (2/phi)^k and then (2/phi)^k leave the float range
    for k in (3346, 3349, 3350, 5000, 10**6):
        assert lb_ratio_formula(k) == 2.0, k


def test_lb_formula_refuses_k_below_one():
    for k in (0, -1):
        with pytest.raises(ValueError, match="k must be >= 1"):
            lb_ratio_formula(k)
    for k in (True, 2.5):  # as LowerBoundSpec refuses them: a bool is no count
        with pytest.raises(ValueError, match="k must be an int"):
            lb_ratio_formula(k)


def test_lb_formula_in_unit_band_and_increasing():
    values = [lb_ratio_formula(k) for k in range(1, 61)]
    assert all(1.0 < v < 2.0 for v in values)
    assert all(a < b for a, b in zip(values, values[1:]))
