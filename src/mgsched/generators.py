"""Seeded instance generators: general random, variant-constrained, adversarial.

Variant generators build the requested pairwise property by construction
(sorted coupling of the constrained fields, with equal keys forced to equal
partners) and are pure functions of their spec.  Values are drawn from a
dyadic grid so that value sums and policy comparisons are float-exact.

Every random integer comes from the bound getrandbits of Random(spec.seed),
by the rule Random.randrange(w) follows on Python 3.10 to 3.13: draw
w.bit_length() bits until the result is below w (so even w = 1 uses bits).
The draws are made in a fixed order, so an instance's bytes depend only on
the seed's Mersenne Twister words, which Python keeps stable, and not on
randrange's private algorithm, which it does not promise to keep.

The adversarial family drives MG(phi, phi) toward competitive ratio 2: each
stage floods cheap same-step expiring packets (kept first in the provisional
schedule), mid-value packets whose deadlines all land after the last stage,
and top-value unbounded packets that MG keeps choosing.  MG sends only the
unbounded packets; the offline optimum banks the mid-value packets during the
run and drains the unbounded ones afterwards, nearly doubling MG's take.
"""

from __future__ import annotations

import math
from itertools import accumulate
from random import Random
from typing import Callable

from .model import ALL_VARIANTS, PHI, UNBOUNDED, VARIANT_GENERAL, VARIANT_RULES, Frozen, Instance, Packet

#: Values lie on the grid lo + k * (hi - lo) / VALUE_GRID_STEPS, k = 0..VALUE_GRID_STEPS.
VALUE_GRID_STEPS = 4096
_VALUE_LO, _VALUE_HI = 0.5, 8.5
_GRID_WIDTH = VALUE_GRID_STEPS + 1  # k is drawn from range(_GRID_WIDTH)
_GRID_BITS = _GRID_WIDTH.bit_length()
_GRID_STEP = (_VALUE_HI - _VALUE_LO) / VALUE_GRID_STEPS

_GetRandBits = Callable[[int], int]

#: The largest lower-bound family LowerBoundSpec accepts, in packets: k = 21
#: gives 12 582 449, and each k past it about doubles the count.
LB_MAX_PACKETS = 2**24


class GenSpec(Frozen):
    """Parameters of one seeded random instance."""

    __slots__ = ("variant", "n", "max_slack", "seed")

    def __init__(self, variant: str, n: int, max_slack: int = 8, seed: int = 0):
        if variant not in ALL_VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        # Exact ints: a bool would reach the meta line as true, and a float
        # seed is one that no `mgsched gen --seed` reproduces.
        for name, value in (("n", n), ("max_slack", max_slack), ("seed", seed)):
            if type(value) is not int:
                raise ValueError(f"{name} must be an int, got {value!r}")
        if n < 0:
            raise ValueError("n must be >= 0")
        if max_slack < 0:
            raise ValueError("max_slack must be >= 0")
        if seed < 0:  # Random(-s) seeds as Random(s) does: two metas, one instance
            raise ValueError("seed must be >= 0")
        self._init(variant, n, max_slack, seed)


def _draws(getrandbits: _GetRandBits, width: int, count: int) -> list[int]:
    """`count` draws from range(width), each made as Random.randrange(width)
    makes it; _build_general inlines the same loop."""
    bits = width.bit_length()
    out = []
    for _ in range(count):
        r = getrandbits(bits)
        while r >= width:
            r = getrandbits(bits)
        out.append(r)
    return out


def _grid_values(getrandbits: _GetRandBits, count: int) -> list[float]:
    return [_VALUE_LO + k * _GRID_STEP for k in _draws(getrandbits, _GRID_WIDTH, count)]


def _releases(getrandbits: _GetRandBits, n: int) -> list[int]:
    """n releases drawn from 1..max(1, 2n // 3), sorted."""
    return [r + 1 for r in sorted(_draws(getrandbits, max(1, (2 * n) // 3), n))]


def _sorted_class_values(getrandbits: _GetRandBits, count: int, increasing: bool) -> list[float]:
    values = sorted(_grid_values(getrandbits, count))
    return values if increasing else values[::-1]


def _build_general(getrandbits: _GetRandBits, spec: GenSpec) -> list[Packet]:
    slack_width = spec.max_slack + 1
    slack_bits = slack_width.bit_length()
    packets = []
    for i, r in enumerate(_releases(getrandbits, spec.n)):
        # Each packet's slack, then its grid value: _draws' loop, inlined.
        s = getrandbits(slack_bits)
        while s >= slack_width:
            s = getrandbits(slack_bits)
        k = getrandbits(_GRID_BITS)
        while k >= _GRID_WIDTH:
            k = getrandbits(_GRID_BITS)
        packets.append(Packet(i, r, r + s, _VALUE_LO + k * _GRID_STEP))
    return packets


def _build_deadline_coupled(getrandbits: _GetRandBits, spec: GenSpec, increasing: bool) -> list[Packet]:
    """Deadline follows release order; equal releases share a deadline."""
    releases = _releases(getrandbits, spec.n)
    distinct = sorted(set(releases))
    if increasing:
        slacks = _draws(getrandbits, spec.max_slack + 1, len(distinct))
        deadlines = list(accumulate((r + s for r, s in zip(distinct, slacks)), max))
    else:
        # Walk releases from the latest backwards; every deadline must cover
        # the largest release, so the tail anchors the whole chain.  The last
        # of the len(distinct) steps is drawn but never used.
        (slack,) = _draws(getrandbits, spec.max_slack + 1, 1)
        steps = _draws(getrandbits, 3, len(distinct))
        deadlines = list(accumulate(steps[:-1], initial=distinct[-1] + slack))[::-1]
    deadline_of = dict(zip(distinct, deadlines))
    values = _grid_values(getrandbits, spec.n)
    return [Packet(i, r, deadline_of[r], v) for i, (r, v) in enumerate(zip(releases, values))]


def _build_value_coupled(getrandbits: _GetRandBits, spec: GenSpec, increasing: bool) -> list[Packet]:
    """Value follows release order; equal releases share a value."""
    releases = _releases(getrandbits, spec.n)
    distinct = sorted(set(releases))
    value_of = dict(zip(distinct, _sorted_class_values(getrandbits, len(distinct), increasing)))
    slacks = _draws(getrandbits, spec.max_slack + 1, spec.n)
    return [Packet(i, r, r + s, value_of[r]) for i, (r, s) in enumerate(zip(releases, slacks))]


def _build_key_value_coupled(getrandbits: _GetRandBits, spec: GenSpec, key: str, increasing: bool) -> list[Packet]:
    """Value follows deadline (or slack) order; equal keys share a value."""
    releases = _releases(getrandbits, spec.n)
    slacks = _draws(getrandbits, spec.max_slack + 1, spec.n)
    deadlines = [r + s for r, s in zip(releases, slacks)]
    keys = deadlines if key == "deadline" else slacks
    distinct = sorted(set(keys))
    value_of = dict(zip(distinct, _sorted_class_values(getrandbits, len(distinct), increasing)))
    return [Packet(i, r, d, value_of[k]) for i, (r, d, k) in enumerate(zip(releases, deadlines, keys))]


def generate(spec: GenSpec) -> Instance:
    """Instance satisfying spec.variant by construction; same seed, same bytes."""
    getrandbits = Random(spec.seed).getrandbits
    if spec.n == 0:
        packets: list[Packet] = []
    elif spec.variant == VARIANT_GENERAL:
        packets = _build_general(getrandbits, spec)
    else:
        key, coupled, increasing = VARIANT_RULES[spec.variant]
        if coupled == "deadline":
            packets = _build_deadline_coupled(getrandbits, spec, increasing)
        elif key == "release":
            packets = _build_value_coupled(getrandbits, spec, increasing)
        else:
            packets = _build_key_value_coupled(getrandbits, spec, key, increasing)
    meta = {
        "variant": spec.variant,
        "n": spec.n,
        "max_slack": spec.max_slack,
        "value_range": [_VALUE_LO, _VALUE_HI],
        "seed": spec.seed,
    }
    return Instance(tuple(packets), meta)


# ---------------------------------------------------------------------------
# Adversarial lower-bound family for MG(phi, phi).
# ---------------------------------------------------------------------------


class LowerBoundSpec(Frozen):
    """Stage count k (instance has ~2^(k+1) steps) and the value perturbation."""

    __slots__ = ("k", "epsilon")

    def __init__(self, k: int, epsilon: float = 1e-6):
        if type(k) is not int:  # a bool is no count, though Python counts it as an int
            raise ValueError(f"k must be an int, got {k!r}")
        if k < 1:
            raise ValueError("k must be >= 1")
        try:
            bound = 1 / (10 * PHI ** (k + 1))
        except OverflowError:  # phi^(k+1) is past the float range for k >= 1474: no epsilon fits
            bound = 0.0
        if not 0 < epsilon < bound:
            raise ValueError(f"epsilon must lie in (0, 1/(10*phi^(k+1))) = (0, {bound:.3e})")
        size = lower_bound_size(k)  # k < 1474 here, so counting is cheap
        if size > LB_MAX_PACKETS:
            raise ValueError(f"the family at k={k} has {size} packets; at most {LB_MAX_PACKETS} are built")
        self._init(k, epsilon)


def _stage_lengths(k: int) -> list[int]:
    """Halving-style stage lengths; stage 1 dominates, later stages shrink."""
    if k < 2:
        return []
    lengths = [2**k - k + 2]
    for i in range(2, k):
        lengths.append(2 ** (k + 1 - i) - k + i)
    return lengths


def lower_bound_size(k: int) -> int:
    """Packets in generate_lower_bound's family at stage count k, counted
    without building them: three per stage step, the two of the flourish
    step, and one per wind-down step."""
    lengths = _stage_lengths(k)
    if not lengths:
        return 2
    ends = list(accumulate(lengths))  # S_i
    last_mid_deadline = max(end + length for end, length in zip(ends, lengths))
    return 3 * ends[-1] + 2 + max(0, last_mid_deadline - ends[-1] - 1)


def generate_lower_bound(spec: LowerBoundSpec) -> Instance:
    """Stage-structured adversarial instance; see the module docstring.

    Per step t of stage i (i = 1..k-1):
      cheap packet  value (1-eps)*phi^(i-1), deadline t (expires unsent),
      mid packet    value (1-2*eps)*phi^i,   deadline S_i + L_i,
      top packet    value phi^i,             deadline UNBOUNDED.
    One flourish step follows (phi^k expiring / phi^(k+1)+eps unbounded), then
    a wind-down tail of single unbounded packets stepping phi down as the mid
    deadlines pass, so MG never finds a mid packet worth sending.

    Every comparison MG makes is checked here to hold by margin
    >= eps*(phi-1); a failure raises ValueError.
    """
    k, eps = spec.k, spec.epsilon
    # The tightest comparison sits exactly eps*(phi-1) clear in real arithmetic;
    # allow 1% for float rounding at phi^k scale.
    margin = eps * (PHI - 1.0) * 0.99
    packets: list[Packet] = []
    pid = 0

    def clear(gap: float, stage: str, comparison: str) -> None:
        if not gap >= margin:
            raise ValueError(
                f"epsilon {eps!r} is too small for k={k}: at {stage} {comparison} by only {gap:.3e}, "
                f"below the margin {margin:.3e}"
            )

    def emit(release: int, deadline: float, value: float) -> None:
        nonlocal pid
        packets.append(Packet(pid, release, deadline, value))
        pid += 1

    lengths = _stage_lengths(k)
    starts: list[int] = []  # S_{i-1} + 1 for each stage
    ends: list[int] = []  # S_i
    t = 1
    for L in lengths:
        starts.append(t)
        ends.append(t + L - 1)
        t += L
    f_deadline = [ends[i] + lengths[i] for i in range(len(lengths))]  # S_i + L_i

    for i, L in enumerate(lengths, start=1):
        e_val = (1.0 - eps) * PHI ** (i - 1)
        f_val = (1.0 - 2.0 * eps) * PHI**i
        h_val = PHI**i
        # MG must skip the cheap packet, skip every mid packet, send the top.
        clear(PHI ** (i - 1) - e_val, f"stage {i}", "the cheap packet fails v_e >= v_h/alpha")
        threshold = max(PHI ** (i - 1), PHI * e_val)
        clear(threshold - f_val, f"stage {i}", "the mid packets fail the send rule")
        clear(h_val - threshold, f"stage {i}", "the top packet qualifies")
        for step in range(starts[i - 1], ends[i - 1] + 1):
            emit(step, step, e_val)
            emit(step, f_deadline[i - 1], f_val)
            emit(step, UNBOUNDED, h_val)

    flourish = (ends[-1] + 1) if lengths else 1
    final_f = PHI**k
    final_h = PHI ** (k + 1) + eps
    clear(final_h / PHI - final_f, "the flourish step", "the expiring packet fails the e-check")
    emit(flourish, flourish, final_f)
    emit(flourish, UNBOUNDED, final_h)

    # Wind-down: while mid packets survive, keep releasing a top packet one
    # rung above the best survivor; the alpha-rule blocks everything below it.
    t = flourish + 1
    while lengths:
        alive = [i for i in range(len(lengths)) if f_deadline[i] >= t]
        if not alive:
            break
        rung = max(alive) + 1  # youngest surviving stage
        f_val = (1.0 - 2.0 * eps) * PHI**rung
        h_val = PHI ** (rung + 1)
        clear(PHI**rung - f_val, f"wind-down step {t}", "the surviving mid packets stay blocked")
        emit(t, UNBOUNDED, h_val)
        t += 1

    meta = {"family": "lower-bound", "k": k, "epsilon": eps, "seed": k}
    return Instance(tuple(packets), meta)


def lb_ratio_formula(k: int) -> float:
    """Closed form that OPT/ALG on generate_lower_bound(k) approaches; tends to 2.

    It is not the family's measured ratio at any given k: MG(phi, phi) on
    generate_lower_bound(1) gives OPT/ALG = phi, against 1.5802 here, and at
    k = 8 it gives 1.9181, against 1.9376.
    """
    if type(k) is not int:  # a bool is no count, though Python counts it as an int
        raise ValueError(f"k must be an int, got {k!r}")
    if k < 1:
        raise ValueError("k must be >= 1")
    # (2x - phi^2/2) / (x - 1/2), written as 2 minus a term that shrinks as x
    # grows, so that the rounded result never decreases in k: it reads 2.0,
    # its limit, from k = 168 on.  Capping k keeps (2/phi)^k in the float
    # range, which it leaves at k = 3350 (2x at 3346).
    x = (2.0 / PHI) ** min(k, 1000)
    return 2.0 - (PHI**2 / 2.0 - 1.0) / (x - 0.5)
