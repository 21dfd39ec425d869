"""Seeded instance generators: general random, variant-constrained, adversarial.

Variant generators build the requested pairwise property by construction
(sorted coupling of the constrained fields, with equal keys forced to equal
partners) and are pure functions of their spec.  Values are drawn from a
dyadic grid so that value sums and policy comparisons are float-exact.

The adversarial family drives MG(phi, phi) toward competitive ratio 2: each
stage floods cheap same-step expiring packets (kept first in the provisional
schedule), mid-value packets whose deadlines all land after the last stage,
and top-value unbounded packets that MG keeps choosing.  MG sends only the
unbounded packets; the offline optimum banks the mid-value packets during the
run and drains the unbounded ones afterwards, nearly doubling MG's take.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from random import Random

from .model import ALL_VARIANTS, PHI, UNBOUNDED, VARIANT_GENERAL, VARIANT_RULES, Instance, Packet

#: Values lie on the grid lo + k * (hi - lo) / VALUE_GRID_STEPS, k = 0..VALUE_GRID_STEPS.
VALUE_GRID_STEPS = 4096
_VALUE_LO, _VALUE_HI = 0.5, 8.5


@dataclass(frozen=True)
class GenSpec:
    """Parameters of one seeded random instance."""

    variant: str
    n: int
    max_slack: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.variant not in ALL_VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.n < 0:
            raise ValueError("n must be >= 0")
        if self.max_slack < 0:
            raise ValueError("max_slack must be >= 0")


def _grid_value(rng: Random) -> float:
    return _VALUE_LO + rng.randrange(VALUE_GRID_STEPS + 1) * ((_VALUE_HI - _VALUE_LO) / VALUE_GRID_STEPS)


def _release_window(n: int) -> int:
    return max(1, (2 * n) // 3)


def _releases(rng: Random, spec: GenSpec) -> list[int]:
    window = _release_window(spec.n)
    return sorted(rng.randint(1, window) for _ in range(spec.n))


def _release_groups(releases: list[int]) -> list[tuple[int, int]]:
    """(release, multiplicity) in increasing release order."""
    return [(r, len(list(g))) for r, g in groupby(releases)]


def _sorted_class_values(rng: Random, count: int, increasing: bool) -> list[float]:
    values = sorted(_grid_value(rng) for _ in range(count))
    return values if increasing else values[::-1]


def _build_general(rng: Random, spec: GenSpec) -> list[Packet]:
    packets = []
    for i, r in enumerate(_releases(rng, spec)):
        d = r + rng.randint(0, spec.max_slack)
        packets.append(Packet(i, r, d, _grid_value(rng)))
    return packets


def _build_deadline_coupled(rng: Random, spec: GenSpec, increasing: bool) -> list[Packet]:
    """Deadline follows release order; equal releases share a deadline."""
    groups = _release_groups(_releases(rng, spec))
    deadlines: list[int] = []
    if increasing:
        d = 0
        for r, _ in groups:
            d = max(d, r + rng.randint(0, spec.max_slack))
            deadlines.append(d)
    else:
        # Walk groups from the latest release backwards; every deadline must
        # cover the largest release, so the tail anchors the whole chain.
        r_max = groups[-1][0] if groups else 1
        rev: list[int] = []
        d = r_max + rng.randint(0, spec.max_slack)
        for _ in reversed(groups):
            rev.append(d)
            d += rng.randint(0, 2)
        deadlines = rev[::-1]
    packets = []
    i = 0
    for (r, count), d in zip(groups, deadlines):
        for _ in range(count):
            packets.append(Packet(i, r, d, _grid_value(rng)))
            i += 1
    return packets


def _build_value_coupled(rng: Random, spec: GenSpec, increasing: bool) -> list[Packet]:
    """Value follows release order; equal releases share a value."""
    groups = _release_groups(_releases(rng, spec))
    class_values = _sorted_class_values(rng, len(groups), increasing)
    packets = []
    i = 0
    for (r, count), v in zip(groups, class_values):
        for _ in range(count):
            packets.append(Packet(i, r, r + rng.randint(0, spec.max_slack), v))
            i += 1
    return packets


def _build_key_value_coupled(rng: Random, spec: GenSpec, key: str, increasing: bool) -> list[Packet]:
    """Value follows deadline (or slack) order; equal keys share a value."""
    base = []
    for i, r in enumerate(_releases(rng, spec)):
        s = rng.randint(0, spec.max_slack)
        base.append((i, r, r + s, s))
    keys = sorted({(d if key == "deadline" else s) for _, _, d, s in base})
    class_values = dict(zip(keys, _sorted_class_values(rng, len(keys), increasing)))
    return [
        Packet(i, r, d, class_values[d if key == "deadline" else s])
        for i, r, d, s in base
    ]


def generate(spec: GenSpec) -> Instance:
    """Instance satisfying spec.variant by construction; same seed, same bytes."""
    rng = Random(spec.seed)
    if spec.n == 0:
        packets: list[Packet] = []
    elif spec.variant == VARIANT_GENERAL:
        packets = _build_general(rng, spec)
    else:
        key, coupled, increasing = VARIANT_RULES[spec.variant]
        if coupled == "deadline":
            packets = _build_deadline_coupled(rng, spec, increasing)
        elif key == "release":
            packets = _build_value_coupled(rng, spec, increasing)
        else:
            packets = _build_key_value_coupled(rng, spec, key, increasing)
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


@dataclass(frozen=True)
class LowerBoundSpec:
    """Stage count k (instance has ~2^(k+1) steps) and the value perturbation."""

    k: int
    epsilon: float = 1e-6

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        try:
            bound = 1 / (10 * PHI ** (self.k + 1))
        except OverflowError:  # phi^(k+1) is past the float range for k >= 1474: no epsilon fits
            bound = 0.0
        if not 0 < self.epsilon < bound:
            raise ValueError(f"epsilon must lie in (0, 1/(10*phi^(k+1))) = (0, {bound:.3e})")


def _stage_lengths(k: int) -> list[int]:
    """Halving-style stage lengths; stage 1 dominates, later stages shrink."""
    if k < 2:
        return []
    lengths = [2**k - k + 2]
    for i in range(2, k):
        lengths.append(2 ** (k + 1 - i) - k + i)
    return lengths


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
    if k < 1:
        raise ValueError("k must be >= 1")
    x = (2.0 / PHI) ** k
    return (2.0 * x - PHI**2 / 2.0) / (x - 0.5)
