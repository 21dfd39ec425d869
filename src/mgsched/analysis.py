"""Numeric bound checks and competitive-ratio sweeps.

chain_bound evaluates the closed-form cap on how much a charging chain can
award the adversary relative to the algorithm; check_chain tests concrete
chains against it.  sweep runs seeded generate/simulate/ratio grids and
aggregates a per-cell report with a reproducible argmax seed.
"""

from __future__ import annotations

import hashlib
import math
from random import Random
from typing import Iterable, NamedTuple, Sequence

from .generators import GenSpec, _draws, generate
from .model import (
    ALL_VARIANTS,
    FLOAT_MAX,
    PHI,
    UNBOUNDED,
    VARIANT_AGREEABLE_DEADLINE,
    VARIANT_AGREEABLE_DEADLINE_VALUE,
    VARIANT_AGREEABLE_SLACK_VALUE,
    VARIANT_ANTI_AGREEABLE_DEADLINE_VALUE,
    VARIANT_ANTI_AGREEABLE_SLACK_VALUE,
    VARIANT_ANTI_AGREEABLE_VALUE,
    Frozen,
)
from .offline import empirical_ratio
from .policies import PolicyParams


class PremiseError(ValueError):
    pass


class ChainInstance(Frozen):
    """A charging chain: adversary values q_1..q_k vs algorithm values p_1..p_k.

    Premises: 1 < alpha < inf, every value positive and at most FLOAT_MAX,
    each side's sum at most FLOAT_MAX, q_i <= alpha * p_i and
    q_i <= p_{i+1} for i < k, and q_k <= p_k.  A
    chain that breaks one cannot be made: it raises PremiseError.
    """

    __slots__ = ("alpha", "q_values", "p_values")

    def __init__(self, alpha: float, q_values: tuple[float, ...], p_values: tuple[float, ...]):
        if not 1 < alpha <= FLOAT_MAX:  # NaN, inf and an int past FLOAT_MAX fail too
            raise PremiseError(f"alpha must be a finite real > 1, got {alpha}")
        if len(q_values) != len(p_values) or not q_values:
            raise PremiseError("q and p must be equal-length, non-empty")
        # Each test is written so that a NaN fails it.
        if any(not 0 < v <= FLOAT_MAX for v in q_values + p_values):  # an int past FLOAT_MAX has no float
            raise PremiseError("chain values must be positive and finite")
        try:  # check_chain sums each side, and finite values can sum past the float range
            math.fsum(q_values), math.fsum(p_values)
        except OverflowError:
            raise PremiseError("chain values must sum within the float range") from None
        for i in range(len(q_values) - 1):
            if not q_values[i] <= alpha * p_values[i]:
                raise PremiseError(f"q_{i+1} > alpha * p_{i+1}")
            if not q_values[i] <= p_values[i + 1]:
                raise PremiseError(f"q_{i+1} > p_{i+2}")
        if not q_values[-1] <= p_values[-1]:
            raise PremiseError("q_k > p_k")
        self._init(alpha, q_values, p_values)

    @property
    def k(self) -> int:
        return len(self.q_values)


def chain_bound(alpha: float, k: int) -> float:
    """((2 - 1/alpha) * alpha^k - alpha) / (alpha^k - 1); increasing in k,
    bounded above by 2 - 1/alpha.  Evaluated through x = alpha^-k, which
    underflows to 0 (the limit) where alpha^k would overflow."""
    if not 1 < alpha <= FLOAT_MAX:  # NaN fails; inf would give inf * 0; an int past FLOAT_MAX has no float
        raise ValueError(f"chain_bound requires a finite alpha > 1, got {alpha}")
    if type(k) is not int or k < 1:  # a bool is no count, though Python counts it as an int
        raise ValueError(f"k must be an integer >= 1, got {k!r}")
    try:
        x = alpha**-k
    except OverflowError:  # a k past the float range: the limit
        x = 0.0
    return ((2.0 - 1.0 / alpha) - alpha * x) / (1.0 - x)


def check_chain(chain: ChainInstance) -> bool:
    """True iff sum(q) <= chain_bound(alpha, k) * sum(p)."""
    return math.fsum(chain.q_values) <= chain_bound(chain.alpha, chain.k) * math.fsum(chain.p_values)


def random_chain(rng: Random, alpha: float, k: int) -> ChainInstance:
    """Premise-satisfying chain: draw p freely, derive q below its caps."""
    p = [rng.uniform(0.1, 10.0) for _ in range(k)]
    q = []
    for i in range(k - 1):
        q.append(min(alpha * p[i], p[i + 1]) * rng.uniform(0.05, 1.0))
    q.append(p[-1] * rng.uniform(0.05, 1.0))
    return ChainInstance(alpha, tuple(q), tuple(p))


def extremal_chain(alpha: float, k: int) -> ChainInstance:
    """Chain built from the bound's tight pattern, each q_i shrunk by a factor
    1 - 1e-9 below its cap; the ratio approaches the bound."""
    p = [1.0]
    q = []
    for _ in range(k - 1):
        q.append(alpha * p[-1] * (1.0 - 1e-9))
        p.append(q[-1])
    q.append(p[-1])
    return ChainInstance(alpha, tuple(q), tuple(p))


# ---------------------------------------------------------------------------
# Ratio sweeps.
# ---------------------------------------------------------------------------


class SweepCell(Frozen):
    """One sweep cell: a variant, a policy, and the largest size and slack of
    its trials' instances."""

    __slots__ = ("variant", "params", "n", "max_slack")

    def __init__(self, variant: str, params: PolicyParams, n: int = 40, max_slack: int = 8):
        # Checked here, not at the first trial, which may run in a worker.
        if variant not in ALL_VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        if not isinstance(params, PolicyParams):
            raise ValueError(f"params must be a PolicyParams, got {params!r}")
        for name, value in (("n", n), ("max_slack", max_slack)):
            if type(value) is not int:  # a bool is no count, though Python counts it as an int
                raise ValueError(f"{name} must be an int, got {value!r}")
        if n < 1:
            raise ValueError(f"a sweep cell needs n >= 1 packets per trial, got n={n}")
        if max_slack < 0:
            raise ValueError(f"max_slack must be >= 0, got {max_slack}")
        self._init(variant, params, n, max_slack)


class SweepRow(NamedTuple):
    variant: str
    kind: str
    alpha: float
    beta: float
    trials: int
    max_ratio: float
    mean_ratio: float
    argmax_seed: int


class SweepReport(NamedTuple):
    rows: tuple[SweepRow, ...]

    CSV_HEADER = "variant,kind,alpha,beta,trials,max_ratio,mean_ratio,argmax_seed"

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for r in self.rows:
            lines.append(
                ",".join(
                    [
                        r.variant,
                        r.kind,
                        repr(r.alpha),
                        repr(r.beta),
                        str(r.trials),
                        repr(r.max_ratio),
                        repr(r.mean_ratio),
                        str(r.argmax_seed),
                    ]
                )
            )
        return "\n".join(lines) + "\n"

    def to_table(self) -> str:
        widths = (32, 28, 12, 12)
        header = f"{'variant':<{widths[0]}}{'policy':<{widths[1]}}{'max ratio':>{widths[2]}}{'mean ratio':>{widths[3]}}"
        lines = [header, "-" * len(header)]
        for r in self.rows:
            policy = f"{r.kind}(a={r.alpha:.6g}, b={r.beta:.6g})"
            lines.append(
                f"{r.variant:<{widths[0]}}{policy:<{widths[1]}}{r.max_ratio:>{widths[2]}.6f}{r.mean_ratio:>{widths[3]}.6f}"
            )
        return "\n".join(lines) + "\n"


def derive_seed(base_seed: int, label: str, trial: int) -> int:
    """Stable 64-bit per-trial seed; independent of execution order."""
    digest = hashlib.sha256(f"{base_seed}:{label}:{trial}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _run_trial(task: tuple[SweepCell, int, int]) -> tuple[float, int]:
    cell, base_seed, trial = task
    seed = derive_seed(base_seed, cell.variant, trial)
    n = 1 + _draws(Random(seed).getrandbits, cell.n, 1)[0]  # generators' draw rule
    inst = generate(GenSpec(cell.variant, n, max_slack=cell.max_slack, seed=seed))
    report = empirical_ratio(inst, cell.params)
    return report.ratio, seed


def sweep(
    cells: Sequence[SweepCell],
    trials: int,
    seed: int,
    jobs: int = 1,
) -> SweepReport:
    """Run every cell for `trials` seeded instances; deterministic for any jobs."""
    if trials < 1:
        raise ValueError(f"a sweep needs at least one trial, got {trials}")
    if jobs < 1:
        raise ValueError(f"a sweep needs at least one job, got {jobs}")
    # One map over every (cell, trial); both maps return results in task order.
    tasks = [(cell, seed, trial) for cell in cells for trial in range(trials)]
    workers = min(jobs, len(tasks))  # a pool starts all its workers at once
    if workers <= 1:
        outcomes = list(map(_run_trial, tasks))
    else:
        # Imported here: the pool pulls in multiprocessing, which every other
        # command would pay for at start-up.
        from concurrent.futures import ProcessPoolExecutor

        # Four chunks a worker, so that the cells' unequal costs even out.
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_trial, tasks, chunksize=max(1, len(tasks) // (4 * workers))))
    rows = []
    for i, cell in enumerate(cells):
        results = outcomes[i * trials : (i + 1) * trials]
        ratios = [r for r, _ in results]
        max_ratio = max(ratios)
        argmax_seed = next(s for r, s in results if r == max_ratio)
        # A plain loop, not sum(): from Python 3.12 on, sum() of floats is
        # compensated, so the mean (and the sweep CSV) would differ by version.
        total = 0.0
        for r in ratios:
            total += r
        mean_ratio = total / len(ratios)
        rows.append(
            SweepRow(
                variant=cell.variant,
                kind=cell.params.kind.value,
                alpha=cell.params.alpha,
                beta=cell.params.beta,
                trials=trials,
                max_ratio=max_ratio,
                mean_ratio=mean_ratio,
                argmax_seed=argmax_seed,
            )
        )
    return SweepReport(tuple(rows))


def table1_cells(n: int = 40, max_slack: int = 8) -> list[SweepCell]:
    """One representative policy cell per variant: the parameterization whose
    bound the sweep probes (phi-style settings where those apply, the
    earliest-deadline limit where the policy is value-optimal)."""
    phi_cells = {
        VARIANT_AGREEABLE_DEADLINE: PolicyParams.mg(PHI, PHI),
        VARIANT_AGREEABLE_DEADLINE_VALUE: PolicyParams.mg(PHI**2, PHI**2),
        VARIANT_AGREEABLE_SLACK_VALUE: PolicyParams.mg(PHI, PHI),
        VARIANT_ANTI_AGREEABLE_VALUE: PolicyParams.mg(UNBOUNDED, 1.0),
        VARIANT_ANTI_AGREEABLE_DEADLINE_VALUE: PolicyParams.mg(UNBOUNDED, 1.0),
        VARIANT_ANTI_AGREEABLE_SLACK_VALUE: PolicyParams.mg(UNBOUNDED, 1.0),
    }
    default = PolicyParams.mg(PHI, PHI)
    return [SweepCell(variant, phi_cells.get(variant, default), n, max_slack) for variant in ALL_VARIANTS]
