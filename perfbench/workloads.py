"""The benchmark's workloads: their inputs, the commands one round runs, and
the checks on what those commands print and write.

Every input is a function of the workload seed.  The commands are the ones a
user types, run in process through mgsched.cli.main.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from functools import cache
from pathlib import Path
from random import Random
from types import SimpleNamespace

import checks
from oracle import oracle_opt

# table1-sweep: the paper's ratio experiment, nine cells of n <= 40.
SWEEP_N = 40
SWEEP_TRIALS = 200
SWEEP_SAMPLE = 10  # trials per cell whose OPT the oracle solves again
# lower-bound: the MG(phi, phi) adversarial family; k = 10 has 6033 packets.
LB_K = 10
LB_ORACLE_K = 7  # the oracle's matrix is packets x slots, so it checks a smaller k
LB_REL_TOL = 1e-9  # family values are not dyadic, so sums depend on their order
# sparse-span: bursts of small general instances separated by idle gaps.
SPARSE_BURSTS = 100
SPARSE_BURST_N = 30
SPARSE_GAP = 5000  # longer than any burst, so the bursts are independent
MAX_SLACK = 8

MG_PHI = ["--policy", "mg", "--alpha", "phi", "--beta", "phi"]


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run one mgsched command in process; return its exit code and stdout."""
    import mgsched.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = mgsched.cli.main(argv)
    return code, out.getvalue()


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write(inst, path: Path) -> None:
    from mgsched.model import dump_instance

    with open(path, "w", encoding="utf-8") as fp:
        dump_instance(inst, fp)


def _load(path: Path):
    from mgsched.model import load_instance

    with open(path, encoding="utf-8") as fp:
        return load_instance(fp)


class Workload:
    """One workload; `build` runs in set-up, `commands` once per timed round."""

    name = ""

    def build(self, seed: int, work: Path) -> None:
        pass

    def commands(self, seed: int, work: Path) -> list[list[str]]:
        raise NotImplementedError

    def written(self, work: Path) -> list[Path]:
        """Files a round writes; their digests join the round's output."""
        return []

    def output_checks(self, seed: int, work: Path, stdouts: list[str]) -> list[tuple[str, object]]:
        """(label, thunk) pairs; each thunk raises CheckFailed on a wrong output."""
        raise NotImplementedError

    def round_output(self, work: Path, stdouts: list[str]) -> tuple:
        return tuple(stdouts) + tuple(_digest(p) for p in self.written(work))


# ---------------------------------------------------------------------------


class Table1Sweep(Workload):
    name = "table1-sweep"

    def commands(self, seed, work):
        return [["sweep", "--jobs", "1", "--trials", str(SWEEP_TRIALS), "--seed", str(seed),
                 "--n", str(SWEEP_N), "--max-slack", str(MAX_SLACK), "--csv-out", str(work / "sweep.csv")]]

    def written(self, work):
        return [work / "sweep.csv"]

    def output_checks(self, seed, work, stdouts):
        from mgsched.analysis import derive_seed, table1_cells
        from mgsched.generators import GenSpec, generate
        from mgsched.offline import offline_optimal
        from mgsched.policies import simulate

        cells = {c.variant: c for c in table1_cells(n=SWEEP_N, max_slack=MAX_SLACK)}

        @cache
        def rows():
            return checks.parse_sweep_csv((work / "sweep.csv").read_text(encoding="utf-8"))

        def instance(cell, trial_seed):
            # The sweep draws each trial's size from its seed, then generates.
            n = Random(trial_seed).randint(1, cell.n)
            return generate(GenSpec(cell.variant, n, max_slack=cell.max_slack, seed=trial_seed))

        def argmax(cell):
            row = checks.row_for(rows(), cell.variant)
            inst = instance(cell, row.argmax_seed)
            checks.check_argmax_ratio(row, oracle_opt(inst), simulate(inst, cell.params).total_value)

        def sample(cell):
            for trial in Random(seed).sample(range(SWEEP_TRIALS), SWEEP_SAMPLE):
                inst = instance(cell, derive_seed(seed, cell.variant, trial))
                alg = simulate(inst, cell.params).total_value
                checks.check_opt(oracle_opt(inst), offline_optimal(inst).total_value, alg, rel_tol=0.0)

        exact = ["anti-agreeable-value", "anti-agreeable-deadline-value"]
        phi_bounded = ["agreeable-deadline", "agreeable-deadline-value", "agreeable-slack-value"]
        ops = [
            ("rows: nine, full trials, 1 <= mean <= max",
             lambda: checks.check_sweep_rows(rows(), list(cells), SWEEP_TRIALS)),
            ("exact variants: max = 1", lambda: checks.check_max_equals_one(rows(), exact)),
            ("agreeable variants: max <= phi", lambda: checks.check_max_at_most(rows(), phi_bounded, checks.PHI)),
            ("every variant: max <= 2", lambda: checks.check_max_at_most(rows(), list(cells), 2.0)),
        ]
        for cell in cells.values():
            ops.append((f"argmax seed re-solved: {cell.variant}", lambda cell=cell: argmax(cell)))
        for cell in cells.values():
            ops.append((f"oracle OPT on sampled trials: {cell.variant}", lambda cell=cell: sample(cell)))
        return ops


# ---------------------------------------------------------------------------


def lb_epsilon(seed: int) -> float:
    """The family's value perturbation, log-uniform in [1e-9, 1e-6]."""
    return 10.0 ** Random(seed).uniform(-9.0, -6.0)


class LowerBound(Workload):
    name = "lower-bound"

    def build(self, seed, work):
        from mgsched.generators import LowerBoundSpec, generate_lower_bound

        _write(generate_lower_bound(LowerBoundSpec(LB_K, lb_epsilon(seed))), work / "lb.jsonl")

    def commands(self, seed, work):
        return [
            ["run", "--in", str(work / "lb.jsonl"), *MG_PHI, "--trace-out", str(work / "lb-trace.jsonl")],
            ["opt", "--in", str(work / "lb.jsonl")],
        ]

    def written(self, work):
        return [work / "lb-trace.jsonl"]

    def output_checks(self, seed, work, stdouts):
        from mgsched.generators import LowerBoundSpec, generate_lower_bound
        from mgsched.model import UNBOUNDED

        @cache
        def out():
            inst = _load(work / "lb.jsonl")
            steps, summary = checks.parse_trace((work / "lb-trace.jsonl").read_text(encoding="utf-8"))
            return SimpleNamespace(
                unbounded=[p for p in inst.packets if p.deadline == UNBOUNDED],
                steps=steps,
                summary=summary,
                run=checks.parse_run_stdout(stdouts[0]),
                opt=checks.parse_opt_stdout(stdouts[1]),
            )

        def small_k_oracle():
            path = work / "lb-small.jsonl"
            inst = generate_lower_bound(LowerBoundSpec(LB_ORACLE_K, lb_epsilon(seed)))
            _write(inst, path)
            code, stdout = run_cli(["opt", "--in", str(path)])
            if code != 0:
                raise checks.CheckFailed(f"mgsched opt exited {code} at k={LB_ORACLE_K}")
            checks.check_opt(oracle_opt(inst), checks.parse_opt_stdout(stdout), 0.0, rel_tol=LB_REL_TOL)

        return [
            ("every sent packet is unbounded",
             lambda: checks.check_sent_unbounded(out().steps, {p.id for p in out().unbounded})),
            ("ALG = fsum of the unbounded values",
             lambda: checks.check_alg_sum(out().run["totalValue"], [p.value for p in out().unbounded], LB_REL_TOL)),
            ("OPT >= ALG", lambda: checks.check_opt_ge_alg(out().opt, out().run["totalValue"])),
            ("trace summary matches run", lambda: checks.check_trace_summary(out().summary, out().run)),
            (f"oracle = mgsched opt at k={LB_ORACLE_K}", small_k_oracle),
        ]


# ---------------------------------------------------------------------------


def sparse_bursts(seed: int) -> list:
    """The bursts as stand-alone general instances, before they are spaced out."""
    from mgsched.generators import GenSpec, generate

    rng = Random(seed)
    return [generate(GenSpec("general", SPARSE_BURST_N, max_slack=MAX_SLACK, seed=rng.getrandbits(32)))
            for _ in range(SPARSE_BURSTS)]


class SparseSpan(Workload):
    name = "sparse-span"

    def build(self, seed, work):
        from mgsched.model import Instance, Packet

        packets = []
        for b, burst in enumerate(sparse_bursts(seed)):
            shift = b * SPARSE_GAP
            packets.extend(
                Packet(b * SPARSE_BURST_N + p.id, p.release + shift, p.deadline + shift, p.value) for p in burst
            )
        meta = {"family": "sparse-span", "seed": seed, "bursts": SPARSE_BURSTS, "gap": SPARSE_GAP}
        _write(Instance(tuple(packets), meta), work / "sparse.jsonl")

    def commands(self, seed, work):
        return [
            ["run", "--in", str(work / "sparse.jsonl"), *MG_PHI],
            ["opt", "--in", str(work / "sparse.jsonl")],
        ]

    def output_checks(self, seed, work, stdouts):
        from mgsched.model import PHI
        from mgsched.policies import PolicyParams, simulate

        # Values lie on a dyadic grid, so every sum below is exact.
        def alg_sum():
            params = PolicyParams.mg(PHI, PHI)
            totals = [simulate(burst, params).total_value for burst in sparse_bursts(seed)]
            checks.check_alg_sum(checks.parse_run_stdout(stdouts[0])["totalValue"], totals, rel_tol=0.0)

        def opt_sum():
            oracle = math.fsum(oracle_opt(burst) for burst in sparse_bursts(seed))
            alg = checks.parse_run_stdout(stdouts[0])["totalValue"]
            checks.check_opt(oracle, checks.parse_opt_stdout(stdouts[1]), alg, rel_tol=0.0)

        return [
            ("ALG = sum of MG on each burst alone", alg_sum),
            ("OPT = sum of the oracle on each burst", opt_sum),
        ]


WORKLOADS = {w.name: w for w in (Table1Sweep(), LowerBound(), SparseSpan())}
