"""Command-line frontend: generate, simulate, solve, and sweep from files.

Every command is a pure function of its flags (plus output paths), so reruns
reproduce byte-identical artifacts.  Exit codes: 0 ok, 1 usage, 2 I/O,
3 validation.
"""

from __future__ import annotations

import argparse
import sys
from random import Random

from .analysis import (
    SweepCell,
    check_chain,
    derive_seed,
    random_chain,
    sweep,
    table1_cells,
)
from .generators import GenSpec, LowerBoundSpec, _draws, generate, generate_lower_bound, lb_ratio_formula
from .model import (
    ALL_VARIANTS,
    PHI,
    UNBOUNDED,
    classify_variants,
    dump_instance,
    load_instance,
)
from .offline import empirical_ratio, offline_optimal, ratio_csv
from .policies import PolicyKind, PolicyParams, dump_trace, simulate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_VALIDATION = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code contract: usage errors are 1
        raise _UsageError(message)


def parse_alpha(text: str) -> float:
    """Accept inf/phi/phi2 symbolically to avoid user-side precision drift.
    inf, infinity and unbounded are the only ways to write UNBOUNDED: a
    number past the float range, which float() would round to an infinity,
    is refused."""
    lowered = text.strip().lower()
    if lowered in ("inf", "infinity", "unbounded"):
        return UNBOUNDED
    if lowered == "phi":
        return PHI
    if lowered == "phi2":
        return PHI**2
    try:
        value = float(text)
    except ValueError as exc:
        raise _UsageError(f"bad alpha/beta value: {text!r}") from exc
    if value in (UNBOUNDED, -UNBOUNDED):
        raise _UsageError(f"bad alpha/beta value: {text!r} is past the float range")
    return value


POLICY_CHOICES = ("mg", "edf", "greedy")  # greedy is MG(1, 1)


def _policy_from_args(args) -> PolicyParams:
    """The policy of `--policy`, `--alpha` and `--beta`; no `--policy` means MG.
    PolicyParams refuses a beta other than 1 for EDF."""
    alpha = parse_alpha(args.alpha)
    beta = parse_alpha(args.beta)
    if args.policy == "greedy":  # --alpha and --beta are parsed but do not apply
        return PolicyParams.mg(1.0, 1.0)
    return PolicyParams(PolicyKind.EDF_ALPHA if args.policy == "edf" else PolicyKind.MG, alpha, beta)


def _add_policy_flags(sub) -> None:
    sub.add_argument("--policy", choices=POLICY_CHOICES, default="mg")
    sub.add_argument("--alpha", default="1", help="float, or inf / phi / phi2")
    sub.add_argument("--beta", default="1", help="float, or phi / phi2")


def build_parser() -> _Parser:
    parser = _Parser(prog="mgsched", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="generate a random instance file")
    gen.add_argument("--variant", choices=list(ALL_VARIANTS), default="general")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--max-slack", type=int, default=8)
    gen.add_argument("--out", required=True)

    lb = subs.add_parser("lb", help="generate the adversarial lower-bound family")
    lb.add_argument("--k", type=int, required=True)
    lb.add_argument("--epsilon", type=float, default=1e-6)
    lb.add_argument("--out", required=True)

    run = subs.add_parser("run", help="simulate one policy over an instance file")
    run.add_argument("--in", dest="infile", required=True)
    _add_policy_flags(run)
    run.add_argument("--trace-out", default=None)

    opt = subs.add_parser("opt", help="offline optimal value of an instance file")
    opt.add_argument("--in", dest="infile", required=True)

    ratio = subs.add_parser("ratio", help="OPT / policy value for an instance file")
    ratio.add_argument("--in", dest="infile", required=True)
    _add_policy_flags(ratio)
    ratio.add_argument("--csv-out", default=None)

    sw = subs.add_parser("sweep", help="seeded generate/simulate/ratio grid")
    sw.add_argument("--variants", default="all", help="'all' or comma-separated variant names")
    sw.add_argument("--trials", type=int, default=1000)
    sw.add_argument("--seed", type=int, default=0)
    sw.add_argument("--n", type=int, default=40)
    sw.add_argument("--max-slack", type=int, default=8)
    # With none of these three, the sweep runs the table-1 cells; otherwise
    # every cell runs the one policy they give, alpha defaulting to phi and
    # beta to phi (1 for edf).
    sw.add_argument("--policy", choices=POLICY_CHOICES, default=None)
    sw.add_argument("--alpha", default=None, help="float, or inf / phi / phi2 (default phi)")
    sw.add_argument("--beta", default=None, help="float, or phi / phi2 (default phi; 1 for edf)")
    sw.add_argument("--jobs", type=int, default=1)
    sw.add_argument("--csv-out", default=None)

    chain = subs.add_parser("chaincheck", help="random charging-chain property run")
    chain.add_argument("--alpha", default="phi2")
    chain.add_argument("--trials", type=int, default=100000)
    chain.add_argument("--k-max", type=int, default=12)
    chain.add_argument("--seed", type=int, default=0)

    return parser


def _cmd_gen(args) -> int:
    spec = GenSpec(args.variant, args.n, max_slack=args.max_slack, seed=args.seed)
    inst = generate(spec)
    with open(args.out, "w", encoding="utf-8") as fp:
        dump_instance(inst, fp)
    on = ", ".join(name for name, value in classify_variants(inst).items() if value) or "(none)"
    print(f"wrote {len(inst)} packets to {args.out}")
    print(f"variant flags: {on}")
    return EXIT_OK


def _cmd_lb(args) -> int:
    inst = generate_lower_bound(LowerBoundSpec(args.k, args.epsilon))
    with open(args.out, "w", encoding="utf-8") as fp:
        dump_instance(inst, fp)
    print(f"wrote {len(inst)} packets to {args.out}")
    print(f"closed-form ratio at k={args.k}: {lb_ratio_formula(args.k):.6f}")
    return EXIT_OK


def _load(path: str):
    with open(path, "r", encoding="utf-8", newline="\n") as fp:  # CR is JSON whitespace, as loads_instance reads it
        return load_instance(fp)


def _cmd_run(args) -> int:
    params = _policy_from_args(args)
    inst = _load(args.infile)
    trace = simulate(inst, params)
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as fp:
            dump_trace(trace, fp)
    print(f"policy {params.describe()}")
    print(f"totalValue {trace.total_value!r}")
    print(f"sent {trace.sent_count} dropped {len(trace.dropped_expired)}")
    return EXIT_OK


def _cmd_opt(args) -> int:
    inst = _load(args.infile)
    schedule = offline_optimal(inst)
    print(f"optValue {schedule.total_value!r}")
    print(f"assigned {len(schedule.slots)} of {len(inst)}")
    return EXIT_OK


def _cmd_ratio(args) -> int:
    params = _policy_from_args(args)
    inst = _load(args.infile)
    report = empirical_ratio(inst, params)
    if args.csv_out:
        with open(args.csv_out, "w", encoding="utf-8") as fp:
            fp.write(ratio_csv(report, inst, params))
    print(f"optValue {report.opt_value!r}")
    print(f"algValue {report.alg_value!r}")
    print(f"ratio {report.ratio!r}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    if args.trials < 1:
        raise _UsageError(f"--trials must be at least 1, got {args.trials}")
    if args.jobs < 1:
        raise _UsageError(f"--jobs must be at least 1, got {args.jobs}")
    if args.variants.strip() == "all" and (args.policy, args.alpha, args.beta) == (None, None, None):
        cells = table1_cells(n=args.n, max_slack=args.max_slack)
    else:
        names = list(ALL_VARIANTS) if args.variants.strip() == "all" else [
            v.strip() for v in args.variants.split(",") if v.strip()
        ]
        if not names:
            raise _UsageError(f"--variants names no variant: {args.variants!r}")
        for name in names:
            if name not in ALL_VARIANTS:
                raise _UsageError(f"unknown variant {name!r}")
        if args.alpha is None:
            args.alpha = "phi"
        if args.beta is None:
            args.beta = "1" if args.policy == "edf" else "phi"
        params = _policy_from_args(args)
        cells = [SweepCell(name, params, args.n, args.max_slack) for name in names]
    report = sweep(cells, trials=args.trials, seed=args.seed, jobs=args.jobs)
    if args.csv_out:
        with open(args.csv_out, "w", encoding="utf-8") as fp:
            fp.write(report.to_csv())
    print(report.to_table(), end="")
    return EXIT_OK


def _cmd_chaincheck(args) -> int:
    alpha = parse_alpha(args.alpha)
    if not 1 < alpha < UNBOUNDED:  # NaN fails too
        raise _UsageError("chaincheck requires a finite alpha > 1")
    if args.trials < 1:
        raise _UsageError(f"--trials must be at least 1, got {args.trials}")
    if args.k_max < 1:
        raise _UsageError(f"--k-max must be at least 1, got {args.k_max}")
    violations = 0
    for trial in range(args.trials):
        rng = Random(derive_seed(args.seed, "chain", trial))
        k = 1 + _draws(rng.getrandbits, args.k_max, 1)[0]  # generators' draw rule
        if not check_chain(random_chain(rng, alpha, k)):
            violations += 1
    print(f"{violations} violations in {args.trials} chains (alpha={alpha!r}, k <= {args.k_max})")
    return EXIT_OK if violations == 0 else EXIT_VALIDATION


_COMMANDS = {
    "gen": _cmd_gen,
    "lb": _cmd_lb,
    "run": _cmd_run,
    "opt": _cmd_opt,
    "ratio": _cmd_ratio,
    "sweep": _cmd_sweep,
    "chaincheck": _cmd_chaincheck,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:  # InvalidInstanceError is one
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
