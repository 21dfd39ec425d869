"""Output checks for the benchmark's workloads.

Each check takes values already read from mgsched's outputs and raises
CheckFailed with a reason when they are wrong.  None of them compares against
lb_ratio_formula or a saved copy of an earlier output: every expected value is
derived again, by the oracle or by running mgsched on smaller pieces.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

PHI = (1.0 + math.sqrt(5.0)) / 2.0


class CheckFailed(AssertionError):
    pass


def _require(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckFailed(reason)


# ---------------------------------------------------------------------------
# Parsing of mgsched's outputs.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    variant: str
    trials: int
    max_ratio: float
    mean_ratio: float
    argmax_seed: int


def parse_sweep_csv(text: str) -> list[SweepRow]:
    return [
        SweepRow(
            variant=r["variant"],
            trials=int(r["trials"]),
            max_ratio=float(r["max_ratio"]),
            mean_ratio=float(r["mean_ratio"]),
            argmax_seed=int(r["argmax_seed"]),
        )
        for r in csv.DictReader(io.StringIO(text))
    ]


def _fields(stdout: str) -> dict[str, str]:
    """`mgsched run` / `opt` print 'key value' lines; 'sent N dropped M' holds two."""
    out: dict[str, str] = {}
    for line in stdout.splitlines():
        words = line.split()
        for key, value in zip(words[::2], words[1::2]):
            out.setdefault(key, value)
    return out


def parse_run_stdout(stdout: str) -> dict:
    f = _fields(stdout)
    return {"totalValue": float(f["totalValue"]), "sent": int(f["sent"]), "dropped": int(f["dropped"])}


def parse_opt_stdout(stdout: str) -> float:
    return float(_fields(stdout)["optValue"])


def parse_trace(text: str) -> tuple[list[dict], dict]:
    """Step records and the summary of a `run --trace-out` file."""
    records = [json.loads(line) for line in text.splitlines() if line.strip()]
    _require(bool(records) and "summary" in records[-1], "trace has no summary line")
    return records[:-1], records[-1]["summary"]


# ---------------------------------------------------------------------------
# table1-sweep
# ---------------------------------------------------------------------------


def row_for(rows: list[SweepRow], variant: str) -> SweepRow:
    found = [r for r in rows if r.variant == variant]
    _require(len(found) == 1, f"{len(found)} rows for variant {variant}")
    return found[0]


def check_sweep_rows(rows: list[SweepRow], variants: list[str], trials: int) -> None:
    """One row per variant, each with the requested trials and 1 <= mean <= max."""
    _require(sorted(r.variant for r in rows) == sorted(variants), f"rows {[r.variant for r in rows]}")
    for r in rows:
        _require(r.trials == trials, f"{r.variant}: {r.trials} trials, asked {trials}")
        _require(1.0 <= r.mean_ratio <= r.max_ratio, f"{r.variant}: not 1 <= mean {r.mean_ratio} <= max {r.max_ratio}")


def check_max_equals_one(rows: list[SweepRow], variants: list[str]) -> None:
    for v in variants:
        _require(row_for(rows, v).max_ratio == 1.0, f"{v}: max ratio {row_for(rows, v).max_ratio} != 1")


def check_max_at_most(rows: list[SweepRow], variants: list[str], bound: float) -> None:
    for v in variants:
        _require(row_for(rows, v).max_ratio <= bound, f"{v}: max ratio {row_for(rows, v).max_ratio} > {bound}")


def check_argmax_ratio(row: SweepRow, oracle_opt: float, alg: float) -> None:
    """The row's argmax instance, solved again, gives exactly the row's max ratio."""
    _require(alg > 0, f"{row.variant}: ALG {alg} on the argmax instance")
    _require(oracle_opt / alg == row.max_ratio, f"{row.variant}: oracle {oracle_opt} / ALG {alg} != max {row.max_ratio}")


# ---------------------------------------------------------------------------
# Shared by every workload.
# ---------------------------------------------------------------------------


def check_opt(oracle_opt: float, program_opt: float, alg: float, rel_tol: float) -> None:
    """mgsched's OPT equals the oracle's (within rel_tol) and is at least ALG."""
    _require(math.isclose(oracle_opt, program_opt, rel_tol=rel_tol, abs_tol=0.0),
             f"OPT {program_opt!r} != oracle {oracle_opt!r}")
    check_opt_ge_alg(program_opt, alg)


def check_opt_ge_alg(opt: float, alg: float) -> None:
    _require(opt >= alg, f"OPT {opt!r} < ALG {alg!r}")


def check_alg_sum(alg: float, parts: list[float], rel_tol: float) -> None:
    """ALG equals the exact sum of the parts it should be made of."""
    expected = math.fsum(parts)
    _require(math.isclose(alg, expected, rel_tol=rel_tol, abs_tol=0.0), f"ALG {alg!r} != sum {expected!r}")


def check_same_outputs(rounds: list) -> None:
    """Every timed round printed and wrote the same thing."""
    _require(len(rounds) >= 1, "no rounds")
    for i, r in enumerate(rounds[1:], start=2):
        _require(r == rounds[0], f"round {i} output differs from round 1")


# ---------------------------------------------------------------------------
# lower-bound
# ---------------------------------------------------------------------------


def check_sent_unbounded(steps: list[dict], unbounded_ids: set[int]) -> None:
    bad = [s["sent_id"] for s in steps if s["sent_id"] is not None and s["sent_id"] not in unbounded_ids]
    _require(not bad, f"{len(bad)} sent packets have a bounded deadline, first id {bad[:1]}")


def check_trace_summary(summary: dict, run_out: dict) -> None:
    _require(summary.get("totalValue") == run_out["totalValue"], f"trace total {summary.get('totalValue')!r} != run {run_out['totalValue']!r}")
    _require(summary.get("sentCount") == run_out["sent"], f"trace sent {summary.get('sentCount')} != run {run_out['sent']}")
    _require(summary.get("droppedCount") == run_out["dropped"], f"trace dropped {summary.get('droppedCount')} != run {run_out['dropped']}")
