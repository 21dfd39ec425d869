"""Benchmark of mgsched's commands on three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Set-up (import mgsched, build and write the
inputs) runs in a fresh interpreter.  Then whole rounds of the workload's
commands run in this process, through mgsched.cli.main, until S seconds have
passed; after the last round every output is checked.  With --trace 0 the
set-up is timed again after every round (at least MIN_SETUPS times in all), so that
its median samples the same stretch of time as the rounds.  With --trace 0 a
speed probe (calibrate) runs around every set-up and round, and each is scaled
by it to the reference machine's speed; the last stdout line reports the
end-to-end metrics; with --trace 1 rounds alternate untraced and traced, and
it reports the per-layer metrics of the traced ones.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MIN_SETUPS = 5
# The speed probe: a fixed pure-Python loop, timed between rounds.  Its median
# time on the reference machine (README.md) is CALIB_REF_S; every timed
# interval is scaled by CALIB_REF_S over the probe's time around it.
CALIB_LOOPS = 400_000
CALIB_REPEATS = 3
CALIB_REF_S = 0.040


class BenchError(Exception):
    """The benchmark cannot run here; it prints no result."""


def unit_of(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith(("us_per_call", "us_per_packet")):
        return "us"
    if name.endswith("sends_per_step"):
        return "sends/step"
    if name.endswith(("_s", ".s")):
        return "s"
    return "count"


def import_mgsched():
    sys.path.insert(0, str(SRC))
    try:
        import mgsched
    except ImportError as exc:
        raise BenchError(f"cannot import mgsched from {SRC}: {exc}") from exc
    if Path(mgsched.__file__).resolve().parent.parent != SRC:
        raise BenchError(f"mgsched was imported from {mgsched.__file__}, not from {SRC}")


def set_up(workload: str, seed: int, work: Path) -> float:
    """Seconds of one fresh-interpreter set-up that writes the inputs into `work`."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_inputs.py"), workload, str(seed), str(work)],
            capture_output=True, text=True, timeout=60, check=False,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"set-up took over {exc.timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"set-up failed ({proc.returncode}):\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def calibrate() -> float:
    """Median seconds of CALIB_REPEATS runs of the speed probe; mgsched plays no part."""
    times = []
    for _ in range(CALIB_REPEATS):
        start = perf_counter()
        acc = 0
        for i in range(CALIB_LOOPS):
            acc += i * i % 7
        times.append(perf_counter() - start)
    return statistics.median(times)


class Tally:
    """Operations attempted and failed; a failure is reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, label: str, op) -> object:
        self.attempted += 1
        try:
            return op()
        except Exception:  # a failed operation is counted, and the run goes on
            self.failed += 1
            print(f"FAILED: {label}\n{traceback.format_exc()}", file=sys.stderr)
            return None


def run_round(wl, seed: int, work: Path, tally: Tally, spans=None) -> tuple[float, list[str]]:
    """One round of the workload's commands; returns its wall time and the stdouts."""
    from workloads import run_cli

    def command(argv):
        code, out = run_cli(argv)
        if code != 0:
            raise RuntimeError(f"mgsched {argv[0]} exited {code}")
        return out

    with spans.installed() if spans is not None else contextlib.nullcontext():
        start = perf_counter()
        stdouts = [tally.run(f"mgsched {argv[0]}", lambda argv=argv: command(argv)) for argv in wl.commands(seed, work)]
        wall = perf_counter() - start
    return wall, stdouts


def measure(wl, seed: int, seconds: float, trace: bool, work: Path):
    import checks
    import spans as spans_mod

    # With --trace 0 the speed probe runs before the first set-up and after
    # every later set-up, so interval j between probes j and j + 1 holds
    # set-up j and, for j >= 1, round j - 1.
    calibs = [] if trace else [calibrate()]
    setups = [set_up(wl.name, seed, work)]
    if not trace:
        calibs.append(calibrate())
    again = work / "setup-again"  # later set-ups leave the rounds' inputs alone
    again.mkdir()
    tally = Tally()
    untraced: list[float] = []
    traced: list[float] = []
    layers: list[dict] = []
    outputs: list[tuple] = []
    start = perf_counter()
    while True:
        if trace and len(untraced) > len(traced):
            spans = spans_mod.Spans()
            wall, stdouts = run_round(wl, seed, work, tally, spans)
            traced.append(wall)
            layers.append(spans_mod.layer_metrics(spans))
        else:
            wall, stdouts = run_round(wl, seed, work, tally)
            untraced.append(wall)
            if not trace:
                setups.append(set_up(wl.name, seed, again))
                calibs.append(calibrate())
        outputs.append(wl.round_output(work, stdouts) if None not in stdouts else None)
        if perf_counter() - start >= seconds and len(traced) == (len(untraced) if trace else 0):
            break
    while not trace and len(setups) < MIN_SETUPS:
        setups.append(set_up(wl.name, seed, again))
        calibs.append(calibrate())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"round walls (s): untraced {[round(w, 4) for w in untraced]} traced {[round(w, 4) for w in traced]}"
          f" set-ups {[round(s, 4) for s in setups]} speed probes {[round(c, 4) for c in calibs]}", file=sys.stderr)

    same = ("rounds give the same output", lambda: checks.check_same_outputs(outputs))
    for label, op in wl.output_checks(seed, work, stdouts) + [same]:
        tally.run(label, op)

    if trace:
        metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        metrics["trace.wall_s"] = statistics.median(traced)
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    else:
        scale = [2.0 * CALIB_REF_S / (a + b) for a, b in zip(calibs, calibs[1:])]
        print(f"unscaled medians (s): round {statistics.median(untraced):.6g}"
              f" set-up {statistics.median(setups):.6g}", file=sys.stderr)
        metrics = {
            "setup_s": statistics.median(s * k for s, k in zip(setups, scale)),
            "wall_s": statistics.median(w * k for w, k in zip(untraced, scale[1:])),
            "peak_rss_mb": peak_rss_mb,
        }
    return tally, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import_mgsched()
        import workloads

        if args.workload not in workloads.WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
        wl = workloads.WORKLOADS[args.workload]
        out_dir = HERE / "out"
        work = out_dir / f"work-{wl.name}-seed{args.seed}-{os.getpid()}"
        work.mkdir(parents=True)
        try:
            tally, metrics = measure(wl, args.seed, args.seconds, bool(args.trace), work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    line = json.dumps(result)
    (out_dir / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n", encoding="utf-8")
    for name, value in metrics.items():
        print(f"{wl.name}  {name}  {value:.6g} {unit_of(name)}")
    print(f"{wl.name}  operations  {tally.attempted} attempted, {tally.failed} failed")
    print(line)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
