"""Acceptance suite: one test per criterion, printed as a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  Tolerances are pinned in
the asserts.  Criterion 3's slack/value leg checks exactness only on the
instances where its premise holds: the provisional schedule stays
value-nonincreasing in canonical order at every step.  Exactness on the whole
anti-agreeable slack/value class is out of reach for any deterministic online
algorithm (see test_policies.SLACK_VALUE_ADVERSARY_A/B), so the leg reports
the remaining gaps without asserting them away.
"""

from __future__ import annotations

import hashlib
import math
import time
from random import Random

import pytest

from conftest import brute_best_pending_value, value_order_held
from mgsched.analysis import chain_bound, check_chain, derive_seed, extremal_chain, random_chain, sweep, table1_cells
from mgsched.cli import main as cli_main
from mgsched.generators import GenSpec, LowerBoundSpec, generate, generate_lower_bound, lb_ratio_formula
from mgsched.model import PHI, UNBOUNDED, Instance, Packet
from mgsched.offline import brute_force_optimal, empirical_ratio, offline_optimal
from mgsched.policies import PolicyParams, simulate
from mgsched.provisional import optimal_provisional_schedule

BASE_SEED = 20260810

# sha256 of the criterion-9 artifacts; a change to any of these bytes is a
# change to the published output, not a refactor.
CRITERION_9_DIGESTS = {
    "gen": "60e540474515c5c4fb4486bbbe7bbb45b59c8c36fae9edcbbff31b41c98bde74",
    "lb": "97887042a5c36868b95450d00535f724e0511c241dd818cfb163e4bea7c4e351",
    "run-trace": "4ce26eadbffab8a66ddac3ed4900539cd7388aca9f62d3d5df84ba80dba39eb5",
    "sweep-csv": "614a268c1b27e7ea07ab2d22297cfcef22a07d9567037ef866478b6faad23f80",
    # MG(phi, phi) on lb --k 7: its schedule_value sums are inexact, so this
    # pins that they are rounded the same way on every Python version.
    "lb-run-trace": "4bad9732d3115d43f143b45c50f9e5819e3838ff99911f9f402a06e600b71802",
}


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_1_provisional_oracle_equivalence():
    t0 = time.perf_counter()
    mismatches = 0
    for trial in range(1000):
        rng = Random(derive_seed(BASE_SEED, "c1", trial))
        t = rng.randint(1, 5)
        n = rng.randint(1, 8)
        pending = [Packet(i, 1, t + rng.randint(0, 7), rng.randint(1, 256) / 16.0) for i in range(n)]
        got = math.fsum(p.value for p in optimal_provisional_schedule(pending, t))
        want = brute_best_pending_value(pending, t)
        if got != want:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 10.0
    _report("1 provisional-oracle", ok, f"{mismatches} mismatches in 1000 sets, {elapsed:.1f}s < 10s")
    assert mismatches == 0
    assert elapsed < 10.0


def test_criterion_2_opt_oracle_equivalence():
    t0 = time.perf_counter()
    mismatches = 0
    for trial in range(1000):
        seed = derive_seed(BASE_SEED, "c2", trial)
        rng = Random(seed)
        n = rng.randint(1, 8)
        inst = generate(GenSpec("general", n, max_slack=rng.randint(0, 6), seed=seed))
        if offline_optimal(inst).total_value != brute_force_optimal(inst).total_value:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 30.0
    _report("2 opt-oracle", ok, f"{mismatches} mismatches in 1000 instances, {elapsed:.1f}s < 30s")
    assert mismatches == 0
    assert elapsed < 30.0


def test_criterion_3_anti_agreeable_exactness():
    params = PolicyParams.mg(UNBOUNDED, 1.0)
    gaps: dict[str, int] = {}
    premise_held = premise_gaps = 0
    for variant in ("anti-agreeable-value", "anti-agreeable-deadline-value", "anti-agreeable-slack-value"):
        bad = 0
        for trial in range(500):
            seed = derive_seed(BASE_SEED, f"c3:{variant}", trial)
            rng = Random(seed)
            inst = generate(GenSpec(variant, rng.randint(1, 50), seed=seed))
            opt = offline_optimal(inst).total_value
            trace = simulate(inst, params)
            alg = trace.total_value
            assert opt >= alg, f"{variant} seed {seed}: OPT {opt} < ALG {alg}"
            bad += opt > alg
            if variant == "anti-agreeable-slack-value" and value_order_held(inst, trace):
                premise_held += 1
                premise_gaps += opt > alg
        gaps[variant] = bad
    ok = gaps["anti-agreeable-value"] == gaps["anti-agreeable-deadline-value"] == 0 and premise_held and not premise_gaps
    detail = ", ".join(f"{k}: {v} gaps/500" for k, v in gaps.items())
    detail += f"; slack/value premise held on {premise_held}/500 with {premise_gaps} gaps"
    _report("3 anti-agreeable-exactness", ok, detail)
    assert gaps["anti-agreeable-value"] == 0
    assert gaps["anti-agreeable-deadline-value"] == 0
    # No deterministic online algorithm is exact on the whole slack/value class
    # (test_policies.SLACK_VALUE_ADVERSARY_A/B); exactness is checked where its
    # premise, a value-ordered schedule at every step, holds.
    assert premise_held > 0, "no slack/value instance kept its schedule value-ordered"
    assert premise_gaps == 0, (
        f"{premise_gaps} slack/value instances kept the schedule value-ordered at "
        "every step and still fell short of OPT"
    )


def test_criterion_4_general_two_bound():
    grid = [(a / 4.0, b / 4.0) for a in range(4, 9) for b in range(4, a + 1)]
    assert len(grid) == 15
    worst = 0.0
    for trial in range(10000):
        seed = derive_seed(BASE_SEED, "c4", trial)
        rng = Random(seed)
        inst = generate(GenSpec("general", rng.randint(1, 40), seed=seed))
        opt = offline_optimal(inst).total_value
        for alpha, beta in grid:
            alg = simulate(inst, PolicyParams.mg(alpha, beta)).total_value
            ratio = 1.0 if opt == alg == 0.0 else opt / alg
            if ratio > worst:
                worst = ratio
    ok = worst <= 2.0 + 1e-9
    _report("4 general-2-bound", ok, f"max ratio {worst:.9f} over 10000 instances x 15 grid cells")
    assert worst <= 2.0 + 1e-9


def test_criterion_5_lower_bound_family():
    params = PolicyParams.mg(PHI, PHI)
    ratios = []
    h_only_all = True
    k10_elapsed = 0.0
    for k in range(3, 11):
        t0 = time.perf_counter()
        inst = generate_lower_bound(LowerBoundSpec(k, epsilon=1e-6))
        trace = simulate(inst, params)
        by_id = {p.id: p for p in inst.packets}
        h_only = all(by_id[i].deadline == UNBOUNDED for i in trace.sent_ids)
        h_only_all = h_only_all and h_only
        opt = offline_optimal(inst).total_value
        ratios.append(opt / trace.total_value)
        if k == 10:
            k10_elapsed = time.perf_counter() - t0
    nondecreasing = all(a <= b + 1e-12 for a, b in zip(ratios, ratios[1:]))
    formula = [lb_ratio_formula(k) for k in range(1, 61)]
    formula_ok = (
        all(1.0 < v < 2.0 for v in formula)
        and all(a < b for a, b in zip(formula, formula[1:]))
        and abs(formula[59] - 2.0) < 1e-6
    )
    ok = h_only_all and nondecreasing and ratios[-1] >= 1.8 and formula_ok and k10_elapsed < 10.0
    _report(
        "5 lower-bound-family",
        ok,
        f"h-only={h_only_all}, ratios k3..k10 {ratios[0]:.3f}..{ratios[-1]:.3f} nondecreasing={nondecreasing}, "
        f"k10 {k10_elapsed:.1f}s < 10s, formula ok={formula_ok}",
    )
    assert h_only_all
    assert nondecreasing
    assert ratios[-1] >= 1.8
    assert formula_ok
    assert k10_elapsed < 10.0


def test_criterion_6_agreeable_phi_bounds():
    cells = [
        ("agreeable-deadline", PolicyParams.mg(PHI, PHI)),
        ("agreeable-deadline-value", PolicyParams.mg(PHI, PHI)),
        ("agreeable-deadline-value", PolicyParams.mg(PHI**2, PHI**2)),
        ("agreeable-slack-value", PolicyParams.mg(PHI, PHI)),
    ]
    details = []
    worst_overall = 0.0
    for variant, params in cells:
        worst = 0.0
        label = f"c6:{variant}:{params.alpha:.3f}"
        for trial in range(10000):
            seed = derive_seed(BASE_SEED, label, trial)
            rng = Random(seed)
            inst = generate(GenSpec(variant, rng.randint(1, 50), seed=seed))
            ratio = empirical_ratio(inst, params).ratio
            if ratio > worst:
                worst = ratio
        details.append(f"{variant}@a={params.alpha:.3f}: {worst:.6f}")
        worst_overall = max(worst_overall, worst)
    ok = worst_overall <= PHI + 1e-9
    _report("6 agreeable-phi-bounds", ok, "falsification sweeps, max ratios " + "; ".join(details))
    assert worst_overall <= PHI + 1e-9


def test_criterion_7_chain_bound_property():
    alpha = PHI**2
    violations = 0
    phi_violations = 0
    for trial in range(100000):
        rng = Random(derive_seed(BASE_SEED, "c7", trial))
        k = rng.randint(1, 12)
        chain = random_chain(rng, alpha, k)
        if not check_chain(chain):
            violations += 1
        if math.fsum(chain.q_values) > PHI * math.fsum(chain.p_values):
            phi_violations += 1
    tight_ok = True
    for k in range(1, 13):
        chain = extremal_chain(alpha, k)
        ratio = math.fsum(chain.q_values) / math.fsum(chain.p_values)
        if not (check_chain(chain) and ratio >= 0.99 * chain_bound(alpha, k)):
            tight_ok = False
    ok = violations == 0 and phi_violations == 0 and tight_ok
    _report(
        "7 chain-bound",
        ok,
        f"{violations} bound / {phi_violations} phi-corollary violations in 100000 chains; extremal within 1%: {tight_ok}",
    )
    assert violations == 0
    assert phi_violations == 0
    assert tight_ok


def test_criterion_8_greedy_argmax_equivalence():
    params = PolicyParams.mg(1.0, 1.0)
    bad_steps = 0
    for trial in range(1000):
        seed = derive_seed(BASE_SEED, "c8", trial)
        rng = Random(seed)
        inst = generate(GenSpec("general", rng.randint(1, 30), seed=seed))
        trace = simulate(inst, params)
        by_t: dict[int, list[Packet]] = {}
        for p in inst.packets:
            by_t.setdefault(p.release, []).append(p)
        pending: list[Packet] = []
        for step in trace.steps:
            pending += by_t.get(step.t, [])
            pending = [p for p in pending if p.deadline >= step.t]
            if step.sent_id is None:
                if pending:
                    bad_steps += 1
                continue
            top = max(p.value for p in pending)
            if step.sent_value != top:
                bad_steps += 1
            pending = [p for p in pending if p.id != step.sent_id]
    ok = bad_steps == 0
    _report("8 greedy-argmax", ok, f"{bad_steps} non-argmax steps over 1000 instances")
    assert bad_steps == 0


def test_criterion_9_determinism(tmp_path, capsys):
    # generator and run commands: byte-identical reruns, pinned by digest
    pairs = []
    digests = {}
    for name, args in (
        ("gen", ["gen", "--variant", "agreeable-slack-value", "--n", "80", "--seed", "13"]),
        ("lb", ["lb", "--k", "7", "--epsilon", "1e-6"]),
    ):
        a, b = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
        assert cli_main(args + ["--out", str(a)]) == 0
        assert cli_main(args + ["--out", str(b)]) == 0
        pairs.append((name, a.read_bytes() == b.read_bytes()))
        digests[name] = hashlib.sha256(a.read_bytes()).hexdigest()
    for name, inst in (("run-trace", "gen_a"), ("lb-run-trace", "lb_a")):
        ta, tb = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
        run_args = ["run", "--in", str(tmp_path / inst), "--policy", "mg", "--alpha", "phi", "--beta", "phi"]
        assert cli_main(run_args + ["--trace-out", str(ta)]) == 0
        assert cli_main(run_args + ["--trace-out", str(tb)]) == 0
        pairs.append((name, ta.read_bytes() == tb.read_bytes()))
        digests[name] = hashlib.sha256(ta.read_bytes()).hexdigest()
    capsys.readouterr()

    # sweep: --jobs must not affect results
    cells = table1_cells(n=12)
    r1 = sweep(cells, trials=120, seed=BASE_SEED, jobs=1)
    r4 = sweep(cells, trials=120, seed=BASE_SEED, jobs=4)
    pairs.append(("sweep-jobs-1-vs-4", r1 == r4 and r1.to_csv() == r4.to_csv()))
    digests["sweep-csv"] = hashlib.sha256(r1.to_csv().encode()).hexdigest()
    pairs += [(f"{name}-digest", digests[name] == want) for name, want in CRITERION_9_DIGESTS.items()]

    ok = all(flag for _, flag in pairs)
    _report("9 determinism", ok, ", ".join(f"{name}={flag}" for name, flag in pairs))
    assert ok
