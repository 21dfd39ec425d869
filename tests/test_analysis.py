from __future__ import annotations

import csv
import io
import math
from random import Random

import numpy
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import extremal_chain
from mgsched.analysis import (
    ChainInstance,
    PremiseError,
    SweepCell,
    SweepRow,
    chain_bound,
    check_chain,
    derive_seed,
    random_chain,
    sweep,
    table1_cells,
)
from mgsched.model import PHI, UNBOUNDED
from mgsched.policies import PolicyParams


def test_chain_bound_k1_is_one():
    for alpha in (1.1, PHI, 2.0, PHI**2, 10.0):
        assert chain_bound(alpha, 1) == pytest.approx(1.0, abs=1e-12)


def test_chain_bound_domain():
    with pytest.raises(ValueError):
        chain_bound(1.0, 3)
    with pytest.raises(ValueError):
        chain_bound(math.nan, 3)
    with pytest.raises(ValueError):  # inf * inf**-3 would be NaN
        chain_bound(math.inf, 3)
    with pytest.raises(ValueError):
        chain_bound(2.0, 0)
    with pytest.raises(ValueError):  # an int no float holds: alpha**-k would overflow
        chain_bound(10**400, 3)
    for k in (True, 2.5, 3.0):  # no count: True would give 1.0, 2.5 a bound between k = 2 and 3
        with pytest.raises(ValueError):
            chain_bound(2.0, k)
    # a k past the float range: alpha**-k has no float, and the bound is its limit
    assert chain_bound(2.0, 10**400) == 1.5
    with pytest.raises(PremiseError):  # check_chain would sum values no float holds
        ChainInstance(2.0, (10**400,), (10**400,))


def test_chain_bound_capped_and_increasing_in_k():
    for alpha in (1.05, 1.3, PHI, 2.0, PHI**2, 4.0):
        values = [chain_bound(alpha, k) for k in range(1, 61)]
        cap = 2.0 - 1.0 / alpha
        assert all(v <= cap + 1e-12 for v in values)
        # strictly increasing while float-resolvable; 1-ulp slack at saturation
        assert all(a < b for a, b in zip(values[:20], values[1:20]))
        assert all(a <= b + 5e-16 for a, b in zip(values, values[1:]))


def test_chain_bound_phi_squared_limit_is_phi():
    # 2 - 1/phi^2 == phi
    assert chain_bound(PHI**2, 200) == pytest.approx(PHI, abs=1e-9)
    assert 2.0 - 1.0 / PHI**2 == pytest.approx(PHI, abs=1e-12)


def test_chain_bound_large_k_is_the_limit():
    # alpha^k would overflow here; the bound is its limit 2 - 1/alpha
    for alpha in (1.05, PHI, PHI**2, 4.0):
        assert chain_bound(alpha, 10_000) == 2.0 - 1.0 / alpha


def test_check_chain_trivial_equal_pair():
    assert check_chain(ChainInstance(2.0, (1.0,), (1.0,)))


def test_check_chain_premise_errors():
    # a chain that breaks a premise cannot be made, so check_chain never sees one
    with pytest.raises(PremiseError):
        ChainInstance(2.0, (5.0, 1.0), (1.0, 1.0))  # q1 > alpha*p1
    with pytest.raises(PremiseError):
        ChainInstance(2.0, (2.0, 1.0), (1.0, 1.0))  # q1 > p2
    with pytest.raises(PremiseError):
        ChainInstance(2.0, (1.0,), (0.5,))  # q_k > p_k
    with pytest.raises(PremiseError):
        ChainInstance(2.0, (), ())
    # NaN breaks every premise it enters
    nan = math.nan
    for q, p in (((nan,), (1.0,)), ((1.0,), (nan,)), ((1.0, 1.0), (nan, 1.0))):
        with pytest.raises(PremiseError):
            ChainInstance(2.0, q, p)
    with pytest.raises(PremiseError):
        ChainInstance(nan, (1.0, 1.0), (1.0, 1.0))  # q1 <= alpha*p1 fails
    # the bound needs 1 < alpha < inf; check_chain would raise on the first
    # three and report a false violation on the last
    for alpha in (0.5, 1.0, nan, math.inf):
        with pytest.raises(PremiseError, match="alpha must be a finite real > 1"):
            ChainInstance(alpha, (1.0,), (1.0,))


@given(st.integers(0, 10**9), st.integers(1, 12))
def test_random_chains_satisfy_bound_and_phi_corollary(seed, k):
    rng = Random(seed)
    chain = random_chain(rng, PHI**2, k)
    assert check_chain(chain)
    assert math.fsum(chain.q_values) <= PHI * math.fsum(chain.p_values)


@pytest.mark.parametrize("k", range(1, 13))
def test_extremal_chain_approaches_bound(k):
    chain = extremal_chain(PHI**2, k)
    assert check_chain(chain)
    ratio = math.fsum(chain.q_values) / math.fsum(chain.p_values)
    bound = chain_bound(PHI**2, k)
    assert ratio >= 0.99 * bound


def test_derive_seed_is_stable_and_spread():
    a = derive_seed(1, "x", 0)
    assert a == derive_seed(1, "x", 0)
    assert a != derive_seed(1, "x", 1)
    assert a != derive_seed(2, "x", 0)
    assert 0 <= a < 2**64


def test_sweep_smoke_and_report_shapes():
    cells = [SweepCell("general", PolicyParams.mg(PHI, PHI), n=12)]
    report = sweep(cells, trials=40, seed=3)
    (row,) = report.rows
    assert row.trials == 40
    assert 1.0 <= row.mean_ratio <= row.max_ratio
    csv = report.to_csv()
    assert csv.splitlines()[0] == "variant,kind,alpha,beta,trials,max_ratio,mean_ratio,argmax_seed"
    assert len(csv.splitlines()) == 2
    assert "general" in report.to_table()


def test_sweep_csv_reads_back_what_it_wrote():
    # numpy.float64 parameters are written as their floats, not as their reprs.
    params = PolicyParams.mg(numpy.float64(1.5), numpy.float64(1.5))
    report = sweep([SweepCell("general", params, n=6)], trials=3, seed=3)
    (row,) = report.rows
    header, fields = csv.reader(io.StringIO(report.to_csv()))
    assert header == list(SweepRow._fields)
    assert fields == ["general", "mg", "1.5", "1.5", "3", repr(row.max_ratio), repr(row.mean_ratio), str(row.argmax_seed)]


def test_sweep_cell_refuses_bad_fields_when_made():
    # Each would otherwise fail only at the first trial, inside a worker
    # under --jobs > 1, or run silently (n=True as n = 1).
    params = PolicyParams.mg(PHI, PHI)
    for kwargs, match in (
        (dict(n=True), "n must be an int"),
        (dict(n=2.5), "n must be an int"),
        (dict(n=0), "n >= 1"),
        (dict(max_slack=-1), "max_slack must be >= 0"),
        (dict(max_slack=1.5), "max_slack must be an int"),
        (dict(max_slack=False), "max_slack must be an int"),
    ):
        with pytest.raises(ValueError, match=match):
            SweepCell("general", params, **kwargs)
    with pytest.raises(ValueError, match="unknown variant"):
        SweepCell("bogus", params)
    with pytest.raises(ValueError, match="must be a PolicyParams"):
        SweepCell("general", (PHI, PHI))
    assert SweepCell("general", params, n=1, max_slack=0).n == 1


def test_sweep_rejects_empty_runs():
    cells = [SweepCell("general", PolicyParams.mg(PHI, PHI), n=12)]
    for trials in (0, -1):
        with pytest.raises(ValueError):
            sweep(cells, trials=trials, seed=3)
    for jobs in (0, -2):
        with pytest.raises(ValueError, match="at least one job"):
            sweep(cells, trials=4, seed=3, jobs=jobs)


def test_sweep_never_calls_randrange(monkeypatch):
    # Trial sizes follow the generators' draw rule, so a sweep rests on the
    # Mersenne Twister's words, not on randrange's private algorithm.
    def refuse(*args, **kwargs):
        raise AssertionError("Random.randrange was called")

    monkeypatch.setattr(Random, "randrange", refuse)
    cells = [SweepCell("general", PolicyParams.mg(PHI, PHI), n=12)]
    assert sweep(cells, trials=40, seed=3).rows[0].trials == 40


def test_sweep_argmax_seed_reproduces_max():
    from mgsched.generators import GenSpec, _draws, generate
    from mgsched.offline import empirical_ratio

    cells = [SweepCell("general", PolicyParams.mg(1.5, 1.5), n=15)]
    report = sweep(cells, trials=60, seed=11)
    row = report.rows[0]
    n = 1 + _draws(Random(row.argmax_seed).getrandbits, 15, 1)[0]  # the sweep's size draw
    inst = generate(GenSpec("general", n, max_slack=8, seed=row.argmax_seed))
    assert empirical_ratio(inst, PolicyParams.mg(1.5, 1.5)).ratio == row.max_ratio


def test_sweep_pool_has_no_more_workers_than_tasks(monkeypatch):
    # A pool forks all its workers at once, so --jobs 5000 must not fork 5000
    # processes for 9 trials.  The fake pool runs the map in this process.
    import concurrent.futures

    made = []

    class FakePool:
        def __init__(self, max_workers):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize):
            made.append((self.max_workers, chunksize))
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    cells = table1_cells(n=10)
    want = sweep(cells, trials=1, seed=9, jobs=1)
    assert sweep(cells, trials=1, seed=9, jobs=5000) == want
    assert sweep(cells[:1], trials=1, seed=9, jobs=5000) == sweep(cells[:1], trials=1, seed=9)
    assert sweep(cells, trials=8, seed=9, jobs=3) == sweep(cells, trials=8, seed=9)
    assert made == [(9, 1), (3, 6)]  # one trial alone runs with no pool


def test_sweep_deterministic_across_jobs():
    cells = table1_cells(n=10)[:3]
    a = sweep(cells, trials=24, seed=9, jobs=1)
    b = sweep(cells, trials=24, seed=9, jobs=4)
    assert a == b


def test_table1_cells_cover_all_variants():
    cells = table1_cells()
    assert len(cells) == 9
    assert cells[0].variant == "general"
    by_variant = {c.variant: c.params for c in cells}
    assert by_variant["anti-agreeable-value"].alpha == UNBOUNDED
    assert by_variant["agreeable-deadline-value"].alpha == pytest.approx(PHI**2)
