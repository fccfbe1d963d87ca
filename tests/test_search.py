"""The serial multistart driver and the values of the five restart routes.

The pinned reprs were recorded before the restart loops were folded into
run_batches; any change to draw order or tie-breaking moves them.  The
multistart norm's was pinned again when its Boyd ascent moved to
power_ascent_rows, whose per-row stop moves the value.
"""

import numpy as np
import pytest

from bollobas_lab._search import (best_of, boyd_ascent, gaussian_directions,
                                  polish_rows, random_unit_rows, run_batches)
from bollobas_lab.gallery import lifted_rank1_l1, make_corner
from bollobas_lab.norm_attainment import operator_norm
from bollobas_lab.numerical_radius import NuResult, numerical_radius
from bollobas_lab.operators import Dense, Diagonal, Lift
from bollobas_lab.probe import ProbeBudget, eta_probe_norm, eta_probe_nu
from bollobas_lab.sequences import SequenceSpec
from bollobas_lab.spaces import Space, SumSpace, lp_norm

BUD = ProbeBudget(restarts=32, iters=300)


def test_best_of_first_wins_and_skips_none():
    assert best_of([None, (1.0, "a"), (2.0, "b"), None, (2.0, "c")]) == \
        (2.0, "b")
    assert best_of([None, None]) is None
    assert best_of([]) is None


def test_run_batches_ties_go_to_earliest_batch():
    seen = []

    def batch(rng):
        seen.append(len(seen))
        return (1.0, seen[-1])

    assert run_batches(0, 5, batch) == (1.0, 0)
    assert seen == [0, 1, 2, 3, 4]


def test_run_batches_skips_none():
    calls = iter([None, (0.5, "x"), None])
    assert run_batches(3, 3, lambda rng: next(calls)) == (0.5, "x")
    assert run_batches(3, 2, lambda rng: None) is None


def test_run_batches_uses_spawned_children():
    children = np.random.SeedSequence(11).spawn(4)
    expect = max(np.random.Generator(np.random.PCG64(s)).uniform()
                 for s in children)
    got = run_batches(11, 4, lambda rng: (rng.uniform(),))
    assert got == (expect,)
    assert run_batches(11, 4, lambda rng: (rng.uniform(),)) == got


def test_one_row_polish_climbs_and_keeps_aux():
    space = Space(2.0, 3)
    target = np.array([0.0, 0.6, 0.8])

    def value_rows(X):
        return X @ target, np.full(len(X), "aux", dtype=object)

    D = gaussian_directions(np.random.default_rng(0), 200 * 4,
                            space).reshape(1, 200, 4, -1)
    vals, X, aux = polish_rows(np.array([[1.0, 0.0, 0.0]]), value_rows, space,
                               lambda r, rows: D[rows, r], iters=200, tries=4,
                               step=0.5, min_step=1e-9)
    assert vals[0] > 0.999 and aux[0] == "aux"
    assert space.norm(X[0]) == pytest.approx(1.0)


def _matrix():
    return np.random.default_rng(20261017).normal(size=(4, 4))


@pytest.mark.parametrize("p,q", [(1.5, 3.0), (3.0, 1.5), (4.0, 2.5),
                                 (1.25, 1.75)])
def test_boyd_witness_attains_its_value(p, q):
    # the value is ||M x||_q / ||x||_p of the returned x: every step a row
    # takes moves its value and its point together
    rng = np.random.default_rng([int(4 * p), int(4 * q)])
    for i in range(25):
        d = int(rng.integers(3, 33))
        M = rng.normal(size=(d, d))
        X0 = random_unit_rows(rng, 16, d, p, False)
        v, x = boyd_ascent(M, p, q, X0, iters=40)
        assert abs(v - lp_norm(M @ x, q) / lp_norm(x, p)) <= 2e-15 * v, i


def test_pinned_multistart_norm():
    M = _matrix()
    r = operator_norm(Dense(M, Space(3.0, 4), Space(1.5, 4)), restarts=32,
                      iters=60, seed=5)
    assert r.method == "boyd-multistart"
    # the value of the start-by-start oracle tests/_oracles.py::
    # multistart_norm; the stacked Boyd ascent gave 3.2525007605087026
    assert repr(r.value) == "3.252500760508715"


def test_pinned_sum_space_norm():
    S = SumSpace((Space(3.0, 2), Space(1.5, 2)), 2.0)
    r = operator_norm(Dense(_matrix(), S, S), restarts=16, iters=40, seed=3)
    assert r.method == "sum-space-multistart"
    assert repr(r.value) == "2.567342155561993"


def test_pinned_multistart_nu():
    M = _matrix()
    r = numerical_radius(Dense(M[:3, :3], Space(3.0, 3), Space(3.0, 3)),
                         restarts=16, iters=40, seed=2)
    assert r.method == "state-multistart"
    assert repr(r.value) == "1.9188779286992903"
    S = SumSpace((Space(3.0, 2), Space(1.5, 2)), 2.0)
    r = numerical_radius(Dense(M, S, S), restarts=8, iters=30, seed=1)
    assert r.method == "state-multistart"
    assert repr(r.value) == "1.841168179141957"
    # the G-CORNER radius claim's budget; the value of the start-by-start
    # oracle tests/_oracles.py::multistart_nu
    r = numerical_radius(make_corner(4, 1.0).expr, restarts=32, iters=120,
                         seed=0)
    assert r.method == "state-multistart"
    assert repr(r.value) == "0.9995895374631479"


def test_pinned_probe_norm():
    # a lifted diagonal has no profile or boundary seeds, so the restart
    # batches alone find the witness.  The value of the start-by-start
    # oracle tests/_oracles.py::eta_probe_norm, whose pullbacks are ITP
    # searches; the 30-step bisection gave 0.0024449050205079814
    D = Diagonal(SequenceSpec((1.0, 0.9, 0.6, 0.3)), Space(3.0, 4))
    rep = eta_probe_norm(Lift(D, 2.0), 0.3, budget=BUD, seed=6)
    assert repr(rep.eta_hat) == "0.002444905019957644"


def test_pinned_probe_nu():
    T, desc, _seeds = lifted_rank1_l1(3)
    rep = eta_probe_nu(T, 0.5, budget=BUD, seed=7,
                       nu_result=NuResult(1.0, "exact", None, "lift-profile"),
                       attaining=desc)
    assert repr(rep.eta_hat) == "0.26710038609257225"
