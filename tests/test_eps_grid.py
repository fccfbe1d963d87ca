"""A probe over a grid of eps against the one-eps oracle probes.

probe._norm_grid and probe._nu_grid run a whole grid of eps as one probe.
Each of their reports must equal, bit for bit, the report of the
start-by-start oracle of tests/_oracles.py at its eps, which places its
boundary seeds by the one-eps row search the grid replaced
(oracle.boundary_seed_rows).  The grids are unsorted, repeat an eps, and
end with an eps beyond the diameter of the unit ball, where no point is
feasible and the report is the sentinel.  The grid runs whole and in
chunks of two eps, and on sums in chunks of one eps too.
"""

import warnings

import numpy as np
import pytest

import _oracles as oracle
from bollobas_lab import _search, probe
from bollobas_lab.gallery import gallery, lifted_rank1_l1, rank1_l1_eta
from bollobas_lab.norm_attainment import norming_set
from bollobas_lab.numerical_radius import NuResult, nu_attaining_states
from bollobas_lab.operators import (Dense, Diagonal, Lift, RankOne, Scale,
                                    to_matrix)
from bollobas_lab.probe import ProbeBudget, validate_eta
from bollobas_lab.sequences import SequenceSpec
from bollobas_lab.spaces import INF, Space, StatePair, random_unit
from bollobas_lab.sums import LiftNuStates
from test_restart_rows import (_candidate_bits, _dense_norm_one,
                               _dense_nu_one, _diagonal, _same_report, _space)

EXPONENTS = (1.0, 1.5, 2.0, 3.0, INF)
FLAT = [(p, cx) for p in EXPONENTS for cx in (False, True)]
# unsorted, 0.3 twice, and 2.5: no unit vector lies that far from a set of
# unit vectors
GRID = [0.45, 0.1, 0.3, 0.3, 2.5]
EXACT = NuResult(1.0, "exact", None, "lift-profile")


def _run_grid(grid, T, eps_grid, chunk, **kwargs):
    """grid's reports at eps_grid under warnings-as-errors, with DRAW_SCALARS
    capped at chunk eps of restarts and segments (the segments once
    _segment_ends has them), or the whole grid in one chunk at None; every
    _norm_walk and _boundary_seeds call must take one chunk."""
    restarts = kwargs["budget"].restarts
    sizes = {"_norm_walk": [], "_boundary_seeds": []}
    with pytest.MonkeyPatch.context() as m:
        if chunk is not None:
            m.setattr(_search, "DRAW_SCALARS", chunk * restarts * T.domain.dim)
            ends = probe._segment_ends

            def segment_ends(space, dist_rows, bases, rng):
                out = ends(space, dist_rows, bases, rng)
                m.setattr(_search, "DRAW_SCALARS", chunk * (
                    restarts + len(out[0]) * len(out[2])) * space.dim)
                return out

            m.setattr(probe, "_segment_ends", segment_ends)
        for name, at in (("_norm_walk", 6), ("_boundary_seeds", 2)):
            body = getattr(probe, name)
            m.setattr(probe, name, lambda *a, _body=body, _n=sizes[name],
                      _at=at: _n.append(len(a[_at])) or _body(*a))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _desc, reports = grid(T, eps_grid, **kwargs)
    if grid is probe._norm_grid:
        assert sizes["_norm_walk"]
    n = len(eps_grid)
    chunk = chunk or n
    for got in sizes.values():
        assert got in ([], [min(chunk, n - at) for at in range(0, n, chunk)])
    return reports


def _check_grid(grid, one, T, eps_grid, chunks=(None, 2), **kwargs):
    """grid's reports at eps_grid, whole (None) and in chunks of the eps of
    chunks, against one's report at each eps."""
    want = {eps: one(T, eps, **kwargs) for eps in set(eps_grid)}
    for chunk in chunks:
        reports = _run_grid(grid, T, eps_grid, chunk, **kwargs)
        assert [r.epsilon for r in reports] == eps_grid
        for eps, got in zip(eps_grid, reports):
            _same_report(got, want[eps])
        assert reports[-1].sentinel


def _caller_norm_seeds(T, rng):
    """A norming point, points near it and a random point of the domain."""
    space = T.domain
    x0 = norming_set(T).sample(rng, 1)[0]
    r = random_unit(space, rng)
    near = [x0 + t * r for t in (0.1, 0.4, 1.0)]
    return [x0] + [z / space.norm(z) for z in near] + [random_unit(space, rng)]


@pytest.mark.parametrize("p,cx", FLAT)
def test_norm_grid_matches_the_probe_at_each_eps(p, cx):
    rng = np.random.default_rng(int(10 * p) if p < INF else 3)
    space = _space(p, cx, 4)
    ops = [_diagonal(space, rng)]
    if p in (1.0, 2.0) or p == INF and not cx:
        ops.append(_dense_norm_one(space, rng))
    if p < INF:
        f = random_unit(space.dual(), rng)
        ops.append(RankOne(np.eye(4, dtype=space.dtype)[0], f, space, space))
    for i, T in enumerate(ops):
        seeds = _caller_norm_seeds(T, rng) if i % 2 else ()
        _check_grid(probe._norm_grid, oracle.eta_probe_norm, T, GRID,
                    budget=ProbeBudget(8, 300), seed=i + 1,
                    extra_seeds=seeds)


@pytest.mark.parametrize("p,cx", FLAT)
def test_nu_grid_matches_the_probe_at_each_eps(p, cx):
    rng = np.random.default_rng(int(10 * p) if p < INF else 3)
    space = _space(p, cx, 4)
    ops = [_diagonal(space, rng)]
    if p in (1.0, 2.0, INF):
        ops.append(_dense_nu_one(space, rng))
    for i, T in enumerate(ops):
        seeds = ()
        if i == 0:
            M = to_matrix(T)
            att = nu_attaining_states(T).sample(rng, 1)[0]
            x = random_unit(space, rng)
            xs = probe.aligned_state_functional(x, M @ x, space)
            seeds = [StatePair(*(np.asarray(v, dtype=space.dtype)
                                 for v in (att.x, att.xstar)), space),
                     (x, xs), random_unit(space, rng)]
        _check_grid(probe._nu_grid, oracle.eta_probe_nu, T, GRID,
                    budget=ProbeBudget(8, 300), seed=i + 2,
                    extra_seeds=seeds)


@pytest.mark.parametrize("outer", [1.0, 2.0, INF])
def test_grids_on_lifts_match_the_probe_at_each_eps(outer):
    # the sums make no boundary seeds; the walk and the nu batch alone
    # decide the reports
    D = Diagonal(SequenceSpec((1.0, 0.9, 0.6, 0.3)), Space(3.0, 4))
    _check_grid(probe._norm_grid, oracle.eta_probe_norm, Lift(D, outer),
                GRID, (None, 1, 2), budget=ProbeBudget(20, 300), seed=6)
    rng = np.random.default_rng(5)
    H = Space(2.0, 3)
    M = rng.normal(size=(3, 3))
    base = Scale(1.0 / np.linalg.norm(M, 2), Dense(M, H, H))
    _check_grid(probe._nu_grid, oracle.eta_probe_nu, Lift(base, outer),
                GRID, (None, 1, 2), budget=ProbeBudget(19, 300), seed=8,
                nu_result=EXACT, attaining=LiftNuStates(base, outer))


def test_nu_grid_on_the_lifted_rank_one_matches_with_its_seeds():
    T, desc, seeds = lifted_rank1_l1(3)
    _check_grid(probe._nu_grid, oracle.eta_probe_nu, T, GRID,
                budget=ProbeBudget(32, 300), seed=7,
                nu_result=EXACT, attaining=desc, extra_seeds=seeds)


def test_a_norm_grid_makes_one_seed_and_one_pullback_search(monkeypatch):
    # the 9-eps grid of the G-RANK1-L1 validate-eta-half claim is one
    # chunk: one _itp_rows call places every eps's boundary seeds (2^-40)
    # and one pulls back every eps's walk (2^-30)
    calls = []
    itp = probe._itp_rows
    monkeypatch.setattr(probe, "_itp_rows", lambda *a: calls.append(a[4])
                        or itp(*a))
    e = gallery("G-RANK1-L1", 8)
    grid = [k / 10 for k in range(1, 10)]
    rep = validate_eta(e.expr, rank1_l1_eta().eta, grid, mode="norm",
                       budget=ProbeBudget(32, 300), seed=0)
    assert rep.passed and len(rep.rows) == 9
    assert calls == [40, 30]
    calls.clear()
    for eps in grid[:2]:
        probe.eta_probe_norm(e.expr, eps, budget=ProbeBudget(32, 300))
    assert calls == [40, 30] * 2


def test_validate_eta_resolves_its_grid_once(monkeypatch):
    # the norm and its norming set are resolved once per grid, and the
    # recheck of a violator reads the probe's norming set
    resolved = []
    resolve = probe._resolve_norm
    monkeypatch.setattr(probe, "_resolve_norm",
                        lambda T: resolved.append(T) or resolve(T))
    D = Diagonal(SequenceSpec((1.0, 0.9, 0.8, 0.6)), Space(2.0, 4))
    rep = validate_eta(D, lambda e: 0.5, [0.2, 0.5, 0.2], mode="norm",
                       budget=ProbeBudget(16, 300), seed=2)
    assert not rep.passed and len(resolved) == 1


def test_a_grid_walk_is_each_eps_walk_on_a_wavy_distance():
    # a distance that rises and falls along the ascent: a start that ends
    # at a large eps walks on for the smaller ones, and its later points,
    # feasible at the large eps again, are not that eps's
    D = Diagonal(SequenceSpec((1.0, 0.9, 0.7, 0.5, 0.3, 0.2)), Space(3.0, 6))
    space, M = D.domain, to_matrix(D)
    w = np.random.default_rng(2).normal(size=6)

    def dist_rows(X):
        return np.abs(np.sin(25.0 * (X @ w)))

    X0 = _search.restart_starts(space, 4, [16, 16])
    grid = [0.9, 0.3, 0.6, 0.05, 0.6]
    walks = probe._norm_walk(M, space, space, X0, 12, dist_rows, grid)
    for eps, got in zip(grid, walks):
        want, = probe._norm_walk(M, space, space, X0, 12, dist_rows, [eps])
        assert list(map(_candidate_bits, got)) == \
            list(map(_candidate_bits, want))
    assert len({tuple(map(_candidate_bits, w)) for w in walks}) == 4
