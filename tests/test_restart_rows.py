"""The probes' batched restart engine against the start-by-start batches.

tests/_oracles.py keeps eta_probe_norm and eta_probe_nu as they ran before
the restart batches became row programs: one start after another, with the
scalar random_polish, generic_power_ascent and ITP pullback search, each
polished start on its own block of draws, and each norm start ending at its
first infeasible step with a pullback toward its own feasible point.  The row programs must reproduce
their reports bit for bit, and raise no warning the old loops did not.
"batches only" runs switch the diagonal and boundary seeds off in both, so
that the restart batches alone decide the report.  The mixed-seed tests
give both probes caller seeds of every kind, with and without boundary
seeds: the library scores all seeds as rows, the oracles one at a time.
"""

import tracemalloc
import warnings

import numpy as np
import pytest

import _oracles as oracle
from bollobas_lab import _search, probe
from bollobas_lab._search import (batch_rngs, gaussian_directions,
                                  generic_power_ascent, polish_rows,
                                  polish_source)
from bollobas_lab.gallery import lifted_rank1_l1
from bollobas_lab.norm_attainment import (_sum_space_norm, norming_set,
                                          operator_norm)
from bollobas_lab.numerical_radius import (NuResult, _multistart_nu,
                                           nu_attaining_states,
                                           numerical_radius)
from bollobas_lab.operators import (Dense, Diagonal, Lift, RankOne, Scale,
                                    adjoint, identity, to_matrix)
from bollobas_lab.probe import ProbeBudget, eta_probe_norm, eta_probe_nu
from bollobas_lab.sequences import ConstantTail, SequenceSpec, geometric_tail
from bollobas_lab.spaces import (INF, Space, StatePair, SumSpace, random_unit,
                                 unit_phase)
from bollobas_lab.sums import LiftNuStates

EXPONENTS = (1.0, 1.5, 2.0, 3.0, INF)
# dims 1-12 spread over the (p, field) grid, and 60
DIMS = {(p, cx): (1 + (3 * i + 7 * cx) % 12, 60 if (i + cx) % 2 else 9)
        for i, p in enumerate(EXPONENTS) for cx in (False, True)}
GRID = [(p, cx, dim) for (p, cx), dims in DIMS.items() for dim in dims]


def _bits(v):
    if v is None:
        return None
    if isinstance(v, StatePair):
        return (_bits(v.x), _bits(v.xstar))
    a = np.asarray(v)
    return (a.dtype.str, a.shape, a.tobytes())


def _same_report(got, want):
    for name in ("eta_hat", "best_value", "witness_distance"):
        assert repr(getattr(got, name)) == repr(getattr(want, name)), name
    assert got.sentinel == want.sentinel
    assert _bits(got.witness) == _bits(want.witness)


def _run_both(new, old, *args, **kwargs):
    """old's report, and new's under warnings-as-errors."""
    want = old(*args, **kwargs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = new(*args, **kwargs)
    _same_report(got, want)
    return got


@pytest.fixture(params=[False, True], ids=["seeded", "batches-only"])
def batches_only(request, monkeypatch):
    if request.param:
        for name in ("_diag_norm_seeds", "_diag_nu_seeds", "_boundary_seeds"):
            monkeypatch.setattr(probe, name, lambda *a, **k: [])
    return request.param


def _space(p, cx, dim):
    return Space(p, dim, "complex" if cx else "real")


def _diagonal(space, rng):
    """A norm-one diagonal: two unimodular entries and a sub-unit rest."""
    phases = np.exp(2j * np.pi * rng.uniform(size=2)) if space.is_complex \
        else rng.choice([-1.0, 1.0], size=2)
    head = tuple(phases.tolist()) + tuple(rng.uniform(0.2, 0.9, 3).tolist())
    spec = SequenceSpec(head[:space.dim], ConstantTail(0.5))
    return Diagonal(spec, space)


def _dense_norm_one(space, rng):
    """A random dense operator scaled to norm one, where the norm route is
    exact (l1 domain, sup codomain, Hilbert) and the norming set known."""
    M = rng.normal(size=(space.dim, space.dim))
    if space.is_complex:
        M = M + 1j * rng.normal(size=M.shape)
    T = Dense(M, space, space)
    return Scale(1.0 / operator_norm(T).value, T)


def _dense_nu_one(space, rng):
    """A random dense operator scaled to numerical radius one, on the flat
    geometries with a certified radius and attaining-state rule."""
    M = rng.normal(size=(space.dim, space.dim))
    if space.is_complex:
        M = M + 1j * rng.normal(size=M.shape)
    if space.p == 2 and not space.is_complex:
        M = M + M.T
    return Scale(1.0 / numerical_radius(Dense(M, space, space)).value,
                 Dense(M, space, space))


@pytest.mark.parametrize("p,cx,dim", GRID)
def test_norm_probe_rows_match_start_by_start(p, cx, dim, batches_only):
    rng = np.random.default_rng(int(dim * 10 + p * 3 if p < INF else dim))
    space = _space(p, cx, dim)
    ops = [_diagonal(space, rng)]
    if 1 < dim <= 12 and (p in (1.0, 2.0) or p == INF and not cx):
        ops.append(_dense_norm_one(space, rng))
    if p < INF and dim <= 12:
        f = rng.normal(size=dim) + (1j * rng.normal(size=dim) if cx else 0)
        f = f / space.dual().norm(f)
        ops.append(RankOne(np.eye(dim, dtype=space.dtype)[0], f, space,
                           space))
    for T, restarts, eps in zip(ops, (37, 5, 16), (0.2, 0.6, 0.4)):
        _run_both(eta_probe_norm, oracle.eta_probe_norm, T, eps,
                  budget=ProbeBudget(restarts, 300), seed=dim)


@pytest.mark.parametrize("p,cx,dim", GRID)
def test_nu_probe_rows_match_start_by_start(p, cx, dim, batches_only):
    rng = np.random.default_rng(int(dim * 10 + p * 3 if p < INF else dim))
    space = _space(p, cx, dim)
    ops = [_diagonal(space, rng)]
    if dim > 1 and p in (1.0, 2.0, INF) and dim <= 12:
        ops.append(_dense_nu_one(space, rng))
    for T, restarts, eps in zip(ops, (21, 40), (0.2, 0.6)):
        _run_both(eta_probe_nu, oracle.eta_probe_nu, T, eps,
                  budget=ProbeBudget(restarts, 300), seed=dim + 1)


@pytest.fixture(params=[False, True], ids=["boundary", "no-boundary"])
def no_boundary(request, monkeypatch):
    if request.param:
        monkeypatch.setattr(probe, "_boundary_seeds", lambda *a, **k: [])


def _toward(x0, space, rng):
    """24 unit points on the way from x0 toward a random direction: the
    first ones inside the eps-ball of the attaining set, the last ones
    outside it, and those just outside it near the constrained maximum."""
    r = random_unit(space, rng)
    return [z / space.norm(z) for z in (x0 + t * r for t in
                                         np.geomspace(0.02, 5.0, 24))]


def _two_peaks(space):
    """A unit vector with two entries of the largest modulus and zeros
    after the third, so that on l1 and sup it has more than one supporting
    functional."""
    z = np.zeros(space.dim, dtype=space.dtype)
    z[:3] = [1.0, -1.0, 0.3]
    return z / space.norm(z)


# both fields where a point has many supporting functionals (l1, sup)
MIXED = [(1.0, False), (1.0, True), (1.5, True), (2.0, False), (3.0, True),
         (INF, False), (INF, True)]


@pytest.mark.parametrize("p,cx", MIXED)
def test_norm_probe_scores_mixed_seeds_as_the_seed_loop(p, cx, no_boundary):
    # caller seeds feasible and infeasible (a norming point and points near
    # it) and repeated.  -w, w the seedless report's witness, ties with w in
    # value, so a seed always decides the report
    rng = np.random.default_rng(int(10 * p) if p < INF else 7)
    space = _space(p, cx, 5)
    ops = [_diagonal(space, rng)]
    if p in (1.0, 2.0) or p == INF and not cx:
        ops.append(_dense_norm_one(space, rng))
    if p < INF:
        f = random_unit(space.dual(), rng)
        ops.append(RankOne(np.eye(5, dtype=space.dtype)[0], f, space, space))
    budget = ProbeBudget(4, 300)
    for T, eps in zip(ops, (0.1, 0.4, 0.25)):
        w = eta_probe_norm(T, eps, budget=budget, seed=3).witness
        x0 = norming_set(T).sample(rng, 1)[0]
        near = _toward(x0, space, rng)
        seeds = near[:12] + [x0, -w, near[5], w, -w, _two_peaks(space)] \
            + near[12:]
        got = _run_both(eta_probe_norm, oracle.eta_probe_norm, T, eps,
                        budget=budget, seed=3, extra_seeds=seeds)
        assert any(_bits(got.witness) == _bits(x) for x in seeds)


@pytest.mark.parametrize("p,cx", MIXED)
def test_nu_probe_scores_mixed_seeds_as_the_seed_loop(p, cx, no_boundary):
    # bare vectors, (x, x*) tuples and StatePairs, an attaining pair (an
    # infeasible seed) and repeated seeds; on l1 and sup one pair carries a
    # supporting functional other than the best state.  (-x, -x*), (x, x*)
    # the seedless report's witness, ties with it, so a seed always decides
    # the report
    rng = np.random.default_rng(int(10 * p) if p < INF else 7)
    space = _space(p, cx, 5)
    ops = [_diagonal(space, rng)]
    if p in (1.0, 2.0, INF):
        ops.append(_dense_nu_one(space, rng))
    budget = ProbeBudget(4, 300)
    for T, eps in zip(ops, (0.1, 0.4)):
        M = to_matrix(T)

        def state(x):
            return probe.aligned_state_functional(x, M @ x, space)

        att = nu_attaining_states(T).sample(rng, 1)[0]
        att = StatePair(*(np.asarray(v, dtype=space.dtype)
                          for v in (att.x, att.xstar)), space)
        near = _toward(att.x, space, rng)
        peak = _two_peaks(space)
        other = state(peak)
        if p == 1.0:
            other = np.conj(unit_phase(peak))
        elif p == INF:
            other = np.zeros_like(peak)
            other[1] = np.conj(unit_phase(peak[1]))
        seeds = [x if i % 3 == 0 else (x, state(x)) if i % 3 == 1
                 else StatePair(x, state(x), space)
                 for i, x in enumerate(near)]
        w = eta_probe_nu(T, eps, budget=budget, seed=3).witness
        flip = StatePair(-w.x, -w.xstar, space)
        mixed = seeds[:12] + [att, (peak, other), flip, seeds[7],
                              (w.x, w.xstar), (flip.x, flip.xstar),
                              (att.x, att.xstar)] + seeds[12:]
        got = _run_both(eta_probe_nu, oracle.eta_probe_nu, T, eps,
                        budget=budget, seed=3, extra_seeds=mixed)
        assert any(_bits(got.witness.x) == _bits(np.asarray(
            x.x if isinstance(x, StatePair) else x[0] if
            isinstance(x, tuple) else x)) for x in mixed)


def test_nu_probe_rows_at_the_longest_exact_budget():
    # iters = 2199 gives 21 polish rounds, the most a step of 0.4 can take
    # without halving below 1e-7, so no start stops early.  At 2500 (25
    # rounds) every start on the sup diagonal stops partway through its
    # block: its state value stays constant while the peak set does
    for sp, iters in ((Space(3.0, 7, "complex"), 2199),
                      (Space(3.0, 7, "complex"), 2500),
                      (Space(INF, 6, "complex"), 2500)):
        T = _diagonal(sp, np.random.default_rng(3))
        _run_both(eta_probe_nu, oracle.eta_probe_nu, T, 0.3,
                  budget=ProbeBudget(16, iters), seed=2)


def test_norm_probe_rows_raise_no_warning_past_the_walk():
    # fast geometric decay: a start that stepped on past its end would
    # ascend toward images so small that an alignment step overflows
    spec = SequenceSpec((complex(-1.0, 1.2246467991473532e-16),),
                        geometric_tail(1.0, 0.3104983345650063))
    T = Diagonal(spec, Space(2.0, 32, "complex"))
    _run_both(eta_probe_norm, oracle.eta_probe_norm, T, 0.1,
              budget=ProbeBudget(16, 200), seed=1988384925)


def test_norm_probe_rows_on_a_lift(batches_only):
    D = Diagonal(SequenceSpec((1.0, 0.9, 0.6, 0.3)), Space(3.0, 4))
    for outer in (1.0, 2.0, INF):
        for eps in (0.3, 0.7):
            _run_both(eta_probe_norm, oracle.eta_probe_norm, Lift(D, outer),
                      eps, budget=ProbeBudget(20, 300), seed=6)


def _hilbert_adjoint(case):
    """The adjoint of a random real Hilbert operator of norm one, dim 2-4."""
    rng = np.random.default_rng(case)
    d = 2 + case % 3
    M = rng.normal(size=(d, d))
    H = Space(2.0, d)
    return adjoint(Dense(M / np.linalg.svd(M)[1][0], H, H))


def _candidate_bits(c):
    return None if c is None else tuple(map(_bits, c))


@pytest.mark.parametrize("eps", (0.2, 0.5, 0.8))
def test_ascent_paths_are_row_independent(eps):
    # permuting the starts permutes every start's candidate, bit for bit:
    # no row's walk or pullback depends on the rows before it
    for case in range(60):
        T = _hilbert_adjoint(case)
        space, cod, M = T.domain, T.codomain, to_matrix(T)
        dist_rows = norming_set(T).distance_rows
        rng = np.random.default_rng([case, 1])
        X0 = np.array([random_unit(space, rng) for _ in range(16)])
        perm = rng.permutation(16)
        got = probe._norm_walk(M, space, cod, X0, 10, dist_rows, eps)
        got_p = probe._norm_walk(M, space, cod, X0[perm], 10, dist_rows, eps)
        assert len(got) == len(got_p) == 16
        for i, r in enumerate(perm):
            assert _candidate_bits(got_p[i]) == _candidate_bits(got[r]), case


def _start_paths(T, seed, starts, steps, dist_of, eps):
    """Each norm start's points, one start after another, as the walk
    visits them: the random point, then generic_power_ascent(iters=3)
    steps until one is allclose to its point, `steps` of them, or the
    first infeasible one, which ends the path."""
    space, cod, M = T.domain, T.codomain, to_matrix(T)
    rng = batch_rngs(seed, 1)[0]
    paths = []
    for _ in range(starts):
        x = random_unit(space, rng)
        path = [x]
        for _ in range(steps):
            xn = generic_power_ascent(M, space, cod, x, iters=3)[1]
            if np.allclose(xn, x):
                break
            path.append(xn)
            if dist_of(xn) < eps - probe.FEAS_TOL:
                break
            x = xn
        paths.append(path)
    return paths


def test_a_start_infeasible_from_its_first_step_makes_no_pullback(
        monkeypatch):
    # start 3's random point and its first step are both infeasible, after
    # feasible points of earlier starts: it ends at that step and pulls
    # back toward nothing; every pullback searches from its start's last
    # step toward the feasible point before it
    eps, pulls = 0.8, []
    T = _hilbert_adjoint(0)
    itp = probe._itp_rows

    def spy_itp(X0, X1, *args):
        if args[2] == 30:           # (D0, D1, bits, ...): the pullbacks
            pulls.extend(zip(X0, X1))
        return itp(X0, X1, *args)

    monkeypatch.setattr(probe, "_itp_rows", spy_itp)
    _run_both(eta_probe_norm, oracle.eta_probe_norm, T, eps,
              budget=ProbeBudget(16, 1000), seed=0)
    desc = norming_set(T)
    paths = _start_paths(T, 0, 16, 10, desc.distance, eps)
    feas = [[desc.distance(x) >= eps - probe.FEAS_TOL for x in path]
            for path in paths]
    assert any(map(any, feas[:3]))
    assert len(paths[3]) >= 2 and not any(feas[3][:2])
    assert pulls
    ends = {_bits(path[-1]): r for r, path in enumerate(paths)}
    assert _bits(paths[3][-1]) not in {_bits(hi) for hi, _ in pulls}
    for hi, lo in pulls:
        r = ends[_bits(hi)]
        assert not feas[r][-1] and feas[r][-2]
        assert _bits(lo) == _bits(paths[r][-2])


def test_norm_walk_keeps_the_first_of_equal_values(monkeypatch):
    # a pullback that offers each anchor again, at another distance, ties
    # bit for bit with the value the ascent gave that point, and loses: the
    # candidates are those of a walk whose pullbacks find nothing
    T, eps = _hilbert_adjoint(0), 0.8
    space, cod, M = T.domain, T.codomain, to_matrix(T)
    dist_rows = norming_set(T).distance_rows
    rng = batch_rngs(0, 1)[0]
    X0 = np.array([random_unit(space, rng) for _ in range(16)])
    anchors = []

    def nothing(*args):
        return iter(())

    def offer_anchors(X_hi, X_lo, D_hi, D_lo, *args):
        anchors.extend(X_lo)
        yield np.arange(len(X_lo)), X_lo, D_lo + 1.0

    walks = []
    for itp in (nothing, offer_anchors):
        monkeypatch.setattr(probe, "_itp_rows", itp)
        walks.append(probe._norm_walk(M, space, cod, X0, 10, dist_rows, eps))
    assert anchors
    assert list(map(_candidate_bits, walks[1])) == \
        list(map(_candidate_bits, walks[0]))


def test_norm_walk_memory_does_not_grow_with_its_steps():
    # the walk folds each step as it comes: stepping twice as far keeps
    # no more of a start than its current point and its best
    spec = SequenceSpec((1.0, 0.9), geometric_tail(0.8, 0.99))
    T = Diagonal(spec, Space(3.0, 64))
    eta_probe_norm(T, 0.3, budget=ProbeBudget(256, 2000), seed=1)
    peaks = {}
    for iters in (1000, 2000):
        tracemalloc.start()
        try:
            eta_probe_norm(T, 0.3, budget=ProbeBudget(256, iters), seed=1)
            peaks[iters] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[2000] <= 1.05 * peaks[1000], peaks


def test_nu_probe_rows_on_lifts(batches_only):
    exact = NuResult(1.0, "exact", None, "lift-profile")
    T, desc, seeds = lifted_rank1_l1(3)
    _run_both(eta_probe_nu, oracle.eta_probe_nu, T, 0.5,
              budget=ProbeBudget(32, 300), seed=7, nu_result=exact,
              attaining=desc, extra_seeds=seeds)
    rng = np.random.default_rng(5)
    H = Space(2.0, 3)
    M = rng.normal(size=(3, 3))
    base = Scale(1.0 / np.linalg.norm(M, 2), Dense(M, H, H))
    for outer in (1.0, INF):
        _run_both(eta_probe_nu, oracle.eta_probe_nu, Lift(base, outer), 0.4,
                  budget=ProbeBudget(19, 300), seed=8, nu_result=exact,
                  attaining=LiftNuStates(base, outer))


def test_nu_probe_rows_on_complex_lifts(batches_only):
    # the start-by-start batches measure LiftNuStates by the scalar
    # oracle, complex blocks included
    exact = NuResult(1.0, "exact", None, "lift-profile")
    rng = np.random.default_rng(9)
    H = Space(2.0, 3, "complex")
    M = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    base = Scale(1.0 / np.linalg.norm(M, 2), Dense(M, H, H))
    for outer in (1.0, INF):
        _run_both(eta_probe_nu, oracle.eta_probe_nu, Lift(base, outer), 0.4,
                  budget=ProbeBudget(19, 300), seed=4, nu_result=exact,
                  attaining=LiftNuStates(base, outer))


SUMS = [SumSpace((Space(3.0, 2), Space(1.5, 3)), 2.0),
        SumSpace((Space(1.0, 2, "complex"), Space(INF, 2, "complex")), 1.0),
        SumSpace((Space(2.0, 3), Space(2.0, 3)), INF)]


@pytest.mark.parametrize("space", SUMS, ids=["sum-2", "sum-1-complex",
                                             "sum-inf"])
def test_sum_space_norm_rows_match_start_by_start(space):
    rng = np.random.default_rng(13)
    M = rng.normal(size=(space.dim, space.dim))
    if space.is_complex:
        M = M + 1j * rng.normal(size=M.shape)
    for seed, restarts in ((3, 16), (4, 21), (5, 37)):
        got = _sum_space_norm(M, space, space, restarts, 40, seed)
        want = oracle.sum_space_norm(M, space, space, restarts, 40, seed)
        assert repr(got.value) == repr(want[0])
        assert _bits(got.witness) == _bits(want[1])


@pytest.mark.parametrize("space", [Space(3.0, 4), Space(1.5, 3, "complex"),
                                   SUMS[0], SUMS[1]],
                         ids=["l3", "l1.5-complex", "sum-2", "sum-1-complex"])
def test_multistart_nu_rows_match_start_by_start(space):
    # the zero matrix gives no gain, so every start stops at round 29:
    # at iters 29 that is its last round, at 120 partway through its block
    rng = np.random.default_rng(17)
    M = rng.normal(size=(space.dim, space.dim))
    if space.is_complex:
        M = M + 1j * rng.normal(size=M.shape)
    cases = [(M, 30), (M, 40), (M, 120), (M, 300), (0 * M, 29), (0 * M, 120)]
    for A, iters in cases:
        got = _multistart_nu(A, space, 16, iters, 5)
        want = oracle.multistart_nu(A, space, 16, iters, 5)
        assert repr(got.value) == repr(float(want[0]))
        assert _bits(got.witness.x) == _bits(want[1])


def _chunk_rounds(monkeypatch, K, count, tries, dim):
    """Cap polish_source's buffer at K rounds of every start."""
    monkeypatch.setattr(_search, "DRAW_SCALARS", K * count * tries * dim)


@pytest.mark.parametrize("rounds", [3, 4, 9], ids=["below-K", "K", "2K+1"])
@pytest.mark.parametrize("space", [Space(3.0, 3), Space(1.5, 2, "complex"),
                                   SUMS[0], SUMS[1]],
                         ids=["l3", "l1.5-complex", "sum-2", "sum-1-complex"])
def test_polish_source_matches_the_full_blocks(space, rounds, monkeypatch):
    # K = 4 rounds a chunk; rows stop in chunk 0, at its end, in chunk 1 and
    # in the last chunk, and are read only while live, as polish_rows reads
    sizes, tries = [2, 3], 3
    _chunk_rounds(monkeypatch, 4, sum(sizes), tries, space.dim)
    rngs, again = batch_rngs(9, 2), batch_rngs(9, 2)
    X0, directions = polish_source(rngs, sizes, space, rounds, tries)
    want = [oracle.polish_block(rng, space, rounds, tries)
            for rng, n in zip(again, sizes) for _ in range(n)]
    assert _bits(X0) == _bits(np.array([x for x, _ in want]))
    # each generator goes on where the full blocks leave it
    assert [r.normal() for r in rngs] == [r.normal() for r in again]
    stops = np.minimum([1, 4, 6, rounds - 1, rounds], rounds)
    for r in range(rounds):
        rows = np.flatnonzero(stops > r)
        assert _bits(directions(r, rows)) == \
            _bits(np.array([want[i][1][r] for i in rows]))


@pytest.mark.parametrize("restarts", [1, 8, 37, 64])
@pytest.mark.parametrize("space", [Space(3.0, 3), SUMS[0]],
                         ids=["l3", "sum-2"])
def test_multistart_nu_stacks_its_batches_over_chunks(space, restarts,
                                                      monkeypatch):
    # one polish_rows call over every batch, its draws in chunks of 16 of
    # the 200 rounds, against the batches run start by start
    _chunk_rounds(monkeypatch, 16, restarts, 4, space.dim)
    M = np.random.default_rng(19).normal(size=(space.dim, space.dim))
    got = _multistart_nu(M, space, restarts, 200, 6)
    want = oracle.multistart_nu(M, space, restarts, 200, 6)
    assert repr(got.value) == repr(float(want[0]))
    assert _bits(got.witness.x) == _bits(want[1])


@pytest.mark.parametrize("K", [None, 7], ids=["one-chunk", "chunks-of-7"])
def test_nu_probe_stacks_its_batches_over_chunks(K, monkeypatch):
    exact = NuResult(1.0, "exact", None, "lift-profile")
    rng = np.random.default_rng(23)
    H = Space(2.0, 3)
    M = rng.normal(size=(3, 3))
    base = Scale(1.0 / np.linalg.norm(M, 2), Dense(M, H, H))
    flat = _diagonal(Space(3.0, 4), rng)
    for budget in (ProbeBudget(64, 2000), ProbeBudget(37, 3000)):
        if K:
            _chunk_rounds(monkeypatch, K, budget.restarts, 3, 6)
        _run_both(eta_probe_nu, oracle.eta_probe_nu, flat, 0.3,
                  budget=budget, seed=12)
        _run_both(eta_probe_nu, oracle.eta_probe_nu, Lift(base, 2.0), 0.4,
                  budget=budget, seed=13, nu_result=exact,
                  attaining=LiftNuStates(base, 2.0))


def test_multistart_nu_draws_in_bounded_memory():
    # the old full block of 8 x 5000 x 4 x 16 scalars was 20.5 MB; the
    # chunked source keeps one chunk of every start whatever the budget
    space = SumSpace((Space(3.0, 8), Space(1.5, 8)), 2.0)
    M = np.random.default_rng(3).normal(size=(16, 16))
    peaks = {}
    for iters in (500, 5000):
        tracemalloc.start()
        try:
            _multistart_nu(M, space, 8, iters, 1)
            peaks[iters] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[5000] < 2e6
    assert peaks[5000] < 1.1 * peaks[500]


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_multistart_nu_on_a_psum_lift_matches_start_by_start(p):
    # psum's search: the lifted identity on a p-sum of Hilbert blocks at
    # iters 200
    lifted = Lift(identity(Space(2.0, 4)), p)
    M, space = to_matrix(lifted), lifted.sum_space
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _multistart_nu(M, space, 16, 200, 3)
    want = oracle.multistart_nu(M, space, 16, 200, 3)
    assert repr(got.value) == repr(float(want[0]))
    assert _bits(got.witness.x) == _bits(want[1])
    _v, xs = oracle.state_functional(M @ want[1], want[1], space)
    assert _bits(got.witness.xstar) == _bits(xs)


@pytest.mark.parametrize("space", [
    Space(3.0, 5), Space(1.0, 4, "complex"), Space(INF, 6)] + SUMS[:2],
    ids=["l3", "l1-complex", "sup", "sum-2", "sum-1-complex"])
def test_one_row_calls_match_the_scalar_bodies(space):
    rng = np.random.default_rng(11)
    M = rng.normal(size=(space.dim, space.dim))
    if space.is_complex:
        M = M + 1j * rng.normal(size=M.shape)
    for k in range(4):
        x0 = random_unit(space, rng)
        got = generic_power_ascent(M, space, space, x0, iters=40)
        want = oracle.generic_power_ascent(M, space, space, x0, iters=40)
        assert repr(got[0]) == repr(want[0]) and _bits(got[1]) == \
            _bits(want[1])

        def value_of(x):
            return abs(complex((M @ x)[0])), x[0]

        def value_rows(X):
            v, a = value_of(X[0])
            return np.array([v]), np.array([a])

        D = gaussian_directions(np.random.default_rng(k), 40 * 3,
                                space).reshape(1, 40, 3, -1)
        got = polish_rows(x0[None, :], value_rows, space,
                          lambda r, rows: D[rows, r], 40, 3, 0.5, 1e-3)
        want = oracle.random_polish(
            x0, value_of,
            oracle.direction_block(np.random.default_rng(k), space, 40, 3),
            space, 0.5, 1e-3)
        assert repr(float(got[0][0])) == repr(want[0])
        assert _bits(got[1][0]) == _bits(want[1]) and got[2][0] == want[2]
