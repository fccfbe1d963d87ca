import os
import subprocess
import sys
import warnings
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from bollobas_lab import numerical_radius as numerical_radius_module
from bollobas_lab import probe as probe_module
from bollobas_lab.errors import (DimensionMismatchError, GeometryError,
                                 NotNormalizedError)
from bollobas_lab.gallery import gallery
from bollobas_lab.membership import eta_const, eta_linear
from bollobas_lab.norm_attainment import (NormingSetDescriptor, norming_set,
                                          operator_norm)
from bollobas_lab.numerical_radius import DiagonalNuStates, NuStatesDescriptor
from bollobas_lab.operators import Diagonal, identity, to_matrix
from bollobas_lab.probe import (ProbeBudget, aligned_state_functional,
                                eta_probe_norm, eta_probe_nu, validate_eta)
from bollobas_lab.sequences import SequenceSpec
from bollobas_lab.spaces import INF, Space, StatePair, pair

BUD = ProbeBudget(restarts=32, iters=300)


def _diag(coeffs, p):
    return Diagonal(SequenceSpec(tuple(coeffs)), Space(p, len(coeffs)))


def test_witness_revalidates():
    D = _diag([1.0, 0.8, 0.5, 0.3], 2.0)
    nr = operator_norm(D)
    ns = norming_set(D, nr)
    rep = eta_probe_norm(D, 0.25, budget=BUD, seed=3)
    assert not rep.sentinel
    # independent re-evaluation of the reported witness
    val = Space(2, 4).norm(D(rep.witness))
    assert val == pytest.approx(rep.best_value, abs=1e-8)
    assert ns.distance(rep.witness) >= 0.25 - 1e-8
    assert rep.eta_hat == pytest.approx(1 - val, abs=1e-12)


def test_monotone_in_eps():
    D = _diag([1.0, 0.9, 0.6], 2.0)
    vals = []
    for eps in (0.1, 0.3, 0.5, 0.8):
        vals.append(eta_probe_norm(D, eps, budget=BUD, seed=1).eta_hat)
    assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))


def test_identity_sentinel_norm_and_nu():
    I = identity(Space(2, 5))
    rep = eta_probe_norm(I, 0.4, budget=BUD, seed=0)
    assert rep.sentinel and rep.eta_hat == np.inf
    repn = eta_probe_nu(I, 0.4, budget=BUD, seed=0)
    assert repn.sentinel


def test_requires_normalization():
    D = _diag([0.5, 0.25], 2.0)
    with pytest.raises(NotNormalizedError):
        eta_probe_norm(D, 0.2, budget=BUD)


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("probe, seed, error", [
    (eta_probe_norm, [_NAN, 0.5, 0.5], GeometryError),
    (eta_probe_norm, [1.0, _INF, 0.0], GeometryError),
    (eta_probe_norm, [1.0, 0.0], DimensionMismatchError),
    (eta_probe_nu, [_NAN, 0.5, 0.5], GeometryError),
    (eta_probe_nu, [1.0, _INF, 0.0], GeometryError),
    (eta_probe_nu, [1.0, 0.0], DimensionMismatchError),
    (eta_probe_nu, ([1.0, 0.0, 0.0], [_NAN, 0.0, 0.0]), GeometryError),
    (eta_probe_nu, ([1.0, 0.0, 0.0], [1.0, 0.0]), DimensionMismatchError),
    (eta_probe_nu, StatePair(np.array([1.0, 0.0, 0.0]),
                             np.array([1.0, 0.0, _INF]), Space(2.0, 3)),
     GeometryError),
    (eta_probe_norm, [0.0, 3.0, 0.0], GeometryError),
    (eta_probe_nu, [0.0, 3.0, 0.0], GeometryError),
    (eta_probe_nu, ([0.0, 1.0, 0.0], [0.0, 3.0, 0.0]), GeometryError),
    (eta_probe_nu, ([0.0, 3.0, 0.0], [0.0, 1.0, 0.0]), GeometryError),
    (eta_probe_nu, ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]), GeometryError),
    (eta_probe_nu, StatePair(np.array([0.6, 0.0, 0.0]),
                             np.array([1.0, 0.0, 0.0]), Space(2.0, 3)),
     GeometryError),
], ids=["norm-nan", "norm-inf", "norm-short", "nu-nan", "nu-inf",
        "nu-short", "nu-pair-nan-xstar", "nu-pair-short-xstar",
        "nu-state-pair-inf-xstar", "norm-off-sphere", "nu-off-sphere",
        "nu-pair-off-sphere-xstar", "nu-pair-off-sphere-x",
        "nu-pair-unpaired", "nu-state-pair-off-sphere-x"])
def test_bad_extra_seeds_raise(probe, seed, error):
    D = _diag([1.0, 0.8, 0.5], 2.0)
    with pytest.raises(error):
        probe(D, 0.25, budget=ProbeBudget(restarts=4, iters=100), seed=0,
              extra_seeds=[seed])


@pytest.mark.parametrize("restarts,iters", [(0, 100), (-3, 100), (4, 0),
                                             (4, -1)])
def test_probe_budget_below_one_raises(restarts, iters):
    with pytest.raises(ValueError):
        ProbeBudget(restarts=restarts, iters=iters)


@pytest.mark.parametrize("probe", [eta_probe_norm, eta_probe_nu],
                         ids=["norm", "nu"])
@pytest.mark.parametrize("eps", [float("nan"), float("inf"), 0.0, -1.0])
def test_probe_eps_not_finite_and_positive_raises(probe, eps):
    D = _diag([1.0, 0.7, 0.2], 3.0)
    with pytest.raises(GeometryError):
        probe(D, eps, budget=ProbeBudget(restarts=4, iters=100))


def test_extra_seeds_within_pi_tol_are_accepted():
    # the tolerance is StatePair.validate's PI_TOL: a seed off the sphere
    # by 5e-10 passes, bare or as the x* of a pair
    D = _diag([1.0, 0.8, 0.5], 2.0)
    x = np.array([0.0, 1.0 + 5e-10, 0.0])
    budget = ProbeBudget(restarts=4, iters=100)
    eta_probe_norm(D, 0.25, budget=budget, seed=0, extra_seeds=[x])
    eta_probe_nu(D, 0.25, budget=budget, seed=0,
                 extra_seeds=[x, (np.array([0.0, 1.0, 0.0]), x)])


@pytest.mark.parametrize("probe", [eta_probe_norm, eta_probe_nu],
                         ids=["norm", "nu"])
def test_a_tuple_of_two_scalars_is_a_bare_seed(probe):
    # at dim 2 the tuple (0.6, 0.8) is the x (0.6, 0.8), as the list is,
    # not an (x, x*) pair of two scalars
    D = _diag([1.0, 0.5], 2.0)
    budget = ProbeBudget(restarts=4, iters=100)
    reps = [probe(D, 0.3, budget=budget, seed=1, extra_seeds=[s])
            for s in ((0.6, 0.8), [0.6, 0.8])]
    assert reps[0].describe() == reps[1].describe()
    assert repr(reps[0].witness) == repr(reps[1].witness)


@pytest.mark.parametrize("probe", [eta_probe_norm, eta_probe_nu])
def test_unsampleable_attaining_set_probes_without_boundary_seeds(
        probe, monkeypatch):
    D = _diag([1.0, 0.8, 0.5, 0.3], 3.0)
    args = (D, 0.3)
    kwargs = dict(budget=ProbeBudget(restarts=8, iters=200), seed=4)
    with monkeypatch.context() as m:
        m.setattr(probe_module, "_boundary_seeds", lambda *a, **k: [])
        want = probe(*args, **kwargs)

    def refuse(self, rng, count=1):
        raise NotImplementedError

    for cls in (NormingSetDescriptor, DiagonalNuStates):
        monkeypatch.setattr(cls, "sample", refuse)
    got = probe(*args, **kwargs)
    assert got.describe() == want.describe()
    assert repr(got.witness) == repr(want.witness)


@pytest.mark.parametrize("probe", [eta_probe_norm, eta_probe_nu])
def test_a_bug_in_sample_propagates(probe, monkeypatch):
    def broken(self, rng, count=1):
        raise TypeError("broken sample")

    for cls in (NormingSetDescriptor, DiagonalNuStates):
        monkeypatch.setattr(cls, "sample", broken)
    with pytest.raises(TypeError, match="broken sample"):
        probe(_diag([1.0, 0.8, 0.5], 2.0), 0.25,
              budget=ProbeBudget(restarts=4, iters=100), seed=0)


def test_seed_stage_makes_no_scalar_oracle_call(monkeypatch):
    """The seeds are scored as rows: no per-seed distance, pair distance or
    state functional, with boundary seeds and caller seeds in play."""
    calls = []

    def counted(owner, name):
        body = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return body(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counted(NormingSetDescriptor, "distance")
    counted(NuStatesDescriptor, "pair_distance")
    for module in (numerical_radius_module, probe_module):
        if hasattr(module, "best_state_functional"):
            counted(module, "best_state_functional")
    sp = Space(3.0, 5)
    D = Diagonal(SequenceSpec((1.0, 0.9, 0.6, 0.4, 0.2)), sp)
    boundary = []

    def spy(*args, **kwargs):
        seeds = bisect(*args, **kwargs)
        boundary.append(len(seeds))
        return seeds

    bisect = probe_module._boundary_seeds
    monkeypatch.setattr(probe_module, "_boundary_seeds", spy)
    x = np.array([0.0, 0.6, 0.8, 0.0, 0.0])
    x = x / sp.norm(x)
    xs = aligned_state_functional(x, D(x), sp)
    calls.clear()
    budget = ProbeBudget(restarts=16, iters=300)
    eta_probe_norm(D, 0.3, budget=budget, seed=1, extra_seeds=[x, x])
    eta_probe_nu(D, 0.3, budget=budget, seed=1,
                 extra_seeds=[x, (x, xs), StatePair(x, xs, sp)])
    assert len(boundary) == 2 and min(boundary) > 0
    assert calls == []


def test_nu_witness_is_state_pair():
    D = _diag([1.0, -1.0, 0.4, 0.2], 1.0)
    rep = eta_probe_nu(D, 0.3, budget=BUD, seed=5)
    assert not rep.sentinel
    sp = rep.witness
    sp.validate(tol=1e-7)
    val = abs(pair(sp.xstar, D(sp.x)))
    assert val == pytest.approx(rep.best_value, abs=1e-8)


def test_deterministic_across_threads():
    env = dict(os.environ)
    code = (
        "import numpy as np\n"
        "from bollobas_lab.operators import Diagonal\n"
        "from bollobas_lab.sequences import SequenceSpec\n"
        "from bollobas_lab.spaces import Space\n"
        "from bollobas_lab.probe import eta_probe_norm, ProbeBudget\n"
        "D = Diagonal(SequenceSpec((1.0, 0.9, 0.7, 0.4, 0.2, 0.1)), Space(2, 6))\n"
        "rep = eta_probe_norm(D, 0.37, budget=ProbeBudget(64, 400), seed=11)\n"
        "print(repr(rep.eta_hat), repr(rep.best_value))\n"
    )
    outs = []
    for threads in ("1", "4"):
        env["BOLLOBAS_LAB_THREADS"] = threads
        res = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        outs.append(res.stdout)
    assert outs[0] == outs[1]


def test_validate_eta_pass_and_fail():
    # a generous modulus candidate fails; a conservative one passes
    D = _diag([1.0, 0.9, 0.8, 0.6], 2.0)
    good = validate_eta(D, eta_const(1e-6), [0.2, 0.5], mode="norm",
                        budget=BUD, seed=2)
    assert good.passed
    bad = validate_eta(D, eta_const(0.5), [0.2], mode="norm",
                       budget=BUD, seed=2)
    assert not bad.passed
    assert bad.violating_witness is not None


def _planted(real, value=None, distance=None, witness=None):
    """A grid probe that returns real's reports with their value, distance
    or witness replaced."""
    def probe(*args, **kwargs):
        desc, reports = real(*args, **kwargs)
        for rep in reports:
            rep.best_value = rep.best_value if value is None else value
            rep.witness_distance = rep.witness_distance if distance is None \
                else distance
            rep.witness = rep.witness if witness is None else witness
        return desc, reports
    return probe


def test_validate_eta_rejects_a_planted_false_violator(monkeypatch):
    D = _diag([1.0, 0.9, 0.8, 0.6], 2.0)
    e2 = np.array([0.0, 1.0, 0.0, 0.0])
    norm_grid, nu_grid = probe_module._norm_grid, probe_module._nu_grid
    # the probe claims value 1 at e2, which the recheck reads as 0.9
    monkeypatch.setattr(probe_module, "_norm_grid", _planted(
        norm_grid, value=1.0, witness=e2))
    rep = validate_eta(D, eta_const(1e-6), [0.2, 0.5], mode="norm",
                       budget=BUD, seed=2)
    assert rep.passed and rep.violating_witness is None
    assert all(r.refuted and not r.violated for r in rep.rows)
    # a true violator whose distance the probe misreports is refuted too
    monkeypatch.setattr(probe_module, "_norm_grid", _planted(
        norm_grid, distance=1.5))
    rep = validate_eta(D, eta_const(0.5), [0.2], mode="norm", budget=BUD,
                       seed=2)
    assert rep.passed and rep.rows[0].refuted
    # the nu probe's pairs are rechecked by pair and pair_distance
    x = np.array([0.6, 0.8, 0.0, 0.0])
    monkeypatch.setattr(probe_module, "_nu_grid", _planted(
        nu_grid, value=1.0, witness=StatePair(x, x, Space(2, 4))))
    rep = validate_eta(D, eta_const(1e-6), [0.2], mode="nu", budget=BUD,
                       seed=2)
    assert rep.passed and rep.rows[0].refuted


def test_validate_eta_keeps_true_violators_through_the_recheck():
    D = _diag([1.0, 0.9, 0.8, 0.6], 2.0)
    for mode in ("norm", "nu"):
        rep = validate_eta(D, eta_const(0.5), [0.2, 0.5], mode=mode,
                           budget=BUD, seed=2)
        assert not rep.passed
        assert not any(r.refuted for r in rep.rows)
        witness = rep.violating_witness
        x = witness if mode == "norm" else witness.x
        value = Space(2, 4).norm(D(x)) if mode == "norm" else \
            abs(pair(witness.xstar, D(x)))
        assert value > 0.5 + 1e-9


def test_validate_eta_identity_vacuous():
    I = identity(Space(2, 4))
    rep = validate_eta(I, eta_linear(1.0), [0.2, 0.6], mode="norm",
                       budget=BUD, seed=0)
    assert rep.passed
    assert all(r.sentinel for r in rep.rows)


def test_validate_eta_rejects_an_unknown_mode_on_an_empty_grid():
    D = _diag([1.0, 0.5], 2.0)
    with pytest.raises(GeometryError):
        validate_eta(D, eta_const(0.1), [], mode="bogus")
    rep = validate_eta(D, eta_const(0.1), [], mode="nu")
    assert rep.passed and rep.rows == []


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")],
                         ids=["nan", "inf", "-inf"])
def test_validate_eta_refuses_a_non_finite_candidate(bad, monkeypatch):
    # a NaN level compares false with every value, so it passed where
    # eta_const(0.125) fails; the candidate is checked at every eps before
    # the grid's one probe runs
    T = gallery("G-DIAG-ZSTAR", 8).expr
    budget = ProbeBudget(16, 200)
    assert not validate_eta(T, eta_const(0.125), [0.5], mode="norm",
                            budget=budget).passed
    runs = []
    for name in ("_norm_grid", "_nu_grid"):
        monkeypatch.setattr(probe_module, name,
                            lambda *a, **k: runs.append(a))
    for mode in ("norm", "nu"):
        with pytest.raises(GeometryError, match=r"eta_fn\(0\.5\)"):
            validate_eta(T, lambda e: bad, [0.5], mode=mode, budget=budget)
        with pytest.raises(GeometryError, match=r"eta_fn\(0\.7\)"):
            validate_eta(T, lambda e: bad if e == 0.7 else 0.1,
                         [0.2, 0.7, 0.4], mode=mode, budget=budget)
        with pytest.raises(GeometryError, match="got nan"):
            validate_eta(T, eta_const(0.1), [0.2, float("nan")], mode=mode,
                         budget=budget)
    assert runs == []


def test_probe_csv_row_format():
    D = _diag([1.0, 0.5], 2.0)
    rep = eta_probe_norm(D, 0.5, budget=BUD, seed=0)
    row = rep.csv_row(2)
    parts = row.split(",")
    assert len(parts) == 6
    assert parts[0] == "2" and parts[-1] == "0"


def test_norm_probe_floor_respected_small_sweep():
    """Brute-force cross-check of the certified floor at small dimension."""
    from bollobas_lab.membership import diag_norm_eta_floor
    from bollobas_lab.sequences import ConstantTail
    spec = SequenceSpec((1.0,), ConstantTail(0.6))
    coeffs = spec.materialize(4)
    D = _diag(coeffs.tolist(), 2.0)
    ns = norming_set(D)
    floor = diag_norm_eta_floor(spec, 2.0, 0.2)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(4000):
        x = rng.normal(size=4)
        x /= np.linalg.norm(x)
        if ns.distance(x) >= 0.2:
            worst = max(worst, Space(2, 4).norm(D(x)))
    assert 1 - worst >= floor - 1e-9


# ---------------------------------------------------------------------------
# the ITP root-finder of the boundary seeds and pullbacks
# ---------------------------------------------------------------------------

def _segment_search(dist_of_t, t_star, d0, d1, eps, bits=40):
    """_itp_rows on the one l1 segment from e1 toward e2, whose normalized
    point at t is (1 - t, t): the number of steps, the (t, distance) of every
    point measured, and what each step yielded.  Warnings are errors."""
    space = Space(1.0, 2)
    seen = []

    def dist_rows(C):
        t = C[:, 1] / (C[:, 0] + C[:, 1])
        d = dist_of_t(t, t_star)
        seen.extend(zip(t.tolist(), d.tolist()))
        return d

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        steps = list(probe_module._itp_rows(
            np.eye(2)[:1], np.eye(2)[1:], np.array([d0]), np.array([d1]),
            bits, space, dist_rows, eps))
    return len(steps), seen, steps


@pytest.mark.parametrize("t_star", [1e-6, 0.3, 1 / 3, 0.5, 0.9,
                                    1 - 1e-6])
def test_itp_brackets_a_jump_within_bits_plus_one_steps(t_star):
    # the distance jumps from 0 to eps + 0.5 at t_star: no secant helps, and
    # the projection still closes the bracket as bisection would
    eps = 0.4
    n, seen, steps = _segment_search(
        lambda t, s: np.where(t >= s, eps + 0.5, 0.0), t_star, 0.0,
        eps + 0.5, eps)
    assert n <= 41
    for rows, C, d in steps:
        assert (d >= eps - probe_module.FEAS_TOL).all()
    lo = max(t for t, d in seen if d < eps)
    hi = min(t for t, d in seen if d >= eps)
    assert lo < t_star <= hi and hi - lo <= 2.0 ** -40 + 1e-15


@pytest.mark.parametrize("t_star", [0.5, 0.9])
def test_itp_stops_at_a_step_exactly_on_the_threshold(t_star):
    # every point from t_star on is at exactly eps - FEAS_TOL, so g = 0
    # there, the feasible end included: the first step that lands there
    # ends the search
    eps = 0.4
    thr = eps - probe_module.FEAS_TOL
    n, seen, steps = _segment_search(
        lambda t, s: np.where(t >= s, thr, 0.0), t_star, 0.0, thr, eps)
    assert [d for _t, d in seen].count(thr) == 1 and seen[-1][1] == thr
    assert n == len(seen)
    assert [d.tolist() for _r, _C, d in steps if len(d)] == [[thr]]


def test_itp_counts_a_zero_point_as_infeasible():
    # the real segment from e1 toward -e1 passes through 0 at t = 1/2, where
    # the first step lands (eps = 1 puts the secant root near it); every
    # point after it is -e1, at distance 2 from the norming set {e1}
    space = Space(2.0, 2)
    e1 = np.array([1.0, 0.0])
    desc = NormingSetDescriptor("explicit_list", space=space, points=(e1,),
                                phase_orbit=False)
    norms = []

    def norm_rows(C):
        norms.append(space.norm_rows(C))
        return norms[-1]

    spy = SimpleNamespace(dim=2, dtype=space.dtype, is_complex=False,
                          norm_rows=norm_rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ends = probe_module._segment_ends(spy, desc.distance_rows, [e1],
                                          np.random.default_rng(0))
        seeds = [x for _k, x in probe_module._boundary_seeds(
            spy, desc.distance_rows, [1.0], ends)]
    assert norms[0][0] == 0.0
    assert len(seeds) == 3 and seeds[0].tolist() == [-1.0, 0.0]
    assert (desc.distance_rows(np.array(seeds)) >= 1.0 - 1e-12).all()


@pytest.mark.parametrize("restarts", [1, 15, 16, 17, 31, 32, 37])
def test_probes_run_every_requested_start(restarts, monkeypatch):
    # ceil(restarts / 16) batches, the last one with the remainder; the
    # norm probe's starts pass through one _norm_walk call over every
    # batch, the nu probe's through one polish_rows call
    starts = []

    def counted(name, at):
        body = getattr(probe_module, name)

        def wrapper(*args, **kwargs):
            starts.append(len(args[at]))
            return body(*args, **kwargs)
        monkeypatch.setattr(probe_module, name, wrapper)

    counted("_norm_walk", 3)            # (M, space, cod, X0, ...)
    counted("polish_rows", 0)           # (X0, ...)
    D = _diag([1.0, 0.6, 0.3], 2.0)
    budget = ProbeBudget(restarts=restarts, iters=300)
    full, rest = divmod(restarts, 16)
    eta_probe_norm(D, 0.3, budget=budget, seed=2)
    assert starts == [restarts]
    starts.clear()
    layouts = []
    source = probe_module.polish_source
    monkeypatch.setattr(probe_module, "polish_source",
                        lambda seed, sizes, *a: layouts.append(sizes)
                        or source(seed, sizes, *a))
    eta_probe_nu(D, 0.3, budget=budget, seed=2)
    assert starts == [restarts]
    assert layouts == [[16] * full + [rest] * (rest > 0)]


# ---------------------------------------------------------------------------
# the nu restart batch, shared by the probes of one operator at every eps
# ---------------------------------------------------------------------------

def _lift_case(outer=1.0, dim=3, seed=5):
    from bollobas_lab.numerical_radius import NuResult
    from bollobas_lab.operators import Dense, Lift
    from bollobas_lab.sums import LiftNuStates
    M = np.random.default_rng(seed).normal(size=(dim, dim))
    M /= np.linalg.svd(M)[1][0]
    H = Space(2, dim)
    T = Dense(M, H, H)
    kwargs = {"nu_result": NuResult(1.0, "exact", None, "lift"),
              "attaining": LiftNuStates(T, outer)}
    return Lift(T, outer), kwargs


def test_nu_restarts_key_misses_on_every_input():
    from bollobas_lab.spaces import SumSpace
    memo = probe_module._nu_restarts
    M = np.random.default_rng(1).normal(size=(4, 4))
    M2 = M.copy()
    M2[2, 1] = np.nextafter(M2[2, 1], np.inf)
    H = Space(2, 2)
    base = dict(M=M, space=SumSpace((H, H), 1.0), seed=3, restarts=16,
                iters=300)

    def call(**change):
        a = {**base, **change}
        # a fresh key per call, as eta_probe_nu makes one
        return memo(probe_module._ArrayKey(a["M"]), a["space"], a["seed"],
                    a["restarts"], a["iters"])

    call()
    call(M=M.copy(), space=SumSpace((Space(2, 2), Space(2.0, 2)), 1.0))
    assert memo.cache_info().hits == 1
    variants = [
        {"M": M2},                                              # one entry
        {"M": M.T},                                             # layout
        {"seed": 4}, {"restarts": 17}, {"iters": 1100},
        {"space": SumSpace((H, H), INF)},                       # outer_p
        {"space": SumSpace((Space(2, 2, "complex"),) * 2, 1.0)},
        {"space": SumSpace((Space(2, 1), Space(2, 3)), 1.0)},
        {"space": Space(2, 4)},                                 # flat
    ]
    for i, change in enumerate(variants):
        call(**change)
        assert memo.cache_info().misses == 2 + i, change
    assert memo.cache_info().hits == 1
    # an entry keeps the matrix's bytes, not the matrix
    M3 = 2 * M
    ref = weakref.ref(M3)
    call(M=M3)
    del M3
    assert ref() is None


def test_validate_eta_over_a_grid_polishes_once(monkeypatch):
    T, kwargs = _lift_case()
    budget = ProbeBudget(restarts=16, iters=300)
    grid = [0.2, 0.5, 0.8]
    cold = []
    for eps in grid:
        probe_module._nu_restarts.cache_clear()
        cold.append(validate_eta(T, eta_const(1e-6), [eps], mode="nu",
                                 budget=budget, seed=7, **kwargs).rows[0])
    calls = []
    body = probe_module.polish_rows

    def spy(*args, **kw):
        calls.append(len(args[0]))
        return body(*args, **kw)

    monkeypatch.setattr(probe_module, "polish_rows", spy)
    probe_module._nu_restarts.cache_clear()
    warm = validate_eta(T, eta_const(1e-6), grid, mode="nu", budget=budget,
                        seed=7, **kwargs)
    assert calls == [16]
    assert repr(warm.rows) == repr(cold)


def test_cached_rows_are_read_only_and_witnesses_fresh():
    T, kwargs = _lift_case(outer=INF)
    budget = ProbeBudget(restarts=16, iters=300)
    first = eta_probe_nu(T, 0.2, budget=budget, seed=3, **kwargs)
    assert not first.sentinel
    want = (first.describe(), first.witness.x.copy(),
            first.witness.xstar.copy())
    for arr in (first.witness.x, first.witness.xstar):
        assert arr.flags.writeable and arr.base is None
        arr[:] = 0.0
    again = eta_probe_nu(T, 0.2, budget=budget, seed=3, **kwargs)
    assert probe_module._nu_restarts.cache_info().hits == 1
    assert again.describe() == want[0]
    assert np.array_equal(again.witness.x, want[1])
    assert np.array_equal(again.witness.xstar, want[2])
    for arr in probe_module._nu_restarts(
            probe_module._ArrayKey(to_matrix(T)), T.domain, 3, 16, 300):
        assert not arr.flags.writeable
    bad = validate_eta(T, eta_const(0.9), [0.2], mode="nu", budget=budget,
                       seed=3, **kwargs)
    assert not bad.passed
    bad.violating_witness.x[:] = np.nan
    again = validate_eta(T, eta_const(0.9), [0.2], mode="nu", budget=budget,
                         seed=3, **kwargs)
    assert np.array_equal(again.violating_witness.x, want[1])
