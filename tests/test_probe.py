import os
import subprocess
import sys

import numpy as np
import pytest

from bollobas_lab import numerical_radius as numerical_radius_module
from bollobas_lab import probe as probe_module
from bollobas_lab.errors import (DimensionMismatchError, GeometryError,
                                 NotNormalizedError)
from bollobas_lab.membership import eta_const, eta_linear
from bollobas_lab.norm_attainment import (NormingSetDescriptor, norming_set,
                                          operator_norm)
from bollobas_lab.numerical_radius import DiagonalNuStates, NuStatesDescriptor
from bollobas_lab.operators import Diagonal, identity
from bollobas_lab.probe import (ProbeBudget, aligned_state_functional,
                                eta_probe_norm, eta_probe_nu, validate_eta)
from bollobas_lab.sequences import SequenceSpec
from bollobas_lab.spaces import Space, StatePair, pair

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


def test_validate_eta_identity_vacuous():
    I = identity(Space(2, 4))
    rep = validate_eta(I, eta_linear(1.0), [0.2, 0.6], mode="norm",
                       budget=BUD, seed=0)
    assert rep.passed
    assert all(r.sentinel for r in rep.rows)


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
