import numpy as np
import pytest

from bollobas_lab.errors import GeometryError, NotNormalizedError
from bollobas_lab.membership import (adjoint_eta, c0_adjoint_nu_eta,
                                     diag_mixed_member, diag_norm_eta_floor,
                                     diag_norm_member, diag_nu_eta_floor,
                                     diag_nu_member, eta_const, eta_identity,
                                     eta_linear, functional_member,
                                     projection_member, rank1_l1_eta)
from bollobas_lab.sequences import (ConstantTail, SequenceSpec, ZeroTail,
                                    drifting_phase_tail, geometric_tail,
                                    ratio_to_one_tail)
from bollobas_lab.spaces import Space, modulus_convexity

from conftest import random_spec_pool


def test_member_true_constant_tail():
    spec = SequenceSpec((1.0,), ConstantTail(0.5))
    for fam in (1.0, 2.0, "c0", "linf"):
        v = diag_norm_member(spec, fam)
        assert v.member is True
        assert v.certificate["off_J_sup"] == 0.5


def test_member_false_ratio_tail_with_witness():
    spec = SequenceSpec((1.0,), ratio_to_one_tail())
    v = diag_norm_member(spec, "c0")
    assert v.member is False
    xs = v.witness.generate(8)
    assert len(xs) == 1 and np.abs(xs[0]).sum() == 1.0
    # the truncation at 8 ends with 7/8, the best coordinate outside J
    assert v.witness.slack_at(8) == pytest.approx(1 / 8)


def test_member_true_all_ones():
    spec = SequenceSpec((), ConstantTail(1.0))
    assert diag_norm_member(spec, 5.0).member is True


def test_nonattaining_is_false_distinctly():
    spec = SequenceSpec((0.5,), ratio_to_one_tail())
    v = diag_norm_member(spec, 2.0)
    assert v.member is False
    assert "attain" in v.reason


def test_not_normalized_rejected():
    spec = SequenceSpec((0.5,), ZeroTail())
    with pytest.raises(NotNormalizedError):
        diag_norm_member(spec, 2.0)


def test_nu_infinite_phases_false_norm_true():
    spec = SequenceSpec((), drifting_phase_tail())
    assert diag_norm_member(spec, "c0").member is True
    v = diag_nu_member(spec, "c0")
    assert v.member is False
    (x, xs), = v.witness.generate(12)
    assert np.count_nonzero(x) == 2


def test_nu_real_prefix_member():
    spec = SequenceSpec((1.0, -1.0), ZeroTail())
    v = diag_nu_member(spec, 1.0)
    assert v.member is True
    finite, phases = spec.phases_on_J()
    assert finite and set(phases) == {1.0, -1.0}


def test_real_scalar_collapse():
    """For real sequences the norm and radius verdicts coincide."""
    pool = [s for s, fam, cx in random_spec_pool(80, seed=99) if not cx]
    fams = [1.0, 2.0, "c0"]
    for i, spec in enumerate(pool):
        fam = fams[i % 3]
        a = diag_norm_member(spec, fam).member
        b = diag_nu_member(spec, fam).member
        assert a == b


def test_nu_rejects_linf_family():
    spec = SequenceSpec((1.0,), ZeroTail())
    with pytest.raises(GeometryError):
        diag_nu_member(spec, "linf")


def test_mixed_c0_to_lp():
    v = diag_mixed_member(SequenceSpec((0.6, 0.8), ZeroTail()), "c0", 2.0)
    assert v.member is True
    with pytest.raises(NotNormalizedError):
        diag_mixed_member(SequenceSpec((1.0,), ConstantTail(0.5)), "c0", 1.0)
    r = 0.5
    c = np.sqrt(1 - r * r) / r
    v2 = diag_mixed_member(SequenceSpec((), geometric_tail(c, r)), "c0", 2.0)
    assert v2.member is False
    assert v2.witness.slack_at(10) > 0


def test_mixed_lp_to_c0_delegates():
    v = diag_mixed_member(SequenceSpec((1.0,), ConstantTail(0.25)), 2.0, "c0")
    assert v.member is True and v.theorem == "mixed-lp-to-sup"


def test_projections_all_families():
    for N in (1, 2, 3, 5, 8):
        for fam in (1.0, 2.0, 7.0, "c0", "linf"):
            assert projection_member(N, fam, "norm").member is True
        for fam in (1.0, 2.0, "c0"):
            assert projection_member(N, fam, "nu").member is True
    assert projection_member(3, "linf", "nu").member is None


def test_projection_exhaustive_small():
    for N in range(1, 65):
        for fam in (1.0, 2.0, "c0", "linf"):
            assert projection_member(N, fam, "norm").member is True
        for fam in (1.0, 2.0, "c0"):
            assert projection_member(N, fam, "nu").member is True


def test_adjoint_eta_soundness_brute_force(rng):
    """Every dual vector nearly normed by the adjoint sits within eps of an
    adjoint norming point, at the transferred modulus level."""
    from bollobas_lab.norm_attainment import (hilbert_norm_modulus,
                                              norming_set, operator_norm)
    from bollobas_lab.membership import EtaFunction
    from bollobas_lab.operators import Dense, adjoint

    for _ in range(3):
        d = int(rng.integers(2, 6))
        M = rng.normal(size=(d, d))
        M /= np.linalg.svd(M)[1][0]
        H = Space(2, d)
        T = Dense(M, H, H)
        eta_T = EtaFunction(lambda e, M=M: hilbert_norm_modulus(M, e) or 1.0,
                            "measured")
        eta_star = adjoint_eta(eta_T, H)
        Tstar = adjoint(T)
        ns = norming_set(Tstar, operator_norm(Tstar))
        u_top = np.linalg.svd(M)[0][:, 0]   # norming direction of M^T
        for eps in (0.3, 0.6):
            level = 1.0 - eta_star(eps)
            hits = 0
            for _ in range(1000):
                y = u_top + rng.normal(size=d) * rng.uniform(0, 0.2)
                y /= np.linalg.norm(y)
                if np.linalg.norm(M.T @ y) > level:
                    hits += 1
                    assert ns.distance(y) < eps
            # the sampler must actually exercise the near-norming region
            assert hits > 0


def test_functional_uniformly_convex():
    v = functional_member(SequenceSpec((1.0,), ZeroTail()), 3.0)
    assert v.member is True


def test_functional_c0_cases():
    fin = functional_member(SequenceSpec((0.5, 0.5), ZeroTail()), "c0")
    assert fin.member is True
    inf_supp = functional_member(SequenceSpec((), geometric_tail(1.0, 0.5)),
                                 "c0")
    assert inf_supp.member is False


def test_functional_l1_family():
    zstar = SequenceSpec((1.0,), ratio_to_one_tail())
    v = functional_member(zstar, 1.0)
    assert v.member is False
    assert v.witness.distance_floor == 2.0
    und = functional_member(SequenceSpec((1.0,), ZeroTail()), 1.0)
    assert und.member is None


def test_functional_linf_family():
    xstar = SequenceSpec((), geometric_tail(1.0, 0.5))
    v = functional_member(xstar, "linf")
    assert v.member is False
    assert v.witness.distance_floor == 1.0
    fin = functional_member(SequenceSpec((1.0,), ZeroTail()), "linf")
    assert fin.member is None


def test_adjoint_eta_formula():
    H = Space(2, 4)
    eta = adjoint_eta(eta_identity(), H)
    for eps in (0.1, 0.4, 1.0):
        d = modulus_convexity(H, eps) / 2
        assert eta(eps) == pytest.approx(min(d, d))
    assert eta(0.1) == pytest.approx((1 - np.sqrt(1 - 0.0025)) / 2)
    with pytest.raises(GeometryError):
        adjoint_eta(eta_identity(), Space(1, 4))


def test_adjoint_eta_monotone_positive():
    eta = adjoint_eta(eta_identity(), Space(2, 3))
    vals = [eta(e) for e in (0.1, 0.3, 0.5, 0.9)]
    assert all(v > 0 for v in vals)
    assert vals == sorted(vals)


def test_c0_adjoint_nu_eta():
    assert c0_adjoint_nu_eta(eta_linear(0.5))(0.6) == pytest.approx(0.1)
    assert c0_adjoint_nu_eta(eta_const(1.0))(0.6) == pytest.approx(0.2)
    assert c0_adjoint_nu_eta(eta_identity())(0.3) > 0


def test_rank1_l1_eta_and_repair():
    r = rank1_l1_eta()
    assert r.eta(0.2) == pytest.approx(0.1)
    x = np.array([0.95, 0.05, 0.0])
    y = r.repair(x)
    assert np.allclose(y, [1.0, 0, 0])
    assert np.abs(x - y).sum() == pytest.approx(0.10)


def test_norm_floor_positive_and_monotone():
    spec = SequenceSpec((1.0,), ConstantTail(0.5))
    prev = np.inf
    for fam in (1.0, 2.0, 3.0, "c0"):
        f = diag_norm_eta_floor(spec, fam, 0.1)
        assert f is not None and f > 0
    for eps in (0.3, 0.2, 0.1):
        f = diag_norm_eta_floor(spec, 2.0, eps)
        assert f <= prev
        prev = f


def test_nu_floor_positive():
    spec = SequenceSpec((1.0, -1.0), ConstantTail(0.3))
    for fam in (1.0, 2.0, "c0"):
        f = diag_nu_eta_floor(spec, fam, 0.1)
        assert f is not None and f > 0
    ident = SequenceSpec((), ConstantTail(1.0))
    assert diag_nu_eta_floor(ident, 2.0, 0.1) is None


def test_verdict_json_roundtrip():
    import json
    spec = SequenceSpec((1.0,), ratio_to_one_tail())
    v = diag_norm_member(spec, 2.0)
    blob = json.dumps(v.to_json())
    back = json.loads(blob)
    assert back["member"] is False
    assert back["witness_recipe"]["distance_floor"] == 1.0


def test_verdict_json_takes_numpy_scalars():
    # a numpy tail value leaves np.bool_ and np.float64 in the certificate
    import json
    spec = SequenceSpec((1.0,), ConstantTail(np.float64(0.5)))
    back = json.loads(json.dumps(diag_norm_member(spec, 2.0).to_json()))
    assert back["member"] is True
    assert back["certificate"]["off_J_sup"] == 0.5
    spec = SequenceSpec((1.0,), ConstantTail(np.complex128(0.5j)))
    back = json.loads(json.dumps(diag_norm_member(spec, 2.0).to_json()))
    assert back["certificate"]["phases"] == [1.0]
