"""One tail record against the three tail kinds it replaced.

tests/_oracles.py keeps ZeroTail, ConstantTail and BoundedTail as three
classes and TailKindSpec, whose predicates and materialize switch on
tail.kind.  On a table of tails crossed with prefixes, every predicate,
phases_on_J, tail_abs_pnorm_pow, materialize (bits and dtype) and the JSON
verdicts of the diagonal, functional and mixed membership tests must be the
oracle's, except where the kinds were wrong:

* a tail whose entries are not real materialized real, its imaginary parts
  dropped, unless a listed unimodular value was complex;
* a tail of sup modulus 0 other than ZeroTail was not finitely supported.

A zero constant, now the same record as ZeroTail, is checked against the
oracle's ZeroTail.  The rows that hit the two faults skip the checks those
faults reach, and the tests at the end pin the corrected behaviour.
"""

import cmath
import math

import numpy as np
import pytest

import _oracles as oracle
from bollobas_lab.errors import BollobasLabError, GeometryError
from bollobas_lab.gallery import _block_symbolic
from bollobas_lab.membership import (diag_mixed_member, diag_norm_member,
                                     diag_nu_member, functional_member)
from bollobas_lab.sequences import (BoundedTail, ConstantTail, SequenceSpec,
                                    ZeroTail, drifting_phase_tail,
                                    geometric_tail, ratio_to_one_tail)

WOBBLE = np.exp(1j * 0.3)            # as in test_snap_to_unit_circle
# within SNAP_TOL of the circle; snapped, their moduli are 1 - 2**-53 and
# 1 + 2**-52, so neither counts as unimodular
OFF_BELOW = complex(0.6661349181086538, 0.7458312616643106)
OFF_ABOVE = complex(-0.6013735175001824, 0.7989680171626757)

PREFIXES = [(), (1.0,), (1.0, -0.3), (0.6, 0.8), (-1.0, 1j, 0.25),
            (WOBBLE, 0.5), (0.5, OFF_ABOVE)]

MATERIALIZE = "materialize"
FUNCTIONAL = "functional"
FINITE = "finitely_supported"
FUNCTIONAL_C0 = "functional c0"


def _kinds(tail):
    """The oracle's bounded kind with the fields of a library tail."""
    return oracle.BoundedTail(
        sup_modulus=tail.sup_modulus, sup_attained=tail.sup_attained,
        unimodular_values=tail.unimodular_values,
        unimodular_finite=tail.unimodular_finite,
        sub_unit_sup=tail.sub_unit_sup, entries=tail.entries,
        abs_pnorm_pow=tail.abs_pnorm_pow)


def _constant(v):
    return (lambda: ConstantTail(v), lambda: oracle.ConstantTail(v), ())


def _bounded(skip=(), **kw):
    return (lambda: BoundedTail(**kw), lambda: oracle.BoundedTail(**kw),
            skip)


def _built(make, skip=()):
    return (make, lambda: _kinds(make()), skip)


# id -> (library tail, oracle tail, checks the kinds got wrong)
TAILS = {
    "zero": (ZeroTail, oracle.ZeroTail, ()),
    "constant-0": (lambda: ConstantTail(0.0), oracle.ZeroTail, ()),
    "constant-0.5": _constant(0.5),
    "constant-1": _constant(1.0),
    "constant-minus-1": _constant(-1.0),
    "constant-0.5j": _constant(0.5j),
    "constant-exp-0.3j": _constant(cmath.exp(0.3j)),
    "constant-wobble": _constant(WOBBLE),
    "constant-off-below": _constant(OFF_BELOW),
    "constant-off-above": _constant(OFF_ABOVE),
    "geometric": _built(lambda: geometric_tail(1.0, 0.5)),
    "geometric-complex": _built(lambda: geometric_tail(0.5j, 0.5),
                                (MATERIALIZE,)),
    "ratio-to-one": _built(ratio_to_one_tail),
    "drifting-phase": _built(drifting_phase_tail),
    "block-symbolic": _built(lambda: _block_symbolic().tail),
    "bounded-sub-unit": _bounded(sup_modulus=0.7, sup_attained=True,
                                 sub_unit_sup=0.7),
    "bounded-phases": _bounded(sup_modulus=1.0, sup_attained=True,
                               unimodular_values=(1j, -1.0),
                               sub_unit_sup=0.4),
    "bounded-unattained": _bounded(sup_modulus=1.0, sup_attained=False,
                                   sub_unit_sup=1.0),
    "bounded-infinite-phases": _bounded(sup_modulus=1.0, sup_attained=True,
                                        unimodular_values=None,
                                        unimodular_finite=False),
    "bounded-zero": _bounded((FINITE, FUNCTIONAL_C0), sup_modulus=0.0,
                             sup_attained=True),
    "bounded-zero-rules": (
        lambda: BoundedTail(sup_modulus=0.0, sup_attained=True,
                            entries=lambda k: 0.0,
                            abs_pnorm_pow=lambda p: 0.0),
        oracle.ZeroTail, ()),
    "bounded-alternating-rules": _bounded(
        sup_modulus=0.5, sup_attained=True, sub_unit_sup=0.5,
        entries=lambda k: 0.5 * (-1) ** k,
        abs_pnorm_pow=lambda p: math.inf),
    "bounded-phase-rules": _bounded(
        sup_modulus=1.0, sup_attained=True, unimodular_values=(1j,),
        entries=lambda k: 1j, abs_pnorm_pow=lambda p: math.inf),
    "bounded-complex-rules": _bounded(
        (MATERIALIZE,), sup_modulus=0.5, sup_attained=True,
        sub_unit_sup=0.5, entries=lambda k: 0.5j * 0.5 ** k,
        abs_pnorm_pow=lambda p: 0.5 ** p / (2.0 ** p - 1.0)),
}

PREDICATES = ["prefix_J", "tail_has_unimodular", "sup_modulus",
              "sup_attained", "J_nonempty", "J_is_everything", "off_J_sup",
              "phases_on_J", "materializable"]


def _plain(x):
    """x with numpy scalars as the Python scalars they hold."""
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return type(x)(_plain(v) for v in x)
    return x.item() if isinstance(x, np.generic) else x


def _outcome(fn):
    """repr of the result, or the error's type and message."""
    try:
        out = fn()
    except (BollobasLabError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    if isinstance(out, np.ndarray):
        return out.dtype.str, out.tobytes()
    return repr(_plain(out.to_json() if hasattr(out, "to_json") else out))


def _checks(spec, tail_sup, tail_sup_attained):
    """check name -> outcome; the verdicts carry the name of their group."""
    checks = {name: _outcome(getattr(spec, name)) for name in PREDICATES}
    checks[FINITE] = _outcome(spec.finitely_supported)
    checks["tail_sup"] = repr(tail_sup)
    checks["tail_sup_attained"] = repr(tail_sup_attained)
    checks["check_sup_norm_one"] = _outcome(spec.check_sup_norm_one)
    for p in (1.0, 2.0, math.inf):
        checks[f"tail_abs_pnorm_pow {p}"] = _outcome(
            lambda: spec.tail_abs_pnorm_pow(p))
    n = len(spec.prefix)
    for dim in range(max(n - 1, 0), n + 5):
        checks[f"{MATERIALIZE} {dim}"] = _outcome(
            lambda: spec.materialize(dim))
    for family in (1.0, 2.0, 3.0, "c0"):
        checks[f"norm {family}"] = _outcome(
            lambda: diag_norm_member(spec, family))
        checks[f"nu {family}"] = _outcome(
            lambda: diag_nu_member(spec, family))
    for family in (1.0, 2.0, "c0", "linf"):
        checks[f"{FUNCTIONAL} {family}"] = _outcome(
            lambda: functional_member(spec, family))
    for pair in ((2.0, "c0"), ("c0", 2.0), ("c0", 1.0), ("linf", 3.0)):
        checks[f"mixed {pair}"] = _outcome(
            lambda: diag_mixed_member(spec, *pair))
    return checks


@pytest.mark.parametrize("name", list(TAILS))
def test_one_record_matches_the_tail_kinds(name):
    make, make_kind, skip = TAILS[name]
    compared = 0
    for prefix in PREFIXES:
        spec = SequenceSpec(prefix, make())
        ref = oracle.TailKindSpec(prefix, make_kind())
        got = _checks(spec, spec.tail.sup_modulus, spec.tail.sup_attained)
        want = _checks(ref, ref.tail_sup(), ref.tail_sup_attained())
        assert got.keys() == want.keys()
        for key in got:
            if any(key.startswith(s) for s in skip):
                continue
            assert got[key] == want[key], (prefix, key)
            compared += 1
    assert compared >= 7 * 30


def test_complex_tail_entries_materialize_complex():
    got = SequenceSpec((1.0,), geometric_tail(0.5j, 0.5)).materialize(4)
    assert got.dtype == np.complex128
    assert got.tobytes() == np.array(
        [1.0, 0.25j, 0.125j, 0.0625j]).tobytes()
    rule = BoundedTail(sup_modulus=0.5, sup_attained=True, sub_unit_sup=0.5,
                       entries=lambda k: 0.5j)
    got = SequenceSpec((), rule).materialize(2)
    assert got.dtype == np.complex128 and np.all(got == 0.5j)


def test_a_tail_of_sup_modulus_zero_is_finitely_supported():
    zero = SequenceSpec((1.0,), ZeroTail())
    for tail in (BoundedTail(sup_modulus=0.0, sup_attained=True),
                 ConstantTail(0.0)):
        spec = SequenceSpec((1.0,), tail)
        assert spec.finitely_supported()
        got = functional_member(spec, "c0")
        assert got.member is True
        assert got.to_json() == functional_member(zero, "c0").to_json()


def test_a_failing_pnorm_rule_propagates():
    def pnorm(p):
        raise ZeroDivisionError("a broken rule")

    tail = BoundedTail(sup_modulus=0.5, sup_attained=True, sub_unit_sup=0.5,
                       entries=lambda k: 0.5 ** k, abs_pnorm_pow=pnorm)
    spec = SequenceSpec((1.0,), tail)
    for family in ("linf", 2.0, "c0"):
        with pytest.raises(ZeroDivisionError):
            functional_member(spec, family)


def test_a_missing_pnorm_rule_stays_undecided():
    spec = SequenceSpec((1.0,), ratio_to_one_tail())
    assert functional_member(spec, "linf").reason == \
        "summability not determinable"


@pytest.mark.parametrize("bad", [
    dict(sup_modulus=-0.5, sup_attained=True),
    dict(sup_modulus=0.5, sup_attained=True, sub_unit_sup=-0.1),
])
def test_bounded_tail_refuses_negative_moduli(bad):
    with pytest.raises(GeometryError):
        BoundedTail(**bad)
