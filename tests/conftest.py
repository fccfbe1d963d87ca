import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))

# pyproject's pythonpath setting reaches this process only; the tests that
# start a fresh interpreter (CLI and determinism checks) inherit src/ here
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture(autouse=True)
def _fresh_nu_restarts():
    """Empty the nu probe's restart memo before each test, so that a spy on
    probe.polish_rows or polish_source sees the same calls in any order."""
    from bollobas_lab import probe
    probe._nu_restarts.cache_clear()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_spec_pool(count: int, seed: int):
    """A deterministic pool of normalized random sequence specs spanning the
    verdict classes, each tagged with a probe family."""
    from bollobas_lab.sequences import (ConstantTail, SequenceSpec, ZeroTail,
                                        drifting_phase_tail, geometric_tail,
                                        ratio_to_one_tail)
    rng = np.random.default_rng(seed)
    pool = []
    families = [1.0, 1.5, 2.0, 3.0, "c0"]
    while len(pool) < count:
        kind = rng.integers(0, 6)
        complex_field = bool(rng.integers(0, 2))
        family = families[int(rng.integers(len(families)))]

        def uni():
            if complex_field:
                th = rng.choice([0.0, np.pi / 3, np.pi / 2, np.pi, 4.0])
                return complex(np.exp(1j * th))
            return float(rng.choice([-1.0, 1.0]))

        def sub():
            v = float(rng.uniform(0.1, 0.9))
            if complex_field:
                return v * np.exp(1j * rng.uniform(0, 2 * np.pi))
            return v * (1.0 if rng.integers(2) else -1.0)

        if kind == 0:       # member true, sub-unit constant tail
            prefix = (uni(),) + tuple(sub() for _ in range(rng.integers(0, 3)))
            tail = ConstantTail(float(rng.uniform(0.1, 0.9)))
        elif kind == 1:     # member true, zero or geometric tail
            prefix = (uni(), uni()) if rng.integers(2) else (uni(),)
            tail = ZeroTail() if rng.integers(2) else \
                geometric_tail(1.0, float(rng.uniform(0.3, 0.7)))
        elif kind == 2:     # norm-member false: off-J accumulates at one
            prefix = (uni(),)
            tail = ratio_to_one_tail()
        elif kind == 3:     # non-attaining
            prefix = (sub(),)
            tail = ratio_to_one_tail()
        elif kind == 4:     # J everything
            n = int(rng.integers(1, 4))
            prefix = tuple(uni() for _ in range(n))
            tail = ConstantTail(uni())
        else:               # drifting phases (complex only)
            complex_field = True
            prefix = ()
            tail = drifting_phase_tail()
        spec = SequenceSpec(prefix=prefix, tail=tail)
        if spec.sup_modulus() != 1.0:
            continue
        if family == 1.0 and complex_field and kind == 5:
            family = 2.0
        pool.append((spec, family, complex_field))
    return pool
