"""Seeded inputs, timed calls and independent checks for each workload.

An item is one timed call into the public API of bollobas_lab.  Its inputs
are built during set-up from the workload seed; ``call`` is the only timed
part.  ``verify`` recomputes what it can with plain numpy and returns an
Outcome: named checks plus the search values that feed
``search_value_mean``; ``digest`` renders the output as text so that
repeated runs can be compared byte for byte.

Library functions are looked up on their modules at call time, so a tracer
that replaces module attributes sees every call.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import io
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import bollobas_lab as bl

# the package re-exports functions named like some of its modules
# (numerical_radius, gallery), so take the modules from the import system
cli_mod = importlib.import_module("bollobas_lab.cli")
na_mod = importlib.import_module("bollobas_lab.norm_attainment")
nr_mod = importlib.import_module("bollobas_lab.numerical_radius")
probe_mod = importlib.import_module("bollobas_lab.probe")
sums_mod = importlib.import_module("bollobas_lab.sums")

INF = math.inf
WITNESS_TOL = 1e-9


@dataclass
class Item:
    route: str             # the code path exercised; per-route time shares
    kind: str              # route plus the item's parameters
    call: Callable[[], object]
    verify: Callable[[object], "Outcome"]
    digest: Callable[[object], str]


@dataclass
class Outcome:
    checks: list = field(default_factory=list)     # (name, ok)
    search: list = field(default_factory=list)     # values feeding the mean
    eta_hat: list = field(default_factory=list)    # finite probe eta_hat
    heur: list = field(default_factory=list)       # heuristic-labelled values

    def check(self, name, ok):
        self.checks.append((name, bool(ok)))


def _lp(v, p) -> float:
    a = np.abs(np.asarray(v))
    if p == INF:
        return float(a.max())
    return float((a ** p).sum() ** (1.0 / p))


def _conj(p):
    if p == 1:
        return INF
    if p == INF:
        return 1.0
    return p / (p - 1.0)


def _family_p(family):
    return INF if family in ("c0", "linf", "inf") else float(family)


# ---------------------------------------------------------------------------
# diag-probe
# ---------------------------------------------------------------------------

def _random_spec(rng, kind, complex_field, shape):
    """Spec classes of the acceptance pool.  kind fixes the verdict class
    and shape the prefix length and tail type; the seed draws phases,
    moduli and tail parameters."""

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

    if kind == 0:
        prefix = (uni(),) + tuple(sub() for _ in range(shape))
        tail = bl.ConstantTail(float(rng.uniform(0.1, 0.9)))
    elif kind == 1:
        prefix = (uni(), uni()) if shape >= 2 else (uni(),)
        tail = bl.geometric_tail(1.0, float(rng.uniform(0.3, 0.7))) \
            if shape % 2 else bl.ZeroTail()
    elif kind == 2:
        prefix = (uni(),)
        tail = bl.ratio_to_one_tail()
    elif kind == 3:
        prefix = (sub(),)
        tail = bl.ratio_to_one_tail()
    elif kind == 4:
        prefix = tuple(uni() for _ in range(shape + 1))
        tail = bl.ConstantTail(uni())
    elif kind == 5:
        prefix = ()
        tail = bl.drifting_phase_tail()
    else:
        raise ValueError(f"unknown spec kind {kind}")
    spec = bl.SequenceSpec(prefix=prefix, tail=tail)
    if spec.sup_modulus() != 1.0:
        raise ValueError(f"spec kind {kind} is not normalized")
    return spec


def _normalized_diagonal(spec, p, dim, complex_field):
    alphas = spec.materialize(dim)
    coeffs = alphas / float(np.abs(alphas).max())
    space = bl.Space(p, dim, "complex" if complex_field else "real")
    return bl.Diagonal(bl.SequenceSpec(tuple(coeffs.tolist())), space), coeffs


def build_diag_probe(cfg, seed):
    rng = np.random.default_rng([seed, 1])
    eps = float(cfg["eps"])
    budget = bl.ProbeBudget(**cfg["budget"])
    items = []
    for kind, family, cx, shape in cfg["slots"]:
        spec = _random_spec(rng, kind, cx, shape)
        p = _family_p(family)
        for mode in cfg["modes"]:
            if mode == "norm":
                verdict = bl.diag_norm_member(spec, family)
            else:
                verdict = bl.diag_nu_member(spec, family)
            floor = None
            if verdict.member is True:
                floor = (bl.diag_norm_eta_floor(spec, family, eps)
                         if mode == "norm"
                         else bl.diag_nu_eta_floor(spec, family, eps))
            for dim in cfg["dims"]:
                T, alphas = _normalized_diagonal(spec, p, dim, cx)
                seeds, slack = [], None
                if verdict.member is False:
                    seeds = list(verdict.witness.generate(dim))
                    slack = float(verdict.witness.slack_at(dim))
                probe_seed = int(rng.integers(0, 2 ** 31 - 1))
                items.append(_diag_probe_item(
                    mode, T, alphas, p, dim, eps, budget, probe_seed, seeds,
                    verdict.member, floor, slack,
                    f"{mode}/kind{kind}/p={family}/{'C' if cx else 'R'}"
                    f"/dim={dim}"))
    return items


def _diag_probe_item(mode, T, alphas, p, dim, eps, budget, seed, seeds,
                     member, floor, slack, kind):
    q = _conj(p)

    def call():
        fn = probe_mod.eta_probe_norm if mode == "norm" else \
            probe_mod.eta_probe_nu
        return fn(T, eps, budget=budget, seed=seed, extra_seeds=seeds)

    def verify(rep):
        v = Outcome()
        e = rep.eta_hat
        if rep.witness is not None:
            if mode == "norm":
                x = np.asarray(rep.witness)
                value = _lp(alphas * x, p)
                v.check("witness-unit", abs(_lp(x, p) - 1.0) <= WITNESS_TOL)
            else:
                x = np.asarray(rep.witness.x)
                xs = np.asarray(rep.witness.xstar)
                value = abs(complex((xs * (alphas * x)).sum()))
                v.check("witness-unit",
                        abs(_lp(x, p) - 1.0) <= WITNESS_TOL and
                        abs(_lp(xs, q) - 1.0) <= WITNESS_TOL)
            v.check("witness-value",
                    abs(max(0.0, 1.0 - value) - e) <= WITNESS_TOL)
            v.check("witness-distance",
                    rep.witness_distance >= eps - 1e-12)
        if member is True:
            if floor is None:
                v.check("member-sentinel", e == INF)
            else:
                v.check("member-floor", e >= floor - 1e-9)
        elif member is False:
            v.check("non-member-slack", e <= 2 * slack + 1e-9)
        if e < INF:
            v.eta_hat.append(e)
            v.search.append(rep.best_value)
        return v

    def digest(rep):
        return rep.csv_row(dim)

    return Item(mode, kind, call, verify, digest)


# ---------------------------------------------------------------------------
# lift-validate
# ---------------------------------------------------------------------------

def _hilbert_eta(M):
    def fn(eps):
        v = na_mod.hilbert_norm_modulus(M, eps)
        return 1.0 if v is None else v
    return bl.EtaFunction(fn, "exact singular-value modulus")


def build_lift_validate(cfg, seed):
    rng = np.random.default_rng([seed, 2])
    budget = bl.ProbeBudget(**cfg["budget"])
    lo, hi = cfg["dim_range"]
    items = []
    for _trial in range(int(cfg["trials"])):
        d = int(rng.integers(lo, hi + 1))
        M = rng.normal(size=(d, d))
        M /= np.linalg.svd(M)[1][0]
        H = bl.Space(2, d)
        T = bl.Dense(M, H, H)
        eta_T = _hilbert_eta(M)
        setups = [("adjoint", bl.adjoint(T), bl.adjoint_eta(eta_T, H),
                   "norm", {})]
        for outer in (1.0, INF):
            res = bl.norm_implies_lift_nu(T, outer, eta_T, H, H)
            setups.append((
                f"lift{'1' if outer == 1.0 else 'inf'}", bl.Lift(T, outer),
                res.eta_out, "nu",
                {"nu_result": bl.NuResult(1.0, "exact", None, "lift"),
                 "attaining": sums_mod.LiftNuStates(T, outer)}))
        trial_seed = int(rng.integers(0, 2 ** 31 - 1))
        for eps in cfg["eps_grid"]:
            for name, op, eta, mode, kw in setups:
                items.append(_lift_item(name, f"{name}/dim={d}/eps={eps}", op,
                                        eta, float(eps), mode, budget,
                                        trial_seed, kw))
    return items


def _lift_item(route, kind, op, eta, eps, mode, budget, seed, kwargs):
    def call():
        return probe_mod.validate_eta(op, eta, [eps], mode=mode, budget=budget,
                                     seed=seed, **kwargs)

    def verify(rep):
        v = Outcome()
        v.check("transfer-holds", rep.passed)
        for row in rep.rows:
            if row.sentinel or not math.isfinite(row.found_value):
                continue
            v.check("found-feasible", row.found_distance >= eps - 1e-12)
            v.check("found-below-one", row.found_value <= 1.0 + 1e-9)
            v.eta_hat.append(max(0.0, 1.0 - row.found_value))
            v.search.append(row.found_value)
        return v

    def digest(rep):
        return json.dumps(rep.describe(), sort_keys=True)

    return Item(route, kind, call, verify, digest)


# ---------------------------------------------------------------------------
# dense-solve
# ---------------------------------------------------------------------------

def _random_matrix(rng, d, complex_field):
    M = rng.normal(size=(d, d))
    if complex_field:
        M = M + 1j * rng.normal(size=(d, d))
    return M / np.linalg.norm(M, 2)


def build_dense_solve(cfg, seed):
    rng = np.random.default_rng([seed, 3])
    hb = cfg["heuristic_budget"]
    sb = cfg["state_budget"]
    boyd_pq = cfg["boyd_pq"]
    brute_max = int(cfg["brute_force_max_dim"])
    slots = []
    for r in cfg["routes"]:
        for rep in range(int(r["repeat"])):
            for d in r["dims"]:
                slots.append((r["route"], r["field"] == "complex", int(d),
                              rep))
    # interleave the routes over the pass
    slots.sort(key=lambda s: (s[3], s[2]))
    items = []
    boyd_k = 0
    for route, cx, d, _rep in slots:
        M = _random_matrix(rng, d, cx)
        solve_seed = int(rng.integers(0, 2 ** 31 - 1))
        field_ = "complex" if cx else "real"
        pq = None
        if route == "norm-boyd":
            pq = boyd_pq[boyd_k % len(boyd_pq)]
            boyd_k += 1
        items.append(_dense_item(route, M, d, field_, solve_seed, hb, sb, pq,
                                 brute_max))
    return items


_DENSE_SPACES = {
    "norm-l1": (1.0, 1.0), "norm-l2": (2.0, 2.0), "norm-sup": (INF, INF),
    "nu-l1": (1.0, 1.0), "nu-l2-real": (2.0, 2.0), "nu-sup": (INF, INF),
    "nu-l2-complex": (2.0, 2.0), "norm-sign-enum": (INF, 1.0),
    "norm-phase-grid": (INF, 2.0), "nu-state-p3": (3.0, 3.0),
}


def _dense_item(route, M, d, field_, seed, hb, sb, pq, brute_max):
    p, q = pq if pq is not None else _DENSE_SPACES[route]
    dom, cod = bl.Space(p, d, field_), bl.Space(q, d, field_)
    T = bl.Dense(M, dom, cod)
    is_nu = route.startswith("nu-")

    def call():
        if route == "nu-state-p3":
            return nr_mod.numerical_radius(
                T, restarts=sb["restarts"], iters=sb["iters"], seed=seed)
        if is_nu:
            return nr_mod.numerical_radius(T, seed=seed)
        return na_mod.operator_norm(
            T, restarts=hb["restarts"], iters=hb["iters"], seed=seed)

    def closed_form():
        A = np.abs(M)
        if route in ("norm-l1", "nu-l1"):
            return float(A.sum(axis=0).max())
        if route in ("norm-sup", "nu-sup"):
            return float(A.sum(axis=1).max())
        if route == "norm-l2":
            return float(np.linalg.svd(M, compute_uv=False)[0])
        if route == "nu-l2-real":
            return float(np.abs(np.linalg.eigvalsh((M + M.T) / 2)).max())
        return None

    def verify(res):
        v = Outcome()
        v.check("certainty-label", res.certainty in
                ("exact", "enumerated", "grid_refined", "heuristic"))
        want = closed_form()
        if want is not None:
            v.check("closed-form",
                    abs(res.value - want) <= 1e-9 * max(1.0, want))
        if route == "nu-l2-complex":
            _check_complex_hilbert_nu(v, M, res)
        if route == "norm-sign-enum":
            x = np.asarray(res.witness)
            v.check("witness-signs", np.all(np.abs(x) == 1.0))
            v.check("witness-value",
                    abs(_lp(M @ x, q) - res.value) <= 1e-9 * res.value)
            if d <= brute_max:
                signs = np.array(list(itertools.product([-1.0, 1.0],
                                                        repeat=d)))
                brute = float(np.abs(signs @ M.T).sum(axis=1).max())
                v.check("brute-force", abs(brute - res.value) <= 1e-9 * brute)
        if route == "norm-phase-grid":
            x = np.asarray(res.witness)
            v.check("witness-unimodular",
                    np.all(np.abs(np.abs(x) - 1.0) <= 1e-12))
            v.check("witness-value",
                    abs(_lp(M @ x, q) - res.value) <= 1e-9 * res.value)
            v.check("above-coarse-grid", res.value >=
                    _coarse_phase_grid(M, q, 16) - 1e-12)
        if res.certainty == "heuristic":
            if is_nu:
                x = np.asarray(res.witness.x)
                xs = np.asarray(res.witness.xstar)
                val = abs(complex((xs * (M @ x)).sum()))
                v.check("witness-unit",
                        abs(_lp(x, p) - 1.0) <= WITNESS_TOL and
                        abs(_lp(xs, _conj(p)) - 1.0) <= WITNESS_TOL)
            else:
                x = np.asarray(res.witness)
                val = _lp(M @ x, q)
                v.check("witness-unit", abs(_lp(x, p) - 1.0) <= WITNESS_TOL)
            v.check("witness-value", abs(val - res.value) <= WITNESS_TOL)
            v.heur.append(res.value)
            v.search.append(res.value)
        return v

    def digest(res):
        return f"{res.certainty}|{res.method}|{res.value!r}"

    kind = f"{route}/dim={d}" + (f"/p={p},q={q}" if pq is not None else "")
    return Item(route, kind, call, verify, digest)


def _check_complex_hilbert_nu(v, M, res):
    """Independent bound on the complex Hilbert radius: every rotation's top
    Hermitian eigenvalue lies below nu, and a grid of 4096 rotations comes
    within its second-order grid error of it.  The rotations go through
    eigvalsh 128 at a time, so the check's own arrays stay near 1 MB and do
    not set the run's peak RSS."""
    H = (M + M.conj().T) / 2
    K = 1j * (M - M.conj().T) / 2
    th = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
    grid = -INF
    for a in range(0, len(th), 128):
        t = th[a:a + 128, None, None]
        tops = np.linalg.eigvalsh(np.cos(t) * H + np.sin(t) * K)[:, -1]
        grid = max(grid, float(tops.max()))
    step = th[1] - th[0]
    slack = 2 * np.linalg.norm(M, 2) * step * step
    v.check("rotation-grid", grid - 1e-9 <= res.value <= grid + slack)
    x, xs = np.asarray(res.witness.x), np.asarray(res.witness.xstar)
    v.check("witness-value",
            abs(abs(complex((xs * (M @ x)).sum())) - res.value) <= 1e-9)


def _coarse_phase_grid(M, q, n):
    d = M.shape[1]
    th = np.exp(2j * np.pi * np.arange(n) / n)
    X = np.array([(1.0,) + c for c in itertools.product(th, repeat=d - 1)])
    return float(max(_lp(row, q) for row in X @ M.T))


# ---------------------------------------------------------------------------
# gallery-cli
# ---------------------------------------------------------------------------

def build_gallery_cli(cfg, seed, out_dir):
    rng = np.random.default_rng([seed, 4])
    spec_path = out_dir / "gallery-cli.spec.json"
    spec = {"prefix": [1.0, float(np.round(rng.uniform(0.1, 0.9), 6))],
            "tail": {"kind": "constant",
                     "value": float(np.round(rng.uniform(0.1, 0.9), 6))}}
    spec_path.write_text(json.dumps(spec))
    # the README commands run as written, so at the CLI's default seed
    items = [_cli_item([spec_path.as_posix() if a == "{spec}" else a
                        for a in argv]) for argv in cfg["cli"]]
    pc = cfg["psum"]
    for p_outer in pc["p_outer"]:
        items.append(_psum_item(float(p_outer), int(pc["dim"]),
                                int(rng.integers(0, 2 ** 31 - 1))))
    sweep = cfg["uri_sweep"]
    for gid in bl.GALLERY_IDS:
        for dim in sweep["dims"]:
            square = bl.gallery(gid, dim).expr.is_square
            for cmd in sweep["commands"]:
                if cmd == "nu" and not square:
                    continue
                items.append(_cli_item(
                    [cmd, f"gallery:{gid}?dim={dim}", "--seed",
                     str(int(rng.integers(0, 2 ** 31 - 1)))]))
    # claims run at the gallery's own seed, as acceptance criterion 2 runs
    # them
    claims = []
    for gid in bl.GALLERY_IDS:
        for dim in cfg["claim_dims"]:
            entry = bl.gallery(gid, dim)
            for name, fn in entry.claims:
                claims.append(_claim_item(
                    gid, dim, dataclasses.replace(entry, claims=[(name, fn)]),
                    name, int(cfg["claim_seed"])))
    # spread the slow CLI commands over the pass
    step = max(1, len(claims) // max(1, len(items)))
    merged = []
    for k, it in enumerate(items):
        merged.append(it)
        merged.extend(claims[k * step:(k + 1) * step])
    merged.extend(claims[len(items) * step:])
    return merged


def _cli_item(argv):
    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_mod.main(list(argv))
        return code, buf.getvalue()

    def verify(out):
        code, text = out
        v = Outcome()
        v.check("exit-zero", code == 0)
        try:
            _verify_cli_output(v, argv, text)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            v.check(f"parse:{type(exc).__name__}", False)
        return v

    def digest(out):
        return f"{out[0]}|{out[1]}"

    return Item(f"cli/{argv[0]}", f"cli/{argv[0]}", call, verify, digest)


def _verify_cli_output(v, argv, text):
    cmd = argv[0]
    if cmd in ("norm", "nu"):
        d = json.loads(text)
        v.check("result", math.isfinite(d["value"]) and d["certainty"] in
                ("exact", "enumerated", "grid_refined", "heuristic"))
    elif cmd == "member":
        d = json.loads(text)
        v.check("verdict", set(d) == {"member", "theorem", "certificate",
                                      "witness_recipe", "reason"}
                and d["member"] in (True, False, None))
    elif cmd == "probe":
        lines = text.strip().split("\n")
        v.check("csv-header", lines[0] == bl.CSV_HEADER)
        for line in lines[1:]:
            dim, eps, eta, slack, dist, _seed = line.split(",")
            eps = float(eps)
            if eta == "inf" or slack == "":
                continue
            eta, slack, dist = float(eta), float(slack), float(dist)
            v.check("row-eta", abs(eta - max(0.0, slack)) <= 1e-12)
            v.check("row-feasible", dist >= eps - 1e-12)
            v.eta_hat.append(eta)
            v.search.append(1.0 - slack)
    elif cmd == "gallery":
        rows = json.loads(text)
        v.check("claims", bool(rows) and all(r["passed"] for r in rows))
    elif cmd == "transfer":
        d = json.loads(text)
        vals = [r["eta"] for r in d["values"]]
        v.check("eta-values", len(vals) == 3 and all(x > 0 for x in vals))
    elif cmd == "moduli":
        lines = text.strip().split("\n")
        v.check("csv-header", lines[0] == "p,epsilon,delta")
        deltas = [float(line.split(",")[2]) for line in lines[1:]]
        v.check("deltas", len(deltas) == 2 and
                all(0.0 < x <= 1.0 for x in deltas))
    else:
        raise KeyError(cmd)


def _psum_item(p_outer, dim, seed):
    def call():
        return sums_mod.psum_counterexample(p_outer, dim, seed=seed)

    def verify(rep):
        v = Outcome()
        q = _conj(p_outer)
        exact = (1.0 / p_outer) ** (1.0 / p_outer) * (1.0 / q) ** (1.0 / q)
        v.check("exact-radius", abs(rep.nu - exact) <= 1e-12)
        v.check("search-below-radius", rep.search_value <= exact + 1e-9)
        return v

    def digest(rep):
        return json.dumps(rep.describe(), sort_keys=True)

    return Item("psum", f"psum/p={p_outer}", call, verify, digest)


def _claim_item(gid, dim, entry, name, seed):
    def call():
        return entry.run_claims(seed)

    def verify(results):
        v = Outcome()
        v.check("claim", len(results) == 1 and results[0].passed)
        return v

    def digest(results):
        return "|".join(f"{r.name}:{r.passed}:{r.detail}" for r in results)

    return Item("claim", f"claim/{gid}/{name}/dim={dim}", call, verify,
                digest)


# ---------------------------------------------------------------------------

def build(name, cfg, seed, out_dir):
    """The workload's items, in pass order."""
    if name == "diag-probe":
        return build_diag_probe(cfg, seed)
    if name == "lift-validate":
        return build_lift_validate(cfg, seed)
    if name == "dense-solve":
        return build_dense_solve(cfg, seed)
    if name == "gallery-cli":
        return build_gallery_cli(cfg, seed, out_dir)
    raise KeyError(name)
