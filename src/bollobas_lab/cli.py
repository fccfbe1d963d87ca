"""Command-line front end.

Subcommands: norm, nu, member, probe, gallery, transfer, moduli.
Operators come from JSON files or gallery URIs (gallery:G-BLOCK?dim=8&p=2).
Outputs are JSON verdicts/results or CSV curves (probe always writes CSV;
gallery and moduli take --format json|csv), deterministic per seed.  All
work runs in one thread; BOLLOBAS_LAB_THREADS is accepted and ignored.

JSON input is checked before use: a field of the wrong type or shape, or a
NaN or infinite number, is a parse error.

Exit codes: 0 ok, 2 parse error, 3 unsupported geometry / normalization,
4 unknown entity, 5 claim failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .errors import (BollobasLabError, GeometryError, HeuristicRefusalError,
                     NotMaterializableError, NotNormalizedError,
                     UnknownGalleryError)
from .gallery import GalleryEntry, gallery, parse_gallery_uri
from .membership import (diag_mixed_member, diag_norm_member,
                         diag_nu_member, eta_const, eta_identity, eta_linear,
                         eta_quadratic, functional_member, projection_member)
from .norm_attainment import operator_norm
from .numerical_radius import numerical_radius
from .operators import (Adjoint, Dense, Diagonal, Lift, OperatorExpr, RankOne,
                        Scale, identity)
from .probe import CSV_HEADER, ProbeBudget, eta_probe_norm, eta_probe_nu
from .sequences import (BoundedTail, ConstantTail, SequenceSpec, ZeroTail,
                        geometric_tail, ratio_to_one_tail)
from .spaces import INF, Space, modulus_convexity
from .sums import lift_nu_implies_norm, norm_implies_lift_nu

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_GEOMETRY = 3
EXIT_UNKNOWN = 4
EXIT_CLAIM = 5


def _object(d, what: str) -> dict:
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object, got {d!r}")
    return d


def _list(v, what: str) -> list:
    if not isinstance(v, list):
        raise ValueError(f"{what} must be a JSON list, got {v!r}")
    return v


def _real(v) -> float:
    try:
        x = float(v)
    except TypeError:
        raise ValueError(f"expected a number, got {v!r}") from None
    if not math.isfinite(x):
        raise ValueError(f"expected a finite number, got {v!r}")
    return x


def _scalar(v):
    if isinstance(v, (list, tuple)):
        if len(v) != 2:
            raise ValueError(f"a complex scalar is [re, im], got {v!r}")
        return complex(_real(v[0]), _real(v[1]))
    return _real(v)


def _exponent(p) -> float:
    return INF if p in ("inf", "Infinity", INF) else _real(p)


def _parse_space(d) -> Space:
    d = _object(d, "space")
    return Space(_exponent(d.get("p", 2.0)), int(_real(d["dim"])),
                 d.get("field", "real"))


def _parse_tail(d):
    d = _object(d, "tail")
    kind = d.get("kind", "zero")
    if kind == "zero":
        return ZeroTail()
    if kind == "constant":
        return ConstantTail(_scalar(d["value"]))
    if kind == "geometric":
        return geometric_tail(_real(d["c"]), _real(d["r"]))
    if kind == "ratio-to-one":
        return ratio_to_one_tail()
    if kind == "bounded":
        vals = d.get("unimodular_values")
        return BoundedTail(
            sup_modulus=_real(d["sup_modulus"]),
            sup_attained=bool(d["sup_attained"]),
            unimodular_values=None if vals is None
            else tuple(_scalar(v) for v in _list(vals, "unimodular_values")),
            unimodular_finite=bool(d.get("unimodular_finite", True)),
            sub_unit_sup=_real(d.get("sub_unit_sup", 0.0)))
    raise ValueError(f"unknown tail kind {kind!r}")


def _parse_seq(d) -> SequenceSpec:
    d = _object(d, "sequence spec")
    return SequenceSpec(
        prefix=tuple(_scalar(v) for v in _list(d.get("prefix", []), "prefix")),
        tail=_parse_tail(d.get("tail", {"kind": "zero"})))


def _vector(v, what: str) -> np.ndarray:
    return np.array([_scalar(x) for x in _list(v, what)])


def parse_operator_json(d) -> OperatorExpr:
    kind = _object(d, "operator")["kind"]
    if kind == "diagonal":
        space = _parse_space(d["space"])
        return Diagonal(_parse_seq(d), space)
    if kind == "dense":
        space = _parse_space(d["space"])
        cod = _parse_space(d["codomain"]) if "codomain" in d else space
        M = np.array([_vector(row, "matrix row")
                      for row in _list(d["matrix"], "matrix")])
        return Dense(M, space, cod)
    if kind == "rank_one":
        space = _parse_space(d["space"])
        cod = _parse_space(d["codomain"]) if "codomain" in d else space
        return RankOne(_vector(d["y"], "y"), _vector(d["xstar"], "xstar"),
                       space, cod)
    if kind == "scale":
        return Scale(_scalar(d["scalar"]), parse_operator_json(d["child"]))
    if kind == "lift":
        return Lift(parse_operator_json(d["child"]), _exponent(d["outer_p"]))
    if kind == "adjoint":
        return Adjoint(parse_operator_json(d["child"]))
    raise ValueError(f"unknown operator kind {kind!r}")


def load_operator(source: str):
    """gallery URI or JSON file path -> (expr, gallery entry or None)."""
    if source.startswith("gallery:"):
        entry = parse_gallery_uri(source)
        return entry.expr, entry
    with open(source) as fh:
        data = json.load(fh)
    return parse_operator_json(data), None


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _json_dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def _family_arg(s: str):
    if s in ("c0", "linf"):
        return s
    return float(s)


def cmd_norm(args) -> int:
    expr, _entry = load_operator(args.operator)
    nr = operator_norm(expr, seed=args.seed)
    _emit(_json_dump(nr.describe()), args.out)
    return EXIT_OK


def cmd_nu(args) -> int:
    expr, entry = load_operator(args.operator)
    if entry is not None and entry.nu_override is not None:
        nr = entry.nu_override
    else:
        nr = numerical_radius(expr, seed=args.seed)
    _emit(_json_dump(nr.describe()), args.out)
    return EXIT_OK


def cmd_member(args) -> int:
    if args.projection is not None:
        v = projection_member(args.projection, _family_arg(args.family),
                              args.mode if args.mode != "mixed" else "norm")
    else:
        with open(args.spec) as fh:
            data = json.load(fh)
        spec = _parse_seq(data)
        fam = _family_arg(args.family)
        if args.mode == "norm":
            v = diag_norm_member(spec, fam)
        elif args.mode == "nu":
            v = diag_nu_member(spec, fam)
        elif args.mode == "mixed":
            v = diag_mixed_member(spec, fam, _family_arg(args.to_family))
        elif args.mode == "functional":
            v = functional_member(spec, fam)
        else:
            raise ValueError(f"unknown mode {args.mode!r}")
    _emit(_json_dump(v.to_json()), args.out)
    return EXIT_OK


def _parse_list(s: str, kind) -> list:
    """The comma-separated values of s as kind; an empty list is an error."""
    values = [kind(v) for v in s.split(",") if v]
    if not values:
        raise ValueError(f"empty list {s!r}")
    return values


def _rebuild_at(entry: GalleryEntry, dim: int):
    params = dict(entry.params)
    params.pop("dim", None)
    return gallery(entry.gid, dim, **params)


def cmd_probe(args) -> int:
    expr, entry = load_operator(args.operator)
    dims = _parse_list(args.dims, int) if args.dims else [expr.domain.dim]
    eps_grid = _parse_list(args.eps, float)
    budget = ProbeBudget(args.restarts, args.iters)
    lines = [CSV_HEADER]
    for dim in dims:
        if entry is not None and dim != entry.params.get("dim"):
            e2 = _rebuild_at(entry, dim)
            cur, cur_entry = e2.expr, e2
        elif entry is not None:
            cur, cur_entry = entry.expr, entry
        else:
            cur, cur_entry = expr, None
            if dim != expr.domain.dim:
                raise GeometryError(
                    "JSON operators probe at their own dimension only")
        for eps in eps_grid:
            kwargs = {}
            if cur_entry is not None and cur_entry.attaining is not None:
                kwargs["attaining"] = cur_entry.attaining
            if cur_entry is not None and cur_entry.nu_override is not None:
                kwargs["nu_result"] = cur_entry.nu_override
            if args.mode == "norm":
                rep = eta_probe_norm(cur, eps, budget=budget, seed=args.seed)
            else:
                rep = eta_probe_nu(cur, eps, budget=budget, seed=args.seed,
                                   **kwargs)
            lines.append(rep.csv_row(dim))
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_gallery(args) -> int:
    dims = _parse_list(args.dims, int)
    all_ok = True
    rows = []
    for dim in dims:
        entry = gallery(args.id, dim)
        for res in entry.run_claims(seed=args.seed):
            rows.append({"id": args.id, "dim": dim, "claim": res.name,
                         "passed": res.passed, "detail": res.detail})
            all_ok &= res.passed
    if args.format == "json":
        _emit(_json_dump(rows), args.out)
    else:
        lines = ["id,dim,claim,passed,detail"]
        for r in rows:
            lines.append(f"{r['id']},{r['dim']},{r['claim']},"
                         f"{int(r['passed'])},\"{r['detail']}\"")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if all_ok else EXIT_CLAIM


_ETA_BASES = {
    "identity": eta_identity,
    "half": lambda: eta_linear(0.5),
    "quadratic": lambda: eta_quadratic(0.25),
}


def _parse_eta(s: str):
    if s in _ETA_BASES:
        return _ETA_BASES[s]()
    if s.startswith("const:"):
        return eta_const(float(s.split(":", 1)[1]))
    if s.startswith("linear:"):
        return eta_linear(float(s.split(":", 1)[1]))
    raise ValueError(f"unknown eta designator {s!r}")


def cmd_transfer(args) -> int:
    eta = _parse_eta(args.eta)
    outer = _exponent(args.outer_p)
    W = Space(args.w_p, args.dim)
    Z = Space(args.z_p, args.dim)
    T = identity(W) if args.w_p == args.z_p else None
    if args.direction == "nu-to-norm":
        res = lift_nu_implies_norm(T, outer, eta)
    elif args.direction == "norm-to-nu":
        res = norm_implies_lift_nu(T, outer, eta, W, Z)
    else:
        raise ValueError("direction must be nu-to-norm or norm-to-nu")
    grid = _parse_list(args.eps, float)
    payload = res.describe()
    payload["values"] = [{"epsilon": e, "eta": res.eta_out(e)} for e in grid]
    _emit(_json_dump(payload), args.out)
    return EXIT_OK


def cmd_moduli(args) -> int:
    space = Space(args.p, max(args.dim, 2))
    grid = _parse_list(args.eps, float)
    if args.format == "csv":
        lines = ["p,epsilon,delta"]
        for e in grid:
            lines.append(f"{args.p},{e!r},{modulus_convexity(space, e)!r}")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(_json_dump([{"p": args.p, "epsilon": e,
                           "delta": modulus_convexity(space, e)}
                          for e in grid]), args.out)
    return EXIT_OK


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no
    state between calls, so every main call can share it."""
    ap = argparse.ArgumentParser(
        prog="bollobas-lab",
        description="norm attainment and numerical-radius stability "
                    "computations on lp-type truncations")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None)

    def output_format(p):
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("norm", help="operator norm with certainty label")
    p.add_argument("operator", help="gallery URI or JSON file")
    common(p)
    p.set_defaults(fn=cmd_norm)

    p = sub.add_parser("nu", help="numerical radius with certainty label")
    p.add_argument("operator")
    common(p)
    p.set_defaults(fn=cmd_nu)

    p = sub.add_parser("member", help="membership verdicts for diagonal "
                                      "operators and functionals")
    p.add_argument("--spec", help="JSON file with prefix/tail")
    p.add_argument("--projection", type=int, default=None,
                   help="use the canonical projection P_N instead of a spec")
    p.add_argument("--family", required=True, help="c0, linf, or a p value")
    p.add_argument("--to-family", default=None,
                   help="target family for mixed-domain verdicts")
    p.add_argument("--mode", choices=("norm", "nu", "mixed", "functional"),
                   default="norm")
    common(p)
    p.set_defaults(fn=cmd_member)

    p = sub.add_parser("probe", help="adversarial eta estimation -> CSV")
    p.add_argument("operator")
    p.add_argument("--mode", choices=("norm", "nu"), default="norm")
    p.add_argument("--eps", required=True, help="comma-separated epsilons")
    p.add_argument("--dims", default=None, help="comma-separated dims")
    p.add_argument("--restarts", type=int, default=256)
    p.add_argument("--iters", type=int, default=2000)
    common(p)
    p.set_defaults(fn=cmd_probe)

    p = sub.add_parser("gallery", help="run an entry's claim suite")
    p.add_argument("id")
    p.add_argument("--dims", required=True)
    common(p)
    output_format(p)
    p.set_defaults(fn=cmd_gallery)

    p = sub.add_parser("transfer", help="direct-sum eta transfers")
    p.add_argument("--direction", required=True,
                   choices=("nu-to-norm", "norm-to-nu"))
    p.add_argument("--outer-p", default="1")
    p.add_argument("--w-p", type=float, default=2.0)
    p.add_argument("--z-p", type=float, default=2.0)
    p.add_argument("--dim", type=int, default=4)
    p.add_argument("--eta", default="identity")
    p.add_argument("--eps", default="0.2,0.5,0.8")
    common(p)
    p.set_defaults(fn=cmd_transfer)

    p = sub.add_parser("moduli", help="modulus of convexity values")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--eps", required=True)
    common(p)
    output_format(p)
    p.set_defaults(fn=cmd_moduli)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (json.JSONDecodeError, ValueError, KeyError, OSError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except UnknownGalleryError as exc:
        print(f"unknown entity: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN
    except (GeometryError, NotNormalizedError, NotMaterializableError,
            HeuristicRefusalError) as exc:
        print(f"unsupported geometry: {exc}", file=sys.stderr)
        return EXIT_GEOMETRY
    except BollobasLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GEOMETRY


if __name__ == "__main__":
    sys.exit(main())
