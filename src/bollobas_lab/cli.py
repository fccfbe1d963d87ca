"""Command-line front end.

Subcommands: norm, nu, member, probe, gallery, transfer, moduli.
Operators come from JSON files or gallery URIs (gallery:G-BLOCK?dim=8&p=2).
Outputs are JSON verdicts/results or CSV curves (probe always writes CSV;
gallery and moduli take --format json|csv), deterministic per seed.

JSON input is read field by field through _field: a missing field, a field
of the wrong type or shape, or a NaN or infinite number is a parse error
that names the field.

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
from .probe import (CSV_HEADER, ProbeBudget, _check_eps, _norm_grid,
                    _nu_grid)
from .sequences import (BoundedTail, ConstantTail, SequenceSpec, ZeroTail,
                        geometric_tail, ratio_to_one_tail)
from .spaces import INF, Space, modulus_convexity
from .sums import lift_nu_implies_norm, norm_implies_lift_nu

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_GEOMETRY = 3
EXIT_UNKNOWN = 4
EXIT_CLAIM = 5


_REQUIRED = object()
_EXPECTED = {"real": "a finite number", "scalar": "a finite number or [re, im]",
             "exponent": 'a finite number or "inf"', "flag": "a JSON boolean",
             "count": "an integer", "vector": "a list of scalars",
             "matrix": "a list of rows", "object": "a JSON object"}


def _field(obj, key, kind: str | tuple, where: str, default=_REQUIRED):
    """obj[key] read as kind, named where.key (where[key] for a list entry)
    in a parse error: the one place this module checks a JSON value's type.

    A real is a finite number, never a boolean or a string; an exponent may
    also be "inf", "Infinity" or JSON Infinity.  A scalar is a real or
    [re, im], a vector a tuple of scalars, a matrix an array of vectors, and
    a tuple kind lists the strings allowed.  A missing key reads as default,
    and so does a null one whose default is None."""
    path = f"{where}[{key}]" if isinstance(key, int) else \
        f"{where}.{key}" if where else key
    v = obj[key] if type(obj) is list else obj.get(key, default)
    if v is _REQUIRED:
        raise ValueError(f"{path} is missing")
    if v is default:
        return v
    t = type(v)
    if t is list and kind in ("vector", "matrix"):
        inner = "scalar" if kind == "vector" else "vector"
        rows = tuple(_field(v, i, inner, path) for i in range(len(v)))
        return rows if kind == "vector" else np.array(rows)
    if t is list and kind == "scalar" and len(v) == 2:
        return complex(_field(v, 0, "real", path), _field(v, 1, "real", path))
    if kind == "exponent" and (v in ("inf", "Infinity") if t is str
                               else t is float and v == INF):
        return INF
    if t in (int, float) and kind in ("real", "scalar", "exponent") \
            and abs(v) <= sys.float_info.max:
        return float(v)
    if kind == "count" and (t is int or t is float and v.is_integer()):
        return int(v)
    if (kind == "flag" and t is bool or kind == "object" and t is dict
            or type(kind) is tuple and t is str and v in kind):
        return v
    expected = _EXPECTED.get(kind) or "one of " + ", ".join(map(repr, kind))
    raise ValueError(f"{path} must be {expected}, got {v!r}")


def _load_json(path: str, name: str) -> dict:
    """The JSON object in the file at path, called name in parse errors."""
    with open(path) as fh:
        return _field({name: json.load(fh)}, name, "object", "")


def _parse_space(d: dict, where: str) -> Space:
    return Space(_field(d, "p", "exponent", where, 2.0),
                 _field(d, "dim", "count", where),
                 _field(d, "field", ("real", "complex"), where, "real"))


def _parse_tail(d: dict, where: str):
    kind = _field(d, "kind", ("zero", "constant", "geometric", "ratio-to-one",
                              "bounded"), where, "zero")
    if kind == "zero":
        return ZeroTail()
    if kind == "constant":
        return ConstantTail(_field(d, "value", "scalar", where))
    if kind == "geometric":
        return geometric_tail(_field(d, "c", "real", where),
                              _field(d, "r", "real", where))
    if kind == "ratio-to-one":
        return ratio_to_one_tail()
    return BoundedTail(
        sup_modulus=_field(d, "sup_modulus", "real", where),
        sup_attained=_field(d, "sup_attained", "flag", where),
        unimodular_values=_field(d, "unimodular_values", "vector", where,
                                 None),
        unimodular_finite=_field(d, "unimodular_finite", "flag", where, True),
        sub_unit_sup=_field(d, "sub_unit_sup", "real", where, 0.0))


def _parse_seq(d: dict, where: str) -> SequenceSpec:
    return SequenceSpec(
        prefix=_field(d, "prefix", "vector", where, ()),
        tail=_parse_tail(_field(d, "tail", "object", where, {}),
                         f"{where}.tail"))


def parse_operator_json(d: dict, where: str = "operator") -> OperatorExpr:
    """The operator of a JSON object, as the README describes it."""
    kind = _field(d, "kind", ("diagonal", "dense", "rank_one", "scale", "lift",
                              "adjoint"), where)
    if kind in ("scale", "lift", "adjoint"):
        child = parse_operator_json(_field(d, "child", "object", where),
                                    f"{where}.child")
        if kind == "scale":
            return Scale(_field(d, "scalar", "scalar", where), child)
        if kind == "lift":
            return Lift(child, _field(d, "outer_p", "exponent", where))
        return Adjoint(child)
    space_json = _field(d, "space", "object", where)
    space = _parse_space(space_json, f"{where}.space")
    if kind == "diagonal":
        return Diagonal(_parse_seq(d, where), space)
    cod = _parse_space(_field(d, "codomain", "object", where, space_json),
                       f"{where}.codomain")
    if kind == "dense":
        return Dense(_field(d, "matrix", "matrix", where), space, cod)
    return RankOne(np.array(_field(d, "y", "vector", where)),
                   np.array(_field(d, "xstar", "vector", where)), space, cod)


def load_operator(source: str):
    """gallery URI or JSON file path -> (expr, gallery entry or None)."""
    if source.startswith("gallery:"):
        entry = parse_gallery_uri(source)
        return entry.expr, entry
    return parse_operator_json(_load_json(source, "operator")), None


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
        spec = _parse_seq(_load_json(args.spec, "spec"), "spec")
        fam = _family_arg(args.family)
        if args.mode == "mixed":
            v = diag_mixed_member(spec, fam, _family_arg(args.to_family))
        else:
            v = {"norm": diag_norm_member, "nu": diag_nu_member,
                 "functional": functional_member}[args.mode](spec, fam)
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
        if args.mode == "norm":
            reports = _norm_grid(cur, eps_grid, budget, args.seed)[1]
        else:
            kwargs = {}
            if cur_entry is not None and cur_entry.attaining is not None:
                kwargs["attaining"] = cur_entry.attaining
            if cur_entry is not None and cur_entry.nu_override is not None:
                kwargs["nu_result"] = cur_entry.nu_override
            reports = _nu_grid(cur, eps_grid, budget, args.seed, **kwargs)[1]
        lines.extend(rep.csv_row(dim) for rep in reports)
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


def _finite_arg(s: str) -> float:
    x = float(s)
    if not math.isfinite(x):
        raise ValueError(f"expected a finite number, got {s!r}")
    return x


def _parse_eta(s: str):
    if s in _ETA_BASES:
        return _ETA_BASES[s]()
    if s.startswith("const:"):
        return eta_const(_finite_arg(s.split(":", 1)[1]))
    if s.startswith("linear:"):
        return eta_linear(_finite_arg(s.split(":", 1)[1]))
    raise ValueError(f"unknown eta designator {s!r}")


def cmd_transfer(args) -> int:
    eta = _parse_eta(args.eta)
    outer = INF if args.outer_p in ("inf", "Infinity") else \
        _finite_arg(args.outer_p)
    grid = _parse_list(args.eps, float)
    for e in grid:
        _check_eps(e)
    W = Space(args.w_p, args.dim)
    Z = Space(args.z_p, args.dim)
    T = identity(W) if args.w_p == args.z_p else None
    if args.direction == "nu-to-norm":
        res = lift_nu_implies_norm(T, outer, eta)
    else:
        res = norm_implies_lift_nu(T, outer, eta, W, Z)
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
