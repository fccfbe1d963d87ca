import contextlib
import copy
import csv
import io
import json
import math
import os
import shlex
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bollobas_lab.cli import build_parser, main
from bollobas_lab.probe import CSV_HEADER


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_norm_gallery(capsys):
    code, out = run_cli(["norm", "gallery:G-RANK1-L1?dim=16"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["value"] == 1.0 and data["certainty"] == "exact"


def test_nu_shift(capsys):
    code, out = run_cli(["nu", "gallery:G-SHIFT?dim=5"], capsys)
    assert code == 0
    data = json.loads(out)
    assert abs(data["value"] - 0.8660254) < 1e-6


def test_malformed_json_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _ = run_cli(["norm", str(bad)], capsys)
    assert code == 2


@pytest.mark.parametrize("command, text", [
    ("norm", '{"kind": "dense", "space": {"p": 3, "dim": 2}, "matrix": 5}'),
    ("norm", '{"kind": "diagonal", "space": {"p": 2, "dim": 2}, '
             '"prefix": [[1]]}'),
    ("norm", '[1, 2]'),
    ("norm", '{"kind": "dense", "space": {"p": 3, "dim": 2}, '
             '"matrix": [[Infinity, 0], [0, 1]]}'),
    ("norm", '{"kind": "diagonal", "space": {"p": 2, "dim": 2}, '
             '"prefix": [NaN, 0.5]}'),
    ("member", '{"prefix": [1.0], "tail": {"kind": "constant", '
               '"value": NaN}}'),
    ("member", '{"prefix": [1.0], "tail": {"kind": "bounded", '
               '"sup_modulus": 1.0, "sup_attained": "false", '
               '"unimodular_values": [1.0], "sub_unit_sup": 0.5}}'),
    ("member", '{"prefix": [1.0], "tail": {"kind": "bounded", '
               '"sup_modulus": 1.0, "sup_attained": true, '
               '"unimodular_finite": 1, "unimodular_values": [1.0]}}'),
    ("norm", '{"kind": "diagonal", "space": {"p": 2, "dim": 3.7}, '
             '"prefix": [1.0]}'),
    ("member", '{"prefix": [true]}'),
    ("member", '{"tail": {"kind": "constant", "value": "0.5"}}'),
    ("member", '{"tail": {"kind": "geometric", "c": 0.5}}'),
    ("norm", '{"kind": "dense", "space": {"p": 2, "dim": 2}, '
             '"matrix": [["0", 0], [0, true]]}'),
    ("norm", '{"kind": "dense", "space": {"p": "2", "dim": 2}, '
             '"matrix": [[1, 0], [0, 1]]}'),
    ("norm", '{"kind": "dense", "space": {"p": 2, "dim": 2, "field": 7}, '
             '"matrix": [[1, 0], [0, 1]]}'),
], ids=["matrix-not-a-list", "one-part-complex", "top-level-list",
        "infinite-entry", "nan-prefix", "nan-spec", "string-flag",
        "number-flag", "fractional-dim", "boolean-prefix", "string-value",
        "missing-r", "string-matrix-entry", "string-p", "number-field"])
def test_bad_json_input_exit_two(tmp_path, capsys, command, text):
    f = tmp_path / "input.json"
    f.write_text(text)
    args = ["norm", str(f)] if command == "norm" else \
        ["member", "--spec", str(f), "--family", "2"]
    code, out = run_cli(args, capsys)
    assert code == 2 and out == ""


def test_format_only_where_read(capsys):
    code, _ = run_cli(["norm", "gallery:G-SHIFT?dim=3", "--format", "csv"],
                      capsys)
    assert code == 2


def test_unknown_gallery_exit_four(capsys):
    code, _ = run_cli(["gallery", "NOPE", "--dims", "4"], capsys)
    assert code == 4


def test_unsupported_geometry_exit_three(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"prefix": [1.0],
                                "tail": {"kind": "constant", "value": 0.5}}))
    code, _ = run_cli(["member", "--spec", str(spec), "--family", "linf",
                       "--mode", "nu"], capsys)
    assert code == 3


@pytest.mark.parametrize("command", ["norm", "nu"])
def test_complex_matrix_on_real_field_exit_three(tmp_path, capsys, command):
    # [0, 1] is the complex entry i on a real-field l1 space
    f = tmp_path / "op.json"
    f.write_text('{"kind": "dense", "space": {"p": 1, "dim": 2}, '
                 '"matrix": [[[0, 1], 0], [0, 0.5]]}')
    code, out = run_cli([command, str(f)], capsys)
    assert code == 3 and out == ""


def test_member_json_verdict(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"prefix": [1.0],
                                "tail": {"kind": "constant", "value": 0.9}}))
    code, out = run_cli(["member", "--spec", str(spec), "--family", "2",
                         "--mode", "norm"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["member"] is True
    assert data["theorem"] == "diagonal-norm-dichotomy"


def test_member_false_with_recipe(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"prefix": [1.0],
                                "tail": {"kind": "ratio-to-one"}}))
    code, out = run_cli(["member", "--spec", str(spec), "--family", "c0"],
                        capsys)
    data = json.loads(out)
    assert data["member"] is False and data["witness_recipe"] is not None


def test_projection_member(capsys):
    code, out = run_cli(["member", "--projection", "5", "--family", "linf"],
                        capsys)
    assert code == 0 and json.loads(out)["member"] is True


def test_probe_csv_schema(tmp_path, capsys):
    out_path = tmp_path / "curve.csv"
    code, _ = run_cli(["probe", "gallery:G-BLOCK?dim=4", "--eps", "0.5",
                       "--dims", "4,8", "--restarts", "16", "--iters", "100",
                       "--out", str(out_path)], capsys)
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "4"


def test_probe_identity_sentinel(tmp_path, capsys):
    op = tmp_path / "id.json"
    op.write_text(json.dumps({
        "kind": "diagonal", "space": {"p": 2, "dim": 4},
        "prefix": [1.0, 1.0, 1.0, 1.0], "tail": {"kind": "zero"}}))
    code, out = run_cli(["probe", str(op), "--eps", "0.3",
                         "--restarts", "16", "--iters", "100"], capsys)
    assert code == 0
    assert "inf" in out.split("\n")[1]


@pytest.mark.parametrize("mode", ["norm", "nu"])
@pytest.mark.parametrize("flags,exit_code", [
    (["--restarts", "0"], 2), (["--restarts", "-3"], 2), (["--iters", "0"], 2),
    (["--eps", "nan"], 3), (["--eps", "inf"], 3), (["--eps", "-1"], 3),
    (["--eps", "0"], 3),
], ids=["restarts-0", "restarts-neg", "iters-0", "eps-nan", "eps-inf",
        "eps-neg", "eps-0"])
def test_probe_bad_budget_or_eps_exit_code(capsys, mode, flags, exit_code):
    args = ["probe", "gallery:G-BLOCK?dim=4", "--mode", mode, "--eps", "0.5",
            "--restarts", "4", "--iters", "100"] + flags
    code, out = run_cli(args, capsys)
    assert code == exit_code and out == ""


def test_gallery_claims_csv(capsys):
    code, out = run_cli(["gallery", "G-SHIFT", "--dims", "4,6",
                         "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "id,dim,claim,passed,detail"
    assert all(",1," in l for l in lines[1:])


def test_transfer_command(capsys):
    code, out = run_cli(["transfer", "--direction", "norm-to-nu",
                         "--outer-p", "1", "--eps", "0.2,0.5"], capsys)
    assert code == 0
    data = json.loads(out)
    assert len(data["values"]) == 2
    assert all(v["eta"] > 0 for v in data["values"])


@pytest.mark.parametrize("direction", ["nu-to-norm", "norm-to-nu"])
@pytest.mark.parametrize("eps", ["nan", "inf", "-1,0", "0.5,0", "0.2,-inf"])
def test_transfer_bad_eps_exit_three(capsys, direction, eps):
    # a NaN eps printed "epsilon": NaN, which is not JSON, and a negative one
    # printed a value; both exited 0
    code, out = run_cli(["transfer", "--direction", direction,
                         "--outer-p", "1", f"--eps={eps}"], capsys)
    assert code == 3 and out == ""


@pytest.mark.parametrize("eta", ["const:nan", "const:inf", "linear:nan",
                                 "linear:-inf", "const:x"])
def test_transfer_rejects_a_non_finite_eta(capsys, eta):
    # a NaN eta printed "eta": NaN, which is not JSON
    code, out = run_cli(["transfer", "--direction", "norm-to-nu",
                         "--outer-p", "1", "--eta", eta], capsys)
    assert code == 2 and out == ""


def test_probe_grid_rows_match_one_eps_at_a_time(capsys):
    # the eps grid runs as one probe per dim; each row is the row of its
    # eps probed alone
    for uri, mode in (("G-DIAG-ZSTAR?dim=4", "norm"),
                      ("G-BLOCK?dim=4", "nu")):
        args = ["probe", "gallery:" + uri, "--mode", mode, "--dims", "4,8",
                "--restarts", "20", "--iters", "300", "--seed", "3"]
        code, out = run_cli(args + ["--eps", "0.5,0.2,0.5,2.5"], capsys)
        assert code == 0
        rows = {}
        for eps in ("0.5", "0.2", "2.5"):
            code, one = run_cli(args + ["--eps", eps], capsys)
            assert code == 0
            rows[eps] = one.strip().split("\n")[1:]
        want = [rows[e][i] for i in range(2) for e in ("0.5", "0.2", "0.5",
                                                       "2.5")]
        assert out.strip().split("\n") == [CSV_HEADER] + want


def test_moduli_command(capsys):
    code, out = run_cli(["moduli", "--p", "2", "--eps", "1.0"], capsys)
    assert code == 0
    data = json.loads(out)
    assert abs(data[0]["delta"] - 0.1339745962155614) < 1e-12


@pytest.mark.parametrize("args", [
    ["moduli", "--p", "4", "--eps", ","],
    ["transfer", "--direction", "norm-to-nu", "--outer-p", "1", "--eps", ","],
    ["gallery", "G-SHIFT", "--dims", ","],
    ["probe", "gallery:G-SHIFT?dim=4", "--eps", ","],
    ["probe", "gallery:G-SHIFT?dim=4", "--eps", "0.5", "--dims", ","],
], ids=["moduli-eps", "transfer-eps", "gallery-dims", "probe-eps",
        "probe-dims"])
def test_empty_list_exit_two(capsys, args):
    code, out = run_cli(args, capsys)
    assert code == 2 and out == ""


def test_cli_never_imports_scipy():
    code = (
        "import sys\n"
        "import bollobas_lab\n"
        "from bollobas_lab.cli import main\n"
        "from bollobas_lab.spaces import Space, modulus_convexity\n"
        "main(['moduli', '--p', '4', '--eps', '0.5,1.0', '--format', 'csv'])\n"
        "main(['transfer', '--direction', 'norm-to-nu', '--outer-p', '1',\n"
        "      '--eps', '0.2,0.5,0.8'])\n"
        "modulus_convexity(Space(1.5, 2), 0.5)\n"
        "assert 'scipy' not in sys.modules\n")
    subprocess.run([sys.executable, "-c", code], capture_output=True,
                   check=True)


def test_operator_json_roundtrip(tmp_path, capsys):
    op = {"kind": "scale", "scalar": 0.5,
          "child": {"kind": "dense", "space": {"p": 2, "dim": 2},
                    "matrix": [[2.0, 0.0], [0.0, 1.0]]}}
    f = tmp_path / "op.json"
    f.write_text(json.dumps(op))
    code, out = run_cli(["norm", str(f)], capsys)
    assert code == 0
    assert json.loads(out)["value"] == 1.0


def test_cli_outputs_byte_identical_across_threads(tmp_path):
    env = dict(os.environ)
    outs = []
    for threads in ("1", "3"):
        env["BOLLOBAS_LAB_THREADS"] = threads
        res = subprocess.run(
            [sys.executable, "-m", "bollobas_lab.cli", "probe",
             "gallery:G-DIAG-ZSTAR?dim=8", "--eps", "0.3,0.6",
             "--dims", "8,12", "--restarts", "48", "--iters", "300",
             "--seed", "7"],
            env=env, capture_output=True, text=True, check=True)
        outs.append(res.stdout)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("bad", [
    ["moduli", "--p", "2"],
    ["probe", "gallery:G-SHIFT?dim=4", "--eps", "0.5", "--restarts", "x"],
    ["nu"],
], ids=["missing-option", "bad-type", "missing-operator"])
def test_shared_parser_keeps_no_state(capsys, bad):
    # the parser is built once per process; a failed parse must not change
    # what the next call gives, so each call matches a fresh interpreter
    good = ["moduli", "--p", "3", "--eps", "0.5,1.0"]
    alone = {}
    for args in (bad, good):
        res = subprocess.run([sys.executable, "-m", "bollobas_lab.cli"] + args,
                             capture_output=True, text=True)
        alone[tuple(args)] = (res.returncode, res.stdout)
    assert alone[tuple(bad)] == (2, "")
    for args in (bad, good, bad):
        assert run_cli(args, capsys) == alone[tuple(args)]
    assert build_parser() is build_parser()


def test_negative_tail_modulus_exit_three(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"prefix": [1.0], "tail": {
        "kind": "bounded", "sup_modulus": -1.0, "sup_attained": False}}))
    code, out = run_cli(["member", "--spec", str(spec), "--family", "2"],
                        capsys)
    assert code == 3 and out == ""


# Every JSON field the README and the inputs above use, by key: its kind as
# cli._field reads it, and whether the key may be left out.  A tail's kind
# may be left out (a zero tail); an operator's may not.
_TAIL_KINDS = ("zero", "constant", "geometric", "ratio-to-one", "bounded")
_OPERATOR_KINDS = ("diagonal", "dense", "rank_one", "scale", "lift",
                   "adjoint")
_KINDS = {
    "kind": _TAIL_KINDS + _OPERATOR_KINDS, "space": "object",
    "codomain": "object", "child": "object", "tail": "object",
    "p": "exponent", "outer_p": "exponent", "dim": "count",
    "field": ("real", "complex"), "prefix": "vector", "y": "vector",
    "xstar": "vector", "unimodular_values": "vector", "matrix": "matrix",
    "value": "scalar", "scalar": "scalar", "c": "real", "r": "real",
    "sup_modulus": "real", "sub_unit_sup": "real", "sup_attained": "flag",
    "unimodular_finite": "flag"}
_OPTIONAL = {"p", "field", "codomain", "prefix", "tail", "unimodular_values",
             "unimodular_finite", "sub_unit_sup"}
_NULLABLE = {"unimodular_values"}
_ENTRY = {"vector": "scalar", "matrix": "vector", "scalar": "real"}

_FIELD_DOCS = [
    ("operator", {"kind": "diagonal", "space": {"p": 2, "dim": 8},
                  "prefix": [1.0], "tail": {"kind": "constant", "value": 0.9}}),
    ("operator", {"kind": "scale", "scalar": 0.5,
                  "child": {"kind": "dense", "space": {"p": 2, "dim": 2},
                            "matrix": [[2.0, 0.0], [0.0, 1.0]]}}),
    ("operator", {"kind": "diagonal", "space": {"p": 2, "dim": 4},
                  "prefix": [1.0, 1.0, 1.0, 1.0], "tail": {"kind": "zero"}}),
    ("operator", {"kind": "lift", "outer_p": "inf", "child": {
        "kind": "adjoint", "child": {
            "kind": "rank_one", "space": {"p": 2, "dim": 2, "field": "real"},
            "codomain": {"p": 3, "dim": 2}, "y": [1.0, 0.0],
            "xstar": [[1.0, 0.0], 0.0]}}}),
    ("spec", {"prefix": [1.0], "tail": {"kind": "constant", "value": 0.9}}),
    ("spec", {"prefix": [1.0], "tail": {"kind": "ratio-to-one"}}),
    ("spec", {"prefix": [1.0], "tail": {"kind": "geometric", "c": 0.5,
                                         "r": 0.5}}),
    ("spec", {"prefix": [1.0, [0.0, 1.0]], "tail": {
        "kind": "bounded", "sup_modulus": 1.0, "sup_attained": False,
        "unimodular_values": [1.0], "unimodular_finite": True,
        "sub_unit_sup": 0.5}}),
]


def _walk(value, kind, path=()):
    """(path, kind, may be left out, may be null) of value and of every
    field and list entry inside it."""
    key = path[-1] if path else None
    optional = key in _OPTIONAL or path[-2:-1] == ("tail",) and key == "kind"
    yield path, kind, optional, key in _NULLABLE
    if kind == "object":
        for k, v in value.items():
            yield from _walk(v, _KINDS[k], path + (k,))
    elif kind in _ENTRY and isinstance(value, list):
        for i, v in enumerate(value):
            yield from _walk(v, _ENTRY[kind], path + (i,))


def _finite_pair(v):
    return len(v) == 2 and all(type(x) in (int, float) and math.isfinite(x)
                               for x in v)


_NUMBERS = st.integers(-10 ** 6, 10 ** 6) | st.floats()
_LEAVES = st.none() | st.booleans() | _NUMBERS | st.text(max_size=4)


def _wrong(kind, json_type):
    """A strategy for values of json_type that kind refuses, or None when
    kind takes every value of that type (a list holding a vector's entries
    is checked entry by entry)."""
    if json_type == "boolean":
        return st.booleans() if kind != "flag" else None
    if json_type == "null":
        return st.none()
    if json_type == "string":
        allowed = kind if isinstance(kind, tuple) else \
            ("inf", "Infinity") if kind == "exponent" else ()
        return st.text(max_size=8).filter(lambda v: v not in allowed)
    if json_type == "list":
        if kind in ("vector", "matrix"):
            return None
        lists = st.lists(_LEAVES, max_size=3)
        return lists.filter(lambda v: not _finite_pair(v)) \
            if kind == "scalar" else lists
    if json_type == "object":
        return st.dictionaries(st.text(max_size=3), _LEAVES, max_size=2) \
            if kind != "object" else None
    if kind in ("real", "scalar", "exponent"):
        bad = [math.nan, -math.inf] + ([] if kind == "exponent"
                                       else [math.inf])
        return st.sampled_from(bad)
    if kind == "count":
        return st.integers(-10 ** 6, 10 ** 6).map(lambda n: n + 0.5) \
            | st.sampled_from([math.nan, math.inf])
    return _NUMBERS


def _field_name(root, path):
    return root + "".join(f"[{k}]" if isinstance(k, int) else f".{k}"
                          for k in path)


def _run_quiet(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("json_type", ["boolean", "string", "null", "list",
                                       "object", "number", "missing"])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_every_wrong_json_field_exit_two(tmp_path_factory, json_type, data):
    # each field of each input, given a value of a type it does not take or
    # left out, is one parse error that names it
    f = tmp_path_factory.mktemp("fields") / "input.json"
    for root, doc in _FIELD_DOCS:
        args = ["norm", str(f)] if root == "operator" else \
            ["member", "--spec", str(f), "--family", "2"]
        for path, kind, optional, nullable in _walk(doc, "object"):
            if json_type == "missing":
                if optional or not path or isinstance(path[-1], int):
                    continue
            else:
                wrong = None if json_type == "null" and nullable \
                    else _wrong(kind, json_type)
                if wrong is None:
                    continue
                value = data.draw(wrong)
            bad = copy.deepcopy(doc)
            if not path:
                bad = value
            else:
                parent = bad
                for k in path[:-1]:
                    parent = parent[k]
                if json_type == "missing":
                    del parent[path[-1]]
                else:
                    parent[path[-1]] = value
            f.write_text(json.dumps(bad))
            code, out, err = _run_quiet(args)
            lines = err.splitlines()
            name = _field_name(root, path)
            assert (code, out) == (2, ""), (name, bad)
            assert len(lines) == 1 and lines[0].startswith("parse error: ")
            assert name in lines[0], (name, lines[0])
            if json_type == "missing":
                assert lines[0] == f"parse error: {name} is missing"


def _readme_block(readme, after, fence):
    start = readme.index(fence, readme.index(after)) + len(fence)
    return readme[start:readme.index("```", start)]


def test_readme_commands_run(tmp_path):
    # the README's command block, with spec.json the prefix and tail of its
    # JSON operator example, and norm of that example: each exits 0 and
    # prints JSON, or CSV where the README asks for it
    with open(os.path.join(os.path.dirname(__file__), os.pardir,
                           "README.md")) as fh:
        readme = fh.read()
    operator = json.loads(_readme_block(readme, "## Command line", "```json"))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({k: operator[k] for k in ("prefix", "tail")}))
    op = tmp_path / "op.json"
    op.write_text(json.dumps(operator))
    commands = [shlex.split(line)[1:] for line in _readme_block(
        readme, "## Command line", "```\n").strip().splitlines()]
    assert commands
    for args in commands + [["norm", str(op)]]:
        args = [str(spec) if a == "spec.json" else a for a in args]
        code, out, err = _run_quiet(args)
        assert code == 0, (args, err)
        if args[0] == "probe" or "csv" in args:
            rows = list(csv.reader(io.StringIO(out)))
            assert len(rows) > 1 and all(len(r) == len(rows[0])
                                         for r in rows), args
        else:
            json.loads(out)
