import json
import os
import subprocess
import sys

import pytest

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
], ids=["matrix-not-a-list", "one-part-complex", "top-level-list",
        "infinite-entry", "nan-prefix", "nan-spec"])
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
