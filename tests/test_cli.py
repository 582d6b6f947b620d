import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from liequad import cli, data_file
from liequad.cli import main, make_parser

G4 = str(data_file("g4.alg"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_shipped_g4(capsys):
    code, out, _ = run(capsys, "--no-timestamp", "verify", str(data_file("g4.alg")))
    assert code == 0
    assert "all checks passed" in out


def test_verify_failing_algebra(tmp_path, capsys):
    bad = tmp_path / "bad.alg"
    bad.write_text(
        "algebra bad\ndim_even 4\ndim_odd 0\nbasis X P Q Z\n"
        "bracket X P = 1 P\nbracket X Q = -1 Q\nbracket P Q = 1 P\n"
        "form X Z = 1\nform P Q = 1\n"
    )
    code, out, _ = run(capsys, "--no-timestamp", "verify", str(bad))
    assert code == 1
    assert "FAIL" in out


def test_parse_error_exit_code(tmp_path, capsys):
    f = tmp_path / "syntax.alg"
    f.write_text("algebra x\nbogus line\n")
    code, _, err = run(capsys, "verify", str(f))
    assert code == 2
    assert "error" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "verify", "/nonexistent/file.alg")
    assert code == 2


def test_derivations_command(capsys):
    code, out, _ = run(capsys, "derivations", str(data_file("g4.alg")), "--kind", "skew")
    assert code == 0
    assert "dimension 3" in out


def test_derivations_json(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "derivations", str(data_file("g5.alg")), "--kind", "skew"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 6
    assert len(payload["basis"]) == 6


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) >= 25
    assert any(l.startswith("osp12") for l in lines)


def test_catalog_emit_matches_shipped(capsys):
    code, out, _ = run(capsys, "catalog", "emit", "g4")
    assert code == 0
    assert out == data_file("g4.alg").read_text()


def test_catalog_emit_with_param(capsys):
    code, out, _ = run(capsys, "catalog", "emit", "g6_3", "--param", "mu=1/2")
    assert code == 0
    assert "param mu = 1/2" in out
    assert "bracket X Z = 1/2 Z" in out


def test_catalog_emit_inadmissible(capsys):
    code, _, err = run(capsys, "catalog", "emit", "g6_3", "--param", "mu=-1")
    assert code == 1
    assert "not admissible" in err


def test_catalog_verify_single(capsys):
    code, out, _ = run(capsys, "--no-timestamp", "catalog", "verify", "--id", "g4")
    assert code == 0


@pytest.mark.parametrize(
    "param, message",
    [
        ("x", "error: --param 'x' is not of the form K=V"),
        ("n=1/2", "error: g2n2: bad value '1/2' for parameter n"),
        ("mu=abc", "error: g6_3: bad value 'abc' for parameter mu"),
        ("lambda=1/0", "error: go2: bad value '1/0' for parameter lambda"),
    ],
)
def test_catalog_emit_malformed_param_is_a_usage_error(capsys, param, message):
    entry = {"x": "g4", "n": "g2n2", "mu": "g6_3", "lambda": "go2"}[param.split("=")[0]]
    code, out, err = run(capsys, "catalog", "emit", entry, "--param", param)
    assert (code, out) == (2, "")
    assert err == message + "\n"


@pytest.mark.parametrize("argv", [("verify", "--id", "nope"), ("emit", "nope"), ("emit", "g3_3")])
def test_catalog_unknown_id_fails(capsys, argv):
    # g3_3 is a base algebra of the catalog, not an entry
    code, out, err = run(capsys, "--no-timestamp", "catalog", *argv)
    assert (code, out) == (1, "")
    assert err == f"error: unknown catalog entry {argv[-1]!r}\n"


def test_unreadable_input_file_is_a_usage_error(tmp_path, capsys):
    binary = tmp_path / "binary.alg"
    binary.write_bytes(b"algebra x\n\xff\xfe\x00\x81 dim_even 1\n")
    for path, reason in (
        (tmp_path, "Is a directory"),
        (binary, "'utf-8' codec can't decode byte 0xff in position 10"),
        (tmp_path / "missing.alg", "No such file or directory"),
    ):
        code, out, err = run(capsys, "verify", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read {path}: {reason}")


def test_decompose_witness(capsys):
    code, out, _ = run(capsys, "decompose", str(data_file("tstar_h3.alg")))
    assert code == 0
    assert "Z - Z*" in out


def test_decompose_no_witness(capsys):
    code, out, _ = run(capsys, "decompose", str(data_file("g4.alg")))
    assert code == 0
    assert "no central witness" in out


def test_check_iso_identity(tmp_path, capsys):
    mapfile = tmp_path / "ident.map"
    mapfile.write_text("".join(f"map {l} = 1 {l}\n" for l in ("X", "P", "Q", "Z")))
    code, out, _ = run(
        capsys,
        "--no-timestamp",
        "check-iso",
        str(data_file("g4.alg")),
        str(data_file("g4.alg")),
        str(mapfile),
    )
    assert code == 0
    assert "isometry" in out


def test_check_iso_failure(tmp_path, capsys):
    mapfile = tmp_path / "swap.map"
    mapfile.write_text(
        "map X = 1 X\nmap P = 1 Q\nmap Q = 1 P\nmap Z = 1 Z\n"
    )
    code, out, _ = run(
        capsys,
        "--no-timestamp",
        "check-iso",
        str(data_file("g4.alg")),
        str(data_file("g4.alg")),
        str(mapfile),
    )
    assert code == 1


def test_extend_tstar(tmp_path, capsys):
    base = tmp_path / "h3.alg"
    base.write_text(
        "algebra h3\ndim_even 3\ndim_odd 0\nbasis X Y Z\nbracket X Y = 1 Z\n"
    )
    code, out, _ = run(capsys, "extend", "tstar", str(base))
    assert code == 0
    assert "bracket X Z* = -1 Y*" in out
    assert "form X X* = 1" in out


def test_extend_tstar_with_cocycle(tmp_path, capsys):
    base = tmp_path / "h3.alg"
    base.write_text(
        "algebra h3\ndim_even 3\ndim_odd 0\nbasis X Y Z\nbracket X Y = 1 Z\n"
    )
    coc = tmp_path / "theta.map"
    coc.write_text("theta X Y = 1 Z\ntheta Y Z = 1 X\ntheta Z X = 1 Y\n")
    code, out, _ = run(capsys, "extend", "tstar", str(base), "--cocycle", str(coc))
    assert code == 0
    assert "bracket X Y = 1 Z + 1 Z*" in out


def test_extend_double1d(tmp_path, capsys):
    mapfile = tmp_path / "adx.map"
    mapfile.write_text("map P = 1 P\nmap Q = -1 Q\n")
    code, out, _ = run(
        capsys, "extend", "double1d", str(data_file("g4.alg")), "--map", str(mapfile)
    )
    assert code == 0
    assert "bracket e P = 1 P" in out
    assert "form e f = 1" in out


def test_extend_double1d_rejects_bad_map(tmp_path, capsys):
    mapfile = tmp_path / "bad.map"
    mapfile.write_text("map P = 1 P\n")  # not a derivation of g4
    code, _, err = run(
        capsys, "extend", "double1d", str(data_file("g4.alg")), "--map", str(mapfile)
    )
    assert code == 1


def test_extend_superdouble(tmp_path, capsys):
    base = tmp_path / "a1.alg"
    base.write_text("algebra a1\ndim_even 1\ndim_odd 0\nbasis A\n")
    odd = tmp_path / "h.alg"
    odd.write_text(
        "algebra h\ndim_even 0\ndim_odd 2\nbasis F1 F2\nform F1 F2 = 1\n"
    )
    psi = tmp_path / "psi.map"
    psi.write_text("psi A F2 = 1 F1\n")
    code, out, _ = run(
        capsys, "extend", "superdouble", str(base), str(odd), "--psi", str(psi)
    )
    assert code == 0
    assert "dim_odd 2" in out
    assert "bracket A F2 = 1 F1" in out
    assert "bracket F2 F2 = 1 A*" in out


@pytest.mark.parametrize(
    "core, code, message",
    [
        # a degenerate core form fails the output's non-degeneracy check
        ("dim_odd 3\nbasis F1 F2 F3\nform F1 F2 = 1\n", 1, "FAIL  non-degeneracy"),
        ("dim_odd 2\nbasis F1 F2\nform F1 F2 = 1\n", 0, ""),
        ("dim_odd 2\nbasis F1 F2\nform F1 F1 = 1\n", 2, "must vanish on an odd element"),
    ],
)
def test_extend_superdouble_core_form(tmp_path, capsys, core, code, message):
    (tmp_path / "a1.alg").write_text("algebra a1\ndim_even 1\ndim_odd 0\nbasis A\n")
    (tmp_path / "h.alg").write_text("algebra h\ndim_even 0\n" + core)
    (tmp_path / "psi.map").write_text("psi A F2 = 1 F1\n")
    p = {name: str(tmp_path / name) for name in ("a1.alg", "h.alg", "psi.map")}
    got, out, err = run(capsys, "extend", "superdouble", p["a1.alg"], p["h.alg"], "--psi", p["psi.map"])
    assert got == code and message in err


def test_extend_superdouble_needs_an_odd_core_with_a_form(tmp_path, capsys):
    (tmp_path / "a1.alg").write_text("algebra a1\ndim_even 1\ndim_odd 0\nbasis A\n")
    (tmp_path / "psi.map").write_text("")
    for core, expected in (
        ("dim_even 0\ndim_odd 2\nbasis F1 F2\n", (2, "error: superdouble needs form lines in h\n")),
        # the constructor rejects an even core, as `extend double` rejects an odd one
        ("dim_even 2\ndim_odd 0\nbasis U V\nform U V = 1\n", (1, "error: the super double extension needs a purely odd core\n")),
    ):
        (tmp_path / "h.alg").write_text("algebra h\n" + core)
        argv = [str(tmp_path / f) for f in ("a1.alg", "h.alg")] + ["--psi", str(tmp_path / "psi.map")]
        code, out, err = run(capsys, "extend", "superdouble", *argv)
        assert (code, out, err) == (expected[0], "", expected[1])


def test_extend_tsstar(tmp_path, capsys):
    base = tmp_path / "g2.alg"
    base.write_text("algebra g2\ndim_even 2\ndim_odd 0\nbasis X Y\nbracket X Y = 1 Y\n")
    code, out, _ = run(capsys, "extend", "tsstar", str(base))
    assert code == 0
    assert "dim_odd 2" in out
    assert "bracket Y Y* = 1 X*" in out


H3 = "algebra h3\ndim_even 3\ndim_odd 0\nbasis X Y Z\nbracket X Y = 1 Z\n"


def test_extend_double_matches_double1d(tmp_path, capsys):
    # a1 acting on g4 by ad X is the one-dimensional double extension by ad X
    base = tmp_path / "a1.alg"
    base.write_text("algebra a1\ndim_even 1\ndim_odd 0\nbasis A\n")
    psi = tmp_path / "psi.map"
    psi.write_text("psi A P = 1 P\npsi A Q = -1 Q\n")
    code, out, _ = run(capsys, "extend", "double", str(base), G4, "--psi", str(psi))
    assert code == 0
    assert out.startswith("algebra a1_double\n")
    assert "basis A X P Q Z A*\n" in out and "bracket P Q = 1 Z + 1 A*\n" in out
    mapfile = tmp_path / "adx.map"
    mapfile.write_text("map P = 1 P\nmap Q = -1 Q\n")
    code, ref, _ = run(capsys, "extend", "double1d", G4, "--map", str(mapfile), "--labels", "A", "A*")
    assert code == 0
    assert out.split("\n", 1)[1] == ref.split("\n", 1)[1]


def test_extend_superdouble_with_cocycle(tmp_path, capsys):
    for name, text in {
        "h3.alg": H3,
        "h.alg": "algebra h\ndim_even 0\ndim_odd 2\nbasis F1 F2\nform F1 F2 = 1\n",
        "psi.map": "psi X F2 = 1 F1\n",
        "theta.map": "theta X Y = 1 Z\ntheta Y Z = 1 X\ntheta Z X = 1 Y\n",
    }.items():
        (tmp_path / name).write_text(text)
    p = {name: str(tmp_path / name) for name in ("h3.alg", "h.alg", "psi.map", "theta.map")}
    argv = ["extend", "superdouble", p["h3.alg"], p["h.alg"], "--psi", p["psi.map"]]
    code, out, _ = run(capsys, *argv, "--cocycle", p["theta.map"])
    assert code == 0
    # theta twists the even-even bracket; the odd part and the form are kept
    assert "bracket X Y = 1 Z + 1 Z*\n" in out and "bracket Y Z = 1 X*\n" in out
    assert "bracket F2 F2 = 1 X*\n" in out and "form F1 F2 = 1\n" in out
    code, plain, _ = run(capsys, *argv)
    assert code == 0 and "bracket X Y = 1 Z\n" in plain
    (tmp_path / "out.alg").write_text(out)
    assert run(capsys, "--no-timestamp", "verify", str(tmp_path / "out.alg"))[0] == 0


def test_decompose_json_witness(capsys):
    code, out, _ = run(capsys, "--no-timestamp", "--format", "json", "decompose", str(data_file("tstar_h3.alg")))
    assert code == 0
    payload = json.loads(out)
    assert payload["witness"] == {"core": ["Z - Z*"], "complement_dim": 5, "center": ["Z - Z*", "X*", "Y*"]}
    assert payload["ok"] is True
    assert [c["check"] for c in payload["checks"]] == [
        "ideal(s1)", "ideal(s2)", "orthogonality", "non-degeneracy(s1)", "non-degeneracy(s2)", "spanning",
    ]


def test_check_iso_without_forms_checks_the_algebras(tmp_path, capsys):
    h3 = tmp_path / "h3.alg"
    h3.write_text(H3)
    ident, swap = tmp_path / "ident.map", tmp_path / "swap.map"
    ident.write_text("map X = 1 X\nmap Y = 1 Y\nmap Z = 1 Z\n")
    swap.write_text("map X = 1 Y\nmap Y = 1 X\nmap Z = 1 Z\n")  # [X,Y] = Z goes to -Z
    code, out, _ = run(capsys, "--no-timestamp", "check-iso", str(h3), str(h3), str(ident))
    assert (code, out) == (0, "PASS  homomorphism  [compatibility A[x,y] = [Ax,Ay]]\n"
                               "PASS  invertibility  [bijectivity of the map]\n# all checks passed\n")
    code, out, _ = run(capsys, "--no-timestamp", "--format", "json", "check-iso", str(h3), str(h3), str(swap))
    assert code == 1
    checks = json.loads(out)["checks"]
    assert [(c["check"], c["status"], c["residual"]) for c in checks] == [
        ("homomorphism(X,Y)", "fail", "2"),
        ("invertibility", "pass", None),
    ]


def test_repeated_bracket_line_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.alg"
    bad.write_text("algebra bad\ndim_even 1\ndim_odd 1\nbasis X F\nbracket F F = 1 X\nbracket F F = 1 X\n")
    code, out, err = run(capsys, "verify", str(bad))
    assert (code, out) == (2, "")
    assert err.startswith("error: line 6: bracket F F given twice (first at line 5)")


def test_verify_json_payload(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "--no-timestamp", "verify", str(data_file("g5.alg"))
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert all(c["status"] == "pass" for c in payload["checks"])
    assert {"check", "law", "status", "residual", "witness"} <= set(payload["checks"][0])


def test_env_format_override(capsys, monkeypatch):
    monkeypatch.setenv("LIEQUAD_FORMAT", "json")
    monkeypatch.setenv("LIEQUAD_NO_TIMESTAMP", "1")
    code, out, _ = run(capsys, "verify", str(data_file("g4.alg")))
    assert code == 0
    json.loads(out)


def test_parser_is_built_once(capsys, monkeypatch):
    # main builds its parser on the first call and reuses it afterwards
    built = []

    def counted():
        built.append(1)
        return make_parser()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "make_parser", counted)
    for argv in (["catalog", "list"], ["--no-timestamp", "verify", G4], ["decompose", G4]):
        assert run(capsys, *argv)[0] == 0
    assert len(built) == 1


def test_fresh_process_builds_the_parser_in_main():
    # importing liequad.cli builds no parser; a fresh interpreter with an
    # invalid LIEQUAD_TOL exits 2 with an error line and no traceback
    probe = "import liequad.cli as c; assert c._parser is None"
    subprocess.run([sys.executable, "-c", probe], check=True)
    env = dict(os.environ, LIEQUAD_TOL="abc")
    done = subprocess.run(
        [sys.executable, "-m", "liequad.cli", "verify", G4], env=env, capture_output=True, text=True
    )
    assert done.returncode == 2
    assert "error: LIEQUAD_TOL" in done.stderr and "Traceback" not in done.stderr


NEAR = (
    # a 1e-12 invariance defect: below the default tolerance, above 1e-15
    "algebra near\nbackend complex\ndim_even 2\ndim_odd 0\nbasis X Y\n"
    "bracket X Y = 1e-12 Y\nform X X = 1.0\nform Y Y = 1.0\n"
)


def test_env_is_read_on_every_call(tmp_path, capsys, monkeypatch):
    for var in ("LIEQUAD_TOL", "LIEQUAD_FORMAT", "LIEQUAD_NO_TIMESTAMP"):
        monkeypatch.delenv(var, raising=False)
    code, out, _ = run(capsys, "--no-timestamp", "verify", G4)
    assert code == 0 and out.startswith("PASS")
    monkeypatch.setenv("LIEQUAD_FORMAT", "json")
    code, out, _ = run(capsys, "--no-timestamp", "verify", G4)
    assert code == 0 and "timestamp" not in json.loads(out)

    monkeypatch.delenv("LIEQUAD_FORMAT")
    assert run(capsys, "verify", G4)[1].startswith("# liequad ")
    monkeypatch.setenv("LIEQUAD_NO_TIMESTAMP", "0")  # any non-empty value
    assert run(capsys, "verify", G4)[1].startswith("PASS")

    near = tmp_path / "near.alg"
    near.write_text(NEAR)
    assert run(capsys, "verify", str(near))[0] == 0
    monkeypatch.setenv("LIEQUAD_TOL", "1e-15")
    assert run(capsys, "verify", str(near))[0] == 1


def test_flags_override_env(tmp_path, capsys, monkeypatch):
    near = tmp_path / "near.alg"
    near.write_text(NEAR)
    monkeypatch.setenv("LIEQUAD_TOL", "1e-15")
    monkeypatch.setenv("LIEQUAD_FORMAT", "json")
    monkeypatch.setenv("LIEQUAD_NO_TIMESTAMP", "")
    code, out, _ = run(capsys, "--tol", "1e-9", "--format", "text", "--no-timestamp", "verify", str(near))
    assert code == 0 and out.startswith("PASS")
    # a flag also wins over an invalid value of its variable
    monkeypatch.setenv("LIEQUAD_TOL", "abc")
    monkeypatch.setenv("LIEQUAD_FORMAT", "xml")
    assert run(capsys, "--tol", "1e-9", "--format", "json", "verify", G4)[0] == 0


@pytest.mark.parametrize(
    "var, value, message",
    [
        ("LIEQUAD_TOL", "abc", "error: LIEQUAD_TOL: invalid float value: 'abc'"),
        ("LIEQUAD_FORMAT", "xml", "error: LIEQUAD_FORMAT: invalid choice: 'xml' (choose from 'text', 'json')"),
    ],
)
def test_invalid_env_is_a_usage_error(capsys, monkeypatch, var, value, message):
    monkeypatch.setenv(var, value)
    with pytest.raises(SystemExit) as exc:
        main(["verify", G4])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


@pytest.mark.parametrize("value", ["-1", "-1e-12", "nan", "inf", "-inf"])
def test_tolerance_must_be_finite_and_not_negative(tmp_path, capsys, monkeypatch, value):
    # a negative or non-finite tolerance makes nothing zero on the complex
    # backend; from the flag and from the variable it is a usage error
    near = tmp_path / "near.alg"
    near.write_text(NEAR)
    message = f"tolerance must be finite and >= 0, got '{value}'"
    monkeypatch.delenv("LIEQUAD_TOL", raising=False)
    for argv, where in (([f"--tol={value}"], "argument --tol"), ([], "LIEQUAD_TOL")):
        if not argv:
            monkeypatch.setenv("LIEQUAD_TOL", value)
        with pytest.raises(SystemExit) as exc:
            main(argv + ["verify", str(near)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"error: {where}: {message}\n" in captured.err
    # the bounds themselves are valid: 0 keeps only exact zeros
    assert run(capsys, "--tol=0", "--no-timestamp", "verify", str(near))[0] == 1
    monkeypatch.setenv("LIEQUAD_TOL", "0")
    assert run(capsys, "--no-timestamp", "verify", G4)[0] == 0


def test_wrong_parity_coefficient(tmp_path, capsys):
    # one parity rule: a zero coefficient on a wrong-parity label is dropped,
    # a nonzero one is a parse error
    f = tmp_path / "par.alg"
    header = "algebra par\ndim_even 2\ndim_odd 1\nbasis X Y F\n"
    f.write_text(header + "bracket X Y = 0 F\n")
    assert run(capsys, "--no-timestamp", "verify", str(f))[0] == 0
    f.write_text(header + "bracket X Y = 1 F\n")
    code, out, err = run(capsys, "--no-timestamp", "verify", str(f))
    assert code == 2 and out == ""
    assert err == "error: line 5: parity: [X,Y] has a F-component of the wrong parity\n"


@pytest.mark.slow
def test_report_all_deterministic(capsys):
    code1, out1, _ = run(capsys, "--format", "json", "--no-timestamp", "report", "--all")
    code2, out2, _ = run(capsys, "--format", "json", "--no-timestamp", "report", "--all")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["ok"] is True


REPORT_SHA256 = "f96918a7de8214eb30824a45f20faca1261ecc48675b3a6cb6c3e13e7ae1b352"
REPORT_TEXT_SHA256 = "3d3d4ca08a30c5eb5a0d6011f083217fb2a57325daa56bf2012f3bb3ea4ca804"


def test_report_all_output_is_pinned(capsys):
    # the full report is byte-identical across refactors of the scalar and
    # linear-algebra layers: 608 passing checks and one fixed digest
    code, out, _ = run(capsys, "--no-timestamp", "--format", "json", "report", "--all")
    assert code == 0
    checks = json.loads(out)["checks"]
    assert len(checks) == 608 and all(c["status"] == "pass" for c in checks)
    assert hashlib.sha256(out.encode()).hexdigest() == REPORT_SHA256


def test_report_all_text_output_is_pinned(capsys):
    code, out, _ = run(capsys, "--no-timestamp", "report", "--all")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == REPORT_TEXT_SHA256


DERIVATIONS_SHA256 = "27f6dc17b69bd57e9cab659eb03ab9b9d83cdbacd994bfe0af2b853f34da8528"


def test_every_shipped_derivation_basis_is_pinned(capsys):
    # each basis, not just its dimension, stays byte-identical across changes
    # to the elimination
    out = []
    for path in sorted(data_file("g4.alg").parent.glob("*.alg")):
        for kind in ("all", "skew", "inner"):
            argv = ("--no-timestamp", "--format", "json", "derivations", str(path), "--kind", kind)
            code, text, _ = run(capsys, *argv)
            assert code == 0
            out.append(text)
    assert hashlib.sha256("".join(out).encode()).hexdigest() == DERIVATIONS_SHA256


def test_closed_stdout_exits_1_without_traceback():
    # the reader leaves after one line, as `| head -n 1` does; the JSON report
    # (114 kB) outgrows a pipe buffer, so the rest goes into a closed pipe
    cmd = [sys.executable, "-m", "liequad.cli", "--no-timestamp", "--format", "json"]
    proc = subprocess.Popen(cmd + ["report", "--all"], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert b"Traceback" not in err and b"BrokenPipeError" not in err
    # a short output meets the closed pipe only when it is flushed at the end
    r, w = os.pipe()
    os.close(r)
    try:
        done = subprocess.run(cmd + ["verify", G4], stdout=w, stderr=subprocess.PIPE)
    finally:
        os.close(w)
    assert (done.returncode, done.stderr) == (1, b"")


def test_tol_flag_controls_zero_threshold(tmp_path, capsys):
    # a 1e-12 invariance defect is below the default tolerance but above a
    # strict one
    f = tmp_path / "near.alg"
    f.write_text(NEAR)
    code_loose, _, _ = run(capsys, "--no-timestamp", "verify", str(f))
    assert code_loose == 0
    code_strict, out, _ = run(capsys, "--no-timestamp", "--tol", "1e-15", "verify", str(f))
    assert code_strict == 1


def test_invariance_keeps_coefficients_below_tol(tmp_path, capsys):
    # [X,Y] = 1e-10 Y is below the default tolerance, but B(Y,Y) = 100 scales it
    # into invariance defects of 1e-8 and 2e-8: only exact zeros are skipped
    f = tmp_path / "scaled.alg"
    f.write_text(
        "algebra scaled\nbackend complex\ndim_even 2\ndim_odd 0\nbasis X Y\n"
        "bracket X Y = 1e-10 Y\nform X X = 1.0\nform Y Y = 100.0\n"
    )
    code, out, _ = run(capsys, "--no-timestamp", "verify", str(f))
    assert code == 1
    fails = [line.split() for line in out.splitlines() if line.startswith("FAIL")]
    assert [(w[1], w[-1]) for w in fails] == [
        ("scaled:invariance(X,Y,Y)", "residual=1e-08"),
        ("scaled:invariance(Y,X,Y)", "residual=2e-08"),
        ("scaled:invariance(Y,Y,X)", "residual=1e-08"),
    ]


def test_complex_overflow_is_a_parse_error(tmp_path, capsys):
    # 1e400 does not fit a double: a parse error (exit 2), not a traceback
    f = tmp_path / "huge.alg"
    f.write_text(
        "algebra huge\nbackend complex\ndim_even 2\ndim_odd 0\nbasis X P\n"
        "bracket X P = 1e400 P\nform X X = 1\nform P P = 1\n"
    )
    code, out, err = run(capsys, "--no-timestamp", "verify", str(f))
    assert code == 2
    assert "bad complex scalar '1e400'" in err


def test_complex_overflow_in_a_check_is_a_usage_error(tmp_path, capsys):
    # every coefficient of the diamond at 1e200: B([x,y],z) overflows to inf and
    # inf - inf to nan, which decides no check (exit 2, not 9 failed checks)
    f = tmp_path / "g4big.alg"
    f.write_text(
        "algebra g4big\nbackend complex\ndim_even 4\ndim_odd 0\nbasis X P Q Z\n"
        "bracket X P = 1e200 P\nbracket X Q = -1e200 Q\nbracket P Q = 1e200 Z\n"
        "form X Z = 1e200\nform P Q = 1e200\n"
    )
    for command in ("verify", "extend tstar"):
        code, out, err = run(capsys, "--no-timestamp", *command.split(), str(f))
        assert (code, out) == (2, "")
        assert err.startswith("error: complex arithmetic overflowed to nan")


def test_huge_exact_coefficient_is_a_failed_check(tmp_path, capsys):
    # 1e400 does not fit a double: the worst residual is picked exactly, so the
    # failed Jacobi check is reported (exit 1), not a traceback
    f = tmp_path / "huge.alg"
    f.write_text(
        "algebra huge\ndim_even 3\ndim_odd 0\nbasis X Y Z\n"
        "bracket X Y = 1e400 Y\nbracket X Z = 1 Y\nbracket Y Z = 1 X\n"
    )
    code, out, err = run(capsys, "--no-timestamp", "verify", str(f))
    assert code == 1
    assert f"FAIL  huge:jacobi(X,Y,Z)  [graded Jacobi identity]  residual={-10**400}" in out
    assert err == ""


SHIPPED = sorted(data_file("g4.alg").parent.glob("*.alg"))
FUZZ_COMMANDS = (
    ("verify", "FILE"),
    ("derivations", "FILE", "--kind", "all"),
    ("derivations", "FILE", "--kind", "skew"),
    ("derivations", "FILE", "--kind", "inner"),
    ("decompose", "FILE"),
    ("extend", "tstar", "FILE"),
)


@st.composite
def mutated_alg_files(draw):
    """A shipped .alg file with one token after a line's directive replaced,
    inserted or deleted."""
    lines = [l.split() for l in draw(st.sampled_from(SHIPPED)).read_text().splitlines()]
    labels = next(l[1:] for l in lines if l[0] == "basis")
    token = st.sampled_from(["0", "1/2", "i", "1e400", "1e-12", "nan", "1/0", "="]) | st.sampled_from(labels)
    # half the draws go to a bracket or form line, where a mutation most often
    # still parses
    line = draw(st.sampled_from(lines) | st.sampled_from([l for l in lines if l[0] in ("bracket", "form")]))
    op = draw(st.sampled_from(["replace", "insert", "delete"])) if len(line) > 1 else "insert"
    at = draw(st.sampled_from(range(1, len(line) + (op == "insert"))))
    if op == "delete":
        del line[at]
    else:
        line[at : at + (op == "replace")] = [draw(token)]
    return "\n".join(" ".join(l) for l in lines) + "\n"


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "mutated.alg"


@settings(max_examples=300, deadline=None)
@given(text=mutated_alg_files())
def test_mutated_shipped_files_exit_cleanly(fuzz_file, text):
    # a mutated input is accepted, fails a check or is rejected with a
    # message: exit 0, 1 or 2, never an uncaught exception
    fuzz_file.write_text(text)
    for command in FUZZ_COMMANDS:
        argv = ["--no-timestamp"] + [str(fuzz_file) if a == "FILE" else a for a in command]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 1, 2)


# -- auxiliary map, psi, theta and phi files ---------------------------------------

AUX_BASES = {
    "h3.alg": "algebra h3\ndim_even 3\ndim_odd 0\nbasis X Y Z\nbracket X Y = 1 Z\n",
    "ab2.alg": "algebra ab2\ndim_even 2\ndim_odd 0\nbasis X Y\n",
    "a1.alg": "algebra a1\ndim_even 1\ndim_odd 0\nbasis A\n",
    "h.alg": "algebra h\ndim_even 0\ndim_odd 2\nbasis F1 F2\nform F1 F2 = 1\n",
}
# (command with AUX for the auxiliary file, a valid auxiliary file)
AUX_CASES = (
    (("check-iso", G4, G4, "AUX"), "map X = 1 X\nmap P = 1 P\nmap Q = 1 Q\nmap Z = 1 Z\n"),
    (("extend", "double1d", G4, "--map", "AUX"), "map P = 1 P\nmap Q = -1 Q\n"),
    (("extend", "tstar", "h3.alg", "--cocycle", "AUX"), "theta X Y = 1 Z\ntheta Y Z = 1 X\ntheta Z X = 1 Y\n"),
    (("extend", "tsstar", "ab2.alg", "--pairing", "AUX"), "phi X X = 1 X\nphi X Y = 1 Y\nphi Y Y = 1 X\n"),
    (("extend", "superdouble", "a1.alg", "h.alg", "--psi", "AUX"), "psi A F2 = 1 F1\n"),
)


@pytest.fixture(scope="module")
def aux_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("aux")
    for name, text in AUX_BASES.items():
        (d / name).write_text(text)
    return d


def aux_argv(aux_dir, command, text):
    """The argv of command on text written as its auxiliary file."""
    (aux_dir / "aux.map").write_text(text)
    paths = dict({a: str(aux_dir / a) for a in AUX_BASES}, AUX=str(aux_dir / "aux.map"))
    return ["--no-timestamp"] + [paths.get(a, a) for a in command]


def run_aux(capsys, aux_dir, command, text):
    return run(capsys, *aux_argv(aux_dir, command, text))


@pytest.mark.parametrize("command, text", AUX_CASES, ids=[c[0][1] for c in AUX_CASES])
def test_valid_auxiliary_files_are_accepted(capsys, aux_dir, command, text):
    assert run_aux(capsys, aux_dir, command, text)[0] == 0


@pytest.mark.parametrize(
    "case, text, message",
    [
        (0, "map X = 1 X\nmap P = 1 P\nmap Q = 1 Q\nmap Z = 1 Z\nmap W = 1 Z\n", "error: unknown source label 'W' in map file"),
        (1, "map W = 1 P\n", "error: unknown source label 'W' in map file"),
        (1, "map P = abc P\n", "error: line 1: bad exact scalar 'abc'"),
        (1, "map P = 1 P\nmap P = 2 P\n", "error: line 2: map P given twice (first at line 1)"),
        (0, "map X = 1 X\nmap X = 1 X\n", "error: line 2: map X given twice (first at line 1)"),
        (2, "theta X Y = 1 Z\ntheta Y Z = abc X\n", "error: line 2: bad exact scalar 'abc'"),
        (2, "theta X W = 1 Z\n", "error: line 1: unknown basis label 'W'"),
        (3, "phi X X = 1/0 X\n", "error: line 1: bad exact scalar '1/0'"),
        (2, "theta X Y = 1 Z\ntheta Y X = 1 Z\n", "error: line 2: both orientations of the pair (Y,X) given (first at line 1)"),
        (3, "phi X Y = 1 Y\nphi Y X = 1 Y\n", "error: line 2: both orientations of the pair (Y,X) given (first at line 1)"),
        (4, "psi A F2 = 1 F1\npsi NOPE F1 = 1 F1\n", "error: unknown generator label 'NOPE' in psi file"),
        (4, "psi A F3 = 1 F1\n", "error: line 1: unknown basis label 'F3'"),
        (4, "psi A F2 = 1 F1\npsi A F2 = 1 F1\n", "error: line 2: psi A F2 given twice (first at line 1)"),
    ],
)
def test_malformed_auxiliary_file_is_a_usage_error(capsys, aux_dir, case, text, message):
    code, out, err = run_aux(capsys, aux_dir, AUX_CASES[case][0], text)
    assert (code, out) == (2, "")
    assert err.startswith(message)


@st.composite
def mutated_aux_files(draw):
    """One auxiliary-file case with one token after a line's directive
    replaced, inserted or deleted."""
    command, text = draw(st.sampled_from(AUX_CASES))
    lines = [l.split() for l in text.splitlines()]
    labels = ["X", "P", "Q", "Z", "Y", "A", "F1", "F2", "NOPE"]
    token = st.sampled_from(["0", "1/2", "i", "1e400", "1e-12", "nan", "1/0", "="]) | st.sampled_from(labels)
    line = draw(st.sampled_from(lines))
    op = draw(st.sampled_from(["replace", "insert", "delete"]))
    at = draw(st.sampled_from(range(1, len(line) + (op == "insert"))))
    if op == "delete":
        del line[at]
    else:
        line[at : at + (op == "replace")] = [draw(token)]
    return command, "\n".join(" ".join(l) for l in lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(case=mutated_aux_files())
def test_mutated_auxiliary_files_exit_cleanly(aux_dir, case):
    # a mutated map, psi, theta or phi file is accepted, fails a check or is
    # rejected with a message: exit 0, 1 or 2, never an uncaught exception
    argv = aux_argv(aux_dir, *case)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) in (0, 1, 2)
