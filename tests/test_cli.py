import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import liequad
from liequad import cli, data_file
from liequad.cli import main, make_parser
from liequad.derivations import derivation_space

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


def test_decompose_checks_the_axioms_first(tmp_path, capsys):
    # [P,Q] = 2 Z breaks invariance: decompose prints the failing checks as
    # verify does and exits 1 instead of searching for a witness
    bad = tmp_path / "g4.alg"
    bad.write_text(data_file("g4.alg").read_text().replace("bracket P Q = 1 Z", "bracket P Q = 2 Z"))
    code, out, err = run(capsys, "--no-timestamp", "decompose", str(bad))
    assert (code, err) == (1, "")
    assert "FAIL  g4:invariance(X,P,Q)" in out and out.endswith("# 4 of 8 checks failed\n")
    assert "witness" not in out
    code, out, _ = run(capsys, "--no-timestamp", "--format", "json", "decompose", str(bad))
    payload = json.loads(out)
    assert code == 1 and not payload["ok"] and "witness" not in payload
    assert sum(c["status"] == "fail" for c in payload["checks"]) == 4
    assert run(capsys, "--no-timestamp", "verify", str(bad))[0] == 1


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


def test_extend_prints_a_warning_line(tmp_path, capsys):
    # theta(X, P) = P is a cocycle of g4 that is not cyclic: the bare algebra
    # is emitted, and the warning is one stderr line on every call
    coc = tmp_path / "theta.map"
    coc.write_text("theta X P = 1 P\n")
    for _ in range(2):
        code, out, err = run(capsys, "extend", "tstar", G4, "--cocycle", str(coc))
        assert code == 0
        assert out.startswith("algebra g4_tstar\n")
        assert "bracket X P = 1 P + 1 P*" in out and "form" not in out
        assert err == "warning: theta is not cyclic: the T*-extension is returned as a plain Lie algebra\n"


def test_extend_refuses_a_cocycle_diagonal(tmp_path, capsys):
    coc = tmp_path / "theta.map"
    coc.write_text("theta X X = 1 P\n")
    assert run(capsys, "extend", "tstar", G4, "--cocycle", str(coc)) == (1, "", "error: theta is not skew on (X,X)\n")


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
        ("dim_odd 2\nbasis F1 F2\nform F1 F1 = 1\n", 2, "error: line 5: supersymmetry: B(F1,F1) != (-1)^(|i||j|) B(F1,F1)\n"),
    ],
)
def test_extend_superdouble_core_form(tmp_path, capsys, core, code, message):
    (tmp_path / "a1.alg").write_text("algebra a1\ndim_even 1\ndim_odd 0\nbasis A\n")
    (tmp_path / "h.alg").write_text("algebra h\ndim_even 0\n" + core)
    (tmp_path / "psi.map").write_text("psi A F2 = 1 F1\n")
    p = {name: str(tmp_path / name) for name in ("a1.alg", "h.alg", "psi.map")}
    got, out, err = run(capsys, "extend", "superdouble", p["a1.alg"], p["h.alg"], "--psi", p["psi.map"])
    assert got == code and message in err


def test_extend_superdouble_needs_a_core_with_an_even_form(tmp_path, capsys):
    (tmp_path / "a1.alg").write_text("algebra a1\ndim_even 1\ndim_odd 0\nbasis A\n")
    (tmp_path / "psi.map").write_text("")
    for core, expected in (
        ("dim_even 0\ndim_odd 2\nbasis F1 F2\n", (2, "error: superdouble needs form lines in h\n")),
        # go2: the core's form is odd
        (
            "dim_even 1\ndim_odd 1\nbasis X0 X1\nbracket X1 X1 = 1 X0\nform X0 X1 = 1\n",
            (1, "error: a double extension needs a core with an even form\n"),
        ),
    ):
        (tmp_path / "h.alg").write_text("algebra h\n" + core)
        argv = [str(tmp_path / f) for f in ("a1.alg", "h.alg")] + ["--psi", str(tmp_path / "psi.map")]
        for name in ("double", "superdouble"):
            code, out, err = run(capsys, "extend", name, *argv)
            assert (code, out, err) == (expected[0], "", expected[1].replace("superdouble", name))
    # a nonzero action on the go2 core gets the same error, not a derivation check's
    (tmp_path / "psi.map").write_text("psi A X0 = 1 X0\npsi A X1 = -1 X1\n")
    code, out, err = run(capsys, "extend", "double", *argv)
    assert (code, out, err) == (1, "", "error: a double extension needs a core with an even form\n")


def test_extend_superdouble_is_extend_double(tmp_path, capsys):
    # one parser under two names: an even core is accepted under either, and
    # the output differs in its name line only
    (tmp_path / "a1.alg").write_text("algebra a1\ndim_even 1\ndim_odd 0\nbasis A\n")
    (tmp_path / "psi.map").write_text("psi A P = 1 P\npsi A Q = -1 Q\n")
    argv = [str(tmp_path / "a1.alg"), G4, "--psi", str(tmp_path / "psi.map")]
    code, out, err = run(capsys, "extend", "superdouble", *argv)
    assert (code, err) == (0, "") and out.startswith("algebra a1_superdouble\n")
    code, ref, _ = run(capsys, "extend", "double", *argv)
    assert code == 0 and out.split("\n", 1)[1] == ref.split("\n", 1)[1]


C22 = "algebra c22\ndim_even 2\ndim_odd 2\nbasis P Q X1 Y1\nform P Q = 1\nform X1 Y1 = 1\n"


def test_extend_double1d_of_c22_emits_gs6_1(tmp_path, capsys):
    (tmp_path / "c22.alg").write_text(C22)
    (tmp_path / "d.map").write_text("map P = 1 P\nmap Q = -1 Q\nmap Y1 = 1 X1\n")
    argv = [str(tmp_path / "c22.alg"), "--map", str(tmp_path / "d.map"), "--labels", "X", "Z"]
    code, out, err = run(capsys, "extend", "double1d", *argv)
    assert (code, err) == (0, "") and out.startswith("algebra c22_double1d\n")
    code, ref, _ = run(capsys, "catalog", "emit", "gs6_1")
    assert code == 0 and out.split("\n", 1)[1] == ref.split("\n", 1)[1]


def test_extend_double_rejects_an_action_across_parities(tmp_path, capsys):
    (tmp_path / "a1.alg").write_text("algebra a1\ndim_even 1\ndim_odd 0\nbasis A\n")
    (tmp_path / "c22.alg").write_text(C22)
    (tmp_path / "psi.map").write_text("psi A P = 1 X1\npsi A Y1 = -1 Q\n")
    argv = [str(tmp_path / f) for f in ("a1.alg", "c22.alg")] + ["--psi", str(tmp_path / "psi.map")]
    for name in ("double", "superdouble"):
        code, out, err = run(capsys, "extend", name, *argv)
        assert (code, out) == (1, "") and err == "error: map sends Y1 across parities to Q\n"


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


@pytest.mark.parametrize(
    "argv",
    [
        ("check-iso", G4, "g4c.alg", "id.map"),
        ("check-iso", "g4c.alg", G4, "id.map"),
        ("extend", "double", "a1.alg", "g4c.alg", "--psi", "adx.map"),
        ("extend", "superdouble", "a1.alg", "hc.alg", "--psi", "psi.map"),
    ],
    ids=["check-iso", "check-iso-reversed", "double", "superdouble"],
)
def test_mixed_backends_are_a_usage_error(tmp_path, capsys, argv):
    # an exact file read with a complex one: one error line, no traceback
    files = {
        "g4c.alg": data_file("g4.alg").read_text().replace("backend exact", "backend complex"),
        "hc.alg": "algebra h\nbackend complex\ndim_even 0\ndim_odd 2\nbasis F1 F2\nform F1 F2 = 1\n",
        "a1.alg": "algebra a1\ndim_even 1\ndim_odd 0\nbasis A\n",
        "id.map": "map X = 1 X\nmap P = 1 P\nmap Q = 1 Q\nmap Z = 1 Z\n",
        "adx.map": "psi A P = 1 P\npsi A Q = -1 Q\n",
        "psi.map": "psi A F2 = 1 F1\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    got = run(capsys, *(str(tmp_path / a) if a in files else a for a in argv))
    assert got == (2, "", "error: mixed backends: ['complex', 'exact']\n")


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


def test_cold_start_imports_neither_dataclasses_nor_datetime():
    # measured against the modules loaded before the import, so a module that
    # site preloads does not count; a --no-timestamp run stamps nothing and so
    # never needs datetime either
    probe = (
        "import sys; before = set(sys.modules); import liequad.cli as c; "
        "new = lambda: sorted({'dataclasses', 'datetime'} & (set(sys.modules) - before)); "
        "print(new()); c.main(['--no-timestamp', 'verify', sys.argv[1]]); print(new())"
    )
    done = subprocess.run([sys.executable, "-c", probe, G4], check=True, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    assert lines[0] == "[]" and lines[-1] == "[]"


def test_timestamp_is_utc_iso_format(capsys):
    from datetime import datetime, timedelta

    stamp = datetime.fromisoformat(cli._timestamp())
    assert stamp.utcoffset() == timedelta(0)
    code, out, _ = run(capsys, "--format", "json", "verify", G4)
    assert datetime.fromisoformat(json.loads(out)["timestamp"]).utcoffset() == timedelta(0)


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


# verify, JSON then text per file in sorted order: the shipped files, their
# complex-backend copies, and g4 with [P,Q] = 2 Z (exit 1 in each format)
VERIFY_SHA256 = {
    "shipped": "ed3f792c87613f6103f92f462f71fd889f1fd61bfd02e7e8d2afa6647982371d",
    "complex": "b79b68ef3b78730a4f8d587c4fcb380e20a9aee156b6bee940fdaf71c26dbcf7",
    "pq2z": "b676ed3cd61b1e22fb426a45564638263d0fa462229e82961d723ef6d38cf9c6",
}


def test_verify_output_is_pinned(tmp_path, capsys):
    def copy(path, old, new):
        text = path.read_text()
        assert old in text
        out = tmp_path / f"{new.split()[-1]}_{path.name}"
        out.write_text(text.replace(old, new))
        return out

    shipped = sorted(data_file("g4.alg").parent.glob("*.alg"))
    runs = {
        "shipped": (shipped, 0),
        "complex": ([copy(p, "\nbackend exact\n", "\nbackend complex\n") for p in shipped], 0),
        "pq2z": ([copy(data_file("g4.alg"), "\nbracket P Q = 1 Z\n", "\nbracket P Q = 2 Z\n")], 1),
    }
    for name, (paths, want_code) in runs.items():
        out = []
        for path in paths:
            for fmt in ("json", "text"):
                code, text, _ = run(capsys, "--no-timestamp", "--format", fmt, "verify", str(path))
                assert code == want_code
                out.append(text)
        assert hashlib.sha256("".join(out).encode()).hexdigest() == VERIFY_SHA256[name]


G5_INNER_MAP = (
    "map X1 = 999983/1000033 T + 777777/1000037 Z2\n"
    "map X2 = 1000003 T + -777777/1000037 Z1\n"
    "map T = -999983/1000033 Z1 + -1000003 Z2\n"
)


def test_large_height_inner_double_extension_output_is_pinned(tmp_path, capsys):
    # the double extension of g5 by ad(v), v = 1000003 X1 - 999983/1000033 X2
    # + 777777/1000037 T; CI pins the same bytes: verify, then decompose, each
    # JSON then text.  The central witness is e - v.
    mp = tmp_path / "g5_inner.map"
    mp.write_text(G5_INNER_MAP)
    code, text, _ = run(capsys, "extend", "double1d", str(data_file("g5.alg")), "--map", str(mp))
    assert code == 0
    ext = tmp_path / "g5_double1d.alg"
    ext.write_text(text)
    out = []
    for cmd in ("verify", "decompose"):
        for fmt in ("json", "text"):
            code, text, _ = run(capsys, "--no-timestamp", "--format", fmt, cmd, str(ext))
            assert code == 0
            out.append(text)
    assert "  e - 1000003 X1 + 999983/1000033 X2 - 777777/1000037 T\n" in out[3]
    assert hashlib.sha256("".join(out).encode()).hexdigest() == "4b4e521bdef2d7fd3cc53b1e9e3c57f638b5feb53b1cc5694b3f6c46e0e9a9be"


def count_calls(monkeypatch, module, name, calls):
    """Count the calls of module.name from every liequad namespace that holds it."""
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("liequad") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)


def test_report_all_verifies_each_algebra_once(monkeypatch):
    # 74 grid points, 4 T*-extensions and 2 direct sums; the extras read the
    # algebras the grid verified instead of building them again
    from liequad import catalog, core

    calls = {"verify_jacobi": 0, "verify_form": 0, "build": 0}
    count_calls(monkeypatch, core, "verify_jacobi", calls)
    count_calls(monkeypatch, core, "verify_form", calls)
    count_calls(monkeypatch, catalog, "build", calls)
    assert cli.build_full_report().ok
    assert calls == {"verify_jacobi": 80, "verify_form": 80, "build": 0}


def test_algebras_handed_to_the_extras_are_those_build_makes(monkeypatch):
    from liequad import catalog

    handed = []
    original = catalog.verified_build

    def recorded(verified, id, **params):
        q = original(verified, id, **params)
        handed.append((id, params, q))
        return q

    monkeypatch.setattr(catalog, "verified_build", recorded)
    assert cli.build_full_report().ok
    assert len(handed) == 14
    for id, params, q in handed:
        ref = catalog.build(id, **params)
        assert q.algebra.nz == ref.algebra.nz and q.form.gram == ref.form.gram, (id, params)


def break_entry(monkeypatch, id):
    """Replace catalog entry id by one whose first bracket is doubled."""
    from liequad import catalog
    from liequad.catalog import CatalogEntry

    entry = catalog.get(id)
    fields = {name: getattr(entry, name) for name in CatalogEntry.__slots__}
    brackets = fields["brackets"]

    def doubled(bk, params):
        table = dict(brackets(bk, params) if callable(brackets) else brackets)
        pair = next(iter(table))
        table[pair] = {label: 2 * x for label, x in table[pair].items()}
        return table

    fields["brackets"] = doubled
    broken = CatalogEntry(fields.pop("id"), fields.pop("description"), **fields)
    monkeypatch.setitem(catalog._BY_ID, id, broken)
    monkeypatch.setattr(catalog, "_ENTRIES", tuple(broken if e is entry else e for e in catalog._ENTRIES))


@pytest.mark.parametrize("id", ["g4", "g2n2", "g6_3", "go4_3"])
def test_report_all_with_a_broken_entry_fails_as_build_does(capsys, monkeypatch, id):
    # the grid reports the failing axioms, and the first extra that needs the
    # entry stops the report with the StructureError of catalog.build
    from liequad import catalog
    from liequad.core import StructureError

    break_entry(monkeypatch, id)
    with pytest.raises(StructureError) as exc:
        catalog.build(id, **({"n": 1} if id == "g2n2" else {}))
    code, out, err = run(capsys, "--no-timestamp", "report", "--all")
    assert (code, out, err) == (1, "", f"error: {exc.value}\n")
    if id == "g4":
        assert err == (
            "error: verification failed:\n"
            "FAIL  jacobi(X,P,Q)  [graded Jacobi identity]  residual=-1  witness=-Z\n"
            "FAIL  invariance(X,P,Q)  [invariance B([x,y],z) = B(x,[y,z])]  residual=1\n"
            "FAIL  invariance(P,X,Q)  [invariance B([x,y],z) = B(x,[y,z])]  residual=-1\n"
            "FAIL  invariance(Q,X,P)  [invariance B([x,y],z) = B(x,[y,z])]  residual=-1\n"
            "FAIL  invariance(Q,P,X)  [invariance B([x,y],z) = B(x,[y,z])]  residual=1\n"
        )


def test_cold_import_loads_every_traced_module():
    # the benchmark's tracer looks each spanned module up in sys.modules after
    # `import liequad.cli`; a module imported lazily would make it raise
    import ast
    from pathlib import Path

    tree = ast.parse((Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py").read_text())
    spanned = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["SPANNED"]
    )
    modules = sorted({f"liequad.{mod}" for mod, _ in spanned.values()})
    probe = "import sys, liequad.cli; print(sorted(m for m in sys.argv[1:] if m not in sys.modules))"
    done = subprocess.run([sys.executable, "-c", probe, *modules], check=True, capture_output=True, text=True)
    assert "liequad.algfile" in modules and done.stdout.strip() == "[]"


def test_the_names_the_benchmark_reads_resolve():
    # perfbench/tracing.py wraps each name of SPANNED and patches or reads the
    # attributes below; perfbench/inputs.py and workloads.py call the rest
    import ast
    from pathlib import Path

    tree = ast.parse((Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py").read_text())
    spanned = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["SPANNED"]
    )
    names = [f"{mod}.{fname}" for mod, fnames in spanned.values() for fname in fnames]
    names += ["linalg.dot", "linalg.Subspace.span", "scalars.Exact.__init__", "core.LieSuperalgebra.c"]
    names += ["catalog.CatalogEntry.builder", "catalog.CatalogEntry.default_params", "core.LieSuperalgebra.ad_vector"]
    names += ["derivation_space", "fingerprint"]
    probe = (
        "import functools, sys, liequad.cli\n"
        "for name in sys.argv[1:]:\n"
        "    functools.reduce(getattr, name.split('.'), sys.modules['liequad'])\n"
    )
    subprocess.run([sys.executable, "-c", probe, *names], check=True, capture_output=True, text=True)
    from liequad import catalog, complex_backend, fingerprint
    from liequad.core import QuadraticAlgebra
    from liequad.scalars import EXACT

    assert (EXACT.name, complex_backend().name) == ("exact", "complex")
    entry = catalog.get("g4")
    alg, form = entry.builder(EXACT, entry.default_params(EXACT))
    fp = fingerprint(QuadraticAlgebra(alg, form), with_derivations=True)
    assert (fp.der_dim, fp.skew_der_dim) == (5, 3)


def test_one_version(capsys):
    # the package, its metadata and the JSON output name the same version
    import re
    from pathlib import Path

    toml = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    (declared,) = re.findall(r'^version = "([^"]+)"$', toml, re.M)
    code, out, _ = run(capsys, "--no-timestamp", "--format", "json", "verify", str(data_file("g4.alg")))
    assert code == 0
    assert liequad.__version__ == declared == json.loads(out)["version"]


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


def derivations_from_basis(path, kind, fmt):
    """`liequad derivations` output as printed from the dense matrices `ds.basis`."""
    af = cli._load(path, None)
    bk, labels = af.algebra.backend, af.algebra.labels
    ds = derivation_space(af.algebra, kind, af.form if kind == "skew" else None)
    if fmt == "json":
        basis = [[[bk.format(x) for x in row] for row in m.entries] for m in ds.basis]
        payload = {"tool": "liequad", "version": liequad.__version__, "algebra": af.name, "kind": kind, "dimension": ds.dim, "basis": basis}
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    out = [f"# {kind} derivations of {af.name}: dimension {ds.dim}"]
    for idx, m in enumerate(ds.basis):
        out.append(f"D{idx + 1}:")
        out += (f"  {lab:>6} | {' '.join(bk.format(x) for x in row)}" for lab, row in zip(labels, m.entries))
    return "\n".join(out) + "\n"


def test_derivations_print_the_dense_basis(tmp_path, capsys):
    # printed from the kernel rows, an absent entry as the backend's zero: the
    # same bytes as the dense matrices, on the shipped files and complex copies
    paths = sorted(data_file("g4.alg").parent.glob("*.alg"))
    for name in ("g4", "go6_1", "tstar_h3"):
        copy = tmp_path / f"{name}.alg"
        copy.write_text(data_file(f"{name}.alg").read_text().replace("backend exact\n", "backend complex\n"))
        paths.append(copy)
    assert len(paths) == 14 and "backend complex" in paths[-1].read_text()
    for path in paths:
        for kind in ("all", "skew", "inner"):
            for fmt in ("json", "text"):
                code, out, _ = run(capsys, "--format", fmt, "derivations", str(path), "--kind", kind)
                assert (code, out) == (0, derivations_from_basis(str(path), kind, fmt)), (path.name, kind, fmt)


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


def test_a_residual_past_the_digit_limit_prints_bounded(tmp_path, capsys):
    # B([X,Y],Y) = 10^8598 has more digits than str writes under the default
    # limit of 4300: each residual prints as its sign, first 12 digits and
    # digit count, in text and in JSON, and the verdict is exit 1
    f = tmp_path / "huge.alg"
    f.write_text("algebra huge\ndim_even 2\ndim_odd 0\nbasis X Y\nbracket X Y = 1e4299 Y\nform X X = 1\nform Y Y = 1e4299\n")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        text = run(capsys, "--no-timestamp", "verify", str(f))
        js = run(capsys, "--no-timestamp", "--format", "json", "verify", str(f))
    finally:
        sys.set_int_max_str_digits(limit)
    assert text[0] == js[0] == 1 and text[2] == js[2] == ""
    residuals = [line.split("residual=")[1] for line in text[1].splitlines() if "invariance(" in line]
    assert residuals == ["100000000000...(8599 digits)", "-200000000000...(8599 digits)", "100000000000...(8599 digits)"]
    checks = json.loads(js[1])["checks"]
    assert [c["residual"] for c in checks if c["check"].startswith("huge:invariance(")] == residuals


# complex files whose even square [X,X] or odd diagonal B(F,F) is below the
# tolerance, but twice it is not: the constructor refuses them at their line
TWICE_THE_TOLERANCE = [
    (
        "algebra sq\nbackend complex\ndim_even 2\ndim_odd 0\nbasis X Y\nbracket X X = 6e-10 Y\n",
        "error: line 6: antisymmetry: c[X,X] != (-1)^(|i||j|+1) c[X,X]\n",
    ),
    (
        "algebra od\nbackend complex\ndim_even 1\ndim_odd 2\nbasis X F G\nform X X = 1\nform F G = 1\nform F F = 6e-10\n",
        "error: line 8: supersymmetry: B(F,F) != (-1)^(|i||j|) B(F,F)\n",
    ),
]


@pytest.mark.parametrize("text, error", TWICE_THE_TOLERANCE, ids=["even-square", "odd-diagonal"])
def test_a_complex_square_twice_above_the_tolerance_is_refused_at_its_line(tmp_path, text, error):
    # in a fresh process: exit 2, the one error line and no traceback
    f = tmp_path / "near.alg"
    f.write_text(text)
    done = subprocess.run(
        [sys.executable, "-m", "liequad.cli", "--no-timestamp", "verify", str(f)], capture_output=True, text=True
    )
    assert (done.returncode, done.stdout, done.stderr) == (2, "", error)


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


# -- the JSON writer -----------------------------------------------------------------

JSON_TEXT = st.text() | st.sampled_from(["", "\x00\x1f\x7f\n\t", 'a"b\\c/', "é∂", "  ", "😀", "\ud800"])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | JSON_TEXT | st.sampled_from([[], {}, ()]),
    lambda kids: st.lists(kids, max_size=4)
    | st.tuples(kids, kids)
    | st.dictionaries(JSON_TEXT, kids, max_size=4)
    | st.dictionaries(st.integers(), kids, max_size=3),  # keys json.dumps turns into strings
    max_leaves=30,
)


@pytest.mark.parametrize(
    "value",
    [[], {}, (), [[], {}], {"a": {}, "b": []}, {"b": [1, {"c": None}], "a": True}, {"é": "\x00"}, [1.5, float("nan")]],
)
def test_json_writer_writes_the_bytes_of_json_dumps(value):
    assert cli._dumps(value) == json.dumps(value, indent=2, sort_keys=True)


@settings(max_examples=300, deadline=None)
@given(value=JSON_VALUES)
def test_json_writer_matches_json_dumps(value):
    assert cli._dumps(value) == json.dumps(value, indent=2, sort_keys=True)
