"""The three workloads as lists of jobs, each checked against a known answer.

A job returns None when liequad's verdict matches the known answer and a short
message otherwise; the runner counts an exception as a failure too.  Library
entry points are looked up at call time (`cli.main`, `liequad.fingerprint`, ...)
so that a traced run goes through the tracer's wrappers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import liequad
import liequad.cli as cli
from liequad.core import QuadraticAlgebra
from liequad.scalars import EXACT

import inputs

# skew-derivation dimensions stated in the paper; the sympy table agrees
PAPER_SKEW = {"g4": 3, "g5": 6, **{f"g2n2[n={n}]": n * n + 2 * n for n in inputs.G2N2_RANGE}}
FINGERPRINT_FIELDS = {
    "dim": "dim",
    "center_dim": "center",
    "derived_dims": "derived_dims",
    "lower_central_dims": "lower_central_dims",
    "derived_center_dim": "derived_center",
    "solvable": "solvable",
    "nilpotent": "nilpotent",
    "der_dim": "der_all",
    "skew_der_dim": "der_skew",
}
JOB_TIMEOUT_S = 170


@dataclass
class Job:
    kind: str
    name: str
    dim: int
    run: Callable  # (tracer or None) -> failure message or None


def _mismatch(what, got, want) -> Optional[str]:
    return None if got == want else f"{what}: got {got!r}, expected {want!r}"


# -- report ---------------------------------------------------------------------------


def report_jobs(root: Path, workdir: Path, answers: dict) -> list:
    """One job: `liequad ... report --all` in a fresh interpreter."""
    want = answers["report"]
    worker = root / "perfbench" / "worker.py"

    def run(tracer) -> Optional[str]:
        trace_file = workdir / "report-trace.json"
        cmd = [sys.executable, str(worker)]
        if tracer is not None:
            cmd += ["--trace-out", str(trace_file)]
        proc = subprocess.run(cmd + want["argv"], capture_output=True, timeout=JOB_TIMEOUT_S, cwd=root)
        if tracer is not None:
            tracer.merge(json.loads(trace_file.read_text(encoding="utf-8")))
            trace_file.unlink()
        if proc.returncode != 0:
            return f"exit {proc.returncode}: {proc.stderr.decode(errors='replace')[-300:]}"
        checks = json.loads(proc.stdout)["checks"]
        passed = sum(c["status"] == "pass" for c in checks)
        return (
            _mismatch("checks", len(checks), want["checks"])
            or _mismatch("passing checks", passed, want["checks"])
            or _mismatch("sha256", hashlib.sha256(proc.stdout).hexdigest(), want["sha256"])
        )

    return [Job("report", "report --all", 0, run)]


# -- derive ---------------------------------------------------------------------------


def derivation_job(name, alg, form, kind, expected) -> Job:
    def run(tracer) -> Optional[str]:
        ds = liequad.derivation_space(alg, kind, form if kind == "skew" else None)
        return _mismatch(f"{kind} derivation dimension", ds.dim, expected)

    return Job(f"derivations-{kind}", name, alg.dim, run)


def fingerprint_job(name, alg, form, facts) -> Job:
    def run(tracer) -> Optional[str]:
        fp = liequad.fingerprint(QuadraticAlgebra(alg, form), with_derivations=True)
        got = {k: getattr(fp, f) for f, k in FINGERPRINT_FIELDS.items()}
        got["derived_dims"], got["lower_central_dims"] = list(fp.derived_dims), list(fp.lower_central_dims)
        want = {k: facts[k] for k in FINGERPRINT_FIELDS.values()}
        want["der_skew"] = PAPER_SKEW.get(name, want["der_skew"])
        return _mismatch("fingerprint", got, want)

    return Job("fingerprint", name, alg.dim, run)


def _dims(jobs) -> list:
    return [min(j.dim for j in jobs), max(j.dim for j in jobs)]


def derive_jobs(answers: dict, seed: int) -> tuple:
    """(jobs, input summary): derivation solves of all three kinds plus a full
    fingerprint per algebra."""
    algebras = inputs.derive_algebras(EXACT)
    jobs = []
    for name, (alg, form) in algebras.items():
        facts = answers["derive"][name]
        for kind in ("all", "skew", "inner"):
            expected = PAPER_SKEW.get(name, facts["der_skew"]) if kind == "skew" else facts[f"der_{kind}"]
            jobs.append(derivation_job(name, alg, form, kind, expected))
        jobs.append(fingerprint_job(name, alg, form, facts))
    random.Random(seed).shuffle(jobs)
    return jobs, {"algebras": len(algebras), "dims": _dims(jobs)}


# -- files ----------------------------------------------------------------------------


def run_cli(*argv) -> tuple:
    """(exit code, stdout) of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main([str(a) for a in argv])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue()


def _json_cli(*argv) -> tuple:
    code, out = run_cli("--no-timestamp", "--format", "json", *argv)
    return code, (json.loads(out) if out.startswith("{") else None)


def _dim(path: Path) -> int:
    head = dict(l.split(None, 1) for l in path.read_text(encoding="utf-8").splitlines()[1:4])
    return int(head["dim_even"]) + int(head["dim_odd"])


def verify_job(path: Path, expect_code: int, kind="verify") -> Job:
    def run(tracer) -> Optional[str]:
        return _mismatch("verify exit code", _json_cli("verify", path)[0], expect_code)

    return Job(kind, path.name, _dim(path), run)


def decompose_job(path: Path, has_witness: bool) -> Job:
    def run(tracer) -> Optional[str]:
        code, out = _json_cli("decompose", path)
        return _mismatch("decompose exit code", code, 0) or _mismatch(
            "central witness", out["witness"] is not None, has_witness
        )

    return Job("decompose", path.name, _dim(path), run)


def shipped_derivations_job(path: Path, kind: str, expected: int) -> Job:
    def run(tracer) -> Optional[str]:
        code, out = _json_cli("derivations", path, "--kind", kind)
        return _mismatch("derivations exit code", code, 0) or _mismatch(
            f"{kind} derivation dimension", out["dimension"], expected
        )

    return Job(f"derivations-{kind}", path.name, _dim(path), run)


def check_iso_job(src: Path, tgt: Path, mp: Path) -> Job:
    def run(tracer) -> Optional[str]:
        return _mismatch("check-iso exit code", _json_cli("check-iso", src, tgt, mp)[0], 0)

    return Job("check-iso", tgt.name, _dim(tgt), run)


def extend_job(kind: str, base: Path, flag: str, aux: Optional[Path], out: Path, witness: bool) -> Job:
    """extend, write the emitted text, then re-parse and verify it (and for an
    inner double extension, find the central witness)."""
    extra = [flag, aux] if aux is not None else []

    def run(tracer) -> Optional[str]:
        code, text = run_cli("extend", kind, base, *extra)
        if code != 0:
            return f"extend {kind} exit code {code}"
        out.write_text(text, encoding="utf-8")
        msg = _mismatch("verify of the extension", _json_cli("verify", out)[0], 0)
        if msg or not witness:
            return msg
        code, res = _json_cli("decompose", out)
        return _mismatch("decompose exit code", code, 0) or _mismatch(
            "central witness of an inner double extension", res["witness"] is not None, True
        )

    return Job(kind, f"{base.name}+{aux.name if aux else 'zero'}", _dim(base), run)


def files_jobs(root: Path, workdir: Path, answers: dict, seed: int) -> tuple:
    """(jobs, input summary) of one seeded `files` round."""
    shipped = answers["shipped"]
    inp = inputs.write_files_inputs(root, workdir, seed, {k: v["tamper_positions"] for k, v in shipped.items()})
    jobs = []
    for path in inp.shipped:
        facts = shipped[path.name]
        jobs.append(verify_job(path, 0))
        jobs.append(decompose_job(path, facts["witness"]))
        jobs += [shipped_derivations_job(path, k, facts[f"der_{k}"]) for k in ("all", "skew", "inner")]
    jobs += [verify_job(path, 1, "tampered") for path, _ in inp.tampered]
    jobs += [check_iso_job(*t) for t in inp.iso]
    for k, (base, mp) in enumerate(inp.double1d):
        jobs.append(extend_job("double1d", base, "--map", mp, workdir / f"out_double1d{k}.alg", True))
    for k, (base, cyc) in enumerate(inp.tstar):
        jobs.append(extend_job("tstar", base, "--cocycle", cyc, workdir / f"out_tstar{k}.alg", False))
    for k, (base, phi) in enumerate(inp.tsstar):
        jobs.append(extend_job("tsstar", base, "--pairing", phi, workdir / f"out_tsstar{k}.alg", False))
    random.Random(seed).shuffle(jobs)
    summary = dict(inp.summary, dims=_dims(jobs), tampered_share=round(len(inp.tampered) / len(jobs), 4))
    return jobs, summary
