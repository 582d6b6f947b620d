#!/usr/bin/env python3
"""Self-test of the benchmark; run from the repository root:

    python3 perfbench/selftest.py

It checks that each workload completes at a tiny size with every verdict
correct, that a planted wrong expected dimension and a tampered file marked
"should pass" both give failed_frac > 0, that the command prints the metrics
BENCHMARK.json names (end-to-end untraced, per-layer traced), and that it
fails without printing a result where there are no liequad sources.  It takes
about a minute, most of it one `report --all` and one traced `files` round.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

ROOT = run.ROOT
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
ANSWERS = json.loads((ROOT / "perfbench" / "answers.json").read_text(encoding="utf-8"))


def tiny(workload: str, workdir: Path, answers=ANSWERS) -> list:
    """One round of the workload, cut down to its cheapest jobs of each kind."""
    import workloads

    if workload == "report":
        return workloads.report_jobs(ROOT, workdir, answers)
    if workload == "derive":
        return [j for j in workloads.derive_jobs(answers, 0)[0] if j.dim <= 4]
    jobs, _ = workloads.files_jobs(ROOT, workdir, answers, 0)
    cheapest = {}
    for j in sorted(jobs, key=lambda j: j.dim, reverse=True):
        cheapest[j.kind] = j
    return list(cheapest.values())


def failed_frac(jobs: list) -> float:
    ph = run.run_phase(jobs, 0.0)
    return len(ph.failures) / len(ph.job_cpu_ms)


def test_tiny_workloads(workdir):
    for w in run.WORKLOADS:
        ph = run.run_phase(tiny(w, workdir), 0.0)
        assert not ph.failures and ph.job_cpu_ms, (w, ph.failures)


def test_planted_wrong_dimension(workdir):
    answers = copy.deepcopy(ANSWERS)
    answers["derive"]["g4"]["der_all"] += 1
    jobs = [j for j in tiny("derive", workdir, answers) if j.name == "g4"]
    assert failed_frac(jobs) > 0


def test_tampered_file_marked_pass(workdir):
    import workloads

    jobs, _ = workloads.files_jobs(ROOT, workdir, ANSWERS, 0)
    tampered = next(j for j in jobs if j.kind == "tampered")
    assert failed_frac([workloads.verify_job(workdir / tampered.name, 0)]) > 0


def _command(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    cmd = BENCH["command"] + ["--workload", "files", "--seed", "1", "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def test_command_metrics(workdir):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = _command(ROOT, trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        want = {m["name"]: m["unit"] for m in BENCH[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want, (section, sorted(set(got) ^ set(want)))


def test_fails_without_sources(workdir):
    alone = workdir / "alone"
    alone.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", alone)
    for p in BENCH["paths"]:
        shutil.copytree(ROOT / p, alone / p, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _command(alone, 0)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc.stdout


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    run.OUT.mkdir(exist_ok=True)
    failures = 0
    for name, fn in list(globals().items()):
        if not name.startswith("test_"):
            continue
        workdir = run.OUT / f"selftest-{name}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir()
        try:
            fn(workdir)
            print(f"PASS {name}", flush=True)
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {name}: {exc}", flush=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
