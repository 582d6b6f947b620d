#!/usr/bin/env python3
"""liequad benchmark: one client in one process runs jobs one after another.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it needs only the standard library and
the sources under src/.  The loop is closed and has no threads.  Each job
calls liequad's public API or `liequad.cli.main` and its verdict is checked
against perfbench/answers.json (computed offline with sympy by
make_answers.py).  A round is one pass over the workload's seeded job list;
the timed phase repeats whole rounds while the next round is expected to end
within S seconds, and always runs at least one.

Workloads (why each was chosen):
  report  `liequad --no-timestamp --format json report --all` in a fresh
          interpreter per job: the command users run, cold every time, so no
          memoization carries from one job to the next.  Mostly invariance
          (core.verify_form) and re-verification of catalog builds.
  derive  derivation solves (all, skew, inner) and full fingerprints of the
          2n+2 family for n = 1..6 and every catalog entry, built at set-up
          without the axiom check: Gauss-Jordan elimination over exact
          scalars, with almost no invariance work.
  files   a seeded mix of small CLI jobs on .alg files (verify, decompose,
          derivations, check-iso, extend double1d/tstar/tsstar and verify of
          the emitted text, tampered files that must fail), with coefficients
          of height about 1e6: parsing, emitting, constructors and per-call
          overhead weigh more here.

Every time is CPU time (user + system) of the process doing the work (this
process, plus the children it waited for), scaled to one reference machine
speed.  The program is single-threaded and CPU-bound, so its CPU time is its
wall time on an idle machine.  On the shared virtual machine this benchmark was
built on, though, wall time also counts steal (the host not running the virtual
CPU), and even CPU time drifts by 30% within minutes as other tenants contend
for the core.  So a fixed stdlib-only computation, reference() in
reference.py, runs before the first job and after every job (4 calls each
time, 50 around report's single long job), and each job's CPU time is
multiplied by REFERENCE_S over the mean CPU time of a reference() call just
before and just after it.  Scaling by the speed measured right next to each
job tracks the contention far better than one factor per round or a wider
window.  The detail line keeps the raw CPU and wall figures and the median
machine speed (1.0 = the reference speed).

End-to-end metrics (--trace 0):
  setup_s           median over 5 fresh processes that start, import liequad
                    and generate the workload's inputs, then exit
  round_norm_s      median time of one round
  jobs_per_norm_s   jobs completed per second of the timed phase
  job_norm_p50_ms   median time of one job
  job_norm_tail_ms  in each round, the time of one job at the highest
                    percentile that leaves ten of the round's jobs beyond it
                    (the median when a round has fewer than 20 jobs); the
                    median of that over the rounds.  The percentile and the
                    number of jobs beyond it are on the detail line
  peak_rss_mb       peak resident memory of the process doing the work (the
                    report children; this process for derive and files)
The failed share is `failed` / `attempted` in the result line.

Per-layer metrics (--trace 1) come from a run whose first half is untraced and
second half traced; they are totals per traced round (see tracing.py), and
trace.overhead_s is the traced minus the untraced median round time.  The
layer each metric measures, and the end-to-end metric it should move:
  scalars.exact_new                       round_norm_s on all, most on derive/files
  linalg.elim.{calls,s,cells}             round_norm_s on derive
  linalg.dot.calls                        round_norm_s on report
  core.verify_jacobi.*, core.jacobi.triples   round_norm_s on report
  core.verify_form.*, core.invariance.triples round_norm_s on report and files
  core.structure.s, core.verify.repeat_frac   round_norm_s on report
  catalog.build.{calls,self_s,repeat_frac}    round_norm_s on report
  derivations.{solve.calls,solve.s,unknowns,equations}
                                          round_norm_s, job_norm_tail_ms on derive
  extensions.construct.{calls,self_s}     job_norm_p50_ms on files
  morphisms.{decompose,fingerprint,iso}.s job_norm_p50_ms on files and derive
  algfile.{parse.s,emit.s,bytes}          job_norm_p50_ms on files
  cli.main.self_s                         job_norm_p50_ms on files

The last line of standard output is the result object; the line before it
holds the seed, an input summary, the environment and the first failures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from reference import REFERENCE_S, reference

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("report", "derive", "files")
SETUP_PROBES = 5
REFERENCE_CALLS = 50  # per speed sample around a set-up probe or a long job
PROBE_TIMEOUT_S = 170


def setup(workload: str, seed: int, workdir: Path) -> tuple:
    """Import liequad and generate the workload's inputs: what setup_s times."""
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    answers = json.loads((ROOT / "perfbench" / "answers.json").read_text(encoding="utf-8"))
    if workload == "report":
        return workloads.report_jobs(ROOT, workdir, answers), {"argv": answers["report"]["argv"]}
    if workload == "derive":
        return workloads.derive_jobs(answers, seed)
    return workloads.files_jobs(ROOT, workdir, answers, seed)


def cpu_seconds() -> float:
    """CPU time (user + system) of this process and of its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def reference_seconds(calls: int) -> float:
    """CPU seconds one reference() call takes right now, over `calls` calls."""
    c0 = cpu_seconds()
    for _ in range(calls):
        reference()
    return (cpu_seconds() - c0) / calls


def measure_setup(workload: str, seed: int, workdir: Path) -> float:
    """Median CPU seconds, at the reference speed, of fresh processes that only
    import liequad and generate the inputs."""
    samples = []
    before = reference_seconds(REFERENCE_CALLS)
    for k in range(SETUP_PROBES):
        probe_dir = workdir / f"probe{k}"
        probe_dir.mkdir()
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-probe", str(probe_dir)]
        c0 = cpu_seconds()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        cpu = cpu_seconds() - c0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr[-500:]}")
        shutil.rmtree(probe_dir)
        after = reference_seconds(REFERENCE_CALLS)
        samples.append(cpu * 2 * REFERENCE_S / (before + after))
        before = after
    return statistics.median(samples)


@dataclass
class Phase:
    round_cpu: list = field(default_factory=list)  # CPU seconds of each round's jobs
    round_norm: list = field(default_factory=list)  # the same at the reference speed
    round_wall: list = field(default_factory=list)
    job_cpu_ms: list = field(default_factory=list)
    job_norm_ms: list = field(default_factory=list)
    job_wall_ms: list = field(default_factory=list)
    speeds: list = field(default_factory=list)  # REFERENCE_S / reference() CPU time
    failures: list = field(default_factory=list)


def run_phase(jobs: list, seconds: float, tracer=None) -> Phase:
    """Whole rounds over jobs while the next one should end within seconds of
    wall time; at least one round.  reference() runs before the first job and
    after every job, and each job's CPU time is scaled by the reference speed
    measured on either side of it."""
    ph = Phase()
    per_job = max(4, REFERENCE_CALLS // len(jobs))
    start = time.perf_counter()
    before = reference_seconds(per_job)
    while True:
        r_wall = time.perf_counter()
        cpu_ms, norm_ms = [], []
        for job in jobs:
            if tracer is not None:
                tracer.begin_job()
            t0, c0 = time.perf_counter(), cpu_seconds()
            try:
                msg = job.run(tracer)
            except Exception as exc:  # a job that raises is a failed job; keep running
                msg = f"{type(exc).__name__}: {exc}"
            cpu_ms.append((cpu_seconds() - c0) * 1000.0)
            ph.job_wall_ms.append((time.perf_counter() - t0) * 1000.0)
            if msg:
                ph.failures.append(f"{job.kind} {job.name}: {msg}")
            after = reference_seconds(per_job)
            norm_ms.append(cpu_ms[-1] * 2 * REFERENCE_S / (before + after))
            ph.speeds.append(REFERENCE_S / after)
            before = after
        ph.round_cpu.append(sum(cpu_ms) / 1000.0)
        ph.round_norm.append(sum(norm_ms) / 1000.0)
        ph.job_cpu_ms += cpu_ms
        ph.job_norm_ms += norm_ms
        ph.round_wall.append(time.perf_counter() - r_wall)
        if time.perf_counter() - start + ph.round_wall[-1] > seconds:
            return ph


def tail(latencies: list, jobs_per_round: int) -> tuple:
    """(percentile, value, jobs beyond it per round): in each round, the job
    time at the highest percentile that leaves ten of the round's jobs beyond
    it (the median for rounds of fewer than 20 jobs); the value is the median
    of that over the rounds, so the percentile is fixed per workload."""
    p = max(0.5, 1.0 - 10.0 / jobs_per_round)
    idx = max(0, math.ceil(p * jobs_per_round) - 1)
    per_round = [
        sorted(latencies[k : k + jobs_per_round])[idx] for k in range(0, len(latencies), jobs_per_round)
    ]
    return p, statistics.median(per_round), jobs_per_round - 1 - idx


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text(encoding="utf-8").splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "commit": git_commit(),
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def run(args, workdir: Path) -> dict:
    setup_s = None if args.trace else measure_setup(args.workload, args.seed, workdir)
    jobs, summary = setup(args.workload, args.seed, workdir)
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    if args.trace:
        from tracing import Tracer, layer_metrics

        plain = run_phase(jobs, args.seconds / 2)
        tracer = Tracer()
        if args.workload != "report":  # report jobs trace in their own process
            tracer.install()
        try:
            timed = run_phase(jobs, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        scale = sum(timed.round_norm) / sum(timed.round_cpu)
        metrics = layer_metrics(tracer.spans, tracer.counts, len(timed.round_cpu), scale)
        overhead = statistics.median(timed.round_norm) - statistics.median(plain.round_norm)
        metrics["trace.overhead_s"] = (overhead, "s")
        phases = [plain, timed]
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(
            json.dumps({**detail, "rounds": len(timed.round_cpu), "metrics": metrics, **tracer.dump()}),
            encoding="utf-8",
        )
        detail["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        timed = run_phase(jobs, args.seconds)
        phases = [timed]
        p, tail_ms, beyond = tail(timed.job_norm_ms, len(jobs))
        who = resource.RUSAGE_CHILDREN if args.workload == "report" else resource.RUSAGE_SELF
        metrics = {
            "setup_s": (setup_s, "s"),
            "round_norm_s": (statistics.median(timed.round_norm), "s"),
            "jobs_per_norm_s": (len(timed.job_norm_ms) / sum(timed.round_norm), "1/s"),
            "job_norm_p50_ms": (statistics.median(timed.job_norm_ms), "ms"),
            "job_norm_tail_ms": (tail_ms, "ms"),
            "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
        }
        detail.update(
            job_tail_percentile=100.0 * p,
            job_tail_jobs_beyond_per_round=beyond,
            machine_speed=statistics.median(timed.speeds),
            cpu={"round_s": statistics.median(timed.round_cpu), "job_p50_ms": statistics.median(timed.job_cpu_ms)},
            wall={
                "round_s": statistics.median(timed.round_wall),
                "jobs_per_s": len(timed.job_wall_ms) / sum(timed.round_wall),
                "job_p50_ms": statistics.median(timed.job_wall_ms),
                "job_tail_ms": tail(timed.job_wall_ms, len(jobs))[1],
            },
        )
    attempted = sum(len(ph.job_cpu_ms) for ph in phases)
    failures = [f for ph in phases for f in ph.failures]
    detail.update(
        inputs=summary,
        jobs_per_round=len(jobs),
        rounds=[len(ph.round_cpu) for ph in phases],
        samples=attempted,
        failed_frac=len(failures) / attempted,
        failures=failures[:10],
        env=environment(),
    )
    print(json.dumps(detail, sort_keys=True))
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "liequad" / "__init__.py").is_file():
        print("error: src/liequad not found; run the benchmark from a liequad checkout", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup(args.workload, args.seed, Path(args.setup_probe))
        return 0
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
