"""Benchmark of the kickedqubit command line, end to end and per layer.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is obs_scan, rk4_trajectory, dyson_smooth, closed_form, or ``all`` to
run the four in turn. The benchmark is one single-threaded client in a closed
loop: it calls ``kickedqubit.cli.main(argv)`` in this process for each job of
the workload's seeded job list, captures each output (``-o -``) in memory,
and checks every output with an independent route (``checks.py``). No timed
job touches the disk.

A run takes about ``--seconds`` in all, its set-up and memory probes
included; it always completes at least one timed pass (a traced run, one
untraced and one traced pass).

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median pass over
the job list), ``job_s.p50`` (median job), ``setup_s`` (median time for a
fresh interpreter to import ``kickedqubit.cli`` and build the parser) and
``peak_rss_mb`` (peak memory of a fresh process running one pass).
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``tracing.py`` plus ``trace.overhead_frac``; its spans
are written to ``perfbench/out/``.

Failures are reported as ``failed`` out of ``attempted`` jobs. Every run also
corrupts one digit of the first and last number of one output of each job
kind, and runs one job that must exit non-zero, and requires each of these to
be counted as failed: the checks are shown not to be vacuous. The last line
of stdout is one JSON object; a readable summary goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from harness import SRC, child_env, digest, fail, load_cli, pin_threads, run_job

pin_threads()  # before numpy is imported

from checks import check_output, corrupt  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, make_jobs  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
SETUP_REPEATS = 15
SETUP_CODE = (
    "import sys, kickedqubit.cli as c; c.build_parser(); "
    "sys.exit(0 if c.__file__.startswith(sys.argv[1]) else 3)"
)
FAILING_JOB = ("obs-time", "--preset", "no-such-preset")


class Tally:
    """Attempted and failed jobs; a job fails on a non-zero exit, a failed
    check, or output that differs from an earlier run of the same job."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        self._verdicts: dict[str, list[str]] = {}

    def record(self, job, rc: int, text: str) -> bool:
        self.attempted += 1
        problems = [f"exit code {rc}"] if rc != 0 else []
        if not problems:
            sha = digest(text)
            if self.digests.setdefault(job.key, sha) != sha:
                problems.append("output differs from an earlier run of the same job")
            if sha not in self._verdicts:
                self._verdicts[sha] = check_output(job, rc, text, self.reference)
            problems += self._verdicts[sha]
        if problems:
            self.failed += 1
            self.problems.append(f"{job.argv[0]} ({job.kind}): {'; '.join(problems)}")
        return not problems


def run_pass(cli, jobs, tally):
    """Run the job list once and check the outputs after the timed region.

    Returns the pass wall time, the job times, the bytes written and the
    (time, exit code, output) of every job.
    """
    results = []
    start = perf_counter()
    for job in jobs:
        results.append(run_job(cli.main, job.argv))
    wall = perf_counter() - start
    for job, (_, rc, text) in zip(jobs, results):
        tally.record(job, rc, text)
    return wall, [r[0] for r in results], sum(len(r[2].encode()) for r in results), results


def self_test(cli, jobs, results, reference) -> tuple[int, int]:
    """Corrupted outputs and one failing exit, all of which must count as failed."""
    tally = Tally(reference)
    seen = set()
    for job, (_, rc, text) in zip(jobs, results):
        if job.kind in seen or rc != 0:
            continue
        seen.add(job.kind)
        for which in (0, -1):
            tally.record(job, rc, corrupt(text, which))
            tally.digests.pop(job.key)  # judge the numbers, not only the bytes
    _, rc, text = run_job(cli.main, FAILING_JOB)
    tally.record(jobs[0], rc, text)
    return tally.failed, tally.attempted


def measure_setup() -> float:
    times = []
    env = child_env()
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], env=env,
                              capture_output=True, timeout=60)
        times.append(perf_counter() - start)
        if proc.returncode != 0:
            fail(f"set-up probe failed: {proc.stderr.decode()[-500:]}")
    return statistics.median(times)


def probe(workload: str, seed: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "probe.py"), workload, str(seed)],
                          env=child_env(), capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        fail(f"memory probe failed: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())["jobs"]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(cli, workload, seed, seconds, jobs, tally):
    begin = perf_counter()
    setup = measure_setup()
    fresh = probe(workload, seed)
    for key, rc, sha in fresh["jobs"]:
        tally.attempted += 1
        if rc != 0:
            tally.failed += 1
            tally.problems.append(f"fresh process: {key.split()[0]} exit code {rc}")
        tally.digests.setdefault(key, sha)  # in-process runs must match the fresh process

    walls, job_times, first = [], [], None
    while not walls or perf_counter() - begin + statistics.median(walls) <= seconds:
        wall, times, _, results = run_pass(cli, jobs, tally)
        walls.append(wall)
        job_times += times
        if first is None:
            first = results
    metrics = {
        "wall_s": metric(statistics.median(walls), "s"),
        "job_s.p50": metric(statistics.median(job_times), "s"),
        "setup_s": metric(setup, "s"),
        "peak_rss_mb": metric(fresh["peak_rss_mb"], "MB"),
    }
    notes = {"passes": len(walls), "job samples": len(job_times)}
    if len(jobs) >= 100:  # at least ten samples per pass beyond the 90th percentile
        notes["job_s.p90"] = statistics.quantiles(job_times, n=10)[-1]
    return metrics, notes, first


def layer_metrics(first: dict, self_s: dict, bytes_out: int, overhead: float) -> dict:
    q, ode = first["quadrature"], first["ode"]
    pw, ci = first["pulses.pointwise"], first["pulses.coupling_integral"]
    diag, pert, cli = first["diagnostics"], first["perturbation"], first["cli"]
    nto, kick, su2 = first["propagators.nto"], first["propagators.kick"], first["su2.exp"]
    ode_self = self_s["ode"]
    return {
        "quadrature.calls": metric(q["calls"], "count"),
        "quadrature.evals": metric(q["evals"], "count"),
        "quadrature.evals_per_call": metric(q["evals"] / q["calls"] if q["calls"] else 0.0, "evals/call"),
        "quadrature.self_s": metric(self_s["quadrature"], "s"),
        "pulses.pointwise.calls": metric(pw["calls"], "count"),
        "pulses.pointwise.self_s": metric(self_s["pulses.pointwise"], "s"),
        "pulses.coupling_integral.calls": metric(ci["calls"], "count"),
        "pulses.coupling_integral.self_s": metric(self_s["pulses.coupling_integral"], "s"),
        "ode.calls": metric(ode["calls"], "count"),
        "ode.rk4_steps": metric(ode["rk4_steps"], "count"),
        "ode.us_per_step": metric(1e6 * ode_self / ode["rk4_steps"] if ode["rk4_steps"] else 0.0, "us"),
        "ode.recorded_states": metric(ode["recorded_states"], "count"),
        "ode.self_s": metric(ode_self, "s"),
        "propagators.nto.calls": metric(nto["calls"], "count"),
        "propagators.kick.calls": metric(kick["calls"], "count"),
        "propagators.self_s": metric(self_s["propagators.nto"] + self_s["propagators.kick"], "s"),
        "perturbation.calls": metric(pert["calls"], "count"),
        "perturbation.kick_pairs": metric(pert["kick_pairs"], "count"),
        "perturbation.self_s": metric(self_s["perturbation"], "s"),
        "su2.exp.calls": metric(su2["calls"], "count"),
        "su2.self_s": metric(self_s["su2.exp"], "s"),
        "diagnostics.calls": metric(diag["calls"], "count"),
        "diagnostics.obs_points": metric(diag["obs_points"], "count"),
        "diagnostics.surface_points": metric(diag["surface_points"], "count"),
        "diagnostics.self_s": metric(self_s["diagnostics"], "s"),
        "cli.calls": metric(cli["calls"], "count"),
        "cli.bytes_out": metric(bytes_out, "bytes"),
        "cli.self_s": metric(self_s["cli"], "s"),
        "trace.overhead_frac": metric(overhead, "ratio"),
    }


def run_traced(cli, workload, seed, seconds, jobs, tally):
    begin = perf_counter()
    tracer = Tracer()
    tracer.calibrate()
    plain, traced, snapshots, first = [], [], [], None
    bytes_out = 0
    while not traced or (perf_counter() - begin + statistics.median(plain)
                         + statistics.median(traced) <= seconds):
        wall, _, bytes_out, results = run_pass(cli, jobs, tally)
        plain.append(wall)
        if first is None:
            first = results
        tracer.reset()
        tracer.install()
        try:
            wall, _, _, _ = run_pass(cli, jobs, tally)
        finally:
            tracer.restore()
        tracer.keep_spans = False  # spans of the first traced pass only
        traced.append(wall)
        snapshots.append(tracer.snapshot())
    self_s = {layer: statistics.median(s[layer]["self_s"] for s in snapshots) for layer in snapshots[0]}
    overhead = (statistics.median(traced) - statistics.median(plain)) / statistics.median(plain)
    metrics = layer_metrics(snapshots[0], self_s, bytes_out, overhead)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"trace-{workload}-seed{seed}.json").write_text(json.dumps({
        "workload": workload, "seed": seed, "untraced_pass_s": plain, "traced_pass_s": traced,
        "wrapper_call_cost_s": tracer.call_cost, "eval_count_cost_s": tracer.eval_cost,
        "layers_per_pass": snapshots, "metrics": metrics,
        "spans": {"fields": ["name", "start_s", "end_s", "parent"], "rows": tracer.spans},
    }))
    notes = {"passes": f"{len(plain)} untraced + {len(traced)} traced"}
    return metrics, notes, first


def run_workload(cli, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    jobs = make_jobs(workload, seed)
    reference = load_reference()
    tally = Tally(reference)
    runner = run_traced if trace else run_untraced
    metrics, notes, first = runner(cli, workload, seed, seconds, jobs, tally)
    caught, planted = self_test(cli, jobs, first, reference)

    log = sys.stderr
    print(f"perfbench {workload} seed={seed} trace={int(trace)} jobs/pass={len(jobs)} "
          + " ".join(f"{k}={v}" for k, v in notes.items() if k != "job_s.p90"), file=log)
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}", file=log)
    if "job_s.p90" in notes:
        print(f"  {'job_s.p90':34s} {notes['job_s.p90']:.6g} s", file=log)
    print(f"  {'fail_frac':34s} {tally.failed / max(tally.attempted, 1):.6g} "
          f"({tally.failed}/{tally.attempted})", file=log)
    print(f"  self-test: {caught}/{planted} planted faults counted as failed", file=log)
    for problem in tally.problems[:10]:
        print(f"  FAILED {problem}", file=log)
    return {
        "correct": tally.failed == 0 and caught == planted,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    cli = load_cli()
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        result = run_workload(cli, workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
