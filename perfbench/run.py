"""Benchmark of triqdd's user-facing jobs, end to end and layer by layer.

One closed-loop client in one process calls the program's own entry point,
`triqdd.cli.main(argv)`, job after job until --seconds have passed (at
least one job), and checks every job's output against the outputs frozen
in perfbench/reference/. BLAS threads are left at the user default; the
OPENBLAS_NUM_THREADS value is recorded with the other provenance.

    python3 perfbench/run.py --workload grid --seed 7 --seconds 3 --trace 0

--trace 0 reports the end-to-end metrics: set-up time of a fresh
interpreter, median job time, and peak memory; runs of at least 100 jobs
also print the 90th-percentile job time.
--trace 1 wraps the public functions of the layer modules (see tracer.py)
and reports per-layer self times, call counts and work counts instead.
Human-readable lines come first; the last line of stdout is one JSON
object. Job outputs, spans and the full record go to .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer as tracing
import warm
from workloads import LAYER_MAP, WORKLOADS, program_seed, run_job

OUT_DIR = warm.ROOT / ".bench_out"
SETUP_PROBES = 3
P90_MIN_JOBS = 100  # so that at least ten jobs lie beyond the 90th percentile

# (metric, span names summed, field: 0 for calls, 1 for self ns)
PER_FUNCTION = (
    ("runner.run_decay.calls", ("runner.run_decay",), 0),
    ("spinsys.free_factors.calls", ("spinsys.free_factors",), 0),
    ("spinsys.free_factors.self_s", ("spinsys.free_factors",), 1),
    ("spinsys.pulse_propagator.calls", ("spinsys.pulse_propagator",), 0),
    ("spinsys.pulse_propagator.self_s", ("spinsys.pulse_propagator",), 1),
    ("spinsys.apply_sequence.self_s", ("spinsys.apply_sequence",), 1),
    ("ddseq.program.calls", ("ddseq.program",), 0),
    ("qmat.assert_density_matrix.calls", ("qmat.assert_density_matrix",), 0),
    ("qmat.assert_density_matrix.self_s", ("qmat.assert_density_matrix",), 1),
    ("qmat.partial_trace.self_s", ("qmat.partial_trace",), 1),
    ("qmat.concurrence.calls", ("qmat.concurrence",), 0),
    ("qmat.concurrence.self_s", ("qmat.concurrence",), 1),
    ("qmat.fidelity.self_s", ("qmat.fidelity",), 1),
    ("circuits.tomography.calls", ("circuits.tomography",), 0),
    ("circuits.tomography.self_s", ("circuits.tomography",), 1),
    ("circuits.prepare.self_s", ("circuits.prepare", "circuits.prepare_star_nmr"), 1),
)
WORK = ("work.curves", "work.unit_shots", "work.pulse_shots", "work.tomo_solves")


class JobFailure(Exception):
    pass


def workload_reasons() -> dict[str, str]:
    """Why each workload was chosen, as BENCHMARK.json records it."""
    with open(warm.ROOT / "BENCHMARK.json") as fh:
        return {w["name"]: w["why"] for w in json.load(fh)["workloads"]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -- provenance --------------------------------------------------------------

def _git_commit() -> str | None:
    if not (warm.ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=warm.ROOT,
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() or None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(warm.SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(warm.SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(seed: int, pseed: int) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_info = f"{blas.get('name')} {blas.get('version')}: {blas.get('openblas configuration')}"
    except (TypeError, KeyError):
        blas_info = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
        "seed": seed,
        "program_seed": pseed,
    }


# -- measuring ---------------------------------------------------------------

def measure_setup(probes: int) -> list[float]:
    """Wall seconds of fresh interpreters that import triqdd.cli and warm its tables."""
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(Path(warm.__file__))], cwd=warm.ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return times


def run_closed_loop(cli, workload, pseed: int, seconds: float, tracer=None):
    """Jobs back to back until `seconds` pass; returns (job times, attempted, failures)."""
    reference = workload.reference()[pseed]
    job_dir = OUT_DIR / f"jobs-{workload.name}"
    job_dir.mkdir(parents=True, exist_ok=True)
    times, failures, attempted = [], [], 0
    start = time.perf_counter()
    while attempted == 0 or time.perf_counter() - start < seconds:
        for stale in job_dir.iterdir():
            stale.unlink()
        argv = workload.argv(pseed, attempted, job_dir)
        attempted += 1
        try:
            if tracer is not None:
                tracer.start_job()
            try:
                code, elapsed, stdout, stderr = run_job(cli, argv)
            finally:
                if tracer is not None:
                    tracer.stop_job()
            times.append(elapsed)
            if code != 0:
                raise JobFailure(f"exit {code}: {stderr.strip()}")
            problems = workload.check(workload.read(job_dir, stdout), reference, pseed)
            if problems:
                raise JobFailure("; ".join(problems))
        except (Exception, SystemExit) as exc:  # every job outcome is counted, never fatal
            failures.append(f"job {attempted} {argv}: {type(exc).__name__}: {exc}")
    return times, attempted, failures


def p90(values: list[float]) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def end_to_end(cli, workload, pseed, seconds, setup_times):
    times, attempted, failures = run_closed_loop(cli, workload, pseed, seconds)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "job_s": (statistics.median(times), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} fresh interpreters",
        "job_s": f"median of {len(times)} jobs",
        "peak_rss_mb": "ru_maxrss of this process, which ran only this workload",
    }
    if len(times) >= P90_MIN_JOBS:
        notes["job_s"] += f"; 90th percentile {p90(times):.6g} s"
    return metrics, notes, attempted, failures


def per_layer(cli, workload, pseed, seconds, seed):
    from triqdd import circuits, ddseq, qmat, runner, spinsys
    work = workload.work()
    span_cost, pass_cost = tracing.calibrate()
    tracer = tracing.Tracer()
    tracer.install((cli, runner, ddseq, spinsys, qmat, circuits))
    try:
        times, attempted, failures = run_closed_loop(cli, workload, pseed, seconds, tracer)
    finally:
        tracer.uninstall()
    tracer.write(OUT_DIR / f"spans-{workload.name}-seed{seed}.csv")
    jobs = tracer.job_profiles()
    passes_per_job = sum(map(sum, tracer.passes)) / max(len(jobs), 1)

    def median_over_jobs(fn):
        return statistics.median(fn(job) for job in jobs) if jobs else 0.0

    def layer_self_s(job, layer):
        return sum(v[1] for k, v in job.items() if k.startswith(layer + ".")) / 1e9

    metrics = {}
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_s"] = (
            median_over_jobs(lambda job, layer=layer: layer_self_s(job, layer)), "s")
    unit_shots = work["work.unit_shots"]
    metrics["runner.ns_per_unit_shot"] = (
        metrics["runner.self_s"][0] * 1e9 / unit_shots if unit_shots else 0.0, "ns")
    for name, spans, field in PER_FUNCTION:
        value = median_over_jobs(
            lambda job, spans=spans, field=field: sum(job.get(s, (0, 0))[field] for s in spans))
        metrics[name] = (value / 1e9, "s") if field else (value, "count")
    spans_per_job = len(tracer) / max(len(jobs), 1)
    metrics["trace.job_s"] = (statistics.median(times), "s")
    metrics["trace.spans"] = (spans_per_job, "count")
    metrics["trace.overhead_s"] = (spans_per_job * span_cost + passes_per_job * pass_cost, "s")
    for name in WORK:
        metrics[name] = (work[name], "count")
    notes = {
        "trace.overhead_s": f"{spans_per_job:.0f} spans x {span_cost * 1e9:.0f} ns + "
                            f"{passes_per_job:.0f} inner calls x {pass_cost * 1e9:.0f} ns, "
                            "calibrated in this run",
        "trace.job_s": f"median of {len(times)} traced jobs",
    }
    return metrics, notes, attempted, failures


# -- entry point ---------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    pseed = program_seed(args.seed)
    try:
        warm.import_cli()  # refuse early, before any probe, when there is nothing to run
        setup_times = [] if args.trace else measure_setup(SETUP_PROBES)
        cli = warm.warm()
    except warm.MissingProgram as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    if args.trace:
        metrics, notes, attempted, failures = per_layer(cli, workload, pseed, args.seconds, args.seed)
    else:
        metrics, notes, attempted, failures = end_to_end(
            cli, workload, pseed, args.seconds, setup_times)

    why = workload_reasons()[workload.name]
    record = {"workload": workload.name, "why": why, "trace": args.trace,
              "provenance": provenance(args.seed, pseed), "attempted": attempted,
              "failed": len(failures), "failures": failures[:20],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    if args.trace:
        record["layer_map"] = [list(row) for row in LAYER_MAP]
    with open(OUT_DIR / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")

    print(f"workload {workload.name}: {why}")
    print(f"seed {args.seed} -> program seed {pseed}; provenance {json.dumps(record['provenance'])}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {value:.6g} {unit}{note}")
    print(f"error_rate = {len(failures)}/{attempted} = {len(failures) / attempted:.6g}")
    for failure in failures[:5]:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
