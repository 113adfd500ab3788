"""The benchmark's workloads: job command lines, output checks, work counts.

A job is one `triqdd.cli.main(argv)` call, exactly what a user types after
`triqdd`. The workload seed reaches the program only through
`--set disorder.seed=<s>` and the `--seed` flags, where `s` is the workload
seed reduced modulo SEED_SPAN: the benchmark holds the outputs of this
commit frozen for each of those program seeds (see freeze.py), so every
job's output is checked against a known answer whatever seed is asked for.
"""

from __future__ import annotations

import csv
import io
import json
import re
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

SEED_SPAN = 8
BASELINE_SEED = 7  # the committed config's disorder seed, frozen in ordering_baseline.json
TOL = 5e-6  # on values in [0, 1]
TOL_PP = 5e-4  # on percentages, the same tolerance
GRID_FACTS = 44

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Which per-layer metric should move which end-to-end metric, on which workload.
LAYER_MAP = (
    ("runner.self_s, runner.ns_per_unit_shot", "job_s", "grid (dominant), star; not tomo"),
    ("runner.run_decay.calls", "none", "a fixed count on every workload"),
    ("spinsys.free_factors.calls, spinsys.free_factors.self_s", "job_s, peak_rss_mb",
     "star, grid"),
    ("spinsys.pulse_propagator.calls, spinsys.pulse_propagator.self_s", "job_s", "grid"),
    ("spinsys.apply_sequence.self_s", "job_s", "star only"),
    ("ddseq.self_s, ddseq.program.calls", "none measurable", "all"),
    ("qmat.assert_density_matrix.*, qmat.partial_trace.self_s, qmat.concurrence.*, "
     "qmat.fidelity.self_s", "job_s", "star, tomo"),
    ("circuits.tomography.*, circuits.prepare.self_s", "job_s", "tomo, slightly star"),
    ("cli.self_s", "job_s, setup_s", "tomo"),
    ("trace.overhead_s", "none", "tracing cost per job, all"),
)


def program_seed(seed: int) -> int:
    return seed % SEED_SPAN


def run_job(cli, argv: list[str]) -> tuple[int, float, str, str]:
    """One closed-loop job: (exit code, wall seconds of cli.main, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - t0
    return code, elapsed, out.getvalue(), err.getvalue()


# -- reading a job's outputs -------------------------------------------------

def _read_curves(path: Path) -> dict:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {
        "rows": [[r["state"], r["protocol"], r["sequence"], r["time_s"], r["kind"]]
                 for r in rows],
        "values": [float(r["value"]) for r in rows],
    }


def _read_decay(out_dir: Path) -> dict:
    doc = _read_curves(out_dir / "curves.csv")
    with open(out_dir / "summary.json") as fh:
        summary = json.load(fh)
    ordering = summary["ordering"]
    doc["all_pass"] = ordering["all_pass"]
    doc["facts"] = [[f["state"], f["lhs"], f["rhs"], f["verdict"], f["lhs_pct"], f["rhs_pct"]]
                    for f in ordering["facts"]]
    return doc


_FIDELITY_LINE = re.compile(r"^(\S+): reconstruction fidelity ([0-9.]+) ", re.MULTILINE)


def _read_tomo(stdout: str) -> dict:
    match = _FIDELITY_LINE.search(stdout)
    if match is None:
        raise ValueError(f"no fidelity line in tomo output {stdout!r}")
    return {"state": match.group(1), "fidelity": float(match.group(2))}


# -- checking them -----------------------------------------------------------

def _check_curves(out: dict, ref: dict) -> list[str]:
    if out["rows"] != ref["rows"]:
        for i, (a, b) in enumerate(zip(out["rows"], ref["rows"])):
            if a != b:
                return [f"curve row {i} is {a}, expected {b}"]
        return [f"{len(out['rows'])} curve rows, expected {len(ref['rows'])}"]
    worst, where = 0.0, None
    for i, (a, b) in enumerate(zip(out["values"], ref["values"])):
        if abs(a - b) > worst:
            worst, where = abs(a - b), i
    if worst > TOL:
        return [f"curve value {out['rows'][where]} off by {worst:.3g} (tolerance {TOL:g})"]
    return []


def _check_facts(out: dict, ref: dict) -> list[str]:
    problems = []
    if [f[:4] for f in out["facts"]] != [f[:4] for f in ref["facts"]]:
        problems.append("ordering facts or verdicts differ from the frozen run")
    for a, b in zip(out["facts"], ref["facts"]):
        for got, want in ((a[4], b[4]), (a[5], b[5])):
            if abs(got - want) > TOL_PP:
                problems.append(f"fact {a[:3]} reads {got:.6f} pp, frozen {want:.6f} pp")
    return problems


def _check_baseline(out: dict) -> list[str]:
    """Every cell of the package's own frozen baseline, read the package's way."""
    from triqdd import runner
    facts = {(f[0], tuple(f[1]), tuple(f[2])): f for f in out["facts"]}
    problems = []
    for fact in runner.load_baseline()["facts"]:
        got = facts.get((fact["state"], tuple(fact["lhs"]), tuple(fact["rhs"])))
        if got is None:
            problems.append(f"baseline fact {fact['state']} {fact['lhs']} missing")
            continue
        for pct, key in ((got[4], "oracle_lhs_pct"), (got[5], "oracle_rhs_pct")):
            if abs(pct - fact[key]) > TOL_PP:
                problems.append(f"baseline cell {fact['state']} {key} reads {pct:.6f}, "
                                f"frozen {fact[key]:.4f}")
    return problems


def check_grid(out: dict, ref: dict, pseed: int) -> list[str]:
    problems = _check_curves(out, ref) + _check_facts(out, ref)
    checked = [f for f in out["facts"] if f[3] != "n/a"]
    if not out["all_pass"] or len(checked) != GRID_FACTS:
        passed = sum(f[3] == "pass" for f in checked)
        problems.append(f"ordering facts {passed}/{len(checked)} pass, want {GRID_FACTS}/{GRID_FACTS}")
    if pseed == BASELINE_SEED:
        problems += _check_baseline(out)
    return problems


def check_star(out: dict, ref: dict, pseed: int) -> list[str]:
    return _check_curves(out, ref)


def check_tomo(out: dict, ref: dict, pseed: int) -> list[str]:
    want = ref.get(out["state"])
    if want is None:
        return [f"no frozen reconstruction for state {out['state']}"]
    if abs(out["fidelity"] - want) > TOL:
        return [f"{out['state']} fidelity {out['fidelity']:.6f}, frozen {want:.6f}"]
    return []


# -- work done per job, from public inputs -----------------------------------

def _walk_work(cycle, shots: int) -> tuple[int, int, int]:
    """(unit shots, pulse shots, grid points) of one pulsed curve on its default grid."""
    from triqdd import ddseq, runner
    unit = cycle.unit_duration
    grid = runner.default_time_grid(unit)
    units = round(grid[-1] / unit)
    pulses = len(ddseq.program(cycle, cycle.unit_cycles)[0])
    return units * shots, units * pulses * shots, len(grid)


def _shots() -> int:
    from triqdd import runner
    return runner.default_system().disorder.shots


def grid_work(families) -> dict:
    from triqdd import runner
    shots = _shots()
    work = {"work.curves": 0, "work.unit_shots": 0, "work.pulse_shots": 0, "work.tomo_solves": 0}
    for state in runner.TABLE_STATES:
        kind = runner.DESIGNATED_KIND[state]
        protos = [runner.default_protocol("FreeEv")]
        for family in families:
            protos.append(runner.default_protocol(kind, state, family))
            if kind != "DD3sp":
                protos.append(runner.default_protocol("DD3sp", state, family))
        for proto in protos:
            work["work.curves"] += 1
            cycle = runner.build_cycle(proto)
            if cycle is not None:
                unit_shots, pulse_shots, _ = _walk_work(cycle, shots)
                work["work.unit_shots"] += unit_shots
                work["work.pulse_shots"] += pulse_shots
    return work


def star_work() -> dict:
    from triqdd import runner
    shots = _shots()
    work = {"work.curves": 0, "work.unit_shots": 0, "work.pulse_shots": 0, "work.tomo_solves": 0}
    for pair in runner.STAR_PAIRS.values():
        cycle = runner.build_cycle(runner.star_protocol(pair))
        unit_shots, pulse_shots, points = _walk_work(cycle, shots)
        work["work.curves"] += 2  # protected, and free on the same grid
        work["work.unit_shots"] += unit_shots
        work["work.pulse_shots"] += pulse_shots
        work["work.tomo_solves"] += points  # the free curves skip the tomography readout
    return work


def tomo_work() -> dict:
    return {"work.curves": 0, "work.unit_shots": 0, "work.pulse_shots": 0, "work.tomo_solves": 1}


# -- the workloads -----------------------------------------------------------

def _decay_files(out_dir: Path) -> list[str]:
    return ["--out-csv", str(out_dir / "curves.csv"), "--out-json", str(out_dir / "summary.json")]


def _tomo_argv(pseed: int, job: int, out_dir: Path) -> list[str]:
    from triqdd import circuits
    states = circuits.state_ids()
    return ["tomo", states[job % len(states)], "--sigma", "0.01", "--seed", str(pseed)]


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Callable[[int, int, Path], list[str]]  # (program seed, job index, output dir)
    read: Callable[[Path, str], dict]  # (output dir, captured stdout) -> output
    check: Callable[[dict, dict, int], list[str]]  # (output, frozen output, program seed)
    work: Callable[[], dict]

    def reference(self) -> dict:
        """Frozen outputs by program seed; the curve rows are stored once for all seeds."""
        with open(REFERENCE_DIR / f"{self.name}.json") as fh:
            doc = json.load(fh)
        seeds = {int(s): out for s, out in doc["seeds"].items()}
        if "rows" in doc:
            for out in seeds.values():
                out["rows"] = doc["rows"]
        return seeds


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "grid",
            lambda s, i, d: ["decay", "--set", f"disorder.seed={s}"] + _decay_files(d),
            lambda d, out: _read_decay(d),
            check_grid,
            lambda: grid_work(("XY8", "UR12", "XY16", "KDD20")),
        ),
        Workload(
            "star",
            lambda s, i, d: ["star", "--free", "--prep", "nmr", "--tomo-sigma", "0.01",
                             "--seed", str(s), "--set", f"disorder.seed={s}",
                             "--out-csv", str(d / "curves.csv")],
            lambda d, out: _read_curves(d / "curves.csv"),
            check_star,
            star_work,
        ),
        Workload(
            "tomo",
            _tomo_argv,
            lambda d, out: _read_tomo(out),
            check_tomo,
            tomo_work,
        ),
    )
}
