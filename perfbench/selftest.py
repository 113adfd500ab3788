"""Self-test of the benchmark itself.

1. For every workload and program seed, the frozen outputs pass their own
   check, and the same outputs with one value moved by 1e-3 pp (1e-5 on a
   0-1 value) fail it.
2. In a directory that holds only BENCHMARK.json and perfbench/, run.py
   exits non-zero without printing a result.
3. With --runs, every workload runs at a non-default seed, untraced and
   traced, and must report correct with no failed job (about four minutes).

    python3 perfbench/selftest.py [--runs]
"""

import argparse
import copy
import json
import shutil
import subprocess
import sys
import tempfile

import warm
from workloads import TOL, TOL_PP, WORKLOADS

NUDGE = 1e-5  # 1e-3 pp on a value in [0, 1]
OTHER_SEED = 13


def perturbed(name: str, out: dict) -> list[tuple[str, dict]]:
    """Copies of one output, each with one value moved by 1e-3 pp."""
    if name == "tomo":
        state = sorted(out)[0]
        return [(f"fidelity of {state}", {"state": state, "fidelity": out[state] + NUDGE})]
    cases = []
    bad = copy.deepcopy(out)
    bad["values"][len(bad["values"]) // 2] += NUDGE
    cases.append(("a curve value", bad))
    if "facts" in out:
        bad = copy.deepcopy(out)
        bad["facts"][0][4] += 100 * NUDGE
        cases.append(("a fact percentage", bad))
    return cases


def check_frozen() -> list[str]:
    problems = []
    if NUDGE <= TOL or 100 * NUDGE <= TOL_PP:
        problems.append(f"a nudge of {NUDGE:g} sits inside the check tolerances")
    for name, workload in WORKLOADS.items():
        for pseed, ref in workload.reference().items():
            outputs = ([{"state": s, "fidelity": f} for s, f in ref.items()]
                       if name == "tomo" else [ref])
            for out in outputs:
                found = workload.check(out, ref, pseed)
                if found:
                    problems.append(f"{name} seed {pseed}: frozen output fails: {found}")
            for what, bad in perturbed(name, ref):
                if not workload.check(bad, ref, pseed):
                    problems.append(f"{name} seed {pseed}: moving {what} by 1e-3 pp passed")
    return problems


def check_refusal() -> list[str]:
    scratch = warm.ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        shutil.copy(warm.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(warm.ROOT / "perfbench", f"{tmp}/perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "tomo",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=tmp, capture_output=True, text=True, timeout=180)
    if done.returncode == 0 or done.stdout.strip():
        return [f"run.py without the program exited {done.returncode} "
                f"and printed {done.stdout!r}"]
    return []


def check_runs() -> list[str]:
    problems = []
    for name in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", name, "--seed",
                 str(OTHER_SEED), "--seconds", "1", "--trace", str(trace)],
                cwd=warm.ROOT, capture_output=True, text=True, timeout=180)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
            if result is None or not result["correct"] or result["failed"]:
                problems.append(f"{name} trace {trace} at seed {OTHER_SEED}: "
                                f"exit {done.returncode}, {lines[-6:] if lines else done.stderr}")
            else:
                print(f"ran {name} trace {trace} at seed {OTHER_SEED}: "
                      f"{result['attempted']} jobs, all correct", file=sys.stderr)
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", action="store_true",
                        help="also run every workload at a non-default seed")
    args = parser.parse_args()
    warm.import_cli()
    problems = check_frozen() + check_refusal()
    if args.runs:
        problems += check_runs()
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: " + ("failed" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
