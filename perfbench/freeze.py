"""Freeze the outputs every benchmark job is checked against.

Runs each workload's job once per program seed (all the states, for tomo)
on the checkout's current code and writes perfbench/reference/<name>.json.
Only rerun this when the program's answers are meant to change.

    python3 perfbench/freeze.py grid star tomo
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

import warm
from workloads import REFERENCE_DIR, SEED_SPAN, WORKLOADS, run_job


def freeze(cli, workload) -> dict:
    from triqdd import circuits
    seeds, rows = {}, None
    scratch = warm.ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    for pseed in range(SEED_SPAN):
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            out_dir = Path(tmp)
            jobs = len(circuits.state_ids()) if workload.name == "tomo" else 1
            outputs = []
            for job in range(jobs):
                argv = workload.argv(pseed, job, out_dir)
                code, _, stdout, stderr = run_job(cli, argv)
                if code != 0:
                    raise SystemExit(f"{workload.name} {argv} exited {code}: {stderr}")
                outputs.append(workload.read(out_dir, stdout))
        if workload.name == "tomo":
            seeds[str(pseed)] = {o["state"]: o["fidelity"] for o in outputs}
            continue
        out = outputs[0]
        if rows is not None and out["rows"] != rows:
            raise SystemExit(f"{workload.name}: curve rows depend on the seed")
        rows = out.pop("rows")
        seeds[str(pseed)] = out
        print(f"froze {workload.name} seed {pseed}", file=sys.stderr)
    doc = {"seeds": seeds}
    if rows is not None:
        doc["rows"] = rows
    return doc


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="+", choices=sorted(WORKLOADS))
    args = parser.parse_args()
    cli = warm.warm()
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in args.names:
        doc = freeze(cli, WORKLOADS[name])
        with open(REFERENCE_DIR / f"{name}.json", "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
