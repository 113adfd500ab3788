"""Set-up shared by every benchmark process: find the package, warm its tables.

Run as a script, this is the set-up probe: a fresh interpreter imports
`triqdd.cli` from the checkout, resolves the committed config and fills
every lazy table, then exits. The benchmark times it from outside, so the
figure includes interpreter start and the numpy/scipy imports a user pays.

    python3 perfbench/warm.py
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingProgram(Exception):
    """The checkout holds no triqdd sources to benchmark."""


def import_cli():
    """Import triqdd.cli from this checkout's src/, never from elsewhere."""
    if not (SRC / "triqdd" / "__init__.py").is_file():
        raise MissingProgram(f"no triqdd package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from triqdd import cli
    if Path(cli.__file__).resolve().parent != SRC / "triqdd":
        raise MissingProgram(f"triqdd imported from {cli.__file__}, not from {SRC}")
    return cli


def warm():
    """Resolve the committed config and fill the lazy tables; return cli."""
    cli = import_cli()
    from triqdd import circuits, ddseq, runner
    cli.resolve_system(cli.build_parser().parse_args(["decay"]))
    runner.default_system()
    runner.delay_table()
    runner.load_baseline()
    runner.load_reference()
    ddseq.phase_tables()
    circuits._design_matrix()
    return cli


if __name__ == "__main__":
    try:
        warm()
    except MissingProgram as exc:
        print(f"warm: {exc}", file=sys.stderr)
        sys.exit(2)
