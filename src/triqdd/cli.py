"""Command-line front end: run the simulator from configs, emit artifacts.

Every experiment command resolves its spin system the same way: the
committed run configuration unless --config points at a file, then any
--set section.key=value overrides on top. Artifacts (CSV, JSON) are
deterministic for a fixed config and seed.

Exit codes: 0 success, 2 config problem, 3 physics invariant violation.
"""

import argparse
import json
import sys
from importlib import resources

from . import circuits, ddseq, qmat, runner, spinsys


# -- config plumbing -------------------------------------------------------

def _merge_overrides(cfg: dict, pairs) -> dict:
    for raw in pairs:
        head, sep, value = raw.partition("=")
        section, dot, key = head.strip().partition(".")
        if not sep or not dot or not section or not key or not value.strip():
            raise spinsys.ConfigError(
                f"override '{raw}' is not of the form section.key=value")
        cfg.setdefault(section, {})[key.strip()] = value.strip()
    return cfg


def resolve_system(args) -> tuple[spinsys.SpinSystem, dict]:
    """(system, merged config sections) from --config/--set, or committed."""
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = resources.files("triqdd").joinpath("data/default_run.cfg").read_text()
    cfg = _merge_overrides(spinsys.read_ini(text), getattr(args, "set", None) or [])
    return spinsys.system_from_mapping(cfg), cfg


def _add_system_flags(sub):
    sub.add_argument("--config", metavar="PATH",
                     help="spin-system config file (default: the committed run config)")
    sub.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                     help="override one config entry, repeatable")


def _parse_families(raw: str | None) -> tuple[str, ...]:
    if not raw:
        return runner.FAMILIES
    return tuple(p.strip() for p in raw.split(",") if p.strip())


def _parse_targets(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in raw.replace(",", " ").split())
    except ValueError:
        raise spinsys.ConfigError(f"bad target list '{raw}', want e.g. 1,2") from None


# -- orders ----------------------------------------------------------------

def cmd_orders(args) -> int:
    m = qmat.coherence_order_matrix()
    labels = [f"|{b:03b}>" for b in range(m.shape[0])]
    print("      " + "".join(f"{lab:>6}" for lab in labels))
    for lab, row in zip(labels, m):
        cells = "".join(f"{f'{v:+d}' if v else '0':>6}" for v in row)
        print(f"{lab:>6}{cells}")
    return 0


# -- sequences -------------------------------------------------------------

def _build_named_cycle(args) -> ddseq.DDCycle:
    targets = _parse_targets(args.targets)
    if args.family.startswith("CPMG"):
        cycle = ddseq.generate_cpmg(int(args.family[4:] or 1), args.tau, args.tp, targets)
    else:
        cycle = ddseq.generate(args.family, args.tau, args.tp, targets)
    if args.modified:
        cycle = ddseq.modify(cycle, slot=args.slot)
    return cycle


def cmd_sequences(args) -> int:
    cycle = _build_named_cycle(args)
    doc = ddseq.cycle_to_json(cycle)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {cycle.name} program to {args.json}")
        return 0
    unit = f"{cycle.unit_cycles} cycle" + ("s" if cycle.unit_cycles > 1 else "")
    print(f"{cycle.name} on qubits {','.join(map(str, cycle.targets))}: "
          f"{len(doc['events'])} pulses per {unit}, tau {cycle.tau:g} s, "
          f"t_p {cycle.t_p:g} s, unit {doc['duration_s']:g} s")
    print(f"{'#':>4} {'t_s':>12} {'dur_s':>10} {'targets':>8} {'phase_deg':>10} {'flip_deg':>9}")
    for i, ev in enumerate(doc["events"], 1):
        print(f"{i:>4} {ev['t_s']:>12.8f} {ev['dur_s']:>10.2g} "
              f"{','.join(map(str, ev['targets'])):>8} "
              f"{ev['phase_deg']:>10.6g} {ev['flip_deg']:>9.6g}")
    return 0


# -- prepare ---------------------------------------------------------------

def cmd_prepare(args) -> int:
    rho = circuits.prepare(args.state)
    doc = {"state": args.state, "rho": qmat.rho_to_json(rho)}
    try:
        doc["tracked_element"] = list(circuits.tracked_element(args.state))
        doc["element_label"] = circuits.element_label(args.state)
    except (KeyError, ValueError):
        pass  # catalog entries without a tracked element stay bare
    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.state} to {args.json}")
    else:
        print(text)
    return 0


# -- decay and protect -----------------------------------------------------

def cmd_decay(args) -> int:
    sys_, cfg = resolve_system(args)
    states = tuple(args.state) if args.state else runner.TABLE_STATES
    families = _parse_families(args.families)
    run = runner.run_grid(sys_, families, states, args.t_max, args.points)
    report = runner.compare_to_reference(run.percents, families, states)
    runner.write_curves_csv(run.curves, args.out_csv)
    runner.write_summary_json(runner.grid_summary(run, report, cfg), args.out_json)
    print(f"wrote {len(run.curves)} decay curves to {args.out_csv}")
    print(f"wrote summary ({len(report.facts)} ordering facts, "
          f"all_pass={report.all_pass}) to {args.out_json}")
    return 0


def _fact_line(f) -> str:
    lhs = f"{f.lhs[0]}" + (f"/{f.lhs[1]}" if f.lhs[1] else "")
    rhs = f"{f.rhs[0]}" + (f"/{f.rhs[1]}" if f.rhs[1] else "")
    line = (f"{f.state:>6}  {lhs:<12} {f.lhs_pct:6.2f}  vs  {rhs:<12} "
            f"{f.rhs_pct:6.2f}  margin {f.margin_pp:6.2f}pp  {f.verdict}")
    if f.published_lhs is not None and f.published_rhs is not None:
        line += f"  (published {f.published_lhs:g} vs {f.published_rhs:g})"
    return line


def cmd_protect(args) -> int:
    sys_, cfg = resolve_system(args)
    families = _parse_families(args.families)
    run = runner.run_grid(sys_, families)
    report = runner.compare_to_reference(run.percents, families)
    for f in report.facts:
        print(_fact_line(f))
    checked = [f for f in report.facts if f.verdict != "n/a"]
    passed = sum(f.verdict == "pass" for f in checked)
    print(f"ordering: {passed}/{len(checked)} pass "
          f"(margin >= {report.margin_pp:g}pp at t = {run.t_eval:g} s)")
    if args.out_json:
        runner.write_summary_json(runner.grid_summary(run, report, cfg), args.out_json)
        print(f"wrote summary to {args.out_json}")
    return 0


# -- star ------------------------------------------------------------------

def cmd_star(args) -> int:
    sys_, _ = resolve_system(args)
    curves = runner.star_protection(sys_, prep=args.prep, tomo_sigma=args.tomo_sigma,
                                    seed=args.seed, t_max=args.t_max, points=args.points)
    rows = [curves["AC"], curves["BC"]]
    if args.free:
        free = runner.star_protection(
            sys_, times={n: c.times for n, c in curves.items()},
            protected=False, prep=args.prep)
        rows += [free["AC"], free["BC"]]
    runner.write_curves_csv(rows, args.out_csv)
    for name in ("AC", "BC"):
        c = curves[name]
        print(f"pair {name}: concurrence {c.values[0]:.4f} at t=0, "
              f"{c.values[-1]:.4f} at t={c.times[-1]:g} s")
    print(f"wrote {len(rows)} concurrence curves to {args.out_csv}")
    return 0


# -- tomo ------------------------------------------------------------------

def cmd_tomo(args) -> int:
    rho = circuits.prepare(args.state)
    rec = circuits.tomography(rho, sigma=args.sigma, seed=args.seed, scans=args.scans)
    fid = qmat.fidelity(rec, rho)
    print(f"{args.state}: reconstruction fidelity {fid:.6f} "
          f"(sigma={args.sigma:g}, seed={args.seed}, scans={args.scans})")
    if args.json:
        doc = {"state": args.state, "sigma": args.sigma, "seed": args.seed,
               "scans": args.scans, "fidelity": fid, "rho": qmat.rho_to_json(rec)}
        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote reconstruction to {args.json}")
    return 0


# -- config-reference ------------------------------------------------------

def cmd_config_reference(args) -> int:
    print("Config keys and their built-in defaults; every key may be omitted.")
    section = None
    for sec, key, _, _, default, doc in spinsys.CONFIG_KEYS:
        if sec != section:
            print(f"\n[{sec}]")
            section = sec
        print(f"  {key:<24} = {default:<14} {doc}")
    print("\nFlag overrides: --set section.key=value (repeatable) wins over the file.")
    print("Without --config, experiment commands run the committed configuration:\n")
    print(resources.files("triqdd").joinpath("data/default_run.cfg").read_text().rstrip())
    return 0


# -- parser ----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triqdd",
        description="Three-spin coherence-order protection simulator.")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("orders", help="print the 8x8 coherence-order matrix")
    sub.set_defaults(func=cmd_orders)

    sub = subs.add_parser("sequences", help="print or export one decoupling cycle")
    sub.add_argument("family", help="XY4/XY8/XY16/UR12/KDD20, or CPMGn")
    sub.add_argument("--tau", type=float, default=0.5e-3, help="interpulse delay, s")
    sub.add_argument("--tp", type=float, default=0.0, help="pulse width, s")
    sub.add_argument("--targets", default="1,2,3", help="pulsed qubits, e.g. 1,2")
    sub.add_argument("--modified", action="store_true",
                     help="passive/doubled pair variant (needs two targets)")
    sub.add_argument("--slot", type=int, default=None, help="modification slot index")
    sub.add_argument("--json", metavar="PATH", help="export the timed-event program")
    sub.set_defaults(func=cmd_sequences)

    sub = subs.add_parser("prepare", help="print or export a prepared state")
    sub.add_argument("state", help="catalog id, e.g. psi1a or star")
    sub.add_argument("--json", metavar="PATH", help="write the state document here")
    sub.set_defaults(func=cmd_prepare)

    sub = subs.add_parser("decay", help="run the decay grid, write CSV and JSON")
    _add_system_flags(sub)
    sub.add_argument("--state", action="append", metavar="ID",
                     help="restrict to this state, repeatable (default: all seven)")
    sub.add_argument("--families", metavar="LIST", help="comma list (default: all four)")
    sub.add_argument("--t-max", type=float, default=runner.GRID_T_MAX)
    sub.add_argument("--points", type=int, default=runner.GRID_POINTS)
    sub.add_argument("--out-csv", default="decay_curves.csv")
    sub.add_argument("--out-json", default="decay_summary.json")
    sub.set_defaults(func=cmd_decay)

    sub = subs.add_parser("protect", help="check the protection orderings")
    _add_system_flags(sub)
    sub.add_argument("--families", metavar="LIST", help="comma list (default: all four)")
    sub.add_argument("--out-json", metavar="PATH", help="also write the summary here")
    sub.set_defaults(func=cmd_protect)

    sub = subs.add_parser("star", help="pair concurrences of the star state under mXY8")
    _add_system_flags(sub)
    sub.add_argument("--free", action="store_true", help="also emit free-evolution curves")
    sub.add_argument("--prep", default="ideal", choices=("ideal", "nmr"))
    sub.add_argument("--tomo-sigma", type=float, default=None,
                     help="route readout through tomography at this noise level")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--t-max", type=float, default=runner.GRID_T_MAX)
    sub.add_argument("--points", type=int, default=runner.GRID_POINTS)
    sub.add_argument("--out-csv", default="star_curves.csv")
    sub.set_defaults(func=cmd_star)

    sub = subs.add_parser("tomo", help="reconstruct a prepared state from readout")
    sub.add_argument("state", help="catalog id, e.g. psi1a or star")
    sub.add_argument("--sigma", type=float, default=0.0, help="readout noise level")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--scans", type=int, default=32)
    sub.add_argument("--json", metavar="PATH", help="write the reconstruction here")
    sub.set_defaults(func=cmd_tomo)

    sub = subs.add_parser("config-reference", help="document every config key")
    sub.set_defaults(func=cmd_config_reference)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except qmat.InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except (spinsys.ConfigError, ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
