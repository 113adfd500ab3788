"""Experiment protocols: decay curves, ordering reports, star protection.

A Protocol names what runs on which qubits: free evolution or a DD
family on one spin, on two as the m-modified pair cycle, or on all
three spins. Decay runs prepare a catalog state, evolve it over a
commensurate time grid, and record the state's tracked element
normalized to its starting value; star runs track the concurrence of
one reduced pair instead.

Free evolution records the element magnitude. Pulsed runs record the
echo amplitude in phase with the prepared element, floored at zero: a
sequence only counts as preserving the coherence if it actually returns
the element, so phase left behind by couplings the sequence fails to
refocus registers as loss. This is what separates the protocols. The
third-order element rides on no coupling (every pair product is equal
on both of its basis states), so pulsing all three spins protects it;
lower orders are coupling-sensitive, and survive only under sequences
that delete (single spin) or refocus (m-modified pair) the couplings
they feel, while the all-spin sequence leaves every coupling running.

Static disorder is handled by shot averaging: each shot draws per-spin
offset shifts once and keeps them for the whole evolution, the complex
states are averaged across shots, and only then are magnitudes or
concurrences taken. Shots are batched along the leading axis.

A repeat unit is compiled once per curve by spinsys.compile_program,
under the pulse-window convention and into the segment forms that the
spinsys docstring sets out, and walked unit by unit over the shot stack.
Free evolution alone is one factor stack per recorded time.

Reference percentages from the published tables are bundled as data and
used strictly for qualitative ordering checks (which protocol beats
which, by at least a margin); matching the printed numbers is a non-goal
because the hardware noise behind them is not parameterized anywhere.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources

import numpy as np

from . import circuits, ddseq, qmat, spinsys
from .qmat import InvariantError
from .spinsys import SpinSystem

GRID_T_MAX = 0.7
GRID_POINTS = 20
MARGIN_PP = 5.0

FAMILIES = ("XY8", "UR12", "XY16", "KDD20")
KINDS = ("FreeEv", "DD1sp", "DD3sp", "mDD2sp")
_KIND_TARGET_COUNT = {"DD1sp": 1, "mDD2sp": 2, "DD3sp": 3}

TABLE_STATES = ("psi0a", "psi0b", "psi1a", "psi1b", "psi2a", "psi2b", "psi3")
STAR_PAIRS = {"AC": (1, 3), "BC": (2, 3)}


@dataclass(frozen=True)
class Protocol:
    """What runs during the evolution: nothing, or a DD cycle on targets."""

    kind: str
    family: str | None = None
    tau: float | None = None
    t_p: float = 0.0
    targets: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown protocol kind '{self.kind}', expected one of {KINDS}")
        if self.kind == "FreeEv":
            if self.family is not None or self.targets:
                raise ValueError("FreeEv takes no family and no targets")
            return
        if self.family not in ddseq.known_families():
            raise ValueError(f"unknown family '{self.family}' for {self.kind}")
        if self.tau is None or self.tau <= 0:
            raise ValueError(f"{self.kind} needs a positive interpulse delay")
        if self.t_p < 0:
            raise ValueError("pulse width must be nonnegative")
        want = _KIND_TARGET_COUNT[self.kind]
        if len(self.targets) != want:
            raise ValueError(f"{self.kind} targets exactly {want} qubit(s), got {self.targets}")

    @property
    def sequence_label(self) -> str:
        if self.kind == "FreeEv":
            return "-"
        return ("m" + self.family) if self.kind == "mDD2sp" else self.family


def build_cycle(protocol: Protocol) -> ddseq.DDCycle | None:
    """The executable cycle behind a protocol, None for free evolution."""
    if protocol.kind == "FreeEv":
        return None
    cycle = ddseq.generate(protocol.family, protocol.tau, protocol.t_p, protocol.targets)
    if protocol.kind == "mDD2sp":
        cycle = ddseq.modify(cycle)
    return cycle


# -- committed defaults ----------------------------------------------------

@lru_cache(maxsize=1)
def default_system() -> SpinSystem:
    """The committed run configuration bundled with the package."""
    text = resources.files("triqdd").joinpath("data/default_run.cfg").read_text()
    return spinsys.system_from_text(text)


@lru_cache(maxsize=1)
def load_baseline() -> dict:
    """Golden ordering verdicts frozen from the committed default run."""
    return json.loads(
        resources.files("triqdd").joinpath("data/ordering_baseline.json").read_text())


@lru_cache(maxsize=1)
def delay_table() -> dict:
    return json.loads(
        resources.files("triqdd").joinpath("data/protocol_delays.json").read_text())


def _delay_row(block: dict, state_id: str | None, family: str):
    rows = block.get(state_id) or block.get("*")
    if rows is None or family not in rows:
        raise ValueError(f"no default delay for state {state_id!r}, family {family!r}")
    tau_ms, cycle_s = rows[family]
    return tau_ms * 1e-3, cycle_s


def _pulse_width(family: str, tau: float, cycle_s: float, modified: bool) -> float:
    n = len(ddseq.phase_tables()[family])
    slack = cycle_s - n * tau
    t_p = slack / (n + 1) if modified else slack / n
    if t_p < 0:
        raise ValueError(f"delay table row for {family} leaves negative pulse width")
    return t_p


def differing_qubits(state_id: str) -> tuple[int, ...]:
    """Qubits whose bit differs across the state's tracked element."""
    a, b = circuits.tracked_element(state_id)
    diff = a ^ b
    return tuple(q for q in (1, 2, 3) if diff & (1 << (3 - q)))


def default_protocol(kind: str, state_id: str | None = None, family: str = "XY8") -> Protocol:
    """Protocol with the committed delay, width, and target mapping."""
    if kind == "FreeEv":
        return Protocol("FreeEv")
    blocks = delay_table()["protocols"]
    if kind not in blocks:
        raise ValueError(f"no delay defaults for kind '{kind}'")
    tau, cycle_s = _delay_row(blocks[kind], state_id, family)
    t_p = _pulse_width(family, tau, cycle_s, modified=(kind == "mDD2sp"))
    if kind == "DD3sp":
        targets = (1, 2, 3)
    else:
        if state_id is None:
            raise ValueError(f"{kind} needs a state to pick its target qubits")
        targets = differing_qubits(state_id)
        if len(targets) != _KIND_TARGET_COUNT[kind]:
            raise ValueError(
                f"{state_id} exposes qubits {targets}, unusable for {kind}")
    return Protocol(kind, family, tau, t_p, targets)


def star_protocol(pair: tuple[int, int]) -> Protocol:
    """Committed mXY8 protocol for one star pair."""
    key = f"{pair[0]}-{pair[1]}"
    rows = delay_table()["star_pairs"]
    if key not in rows:
        raise ValueError(f"no star delay for pair {pair}, expected one of {sorted(rows)}")
    tau, cycle_s = _delay_row(rows, key, "XY8")
    t_p = _pulse_width("XY8", tau, cycle_s, modified=True)
    return Protocol("mDD2sp", "XY8", tau, t_p, tuple(pair))


# -- curves ----------------------------------------------------------------

@dataclass(frozen=True)
class DecayCurve:
    """One monitored quantity over a time grid under one protocol."""

    state: str
    protocol: Protocol
    kind: str  # "amplitude" or "concurrence"
    times: tuple[float, ...]
    values: tuple[float, ...]
    element: tuple[int, int] | None = None
    subsystem: str | None = None

    def __post_init__(self):
        if self.kind not in ("amplitude", "concurrence"):
            raise ValueError(f"unknown curve kind '{self.kind}'")
        if len(self.times) != len(self.values):
            raise ValueError("times and values length mismatch")
        if any(v < 0 for v in self.values):
            raise InvariantError("negative curve value")
        if (self.kind == "amplitude" and self.times and self.times[0] == 0.0
                and abs(self.values[0] - 1.0) > 1e-9):
            raise InvariantError("amplitude curve must start at 1")


def default_time_grid(unit: float | None, t_max: float = GRID_T_MAX,
                      points: int = GRID_POINTS) -> tuple[float, ...]:
    """Grid of `points` targets from 0 to t_max, snapped to whole units.

    Snapping can merge neighbors when the unit is coarse; the endpoints
    always survive. FreeEv (unit None) keeps the plain uniform grid.
    """
    if t_max < 0 or points < 2:
        raise ValueError("need t_max >= 0 and at least two grid points")
    if unit is None:
        return tuple(float(t) for t in np.linspace(0.0, t_max, points))
    total = ddseq.unit_count(t_max, unit, "repeat")
    counts = sorted(set(int(round(k)) for k in np.linspace(0, total, points)))
    return tuple(k * unit for k in counts)


def _disorder_shifts(sys: SpinSystem) -> np.ndarray:
    """Per-shot (8, 8) element frequency shifts; one zero shot without disorder."""
    if sys.disorder is None:
        return np.zeros((1, spinsys.DIM, spinsys.DIM))
    return spinsys.disorder_phase_rates(sys.disorder.draw())


def _record(avg: np.ndarray, element, keep):
    try:
        qmat.assert_density_matrix(avg)
    except ValueError as exc:
        raise InvariantError(f"recorded state is not a density matrix: {exc}") from exc
    if keep is not None:
        return qmat.concurrence(qmat.partial_trace(avg, keep))
    return complex(avg[element])


def _evolve_values(rho0, sys, cycle, times, element=None, keep=None,
                   tomo_sigma=None, tomo_seed=0):
    """Shot-averaged tracked values at the given times (DD or free)."""
    shifts = _disorder_shifts(sys)

    def finish(avg, index):
        if tomo_sigma is not None:
            avg = circuits.tomography(avg, sigma=tomo_sigma, seed=tomo_seed + index)
        return _record(avg, element, keep)

    if cycle is None:
        return [finish(rho0 * spinsys.free_factors(sys, t, shifts).mean(axis=0), i)
                for i, t in enumerate(times)]

    counts = [ddseq.unit_count(t, cycle.unit_duration, cycle.name) for t in times]
    plan = spinsys.compile_program(sys, *ddseq.program(cycle, cycle.unit_cycles), shifts)
    states = np.broadcast_to(rho0, (shifts.shape[0],) + rho0.shape).copy()
    values, applied = [], 0
    for i, k in enumerate(counts):
        while applied < k:
            states = spinsys.apply_program(states, plan)
            applied += 1
        values.append(finish(states.mean(axis=0), i))
    return values


def run_decay(state_id: str, protocol: Protocol, sys: SpinSystem,
              times=None) -> DecayCurve:
    """Prepare a catalog state and track its element under one protocol.

    Free evolution records the element magnitude: the deterministic line
    phase carries no decay information there. Pulsed protocols record the
    echo amplitude in phase with the prepared element, floored at zero. A
    sequence that refocuses everything returns the element exactly, so any
    residual phase, couplings to pulsed partners included, registers as
    loss, the way an unphased echo line loses absorption amplitude.
    """
    rho0 = circuits.prepare(state_id)
    element = circuits.tracked_element(state_id)
    cycle = build_cycle(protocol)
    if times is None:
        times = default_time_grid(None if cycle is None else cycle.unit_duration)
    times = tuple(sorted(set(float(t) for t in times)))
    raw = _evolve_values(rho0, sys, cycle, times, element=element)
    ref = complex(rho0[element])
    if protocol.kind == "FreeEv":
        values = tuple(abs(v) / abs(ref) for v in raw)
    else:
        unit = ref / abs(ref)
        values = tuple(max((v * unit.conjugate()).real, 0.0) / abs(ref) for v in raw)
    return DecayCurve(state_id, protocol, "amplitude", times, values, element=element)


def percent_at(curve: DecayCurve, t: float) -> float:
    """100 * C(t); t must sit on the curve's grid."""
    hit = np.nonzero(np.abs(np.asarray(curve.times) - t) <= ddseq.REPEAT_ATOL)[0]
    if not hit.size:
        shown = ", ".join(f"{x:.6g}" for x in curve.times[:8])
        raise ValueError(f"time {t} not on the curve grid ({shown}, ...)")
    return 100.0 * curve.values[int(hit[0])]


# -- table grid ------------------------------------------------------------

DESIGNATED_KIND = {"psi0a": "mDD2sp", "psi0b": "mDD2sp",
                   "psi1a": "DD1sp", "psi1b": "DD1sp",
                   "psi2a": "mDD2sp", "psi2b": "mDD2sp",
                   "psi3": "DD3sp"}


@dataclass(frozen=True)
class GridRun:
    """All decay curves of one table run plus their percents at t_eval."""

    curves: tuple[DecayCurve, ...]
    percents: dict = field(default_factory=dict)
    t_eval: float = GRID_T_MAX


def run_grid(sys: SpinSystem, families=None, states=TABLE_STATES,
             t_max: float = GRID_T_MAX, points: int = GRID_POINTS) -> GridRun:
    """FreeEv, the designated protocol, and DD3sp for every table state."""
    families = tuple(families) if families else FAMILIES
    unknown = [s for s in states if s not in TABLE_STATES]
    if unknown:
        raise ValueError(f"unknown table state(s) {unknown}, expected some of {TABLE_STATES}")
    curves, percents = [], {}
    for state_id in states:
        protos = [default_protocol("FreeEv")]
        for family in families:
            protos.append(default_protocol(DESIGNATED_KIND[state_id], state_id, family))
            if DESIGNATED_KIND[state_id] != "DD3sp":
                protos.append(default_protocol("DD3sp", state_id, family))
        for proto in protos:
            cycle = build_cycle(proto)
            unit = None if cycle is None else cycle.unit_duration
            curve = run_decay(state_id, proto, sys,
                              times=default_time_grid(unit, t_max, points))
            curves.append(curve)
            key = (state_id, proto.kind, proto.family)
            percents[key] = percent_at(curve, t_max)
    return GridRun(tuple(curves), percents, t_max)


# -- reference comparison --------------------------------------------------

@dataclass(frozen=True)
class ReferenceTable:
    """Published preservation percentages, for ordering checks only."""

    time_s: float
    blocks: tuple = ()

    def percent(self, state_id: str, row: str) -> float:
        for states, rows in self.blocks:
            if state_id in states:
                if row not in rows:
                    raise ValueError(f"reference table has no row '{row}' for {state_id}")
                return rows[row][states.index(state_id)]
        raise ValueError(f"reference table does not cover state '{state_id}'")

    def has(self, state_id: str, row: str) -> bool:
        try:
            self.percent(state_id, row)
            return True
        except ValueError:
            return False


@lru_cache(maxsize=1)
def load_reference() -> ReferenceTable:
    doc = json.loads(
        resources.files("triqdd").joinpath("data/reference_percentages.json").read_text())
    blocks = []
    for name in ("zero_and_second_order", "first_and_third_order"):
        block = doc[name]
        blocks.append((tuple(block["states"]), block["rows"]))
    return ReferenceTable(doc["time_s"], tuple(blocks))


def _reference_row(kind: str, family: str | None) -> str:
    if kind == "FreeEv":
        return "FreeEv"
    return ("m" + family) if kind == "mDD2sp" else family


@dataclass(frozen=True)
class FactCheck:
    """One simulated ordering claim with its verdict and published context."""

    state: str
    label: str
    lhs: tuple
    rhs: tuple
    lhs_pct: float
    rhs_pct: float
    margin_pp: float
    verdict: str  # "pass", "fail", "n/a"
    published_lhs: float | None = None
    published_rhs: float | None = None


def fact_check(percents: dict, state_id: str, lhs: tuple, rhs: tuple,
               table: ReferenceTable | None = None) -> FactCheck:
    """Does protocol lhs beat protocol rhs for this state by the margin.

    lhs/rhs are (kind, family) with family None for FreeEv. Comparing a
    protocol against itself is not an ordering claim and returns "n/a".
    """
    label = f"{lhs[0]}>{rhs[0]}"
    if lhs == rhs:
        return FactCheck(state_id, label, lhs, rhs,
                         percents[(state_id,) + lhs], percents[(state_id,) + rhs],
                         0.0, "n/a")
    missing = [(state_id,) + side for side in (lhs, rhs)
               if (state_id,) + side not in percents]
    if missing:
        raise ValueError(f"results grid is missing cells: {missing}")
    lhs_pct = percents[(state_id,) + lhs]
    rhs_pct = percents[(state_id,) + rhs]
    margin = lhs_pct - rhs_pct
    verdict = "pass" if margin >= MARGIN_PP else "fail"
    published = [None, None]
    if table is not None:
        for i, side in enumerate((lhs, rhs)):
            # a family row only speaks for the state's designated protocol
            if side[0] not in ("FreeEv", DESIGNATED_KIND.get(state_id)):
                continue
            row = _reference_row(*side)
            if table.has(state_id, row):
                published[i] = table.percent(state_id, row)
    return FactCheck(state_id, label, lhs, rhs, lhs_pct, rhs_pct,
                     margin, verdict, published[0], published[1])


@dataclass(frozen=True)
class OrderingReport:
    facts: tuple[FactCheck, ...]
    margin_pp: float = MARGIN_PP

    @property
    def all_pass(self) -> bool:
        return all(f.verdict == "pass" for f in self.facts if f.verdict != "n/a")

    def to_dict(self) -> dict:
        return {
            "margin_pp": self.margin_pp,
            "all_pass": self.all_pass,
            "facts": [
                {"state": f.state, "fact": f.label,
                 "lhs": list(f.lhs), "rhs": list(f.rhs),
                 "lhs_pct": f.lhs_pct, "rhs_pct": f.rhs_pct,
                 "margin_pp": f.margin_pp, "verdict": f.verdict,
                 "published_lhs": f.published_lhs, "published_rhs": f.published_rhs}
                for f in self.facts
            ],
        }


def ordering_facts(families=FAMILIES):
    """The committed qualitative claims, per family: (state, lhs, rhs)."""
    free = ("FreeEv", None)
    out = []
    for family in families:
        out.append(("psi3", ("DD3sp", family), free))
        for state_id in ("psi1a", "psi1b"):
            out.append((state_id, ("DD1sp", family), free))
            out.append((state_id, ("DD1sp", family), ("DD3sp", family)))
        for state_id in ("psi2a", "psi2b"):
            out.append((state_id, ("mDD2sp", family), free))
            out.append((state_id, ("mDD2sp", family), ("DD3sp", family)))
        for state_id in ("psi0a", "psi0b"):
            out.append((state_id, ("mDD2sp", family), ("DD3sp", family)))
    return tuple(out)


def compare_to_reference(percents: dict, families=FAMILIES,
                         states=TABLE_STATES) -> OrderingReport:
    """Check the committed ordering facts on the given states against a results grid."""
    table = load_reference()
    return OrderingReport(tuple(
        fact_check(percents, state_id, lhs, rhs, table)
        for state_id, lhs, rhs in ordering_facts(families) if state_id in states))


# -- star pair protection --------------------------------------------------

def star_protection(sys: SpinSystem, times=None, protected: bool = True,
                    prep: str = "ideal", tomo_sigma: float | None = None,
                    seed: int = 0, t_max: float = GRID_T_MAX,
                    points: int = GRID_POINTS) -> dict[str, DecayCurve]:
    """Concurrence curves of both reduced star pairs, protected or free.

    Each pair is its own experiment: mXY8 (or nothing) runs on
    that pair while the third spin rides along and is traced out. The
    free-evolution variant keeps the protected run's time grid so the
    two can be compared point by point. times may be one grid for both
    pairs or a {"AC": ..., "BC": ...} mapping. tomo_sigma, when given,
    routes every recorded state through the tomography pipeline first.
    """
    if prep not in ("ideal", "nmr"):
        raise ValueError(f"unknown preparation '{prep}', expected 'ideal' or 'nmr'")
    rho0 = circuits.prepare("star") if prep == "ideal" else circuits.prepare_star_nmr(sys)
    out = {}
    for name, pair in STAR_PAIRS.items():
        proto = star_protocol(pair)
        cycle = build_cycle(proto)
        grid = times.get(name) if isinstance(times, dict) else times
        if grid is None:
            grid = default_time_grid(cycle.unit_duration, t_max, points)
        grid = tuple(sorted(set(float(t) for t in grid)))
        run_proto, run_cycle = (proto, cycle) if protected else (Protocol("FreeEv"), None)
        values = _evolve_values(rho0, sys, run_cycle, grid, keep=list(pair),
                                tomo_sigma=tomo_sigma, tomo_seed=seed)
        out[name] = DecayCurve("star", run_proto, "concurrence", grid,
                               tuple(values), subsystem=name)
    return out


# -- emission --------------------------------------------------------------

def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def write_curves_csv(curves, path) -> None:
    """Plot-ready rows: state,protocol,sequence,time_s,value,kind."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["state", "protocol", "sequence", "time_s", "value", "kind"])
        for curve in curves:
            seq = curve.protocol.sequence_label
            for t, v in zip(curve.times, curve.values):
                w.writerow([curve.state, curve.protocol.kind, seq,
                            _fmt(t), _fmt(v), curve.kind])


def grid_summary(run: GridRun, report: OrderingReport,
                 config_echo: dict | None = None) -> dict:
    """JSON-ready summary: per-state percents plus the ordering report."""
    percents: dict[str, dict] = {}
    for (state_id, kind, family), pct in sorted(run.percents.items(),
                                                key=lambda kv: repr(kv[0])):
        label = kind if family is None else f"{kind}/{family}"
        percents.setdefault(state_id, {})[label] = pct
    return {
        "time_s": run.t_eval,
        "config": config_echo or {},
        "percents": percents,
        "ordering": report.to_dict(),
    }


def write_summary_json(summary: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
