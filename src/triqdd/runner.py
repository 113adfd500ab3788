"""Experiment protocols: decay curves, ordering reports, star protection.

A Protocol names what runs on which qubits: free evolution (no family),
or a DD family's cycle on a set of targets, plain or, on a pair, the
m-modified cycle. Its kind is read off what it pulses: FreeEv, DD1sp,
DD2sp, mDD2sp or DD3sp. Decay runs prepare a catalog state, evolve it over a
commensurate time grid, and record the state's tracked element
normalized to its starting value; star runs track the concurrence of
each reduced pair instead, from one preparation of the star state.

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

Static disorder is averaged over shots: each shot keeps its offset
shifts for the whole evolution, and magnitudes or concurrences are taken
from the shot-averaged states. The shots are drawn once per model
(DisorderModel.draw), so the protocols of a run share them. Refocusing is
the sequence's, read per element: an element whose two levels share
their zero-frequency filter function in every frame of the walk records
without the shots, whatever the draw and whatever states walk beside it,
and a walk takes the shots only for the elements its states occupy that
are not refocused (spinsys.walk). With ideal pulses
every DD walk of the grid refocuses all it occupies, so only free
evolution and the star pairs, whose third spin rides along unpulsed,
take the shots.

Every amplitude curve is a cell, a (state, protocol) pair, read by
run_cells: it prepares each distinct state once and walks each distinct
protocol once, one spinsys.walk that steps all the states the protocol
serves as one stack. run_grid is the table's cells through it (free
evolution and each all-spin family serve all seven states), and run_decay
is one cell. A star run walks once per pair and once per distinct grid
for free evolution.

A protocol's schedule, its time grid, its repeat unit's pulse program and
the steps between recorded times, depends on the protocol and the grid
arguments alone, never on the system, so it is built once per process:
build_cycle, default_protocol, default_time_grid and the record steps
are kept in memos of SCHEDULE_CACHE_SIZE entries each, keyed by frozen
values, and each cycle keeps its unit program
(ddseq.DDCycle.unit_program). A call that fails keeps nothing.
Nothing that depends on the system, the disorder draw or a seed is kept.

Reference percentages from the published tables are bundled as data and
used strictly for qualitative ordering checks (which protocol beats
which, by at least a margin); matching the printed numbers is a non-goal
because the hardware noise behind them is not parameterized anywhere.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from types import MappingProxyType

import numpy as np

from . import circuits, ddseq, qmat, spinsys
from .qmat import InvariantError
from .spinsys import SpinSystem

GRID_T_MAX = 0.7
GRID_POINTS = 20
MARGIN_PP = 5.0
SCHEDULE_CACHE_SIZE = 128  # cycles, time grids, record steps and default protocols kept per process

FAMILIES = ("XY8", "UR12", "XY16", "KDD20")
# what every table state runs beside its designated protocol, and what that must beat
FREE_KIND, ALL_SPIN_KIND = "FreeEv", "DD3sp"

TABLE_STATES = ("psi0a", "psi0b", "psi1a", "psi1b", "psi2a", "psi2b", "psi3")
# the committed order of each family's ordering facts
FACT_STATES = ("psi3", "psi1a", "psi1b", "psi2a", "psi2b", "psi0a", "psi0b")
STAR_PAIRS = {"AC": (1, 3), "BC": (2, 3)}


def _kind(targets, modified) -> str:
    """The one naming rule: FreeEv with no targets, else DDnsp on n targets, m when modified."""
    return f"{'m' if modified else ''}DD{len(targets)}sp" if targets else FREE_KIND


@dataclass(frozen=True)
class Protocol:
    """What runs during the evolution: nothing (no family), or a DD cycle on targets.

    A protocol checks its own rules (free evolution takes nothing, a cycle
    needs a delay) and then builds its cycle, which checks the cycle's.
    """

    family: str | None = None
    tau: float | None = None
    t_p: float = 0.0
    targets: tuple[int, ...] = ()
    modified: bool = False

    def __post_init__(self):
        if self.family is None:
            if (self.tau, self.t_p, self.targets, self.modified) != (None, 0.0, (), False):
                raise ValueError("free evolution takes no delay, width, targets or modification")
        elif self.tau is None:
            raise ValueError(f"{self.family} needs an interpulse delay")
        build_cycle(self)

    @property
    def kind(self) -> str:
        return _kind(self.targets, self.modified)

    @property
    def sequence_label(self) -> str:
        return "-" if self.family is None else build_cycle(self).name


@lru_cache(maxsize=SCHEDULE_CACHE_SIZE)
def build_cycle(protocol: Protocol) -> ddseq.DDCycle | None:
    """The executable cycle behind a protocol, None for free evolution; built once per process."""
    if protocol.family is None:
        return None
    cycle = ddseq.generate(protocol.family, protocol.tau, protocol.t_p, protocol.targets)
    return ddseq.modify(cycle) if protocol.modified else cycle


# -- committed defaults ----------------------------------------------------

@lru_cache(maxsize=1)
def default_config_text() -> str:
    """The committed run configuration bundled with the package, as text."""
    return resources.files("triqdd").joinpath("data/default_run.cfg").read_text()


@lru_cache(maxsize=1)
def default_config() -> MappingProxyType:
    """The committed run configuration's sections, parsed once; read-only, as callers share it."""
    return MappingProxyType({section: MappingProxyType(entries) for section, entries
                             in spinsys.read_ini(default_config_text()).items()})


@lru_cache(maxsize=1)
def default_system() -> SpinSystem:
    """The committed run configuration bundled with the package."""
    return spinsys.system_from_mapping(default_config())


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


def differing_qubits(state_id: str) -> tuple[int, ...]:
    """Qubits whose bit differs across the state's tracked element."""
    a, b = circuits.tracked_element(state_id)
    return tuple(q for q in (1, 2, 3) if spinsys.bit(a, q) != spinsys.bit(b, q))


@lru_cache(maxsize=SCHEDULE_CACHE_SIZE)
def default_protocol(kind: str, state_id: str | None = None, family: str = "XY8") -> Protocol:
    """Protocol with the committed delay, width, and target mapping; built once per process.

    DD3sp pulses all three spins, any other kind the qubits the state's
    tracked element differs on, and they must make that kind.
    """
    if kind == FREE_KIND:
        return Protocol()
    blocks = delay_table()["protocols"]
    if kind not in blocks:
        raise ValueError(f"no delay defaults for kind '{kind}'")
    tau, cycle_s = _delay_row(blocks[kind], state_id, family)
    modified = kind == "mDD2sp"
    if kind == ALL_SPIN_KIND:
        targets = (1, 2, 3)
    elif state_id is None:
        raise ValueError(f"{kind} needs a state to pick its target qubits")
    else:
        targets = differing_qubits(state_id)
    if _kind(targets, modified) != kind:
        raise ValueError(f"{kind} does not fit {state_id}: its element differs on qubits {targets}")
    t_p = ddseq.pulse_width(family, tau, cycle_s, modified)
    return Protocol(family, tau, t_p, targets, modified)


def star_protocol(pair: tuple[int, int]) -> Protocol:
    """Committed mXY8 protocol for one star pair."""
    key = f"{pair[0]}-{pair[1]}"
    rows = delay_table()["star_pairs"]
    if key not in rows:
        raise ValueError(f"no star delay for pair {pair}, expected one of {sorted(rows)}")
    tau, cycle_s = _delay_row(rows, key, "XY8")
    t_p = ddseq.pulse_width("XY8", tau, cycle_s, modified=True)
    return Protocol("XY8", tau, t_p, tuple(pair), modified=True)


# -- curves ----------------------------------------------------------------

@dataclass(frozen=True)
class DecayCurve:
    """One monitored quantity over a time grid under one protocol."""

    state: str
    protocol: Protocol
    kind: str  # "amplitude" or "concurrence"
    times: tuple[float, ...]
    values: tuple[float, ...]

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


@lru_cache(maxsize=SCHEDULE_CACHE_SIZE)
def default_time_grid(unit: float | None, t_max: float = GRID_T_MAX,
                      points: int = GRID_POINTS) -> tuple[float, ...]:
    """Grid of `points` targets from 0 to t_max, snapped to whole units; built once per process.

    Snapping can merge neighbors when the unit is coarse; the endpoints
    always survive. FreeEv (unit None) keeps the plain uniform grid. Either
    grid is sorted and distinct, so t_max 0 is the one time 0.
    """
    if not 0 <= t_max < np.inf or points < 2:
        raise ValueError(f"need a finite t_max >= 0 and at least two grid points, "
                         f"got t_max {t_max}, points {points}")
    if unit is None:
        return tuple(dict.fromkeys(np.linspace(0.0, t_max, points).tolist()))
    total = ddseq.unit_count(t_max, unit, "repeat")
    if total > np.iinfo(np.int64).max:
        raise ValueError(f"t_max {t_max:g} s is {float(total):.3g} repeat units of "
                         f"{unit:.6g} s, more than a time grid can count")
    counts = sorted({round(k) for k in np.linspace(0, total, points).tolist()})
    return tuple(k * unit for k in counts)


@lru_cache(maxsize=SCHEDULE_CACHE_SIZE)
def _record_steps(unit: float | None, name: str | None, times: tuple) -> tuple:
    """A walk's steps to sorted, distinct times: the free gaps (unit None) or the
    whole-unit count increments of the named unit; built once per process."""
    if unit is None:
        return tuple(np.diff(times, prepend=0.0).tolist())
    counts = [ddseq.unit_count(t, unit, name) for t in times]
    return tuple(np.diff(counts, prepend=0).tolist())


def _walk(sys, cycle, times, rho0s) -> np.ndarray:
    """spinsys.walk of n states to T sorted, distinct times (a tuple), (n, T, 8, 8).

    Free evolution (cycle None) steps the gaps between the times; DD steps
    the cycle's repeat unit by the unit-count increments.
    """
    if cycle is None:
        return spinsys.walk(sys, None, _record_steps(None, None, times), rho0s)
    return spinsys.walk(sys, cycle.unit_program,
                        _record_steps(cycle.unit_duration, cycle.name, times), rho0s)


def run_cells(sys: SpinSystem, cells, t_max: float = GRID_T_MAX, points: int = GRID_POINTS,
              times=None) -> tuple[DecayCurve, ...]:
    """One amplitude curve per (state_id, Protocol) cell of a sequence, in cell order.

    Each distinct state is prepared once, and each distinct protocol is
    walked once over all the distinct states its cells name, so a repeated
    cell reads the same curve. Times default to each protocol's own grid
    (default_time_grid of t_max and points); given times are sorted and
    deduplicated, and every protocol records at them.
    """
    prepared = {state_id: circuits.prepare(state_id)
                for state_id in dict.fromkeys(state_id for state_id, _ in cells)}
    users: dict[Protocol, dict[str, None]] = {}  # FreeEv and DD3sp serve every table state
    for state_id, proto in cells:
        users.setdefault(proto, {})[state_id] = None
    if times is not None:
        times = tuple(sorted(set(float(t) for t in times)))
    done = {}
    for proto, state_ids in users.items():
        cycle = build_cycle(proto)
        grid = times if times is not None else default_time_grid(
            None if cycle is None else cycle.unit_duration, t_max, points)
        rho0s = [prepared[state_id] for state_id in state_ids]
        for state_id, rho0, states in zip(state_ids, rho0s, _walk(sys, cycle, grid, rho0s)):
            element = circuits.tracked_element(state_id)
            raw = states[(slice(None),) + element].tolist()
            ref = complex(rho0[element])
            if cycle is None:
                values = tuple(abs(v) / abs(ref) for v in raw)
            else:
                unit = ref / abs(ref)
                values = tuple(max((v * unit.conjugate()).real, 0.0) / abs(ref) for v in raw)
            done[state_id, proto] = DecayCurve(state_id, proto, "amplitude", grid, values)
    return tuple(done[cell] for cell in cells)


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
    return run_cells(sys, [(state_id, protocol)], times=times)[0]


# -- table grid ------------------------------------------------------------

# the paper's rule: pulse exactly the qubits the tracked coherence differs on, a pair modified
DESIGNATED_KIND = {state_id: _kind(qubits, modified=len(qubits) == 2) for state_id in TABLE_STATES
                   for qubits in [differing_qubits(state_id)]}
# the coherence order of each state's tracked element: free evolution keeps order zero
ELEMENT_ORDER = {s: qmat.coherence_order(*circuits.tracked_element(s)) for s in TABLE_STATES}


@dataclass(frozen=True)
class GridRun:
    """All decay curves of one table run plus their percents at t_eval."""

    curves: tuple[DecayCurve, ...]
    percents: dict
    t_eval: float


def run_grid(sys: SpinSystem, families=FAMILIES, states=TABLE_STATES,
             t_max: float = GRID_T_MAX, points: int = GRID_POINTS) -> GridRun:
    """FreeEv, the designated protocol, and DD3sp for every table state."""
    families, states = tuple(families), tuple(states)
    if not families:
        raise ValueError(f"empty family list, expected some of {FAMILIES}")
    unknown = [s for s in states if s not in TABLE_STATES]
    if unknown:
        raise ValueError(f"unknown table state(s) {unknown}, expected some of {TABLE_STATES}")
    for what, names in (("state", states), ("family", families)):
        repeated = sorted({n for n in names if names.count(n) > 1})
        if repeated:
            raise ValueError(f"repeated {what} {repeated}: name each one once")
    cells = []  # (state, protocol), state-major
    for state_id in states:
        kind = DESIGNATED_KIND[state_id]
        cells.append((state_id, default_protocol(FREE_KIND)))
        for family in families:
            cells.append((state_id, default_protocol(kind, state_id, family)))
            if kind != ALL_SPIN_KIND:
                cells.append((state_id, default_protocol(ALL_SPIN_KIND, state_id, family)))
    curves = run_cells(sys, cells, t_max, points)
    # the grid always ends on t_max
    percents = {(c.state, c.protocol.kind, c.protocol.family): 100.0 * c.values[-1]
                for c in curves}
    return GridRun(curves, percents, t_max)


# -- reference comparison --------------------------------------------------

@lru_cache(maxsize=1)
def load_reference() -> MappingProxyType:
    """Published percentages {(state, row): percent}; read-only, as callers share it."""
    doc = json.loads(
        resources.files("triqdd").joinpath("data/reference_percentages.json").read_text())
    return MappingProxyType({
        (state_id, row): pct
        for block in (doc["zero_and_second_order"], doc["first_and_third_order"])
        for row, pcts in block["rows"].items()
        for state_id, pct in zip(block["states"], pcts, strict=True)})


@dataclass(frozen=True)
class FactCheck:
    """One simulated ordering claim with its verdict and published context."""

    state: str
    fact: str
    lhs: tuple
    rhs: tuple
    lhs_pct: float
    rhs_pct: float
    margin_pp: float
    verdict: str  # "pass" or "fail"
    published_lhs: float | None
    published_rhs: float | None


def fact_check(percents: dict, state_id: str, lhs: tuple, rhs: tuple) -> FactCheck:
    """Does protocol lhs beat protocol rhs for this state by the margin.

    lhs/rhs are (kind, family) with family None for FreeEv.
    """
    missing = [(state_id,) + side for side in (lhs, rhs)
               if (state_id,) + side not in percents]
    if missing:
        raise ValueError(f"results grid is missing cells: {missing}")
    lhs_pct = percents[(state_id,) + lhs]
    rhs_pct = percents[(state_id,) + rhs]
    margin = lhs_pct - rhs_pct
    verdict = "pass" if margin >= MARGIN_PP else "fail"
    table = load_reference()
    # a cycle's row only speaks for the state's designated protocol, and is named by the cycle
    published = [table.get((state_id, FREE_KIND if kind == FREE_KIND
                            else default_protocol(kind, state_id, family).sequence_label))
                 if kind in (FREE_KIND, DESIGNATED_KIND.get(state_id)) else None
                 for kind, family in (lhs, rhs)]
    return FactCheck(state_id, f"{lhs[0]}>{rhs[0]}", lhs, rhs, lhs_pct, rhs_pct,
                     margin, verdict, *published)


@dataclass(frozen=True)
class OrderingReport:
    facts: tuple[FactCheck, ...]

    @property
    def all_pass(self) -> bool:
        return all(f.verdict == "pass" for f in self.facts)

    def to_dict(self) -> dict:
        return {"margin_pp": MARGIN_PP, "all_pass": self.all_pass,
                "facts": [dict(vars(f)) for f in self.facts]}


def ordering_facts(families=FAMILIES):
    """The committed qualitative claims, per family: (state, lhs, rhs).

    Each state's designated protocol beats free evolution, unless its element
    is of order zero, and the all-spin protocol, unless that is the designated one.
    """
    out = []
    for family in families:
        for state_id in FACT_STATES:
            lhs = (DESIGNATED_KIND[state_id], family)
            if ELEMENT_ORDER[state_id]:
                out.append((state_id, lhs, (FREE_KIND, None)))
            if lhs[0] != ALL_SPIN_KIND:
                out.append((state_id, lhs, (ALL_SPIN_KIND, family)))
    return tuple(out)


def compare_to_reference(percents: dict) -> OrderingReport:
    """Check the committed ordering facts on the states and families of a results grid."""
    families = dict.fromkeys(family for _, _, family in percents if family is not None)
    states = {state_id for state_id, _, _ in percents}
    return OrderingReport(tuple(
        fact_check(percents, state_id, lhs, rhs)
        for state_id, lhs, rhs in ordering_facts(families) if state_id in states))


# -- star pair protection --------------------------------------------------

def star_protection(sys: SpinSystem, free: bool = False, prep: str = "ideal",
                    tomo_sigma: float | None = None, seed: int = 0, t_max: float = GRID_T_MAX,
                    points: int = GRID_POINTS) -> tuple[DecayCurve, ...]:
    """Concurrence curves of both reduced star pairs: AC, BC, then, if free, free AC, BC.

    Each pair is its own experiment: mXY8 runs on that pair while the third
    spin rides along and is traced out. The star state is prepared once and
    every protected pair is walked first. tomo_sigma, when given, then reads
    the protected states out through one tomography call per time grid, on
    the (pairs, T, 8, 8) stack of the pairs walked on it: the i-th time draws
    its noise once, from seed + i, and every pair read at that time shares it,
    as separate calls with the same seed would. The free rows keep the
    protected grids, one free walk serves every pair on a grid, and they are
    read exactly. Each curve's pair states and concurrences are one stacked
    partial_trace and concurrence call.
    """
    if prep not in ("ideal", "nmr"):
        raise ValueError(f"unknown preparation '{prep}', expected 'ideal' or 'nmr'")
    rho0 = circuits.prepare("star") if prep == "ideal" else circuits.prepare_star_nmr(sys)
    walks, states, pairs_by_grid = {}, {}, {}
    for pair in STAR_PAIRS.values():
        proto = star_protocol(pair)
        cycle = build_cycle(proto)
        times = default_time_grid(cycle.unit_duration, t_max, points)
        pairs_by_grid.setdefault(times, []).append(pair)
        walks[pair] = proto, times
        states[pair] = _walk(sys, cycle, times, [rho0])[0]
    if tomo_sigma is not None:
        for pairs in pairs_by_grid.values():
            read = circuits.tomography(np.stack([states[pair] for pair in pairs]),
                                       sigma=tomo_sigma, seed=seed)
            states.update(zip(pairs, read))
    rows = [_star_curve(proto, times, states[pair], pair)
            for pair, (proto, times) in walks.items()]
    if free:
        for times, pairs in pairs_by_grid.items():
            states = _walk(sys, None, times, [rho0])[0]
            rows += [_star_curve(Protocol(), times, states, pair) for pair in pairs]
    return tuple(rows)


def _star_curve(proto, times, states, pair) -> DecayCurve:
    """One pair's concurrence curve, read from a walk's (T, 8, 8) states."""
    return DecayCurve("star", proto, "concurrence", times,
                      tuple(qmat.concurrence(qmat.partial_trace(states, pair)).tolist()))


# -- emission --------------------------------------------------------------

def write_curves_csv(curves, path) -> None:
    """Plot-ready rows: state,protocol,sequence,time_s,value,kind.

    The text is what csv.writer writes for these fields, none of which
    needs quoting: numbers as .12g, CRLF line ends. It is built whole and
    written once; each distinct time grid is formatted once per call.
    """
    lines, stamps = ["state,protocol,sequence,time_s,value,kind"], {}
    for curve in curves:
        if curve.times not in stamps:
            stamps[curve.times] = [f"{t:.12g}" for t in curve.times]
        head = f"{curve.state},{curve.protocol.kind},{curve.protocol.sequence_label},"
        lines += [f"{head}{t},{v:.12g},{curve.kind}"
                  for t, v in zip(stamps[curve.times], curve.values)]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


def cell_label(kind: str, family: str | None) -> str:
    """A grid cell's name: kind/family, or the kind alone for free evolution."""
    return kind if family is None else f"{kind}/{family}"


def grid_summary(run: GridRun, report: OrderingReport,
                 config_echo: dict | None = None) -> dict:
    """JSON-ready summary: per-state percents plus the ordering report."""
    percents: dict[str, dict] = {}
    for (state_id, kind, family), pct in run.percents.items():  # write_json sorts the keys
        percents.setdefault(state_id, {})[cell_label(kind, family)] = pct
    return {
        "time_s": run.t_eval,
        "config": config_echo or {},
        "percents": percents,
        "ordering": report.to_dict(),
    }


def write_json(doc: dict, path) -> None:
    """Every JSON artifact's format: sorted keys, two-space indent, a final newline.

    The text is what json.dump writes, encoded whole and written once.
    """
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
