"""Decoupling sequence construction, the passive/doubled modification, timing.

Scheduling convention
---------------------
A plain cycle of n pi pulses with interpulse delay tau and pulse width t_p
puts pulse centers on the uniform grid (i + 1/2)(tau + t_p), so the cycle
starts and ends with a half gap and its duration is n (tau + t_p). All
targets of the cycle are pulsed simultaneously at every slot with the
slot phase from the family's table.

The modified variant of a two-qubit cycle changes exactly one slot: the
passive qubit's pulse there is removed and the doubled qubit gets two
back-to-back pi pulses of the slot phase, together a 2 pi rotation
filling [center - t_p, center + t_p]. The grid is kept, later centers
shift by t_p and the cycle lengthens by t_p (nothing changes when pulses
are instantaneous). One modified cycle leaves both qubits with an odd
pulse count, so it is not a net identity; the execution unit is two
cycles, which compose to the identity for ideal pulses.

Phase tables live in data/phase_tables.json and are loaded, not hardcoded.
Any table edit must keep the flip-angle robustness property checked in the
test suite: the survival of a single-spin coherence under deliberately
miscalibrated pulses has to beat a same-length constant-phase train.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import numpy as np

from . import spinsys
from .spinsys import PulseEvent, SpinSystem, pulse

PI = np.pi

# whole-unit time commensurability slack, seconds
REPEAT_ATOL = 1e-9


@lru_cache(maxsize=1)
def phase_tables() -> dict[str, tuple[float, ...]]:
    """Family name to phase table in degrees, from the bundled data file."""
    doc = json.loads(resources.files("triqdd").joinpath("data/phase_tables.json").read_text())
    return {name: tuple(entry["phases_deg"]) for name, entry in doc["families"].items()}


def known_families() -> tuple[str, ...]:
    return tuple(phase_tables())


@dataclass(frozen=True)
class DDCycle:
    """One decoupling cycle: named slot phases bound to targets and timing.

    phases_deg holds the per-slot table; modified is None for a plain
    cycle, else (slot, passive, doubled). events and cycle_duration are
    derived in the factories and carried so a cycle is self-describing.
    """

    name: str
    targets: tuple[int, ...]
    tau: float
    t_p: float
    phases_deg: tuple[float, ...]
    modified: tuple[int, int, int] | None
    events: tuple[PulseEvent, ...]
    cycle_duration: float

    @property
    def n_slots(self) -> int:
        return len(self.phases_deg)

    @property
    def unit_cycles(self) -> int:
        """Smallest number of consecutive cycles forming the repeat unit."""
        return 2 if self.modified else 1

    @property
    def unit_duration(self) -> float:
        return self.unit_cycles * self.cycle_duration


def _build_events(targets, tau, t_p, phases_deg, modified):
    pitch = tau + t_p
    events = []
    shift = 0.0
    for i, deg in enumerate(phases_deg):
        phi = np.deg2rad(deg)
        center = (i + 0.5) * pitch + shift
        if modified is not None and i == modified[0]:
            _, _, doubled = modified
            events.append(pulse(center - t_p, (doubled,), PI, phi, t_p))
            events.append(pulse(center, (doubled,), PI, phi, t_p))
            shift = t_p
        else:
            events.append(pulse(center - t_p / 2, targets, PI, phi, t_p))
    duration = len(phases_deg) * pitch + shift
    return tuple(events), duration


def _make_cycle(name, targets, tau, t_p, phases_deg, modified=None) -> DDCycle:
    if tau <= 0:
        raise ValueError(f"interpulse delay must be positive, got {tau}")
    if t_p < 0:
        raise ValueError(f"pulse width must be nonnegative, got {t_p}")
    if t_p >= 2 * tau:
        raise ValueError(f"pulse width {t_p} does not fit the delay grid (tau = {tau})")
    targets = tuple(targets)
    if not targets or len(set(targets)) != len(targets):
        raise ValueError(f"bad target set {targets}")
    for q in targets:
        if not 1 <= q <= spinsys.N_QUBITS:
            raise ValueError(f"target {q} out of range")
    events, duration = _build_events(targets, tau, t_p, phases_deg, modified)
    return DDCycle(name, targets, float(tau), float(t_p), tuple(float(p) for p in phases_deg),
                   modified, events, duration)


def generate(family: str, tau: float, t_p: float = 0.0, targets=(1, 2, 3)) -> DDCycle:
    """Build a named cycle from its phase table."""
    tables = phase_tables()
    if family not in tables:
        raise ValueError(f"unknown family '{family}', expected one of {sorted(tables)}")
    return _make_cycle(family, targets, tau, t_p, tables[family])


def generate_cpmg(n_pulses: int, tau: float, t_p: float = 0.0, targets=(1, 2, 3)) -> DDCycle:
    """Constant-phase train of n pi pulses, the robustness baseline."""
    if n_pulses < 1:
        raise ValueError("need at least one pulse")
    return _make_cycle(f"CPMG{n_pulses}", targets, tau, t_p, (0.0,) * n_pulses)


def modify(cycle: DDCycle, slot: int | None = None) -> DDCycle:
    """Passive/doubled variant of a two-qubit cycle at one slot (default n/2).

    The first listed target is passive, the second doubled. The result
    must be run an even number of cycles; program enforces that.
    """
    if cycle.modified is not None:
        raise ValueError(f"{cycle.name} is already modified at slot {cycle.modified[0]}")
    if len(cycle.targets) != 2:
        raise ValueError(f"modification needs a two-qubit cycle, {cycle.name} targets {cycle.targets}")
    slot = cycle.n_slots // 2 if slot is None else slot
    if not 0 <= slot < cycle.n_slots:
        raise ValueError(f"slot {slot} out of range 0..{cycle.n_slots - 1}")
    if cycle.t_p > 0 and cycle.tau <= cycle.t_p / 2:
        raise ValueError("delay too short to host the doubled pulse window")
    return _make_cycle("m" + cycle.name, cycle.targets, cycle.tau, cycle.t_p,
                       cycle.phases_deg, (slot,) + cycle.targets)


def program(cycle: DDCycle, n_cycles: int) -> tuple[tuple[PulseEvent, ...], float]:
    """Concatenated event schedule for n_cycles repetitions."""
    if n_cycles < 0:
        raise ValueError("cycle count must be nonnegative")
    if n_cycles % cycle.unit_cycles:
        raise ValueError(
            f"{cycle.name} runs in units of {cycle.unit_cycles} cycles, got {n_cycles}")
    events = []
    for rep in range(n_cycles):
        t0 = rep * cycle.cycle_duration
        for ev in cycle.events:
            events.append(PulseEvent(ev.start + t0, ev.duration, ev.targets, ev.phases, ev.flip))
    return tuple(events), n_cycles * cycle.cycle_duration


def unit_count(t: float, unit: float, name: str) -> int:
    """Number of repeat units of length unit in time t, which must be whole."""
    if t < 0:
        raise ValueError(f"negative time {t}")
    k = round(t / unit)
    if abs(t - k * unit) > REPEAT_ATOL:
        lo, hi = np.floor(t / unit) * unit, np.ceil(t / unit) * unit
        raise ValueError(
            f"time {t} s is not a whole number of {name} units "
            f"({unit:.6g} s); nearest valid times are {lo:.6g} and {hi:.6g}")
    return int(k)


def cycle_propagator(cycle: DDCycle, sys: SpinSystem) -> np.ndarray:
    """Coherent propagator of the repeat unit (noise ignored).

    Ordered product of the free-evolution and pulse unitaries of the
    program's steps, under the pulse model of sys and the pulse-window
    convention of spinsys.
    """
    events, duration = program(cycle, cycle.unit_cycles)
    energy = spinsys.energies(sys)
    u = np.eye(spinsys.DIM, dtype=complex)
    for kind, item in spinsys.program_steps(events, duration, sys.pulse.internal_h_during_pulse):
        if kind == "free":
            u = np.exp(-2j * PI * energy * item)[:, None] * u
        else:
            u = spinsys.pulse_propagator(item, sys) @ u
    return u


def pulse_product(cycle: DDCycle) -> np.ndarray:
    """Repeat-unit product of the error-free pulse rotations alone (zero Hamiltonian)."""
    return cycle_propagator(cycle, SpinSystem((0.0,) * 3, (0.0,) * 3))


def single_spin_survival(cycle: DDCycle, offset_hz: float, flip_error: float,
                         n_cycles: int) -> float:
    """Robustness probe: guaranteed coherence survival of one spin.

    Composes the whole train (free precession at the given offset, every
    pulse scaled by 1 + flip_error, finite windows integrated with the
    offset on, as on the windowed side of the spinsys pulse-window
    convention) into a single unitary and returns the smallest singular
    value of its transverse Bloch block. That is the survival of 2|rho01|
    for the worst initial coherence phase, which is the honest figure of
    merit: a constant-phase train keeps the quadrature along its own axis
    almost perfectly while losing the orthogonal one, and this metric
    refuses that hiding place. Targets of the cycle are ignored; only
    slot phases and timing matter here.
    """
    if n_cycles % cycle.unit_cycles:
        raise ValueError(f"{cycle.name} needs a multiple of {cycle.unit_cycles} cycles")

    def free_u(t):
        ph = np.exp(-1j * PI * offset_hz * t)
        return np.array([[ph, 0], [0, np.conj(ph)]])

    def pulse_u(ev):
        flip = ev.flip * (1.0 + flip_error)
        phi = ev.phases[0]
        if ev.duration == 0.0:
            return spinsys.rotation2(flip, phi)
        # tilted-axis rotation: rf plus the offset acting through the window
        nx, ny, nz = flip * np.cos(phi), flip * np.sin(phi), 2 * PI * offset_hz * ev.duration
        angle = np.sqrt(nx * nx + ny * ny + nz * nz)
        axis = (nx * spinsys.SIGMA_X + ny * spinsys.SIGMA_Y + nz * spinsys.SIGMA_Z) / angle
        return np.cos(angle / 2) * spinsys.IDENTITY_2 - 1j * np.sin(angle / 2) * axis

    u = np.eye(2, dtype=complex)
    for kind, item in spinsys.program_steps(*program(cycle, n_cycles), windowed=True):
        u = (free_u(item) if kind == "free" else pulse_u(item)) @ u
    block = np.empty((2, 2))
    for a, sa in enumerate((spinsys.SIGMA_X, spinsys.SIGMA_Y)):
        for b, sb in enumerate((spinsys.SIGMA_X, spinsys.SIGMA_Y)):
            block[a, b] = 0.5 * np.trace(sa @ u @ sb @ u.conj().T).real
    return float(np.linalg.svd(block, compute_uv=False)[-1])


# -- serialization ---------------------------------------------------------

def cycle_to_json(cycle: DDCycle) -> dict:
    """Timed-event export of the repeat unit (two cycles when modified)."""
    events, duration = program(cycle, cycle.unit_cycles)
    return {
        "name": cycle.name,
        "tau_s": cycle.tau,
        "tp_s": cycle.t_p,
        "duration_s": duration,
        "events": [
            {
                "t_s": ev.start,
                "dur_s": ev.duration,
                "targets": list(ev.targets),
                "phase_deg": float(np.rad2deg(ev.phases[0])),
                "flip_deg": float(np.rad2deg(ev.flip)),
            }
            for ev in events
        ],
    }


def program_from_json(doc) -> tuple[tuple[PulseEvent, ...], float, str]:
    """Load an exported timed-event program: (events, duration, name)."""
    if isinstance(doc, (str, bytes)):
        doc = json.loads(doc)
    try:
        events = tuple(
            pulse(e["t_s"], e["targets"], np.deg2rad(e["flip_deg"]),
                  np.deg2rad(e["phase_deg"]), e["dur_s"])
            for e in doc["events"]
        )
        return events, float(doc["duration_s"]), str(doc["name"])
    except KeyError as exc:
        raise ValueError(f"timed-event document is missing field {exc}") from None
