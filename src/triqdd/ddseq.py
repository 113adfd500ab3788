"""Decoupling sequence construction, the passive/doubled modification, timing.

Scheduling convention
---------------------
A plain cycle of n pi pulses with interpulse delay tau and pulse width t_p
puts pulse centers on the uniform grid (i + 1/2)(tau + t_p), so the cycle
starts and ends with a half gap and its duration is n (tau + t_p). All
targets of the cycle are pulsed simultaneously at every slot with the
slot phase from the family's table.

The modified variant of a two-qubit cycle changes exactly one slot. Its
roles are its target order: the first target is passive, and its pulse
there is removed; the second is doubled, and gets two back-to-back pi
pulses of the slot phase, together a 2 pi rotation filling
[center - t_p, center + t_p]. The grid is kept, later centers shift by
t_p and the cycle lengthens by t_p (nothing changes when pulses are
instantaneous). Slot 0's window starts at (tau - t_p) / 2, so it needs
t_p <= tau; inner slots take every width the cycle does. One modified
cycle leaves both qubits with an odd pulse count, so it is not a net
identity; the execution unit is two cycles, which compose to the
identity for ideal pulses.

pulse_width inverts that duration rule: the width at which a family's cycle
with a given delay lasts a given time, plain or modified.

Each phase table is built from its family's rule, in phase_tables and _ur.
Every table must keep the flip-angle robustness property checked in the
test suite: the survival of a single-spin coherence under deliberately
miscalibrated pulses has to beat a same-length constant-phase train.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import spinsys
from .spinsys import PulseEvent, SpinSystem, pulse

PI = np.pi

# whole-unit time commensurability slack, seconds
REPEAT_ATOL = 1e-9
FAMILY_PATTERNS = "CPMGn or URn (even n >= 4)"


def _ur(n: int) -> tuple[float, ...]:
    """UR phases k(k - 1)/2 Phi(n) mod 360 for k < n, in degrees, with Phi(4m) = 180/m and
    Phi(4m + 2) = 360 m/(2m + 1) (Genov et al., PRL 118, 133202 (2017), phi_2 = 0)."""
    m, r = divmod(n, 4)
    p, q = (1, 2 * m) if r == 0 else (m, 2 * m + 1)  # Phi = 360 p/q, reduced in whole numbers
    return tuple(360.0 * (k * (k - 1) // 2 * p % q) / q for k in range(n))


@lru_cache(maxsize=1)
def phase_tables() -> dict[str, tuple[float, ...]]:
    """Family name to phase table in degrees, each built from its rule."""
    xy4 = (0.0, 90.0, 0.0, 90.0)
    xy8 = xy4 + xy4[::-1]
    return {"XY4": xy4, "XY8": xy8, "XY16": xy8 + tuple(p + 180.0 for p in xy8), "UR12": _ur(12),
            # the composite (30, 0, 90, 0, 30) + phi in place of each XY4 pulse of phase phi
            "KDD20": tuple(p + phi for phi in xy4 for p in (30.0, 0.0, 90.0, 0.0, 30.0))}


@dataclass(frozen=True)
class DDCycle:
    """One decoupling cycle: named slot phases bound to targets and timing.

    phases_deg holds the per-slot table; slot is None for a plain cycle,
    else the modified slot, where targets[0] is passive and targets[1]
    doubled. events and cycle_duration are derived in the factories and
    carried so a cycle is self-describing. The pulses check the targets.
    """

    name: str
    targets: tuple[int, ...]
    tau: float
    t_p: float
    phases_deg: tuple[float, ...]
    slot: int | None
    events: tuple[PulseEvent, ...]
    cycle_duration: float

    @property
    def n_slots(self) -> int:
        return len(self.phases_deg)

    @property
    def unit_cycles(self) -> int:
        """Smallest number of consecutive cycles forming the repeat unit."""
        return 1 if self.slot is None else 2

    @property
    def unit_duration(self) -> float:
        return self.unit_cycles * self.cycle_duration

    @cached_property
    def unit_program(self) -> tuple[tuple[PulseEvent, ...], float]:
        """program(self, unit_cycles), built once per cycle: every walk of the cycle
        hands spinsys the same events tuple, so a kept plan's key compares by identity."""
        return program(self, self.unit_cycles)


def _build_events(targets, tau, t_p, phases_deg, slot):
    pitch = tau + t_p
    events = []
    shift = 0.0
    for i, deg in enumerate(phases_deg):
        phi = np.deg2rad(deg)
        center = (i + 0.5) * pitch + shift
        if i == slot:
            events.append(pulse(center - t_p, targets[1:], PI, phi, t_p))
            events.append(pulse(center, targets[1:], PI, phi, t_p))
            shift = t_p
        else:
            events.append(pulse(center - t_p / 2, targets, PI, phi, t_p))
    duration = len(phases_deg) * pitch + shift
    return tuple(events), duration


def _make_cycle(name, targets, tau, t_p, phases_deg, slot=None) -> DDCycle:
    if not np.isfinite(tau) or not np.isfinite(t_p):
        raise ValueError(f"delay and pulse width must be finite, got tau {tau}, t_p {t_p}")
    if tau <= 0:
        raise ValueError(f"interpulse delay must be positive, got {tau}")
    if t_p < 0:
        raise ValueError(f"pulse width must be nonnegative, got {t_p}")
    if t_p >= 2 * tau:
        raise ValueError(f"pulse width {t_p} does not fit the delay grid (tau = {tau})")
    targets = tuple(targets)
    events, duration = _build_events(targets, tau, t_p, phases_deg, slot)
    cycle = DDCycle(name, targets, float(tau), float(t_p), tuple(float(p) for p in phases_deg),
                    slot, events, duration)
    if not np.isfinite(cycle.unit_duration):
        raise ValueError(f"{name} overflows a float at tau {tau:g} s: unit {cycle.unit_duration} s")
    return cycle


def pulse_width(family: str, tau: float, cycle_duration: float, modified: bool) -> float:
    """The width t_p at which a cycle of the family and delay lasts cycle_duration.

    The inverse of _build_events' duration, n (tau + t_p) plus one t_p when
    modified. The cycle built from it refuses a negative width.
    """
    n = len(_phases(family))
    return (cycle_duration - n * tau) / (n + modified)


def _phases(family: str) -> tuple[float, ...]:
    """A family's phase table by name: a named table, CPMGn (n >= 1 pulses of phase 0) or URn."""
    tables, counted = phase_tables(), re.fullmatch(r"(CPMG|UR)([1-9][0-9]*)", family)
    kind, n = (counted[1], int(counted[2])) if counted else ("", 0)
    phases = (tables[family] if family in tables else (0.0,) * n if kind == "CPMG"
              else _ur(n) if kind == "UR" and n >= 4 and n % 2 == 0 else None)
    if phases is None:
        raise ValueError(f"unknown family '{family}', expected one of {sorted(tables)}, "
                         f"{FAMILY_PATTERNS}")
    return phases


def generate(family: str, tau: float, t_p: float = 0.0, targets=(1, 2, 3)) -> DDCycle:
    """Build a cycle by name, on its family's phase table (_phases)."""
    return _make_cycle(family, targets, tau, t_p, _phases(family))


def modify(cycle: DDCycle, slot: int | None = None) -> DDCycle:
    """Passive/doubled variant of a two-qubit cycle at one slot (default n/2).

    The first listed target is passive, the second doubled. Slot 0 needs
    t_p <= tau, or its doubled window would start before the cycle. The
    result must be run an even number of cycles; program enforces that.
    """
    if cycle.slot is not None:
        raise ValueError(f"{cycle.name} is already modified at slot {cycle.slot}")
    if len(cycle.targets) != 2:
        raise ValueError(f"modification needs a two-qubit cycle, {cycle.name} targets {cycle.targets}")
    slot = cycle.n_slots // 2 if slot is None else slot
    if not float(slot).is_integer() or not 0 <= slot < cycle.n_slots:
        raise ValueError(f"slot {slot} is not a whole number in 0..{cycle.n_slots - 1}")
    if slot == 0 and cycle.t_p > cycle.tau:
        raise ValueError(f"slot 0 needs pulse width <= tau, got t_p {cycle.t_p} > tau {cycle.tau}: "
                         "its doubled window would start before the cycle")
    return _make_cycle("m" + cycle.name, cycle.targets, cycle.tau, cycle.t_p,
                       cycle.phases_deg, int(slot))


def program(cycle: DDCycle, n_cycles: int) -> tuple[tuple[PulseEvent, ...], float]:
    """Concatenated event schedule for n_cycles repetitions.

    The first cycle is the cycle's own events, at t0 = 0; each later one
    is a new PulseEvent per event, shifted by rep * cycle_duration.
    """
    if n_cycles < 0:
        raise ValueError("cycle count must be nonnegative")
    if n_cycles % cycle.unit_cycles:
        raise ValueError(
            f"{cycle.name} runs in units of {cycle.unit_cycles} cycles, got {n_cycles}")
    later = tuple(PulseEvent(ev.start + rep * cycle.cycle_duration, ev.duration, ev.targets,
                             ev.phase, ev.flip)
                  for rep in range(1, n_cycles) for ev in cycle.events)
    return (cycle.events if n_cycles else ()) + later, n_cycles * cycle.cycle_duration


def unit_count(t: float, unit: float, name: str) -> int:
    """Number of repeat units of length unit in time t, which must be whole."""
    if not np.isfinite(t):
        raise ValueError(f"time {t} s is not a finite number of {name} units ({unit:.6g} s)")
    if t < 0:
        raise ValueError(f"negative time {t}")
    k = round(t / unit)
    if abs(t - k * unit) > REPEAT_ATOL:
        lo, hi = np.floor(t / unit) * unit, np.ceil(t / unit) * unit
        raise ValueError(
            f"time {t} s is not a whole number of {name} units "
            f"({unit:.6g} s); nearest valid times are {lo:.6g} and {hi:.6g}")
    return int(k)


def single_spin_survival(cycle: DDCycle, offset_hz: float, flip_error: float,
                         n_cycles: int) -> float:
    """Robustness probe: guaranteed coherence survival of one spin.

    Walks the train through spinsys.walk on a register whose only
    term is the given offset on the probed spin, the cycle's last target
    (the doubled spin of a modified cycle), which every pulse of the
    cycle hits. Couplings are zero and there is no noise, so the other
    spins, held in |0><0|, never touch it. Every pulse is scaled by
    1 + flip_error and finite windows are integrated with the offset on,
    the windowed side of the spinsys pulse-window convention. Returns the
    smallest singular value of the probed spin's transverse Bloch block.
    That is the survival of 2|rho01| for the worst initial coherence
    phase, which is the honest figure of merit: a constant-phase train
    keeps the quadrature along its own axis almost perfectly while losing
    the orthogonal one, and this metric refuses that hiding place.
    n_cycles must make a nonnegative whole number of repeat units: the
    walk refuses a fraction of a unit, and repeat_program a negative count.
    """
    q = cycle.targets[-1]
    offsets = tuple(offset_hz if r == q else 0.0 for r in (1, 2, 3))
    probe = SpinSystem(offsets, (0.0,) * 3, spinsys.NoiseModel(),
                       spinsys.PulseErrorModel(flip_error, 0.0, internal_h_during_pulse=True))
    paulis = np.stack([spinsys.embed(s, q) for s in (spinsys.SIGMA_X, spinsys.SIGMA_Y)])
    rest = [spinsys.embed(np.diag([1.0, 0.0]), r) for r in (1, 2, 3) if r != q]
    rho0s = (np.eye(spinsys.DIM) + paulis) / 2 @ rest[0] @ rest[1]  # the others in |0><0|
    states = spinsys.walk(probe, cycle.unit_program,
                          [n_cycles / cycle.unit_cycles], rho0s)[:, 0]
    # block[a, b] = tr(sigma_a rho_b): the identity part has no transverse component
    block = np.einsum("aij,bji->ab", paulis, states).real
    return float(np.linalg.svd(block, compute_uv=False)[-1])


# -- serialization ---------------------------------------------------------

def cycle_to_json(cycle: DDCycle) -> dict:
    """Timed-event export of the repeat unit (two cycles when modified), one phase per event."""
    events, duration = cycle.unit_program
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
                "phase_deg": float(np.rad2deg(ev.phase)),
                "flip_deg": float(np.rad2deg(ev.flip)),
            }
            for ev in events
        ],
    }
