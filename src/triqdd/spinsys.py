"""Three-spin system model: Hamiltonian, dephasing and pulse propagation.

Model conventions
-----------------
The register is three spin-1/2 nuclei in the weak-coupling (secular)
rotating-frame limit, so the internal Hamiltonian is diagonal in the
computational basis. With s_q = +1 for bit 0 and -1 for bit 1 of qubit q,
the energy of basis state b in Hz is

    E(b) = sum_q (nu_q / 2) s_q(b) + sum_{q<r} (J_qr / 4) s_q(b) s_r(b)

where nu_q are the resonance offsets and J_qr the scalar couplings. Free
evolution is element-wise: entry (a, b) picks up exp(-i 2 pi (E(a)-E(b)) t)
and, with dephasing on, the real decay exp(-R_ab t) with

    R_ab = sum_q gamma_q [bit_q(a) != bit_q(b)] + gamma_c (dm_ab)^2

where dm_ab is the coherence order of the element, gamma_q the independent
per-spin dephasing rates and gamma_c the rate of the correlated (common
mode) channel. Populations never decay; order-0 coherences are immune to
the correlated channel. The same map is what exponentiating the standard
dephasing generator gives, which the test suite checks against an
explicit superoperator exponential.

Pulses are transverse rf rotations. An instantaneous pulse on a target is
exp(-i (theta/2) (cos(phi) X + sin(phi) Y)); a pulse of finite duration
t_p integrates the rf term (amplitude theta / (2 pi t_p) in Hz) together
with the internal Hamiltonian when that is enabled, which is what exposes
simultaneously driven spins to their mutual coupling. Without it the rf
terms of different targets commute, so every pulse is the tensor product
of its single-target rotations. A pulse is stated once, by its unitary
(pulse_propagator). A rotation by a whole number of half turns maps basis
states onto basis states, and rotation2 takes its half-angle cosine and
sine exactly, so its unitary is an exact signed permutation: the engine
reads that off the unitary (signed_permutation), never off the pulse.

Timed pulse programs
--------------------
Every timed evolution enters the engine through walk: program_steps
orders the events into free gaps and pulses, compile_program folds them
into segments, repeat_program strings units together and apply_program
steps states through them. Free evolution is the pulseless program of
its length, so the runner's free and decoupled curves, the pulse-level
star preparation and ddseq's robustness probe are all walks. A program
of length zero compiles to no segment at all; a negative or non-finite
length is an error. The pulse-window convention is the same for every
caller. A hard pulse (internal_h_during_pulse off) is a rotation at the
center of its window, and free evolution, dephasing and disorder
included, runs straight through the window, so the width only places
the pulse. With internal_h_during_pulse on, a window of finite width
is integrated as rf plus internal Hamiltonian, without dephasing, and
free evolution covers only the gaps between windows.
Events at the same instant keep their list order.

Free evolution is element-wise, and a pulse that flips bits, a signed
permutation i -> i ^ m for an XOR mask m, carries an element-wise factor
into another element-wise factor: the toggling frame of
average-Hamiltonian theory. Consecutive gaps and such pulses therefore
fold into one fused map rho -> C * rho[perm][:, perm] with perm = levels
^ m, m = 0 for the identity. A pulse that mixes basis states, one with a
flip-angle error or one integrated with the internal Hamiltonian in its
window, stays a dense U rho U^dagger segment between fused ones. A run
closes only there or at the end, so a program with no dense pulse is one
fused frame, none at length 0.

repeat_program turns a plan of one repeat unit into the plan of k units.
A unit that is one fused frame, as every unit of ideal pulses is, stays
one, compiled or expanded over a draw: its frame composes with itself, by
repeated squaring, without a new exp, so k units cost one walk step. A
unit with dense segments repeats as the plain concatenation of its
segments; folding one unit's fused tail into the next unit's head would
save no dense step and makes the walk slower.

Static offset disorder (slow inhomogeneity, off at the zero default
widths) draws Gaussian per-spin offsets plus a correlated common mode
once per shot (DisorderModel). The shifts are diagonal and a fused pulse
only permutes levels, so on a fused frame a shot's disorder is one phase
per level, read off the frame's zero-frequency filter function H: _then
states the frame (K, H, m) and its algebra, compile_program builds and
keeps the frames with no draw, and expand_program writes them out over a
draw. Which elements take the shots is the sequence's to decide,
never the draw's: walk states the refocusing rule.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache, reduce
from itertools import groupby

import numpy as np

from . import qmat
from .qmat import coherence_order_matrix

N_QUBITS = 3
DIM = 8

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

# Schedule arithmetic tolerance, seconds.
TIME_ATOL = 1e-12
PLAN_CACHE_SIZE = 64  # compiled plans, and the system tables they read, kept per process
_LEVELS = np.arange(DIM)


class ConfigError(Exception):
    """Bad or unknown configuration content."""


@dataclass(frozen=True)
class NoiseModel:
    """Markovian dephasing rates in 1/s."""

    gamma: tuple[float, float, float] = (0.0, 0.0, 0.0)
    gamma_corr: float = 0.0

    def __post_init__(self):
        if len(self.gamma) != N_QUBITS:
            raise ValueError("gamma needs one rate per spin")
        if any(g < 0 for g in self.gamma) or self.gamma_corr < 0:
            raise ValueError("dephasing rates must be nonnegative")


@dataclass(frozen=True)
class PulseErrorModel:
    """Systematic pulse imperfections.

    flip_fraction_error scales every flip angle by (1 + eps); phase_error
    is added to every pulse phase in radians; internal_h_during_pulse
    keeps the internal Hamiltonian on inside finite pulse windows. Pulse
    widths belong to the schedule, not to this model.
    """

    flip_fraction_error: float = 0.0
    phase_error: float = 0.0
    internal_h_during_pulse: bool = False


@dataclass(frozen=True)
class DisorderModel:
    """Seeded static-offset disorder, Gaussian per spin plus common mode.

    The widths alone decide whether disorder acts: at the zero defaults
    every shot would be the same zero shift, so the draw is that one shot,
    whatever shots and seed say. Which elements a walk averages over the
    draw is the sequence's to decide (walk), not the widths'.
    """

    sigma: tuple[float, float, float] = (0.0, 0.0, 0.0)
    sigma_corr: float = 0.0
    shots: int = 128
    seed: int = 0

    def __post_init__(self):
        if len(self.sigma) != N_QUBITS:
            raise ValueError("sigma needs one width per spin")
        if any(s < 0 for s in self.sigma) or self.sigma_corr < 0:
            raise ValueError("disorder widths must be nonnegative")
        if self.shots < 1:
            raise ValueError("shots must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")

    def draw(self) -> np.ndarray:
        """Per-spin offsets in Hz, (shots, 3) or (1, 3) zeros: drawn once per model, read-only.

        A zero-width model hands out the one shared zero shot, so walking
        one (the nmr star preparation does) leaves the last draw cached.
        """
        return self._random_draw() if any(self.sigma) or self.sigma_corr else _NO_OFFSETS

    @lru_cache(maxsize=1)
    def _random_draw(self) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        z = rng.standard_normal((self.shots, N_QUBITS + 1))
        with np.errstate(over="ignore", invalid="ignore"):
            deltas = z[:, :N_QUBITS] * np.array(self.sigma) + z[:, N_QUBITS:] * self.sigma_corr
        if not np.isfinite(deltas).all():
            raise ConfigError("the disorder widths overflow the offset draw")
        deltas.flags.writeable = False
        return deltas


_NO_OFFSETS = np.zeros((1, N_QUBITS))
_NO_OFFSETS.flags.writeable = False


@dataclass(frozen=True)
class SpinSystem:
    """Immutable description of the register and its imperfections.

    couplings is (J12, J13, J23) in Hz. The numeric defaults are working
    placeholders for a proton/fluorine/carbon-like molecule; every
    experiment reads its own values from config.
    """

    offsets: tuple[float, float, float] = (500.0, -300.0, 150.0)
    couplings: tuple[float, float, float] = (48.0, 161.0, -192.0)
    noise: NoiseModel = field(default_factory=lambda: NoiseModel((1.0, 1.2, 2.0), 1.5))
    pulse: PulseErrorModel = field(default_factory=PulseErrorModel)
    disorder: DisorderModel = field(default_factory=DisorderModel)

    def __post_init__(self):
        if len(self.offsets) != N_QUBITS or len(self.couplings) != N_QUBITS:
            raise ValueError("offsets and couplings need three entries each")

    def coupling(self, q: int, r: int) -> float:
        """J between qubits q and r (1-based, order independent)."""
        pair = tuple(sorted((q, r)))
        try:
            return self.couplings[{(1, 2): 0, (1, 3): 1, (2, 3): 2}[pair]]
        except KeyError:
            raise ValueError(f"no coupling for qubit pair {pair}") from None


def bit(b: int, q: int) -> int:
    """Bit of basis index b for 1-based qubit q, MSB first."""
    return (b >> (N_QUBITS - q)) & 1


def energies(sys: SpinSystem) -> np.ndarray:
    """E(b) in Hz for all eight basis states."""
    return _tables(sys.offsets, sys.couplings, sys.noise)[0]


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _tables(offsets, couplings, noise):
    s = np.array([[1 - 2 * bit(b, q) for q in (1, 2, 3)] for b in range(DIM)], dtype=float)
    nu = np.array(offsets)
    j12, j13, j23 = couplings
    energy = (s @ nu) / 2.0 + (
        j12 * s[:, 0] * s[:, 1] + j13 * s[:, 0] * s[:, 2] + j23 * s[:, 1] * s[:, 2]
    ) / 4.0
    phase = energy[:, None] - energy[None, :]
    differs = s[:, None, :] != s[None, :, :]
    decay = differs @ np.array(noise.gamma) + noise.gamma_corr * coherence_order_matrix(N_QUBITS) ** 2
    # Per-spin offset sensitivity of each level, s_q(a) / 2; an element's is its
    # row's minus its column's.
    return energy, phase, decay, s / 2.0


@dataclass(frozen=True)
class PulseEvent:
    """One rf pulse: start time, width, targets and the phase they share.

    targets are 1-based qubit labels, each rotated by the nominal flip
    angle about the transverse axis at phase, both in radians. Zero
    duration means an instantaneous rotation.
    """

    start: float
    duration: float
    targets: tuple[int, ...]
    phase: float
    flip: float

    def __post_init__(self):
        for name in ("start", "duration", "phase", "flip"):  # NaN passes every bound below
            if math.isnan(getattr(self, name)):
                raise ValueError(f"pulse {name} is NaN")
        if self.start < -TIME_ATOL:
            raise ValueError(f"pulse start {self.start} is negative")
        if self.duration < 0:
            raise ValueError("pulse duration must be nonnegative")
        if not self.targets:
            raise ValueError("pulse needs at least one target")
        if len(set(self.targets)) != len(self.targets):
            raise ValueError(f"duplicate target in {self.targets}")
        for q in self.targets:
            if not 1 <= q <= N_QUBITS:
                raise ValueError(f"target {q} out of range 1..{N_QUBITS}")

    @property
    def end(self) -> float:
        return self.start + self.duration


def pulse(start: float, targets, flip: float, phase: float, duration: float = 0.0) -> PulseEvent:
    """Convenience constructor; a single target may be given bare."""
    targets = tuple(targets) if np.iterable(targets) else (int(targets),)
    return PulseEvent(float(start), float(duration), targets, float(phase), float(flip))


def _on_spins(ops: dict) -> np.ndarray:
    """Tensor product of the 2x2 operators ops[q] on 1-based spins q, the identity elsewhere.

    This fixes the register's order: qubit 1 is the most significant bit.
    """
    a, b, c = (ops.get(q, IDENTITY_2) for q in range(1, N_QUBITS + 1))
    return np.einsum("ab,cd,ef->acebdf", a, b, c).reshape(DIM, DIM)


def embed(op: np.ndarray, q: int) -> np.ndarray:
    """Single-qubit operator placed on 1-based qubit q of the register."""
    return _on_spins({q: op})


# cos and sin of a rotation's half angle, indexed by its half turns mod 4
_HALF_TURN_COS_SIN = ((1, 0), (0, 1), (-1, 0), (0, -1))


def rotation2(theta: float, phi: float) -> np.ndarray:
    """2x2 rotation about the transverse axis at phase phi.

    A whole number of half turns takes its half-angle cosine and sine
    exactly, so its rotation is an exact signed permutation.
    """
    half_turns = float(theta / np.pi)  # inf and NaN are not whole: they take np.cos and np.sin
    c, s = (_HALF_TURN_COS_SIN[int(half_turns) % 4] if half_turns.is_integer()
            else (np.cos(theta / 2), np.sin(theta / 2)))
    axis = np.cos(phi) * SIGMA_X + np.sin(phi) * SIGMA_Y
    return c * IDENTITY_2 - 1j * s * axis


def rotation_product(targets, flip: float, phases) -> np.ndarray:
    """Flip-angle rotations on distinct 1-based targets, at their phases: they commute."""
    return _on_spins({q: rotation2(flip, ph) for q, ph in zip(targets, phases)})


def pulse_propagator(ev: PulseEvent, sys: SpinSystem) -> np.ndarray:
    """Unitary of one pulse event under the system's pulse model.

    This is the one statement of a pulse; the engine reads its signed
    permutation off it (signed_permutation). Only a finite window with
    the internal Hamiltonian on needs a matrix exponential, of the
    Hermitian h t_p by its eigendecomposition; any other pulse is the
    tensor product of its single-target rotations.
    """
    if ev.duration > 0.0 and ev.flip == 0.0:
        raise ValueError("finite-duration pulse with zero flip angle has no defined rf amplitude")
    err = sys.pulse
    flip, phase = ev.flip * (1.0 + err.flip_fraction_error), ev.phase + err.phase_error
    # from 2^52 half turns on every float is a whole number: no fraction of a turn is left
    if not abs(flip) / np.pi < 2.0 ** 52:
        raise ConfigError(f"pulse.flip_fraction_error {err.flip_fraction_error:g} takes the "
                          f"flip angle of a {ev.flip:g} rad pulse past 2^52 half turns")
    if ev.duration == 0.0 or not err.internal_h_during_pulse:
        return rotation_product(ev.targets, flip, [phase] * len(ev.targets))
    # h t_p with the rf part written as its rotation angle: no width divides anything
    ht = 2.0 * np.pi * ev.duration * np.diag(energies(sys)).astype(complex)
    for q in ev.targets:
        ht += (flip / 2.0) * embed(np.cos(phase) * SIGMA_X + np.sin(phase) * SIGMA_Y, q)
    w, v = np.linalg.eigh(ht)
    return (v * np.exp(-1j * w)) @ v.conj().T


def signed_permutation(u: np.ndarray):
    """(m, d) with u[i, i ^ m] = d[i] when unitary u is zero off those entries.

    m is an int XOR mask, 0 for the identity: every pulse that keeps the
    basis flips bits. Any other u reads None, one that mixes basis states
    and a signed permutation that is not a mask alike, so the fused-or-dense
    choice follows from the unitary alone. A rotation by a whole number of
    half turns reads exactly (rotation2); a window that eigh integrates with
    the internal Hamiltonian is not an exact signed permutation, so it reads
    None and stays dense.
    """
    nonzero = u != 0
    m = int(nonzero[0].argmax())
    if nonzero.sum() != DIM or not nonzero[_LEVELS, _LEVELS ^ m].all():
        return None
    return m, u[_LEVELS, _LEVELS ^ m]


# -- the schedule engine ---------------------------------------------------

def _validate_schedule(events: tuple[PulseEvent, ...], duration: float) -> None:
    if not 0 <= duration < np.inf:
        raise ValueError(f"sequence duration must be finite and nonnegative, got {duration}")
    for ev in events:
        if ev.end > duration + TIME_ATOL:
            raise ValueError(
                f"event at t={ev.start} runs to {ev.end}, past the sequence duration {duration}"
            )
    running = []  # the earlier pulses still running at b's start, events being sorted by start
    for b in events:
        running = [a for a in running if b.start < a.end - TIME_ATOL]
        for a in running:
            if set(a.targets) & set(b.targets):
                raise ValueError(
                    f"overlapping pulses on qubits {set(a.targets) & set(b.targets)} "
                    f"at t={a.start} and t={b.start}"
                )
            if a.duration > 0 and b.duration > 0:
                raise ValueError(
                    "time-overlapping finite pulses on disjoint qubits are not supported"
                )
        running.append(b)


def program_steps(events, duration: float, windowed: bool) -> list:
    """Validated, time-ordered ("free", seconds) and ("pulse", event) steps.

    windowed picks the side of the pulse-window convention (module
    docstring): False puts each pulse at its window center with free
    time through the window, True integrates the window and frees only
    the gaps between windows. Gaps of at most TIME_ATOL are dropped: a
    unit whose first or last pulse sits that close to its edge loses the
    edge gap in each of the k units repeat_program(unit, k) strings
    together, while the k-unit program keeps it, merged with the
    neighbouring unit's gap.
    """
    events = tuple(sorted(events, key=lambda e: e.start))
    _validate_schedule(events, duration)

    def edge(ev):
        return ev.start if windowed else ev.start + ev.duration / 2.0

    steps, t = [], 0.0
    for ev in sorted(events, key=edge):
        gap = edge(ev) - t
        if gap > TIME_ATOL:
            steps.append(("free", gap))
        steps.append(("pulse", ev))
        t = max(t, ev.end if windowed else edge(ev))
    if duration - t > TIME_ATOL:
        steps.append(("free", duration - t))
    return steps


def _frozen(a: np.ndarray) -> np.ndarray:
    """Mark a cached array read-only, since every caller shares it."""
    a.flags.writeable = False
    return a


def _then(first, second):
    """(K, H, m) of fused frame first followed by fused frame second.

    This is the frame algebra, and the only place it is written. A frame
    maps rho -> K * rho[p][:, p] with p = levels ^ m, m an int XOR mask, 0
    for the identity, and H, (8, 3), is its zero-frequency filter function,
    one row per level, off which level_phases reads a shot's phase per
    level. Frame 2 after frame 1 is K2 * K1[p2][:, p2], H2 + H1[p2] and m1
    ^ m2. K may carry leading axes: a frame expanded over a draw, K
    (shots, 8, 8), composes the same way. A gap of t seconds is the frame
    (exp(t G), t s / 2, 0), with the free generator G = -2 pi i phase -
    decay and the level table s / 2 of _tables; a pulse U[i, i ^ m] = d[i]
    is (d d^H, 0, m). compile_program folds each fused run with this rule
    and repeat_program squares a one-frame unit with it.
    """
    (k1, h1, m1), (k2, h2, m2) = first, second
    if m2:  # m2 = 0 gathers nothing, as in squaring every committed unit
        p2 = _LEVELS ^ m2
        k1, h1 = k1[..., p2[:, None], p2], h1[p2]
    return k2 * k1, h2 + h1, m1 ^ m2


def compile_program(sys: SpinSystem, events, duration: float) -> tuple:
    """Segment tuple of a timed pulse program, for apply_program.

    A plan is compiled once per pulse model and program per process, then
    shared: the last PLAN_CACHE_SIZE plans are kept (least recently used
    first out), keyed by exactly what compiling reads, sys.offsets,
    sys.couplings, sys.noise, sys.pulse, the events as a tuple and the
    duration. sys.disorder is not read (no plan holds a draw), so systems
    that differ only in their disorder share a plan. Every array of a plan
    is read-only, so no walk can change another's. A program that fails to
    compile is not kept: it raises on every call. A grid plus a star run
    keeps 27 plans, about 96 KB; the worst case, 64 dense 42-pulse
    flip-error plans, takes about 4.1 MB.

    ('fused', K, H, m) is a toggling frame, built with no disorder draw:
    the map rho -> C * rho[p][:, p], p = levels ^ m for the int XOR mask
    m, 0 for the identity, with C = K without disorder and C_s = K * g_s
    g_s^H under the static shift delta_s, g_s = level_phases(H, delta_s)
    (expand_program). Each distinct gap length and each distinct pulse of
    a program is built once, a pulse as its unitary U (pulse_propagator).
    A U that signed_permutation reads as a mask is a frame; any other U is
    ('dense', U, U dagger), which ends the fused run before it, one such
    segment per distinct pulse (a flip-error mKDD20 unit's 42 pulses hold
    6). A fused run is the left fold, by _then, of the frames of its gaps
    and mask pulses. Offsets or couplings that overflow K are a
    ConfigError. No plan holds a permutation array.
    """
    return _compiled(sys.offsets, sys.couplings, sys.noise, sys.pulse, tuple(events), duration)


@lru_cache(maxsize=PLAN_CACHE_SIZE)
@np.errstate(over="ignore", invalid="ignore")  # checked as each run closes
def _compiled(offsets, couplings, noise, pulse_model, events, duration) -> tuple:
    sys = SpinSystem(offsets, couplings, noise, pulse_model)
    _, phase, decay, levels = _tables(offsets, couplings, noise)
    generator = -2j * np.pi * phase - decay
    segments, steps = {}, []  # each distinct gap length's or pulse's segment, built once
    for kind, item in program_steps(events, duration, sys.pulse.internal_h_during_pulse):
        key = item if kind == "free" else (item.targets, item.phase, item.flip, item.duration)
        if key not in segments and kind == "free":
            segments[key] = ("fused", np.exp(item * generator), item * levels, 0)
        elif key not in segments:
            u = pulse_propagator(item, sys)
            signed = signed_permutation(u)
            if signed is None:  # a unitary that is no bit flip: one U and U dagger per pulse
                segments[key] = ("dense", _frozen(u), _frozen(u.conj().T))
            else:
                m, d = signed
                segments[key] = ("fused", np.outer(d, d.conj()), np.zeros((DIM, N_QUBITS)), m)
        steps.append(segments[key])
    plan = []
    for fused, run in groupby(steps, key=lambda seg: seg[0] == "fused"):
        if not fused:
            plan.extend(run)
            continue
        k, h, m = reduce(_then, (seg[1:] for seg in run))
        if not np.isfinite(k).all():
            raise ConfigError(f"the system's offsets or couplings overflow the free "
                              f"evolution of a {duration:g} s program")
        plan.append(("fused", _frozen(k), _frozen(h), m))
    return tuple(plan)


def level_phases(h: np.ndarray, deltas) -> np.ndarray:
    """Per-shot level phases g_s[a] = exp(-2 pi i H[a] . delta_s), (shots, 8).

    h is a fused frame's filter function, (8, 3), and deltas a (shots, 3)
    offset draw; shifts that overflow the phases are a ConfigError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        angle = -2.0 * np.pi * (deltas @ h.T)
        g = np.empty(angle.shape, dtype=complex)  # exp of an imaginary argument, without exp
        np.cos(angle, out=g.real)
        np.sin(angle, out=g.imag)
    if not np.isfinite(g).all():
        raise ConfigError("the disorder offsets overflow the phases of the program")
    return g


def expand_program(plan, deltas) -> list:
    """A compiled plan written out over a (shots, 3) offset draw.

    Each fused frame becomes ('fused', C, H, m) with the per-shot
    coefficients C_s = K * g_s g_s^H, (shots, 8, 8): eight exps per shot.
    It keeps H and m, so it composes by _then like a compiled frame. Dense
    segments are kept as they are. The result walks a shot stack.
    """
    out = []
    for seg in plan:
        if seg[0] == "fused":
            _, k, h, m = seg
            g = level_phases(h, deltas)
            seg = ("fused", k * (g[:, :, None] * g[:, None, :].conj()), h, m)
        out.append(seg)
    return out


def apply_program(states: np.ndarray, plan) -> np.ndarray:
    """Walk a plan over one (8, 8) state or a stack of them.

    A compiled plan applies its frames without disorder (C = K); a plan
    from expand_program walks a (shots, 8, 8) stack shot by shot. The walk
    works on a copy of states and one spare array of its shape, so no
    segment allocates: a fresh 0.5 MB stack per segment made a flip-error
    walk a third slower whenever the allocator handed the freed stacks
    back to the system between segments.
    """
    states = np.array(states, dtype=complex, order="C")
    spare = np.empty_like(states)
    flat = states.shape[:-2] + (DIM * DIM,)
    for seg in plan:
        if seg[0] == "dense":
            np.matmul(seg[1], states, out=spare)
            np.matmul(spare, seg[2], out=states)
            continue
        _, coef, _, m = seg
        if m:  # row i ^ m and column j ^ m: flat index (8 i + j) ^ 9 m
            np.take(states.reshape(flat), np.arange(DIM * DIM) ^ (DIM + 1) * m, axis=-1,
                    out=spare.reshape(flat))
            states, spare = spare, states
        np.multiply(coef, states, out=states)
    return states


def repeat_program(plan, k: int) -> list:
    """Plan of k consecutive walks of a plan, compiled or expanded.

    A plan that is one fused frame composes with itself by _then, by
    products and sums only, squared up to k units: a compiled frame on its
    (8, 8) K, an expanded one on its (shots, 8, 8) C. Any other plan is the
    k-fold concatenation of its own segment objects: nothing is copied or
    recompiled, and the list holds one reference per segment per unit.
    """
    if k < 0:
        raise ValueError(f"repeat count must be nonnegative, got {k}")
    if len(plan) != 1 or plan[0][0] != "fused" or k < 2:
        return list(plan) * k
    power, base = None, plan[0][1:]
    while k:
        if k & 1:
            power = base if power is None else _then(power, base)
        k >>= 1
        if k:
            base = _then(base, base)
    return [("fused",) + power]


def walk(sys: SpinSystem, unit, steps, rho0s) -> np.ndarray:
    """The shot-averaged states of n states after each of T steps, (n, T, 8, 8).

    unit is the (events, duration) of a repeat unit and steps[i] counts
    the whole units from the (i - 1)-th recorded state to the i-th (the
    start for i = 0); with unit None, steps[i] is a free gap in seconds,
    the pulseless program of that length. The shots come from
    sys.disorder.draw(), which every walk of a run shares.
    The unit is compiled once, and one plan per distinct step, up front:
    steps within TIME_ATOL share one, as a uniform grid's gaps differ by
    roundoff, and a zero step is the empty plan.

    Free evolution, and a unit that compiles to one fused frame that
    permutes no level (every committed DD unit, with ideal pulses or a
    phase error), walks its frames: each step's plan is one frame (K, H,
    0) or none, as compile_program and repeat_program build it (_then),
    and a second frame fails to unpack. Such a walk never forms a shot
    stack: a step composes K_i = K * K_(i-1) and the per-shot level phases
    G_i = g * G_(i-1), (shots, 8), and record i is C_i * rho0, every
    record of every state in one broadcast product, with C_i = K_i *
    (G_i^T G_i*) / shots, the shot mean, on the elements that read it, one
    (8 x shots)(shots x 8) GEMM per recorded step.

    A shot turns element (a, b) of a frame by 2 pi (H[a] - H[b]) . delta_s
    only, so the element is refocused, its zero-frequency filter function
    vanishing (Cywinski et al., PRB 77, 174509 (2008)), when |H[a] - H[b]|
    <= TIME_ATOL in every distinct step frame; NaN is never refocused.
    Refocusing belongs to the sequence, so it is decided once per walk,
    from its frames alone, never from the draw, and a refocused element
    records K_i whichever states walk beside it and whatever the draw.
    The walk takes the shots only if some element a state occupies,
    nonzero (NaN and inf included) in any input state, is not refocused:
    then every frame's G is formed, once per distinct frame, and only the
    elements that are not refocused read the shot mean. Otherwise step i
    records K_i, and the walk calls no level_phases and makes no GEMM.

    Any other unit, one with a dense segment or a fused frame that permutes
    levels (mask m != 0), is expanded over the draw once, and the walk
    steps one (n, shots, 8, 8) stack of every state through its steps'
    plans instead, each repeat_program's of the expanded unit: a permuting
    frame is one frame per step, a dense unit its segments step by step.

    The result, all (n, T, 8, 8) of it, is checked as one stack to be
    density matrices before anything, tomography readout included, reads
    it, so a broken evolution fails as an InvariantError.
    """
    rho0s, deltas = np.asarray(rho0s, dtype=complex), sys.disorder.draw()
    steps = np.asarray(steps).tolist()  # Python numbers: the dedupe compares them pairwise
    if unit is not None:
        unit = compile_program(sys, *unit)
    fused = unit is None or all(seg[0] == "fused" and not seg[3] for seg in unit)
    if not fused:  # a step repeats the expanded unit
        unit = expand_program(unit, deltas)
    plans, which = {}, []  # step i walks plans[which[i]]
    for i, step in enumerate(steps):
        if unit is not None and not float(step).is_integer():
            raise ValueError(f"step {step} is not a whole number of units")
        which.append(next((j for j in plans if abs(step - steps[j]) <= TIME_ATOL), i))
        if which[-1] == i:  # a NaN gap matches nothing, compiles, and fails
            plans[i] = ([] if step == 0 else compile_program(sys, (), step)
                        if unit is None else repeat_program(unit, int(step)))
    if fused:
        frames = {j: plan for j, plan in plans.items() if plan}
        # every frame's H side by side, (8, 3 * frames); a step of two frames fails here
        hs = np.concatenate([np.empty((DIM, 0))] + [h for [(_, _, h, _)] in frames.values()], 1)
        kept = (np.abs(hs[:, None] - hs) <= TIME_ATOL).all(axis=-1)  # refocused; NaN never is
        shots = bool(rho0s[:, ~kept].any())  # some state occupies an element not kept
        phases = {j: level_phases(h, deltas) for j, [(_, _, h, _)] in frames.items() if shots}
        k, g = np.ones((DIM, DIM), dtype=complex), np.ones((len(deltas), DIM), dtype=complex)
        ks = np.empty((len(steps), DIM, DIM), complex)
        means = np.empty_like(ks) if shots else None
        for i, j in enumerate(which):
            for _, k_step, _, _ in plans[j]:  # one frame, or none for a zero step
                k, g = k_step * k, phases[j] * g if shots else g
            ks[i] = k
            if shots:
                means[i] = g.T @ g.conj()
        ks = np.where(kept, ks, ks * means / len(deltas)) if shots else ks  # the shot mean
        out = ks * rho0s[:, None]
    else:
        out = np.empty((len(rho0s), len(steps), DIM, DIM), dtype=complex)
        states = np.repeat(rho0s[:, None], len(deltas), axis=1)
        for i, j in enumerate(which):
            states = apply_program(states, plans[j])
            out[:, i] = states.mean(axis=1)
    try:
        qmat.assert_density_matrix(out)
    except ValueError as exc:
        raise qmat.InvariantError(f"recorded state is not a density matrix: {exc}") from exc
    return out


# -- configuration ---------------------------------------------------------

def read_ini(text: str) -> dict[str, dict[str, str]]:
    """Parse key = value sections from plain text, preserving case."""
    # no header can spell "\n": [DEFAULT] is an ordinary section, whose keys are
    # neither dropped nor copied into the others, and system_from_mapping refuses it
    cp = configparser.ConfigParser(interpolation=None, default_section="\n")
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    return {name: dict(cp[name]) for name in cp.sections()}


def split_list(raw: str, where: str) -> list[str]:
    """Items of a list set apart by commas, blanks or both; an empty item is refused."""
    parts = [part.split() for part in raw.split(",")]
    if len(parts) > 1 and not all(parts):
        raise ConfigError(f"{where}: empty item in '{raw}'")
    return [item for part in parts for item in part]


def _parse(raw: str, default, where: str):
    """raw read as its key's default is typed: on/off, a whole number, a number or a tuple."""
    if isinstance(default, bool):
        val = raw.strip().lower()
        if val in ("on", "true", "yes", "1"):
            return True
        if val in ("off", "false", "no", "0"):
            return False
        raise ConfigError(f"{where}: expected on/off, got '{raw}'")
    try:
        vals = tuple(float(p) for p in split_list(raw, where))
    except ValueError as exc:
        raise ConfigError(f"{where}: expected numbers, got '{raw}'") from exc
    if not np.all(np.isfinite(vals)):
        raise ConfigError(f"{where}: expected finite numbers, got '{raw}'")
    if len(vals) != np.size(default):
        raise ConfigError(f"{where}: expected {np.size(default)} values, got {len(vals)}")
    if isinstance(default, tuple):
        return vals
    if isinstance(default, int) and not vals[0].is_integer():
        raise ConfigError(f"{where}: expected a whole number, got '{raw}'")
    return type(default)(vals[0])


# Every config key: (section, key, model field, doc). The section names the model,
# getattr(system, section, system): SpinSystem itself for [system], which no field
# is named. The field's value in SpinSystem() is the key's default and its type
# picks the key's parser.
CONFIG_KEYS = (
    ("system", "offsets_hz", "offsets", "chemical-shift offsets of the three spins, Hz"),
    ("system", "couplings_hz", "couplings", "scalar couplings J12 J13 J23, Hz"),
    ("noise", "gamma_s", "gamma", "independent per-spin dephasing rates, 1/s"),
    ("noise", "gamma_corr_s", "gamma_corr", "correlated (common-mode) dephasing rate, 1/s"),
    ("pulse", "flip_fraction_error", "flip_fraction_error",
     "fractional flip-angle error on every pulse"),
    ("pulse", "phase_error_rad", "phase_error", "phase offset added to every pulse, rad"),
    ("pulse", "internal_h_during_pulse", "internal_h_during_pulse",
     "integrate offsets and couplings through pulse windows instead of around them"),
    ("disorder", "sigma_hz", "sigma",
     "per-spin disorder spread, Hz; any nonzero width turns disorder on"),
    ("disorder", "sigma_corr_hz", "sigma_corr", "common-mode disorder spread, Hz"),
    ("disorder", "shots", "shots", "disorder samples per run"),
    ("disorder", "seed", "seed", "disorder rng seed"),
)


def default_text(section: str, name: str) -> str:
    """A config key's default as config text: its field's value in SpinSystem()."""
    base = SpinSystem()
    value = getattr(getattr(base, section, base), name)
    if isinstance(value, bool):
        return "on" if value else "off"
    return " ".join(f"{v:g}" for v in np.atleast_1d(value))


def system_from_mapping(cfg: dict[str, dict[str, str]]) -> SpinSystem:
    """Build a SpinSystem from parsed config sections.

    Every given key is parsed and validated; an unknown section or key
    is an error.
    """
    base = SpinSystem()
    table = {(section, key): name for section, key, name, _ in CONFIG_KEYS}
    fields: dict[str, dict] = {section: {} for section, *_ in CONFIG_KEYS}
    for section, entries in cfg.items():
        if section not in fields:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in entries.items():
            if (section, key) not in table:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
            name = table[section, key]
            fields[section][name] = _parse(raw, getattr(getattr(base, section, base), name),
                                           f"[{section}] {key}")
    try:
        return replace(base, **fields.pop("system"), **{
            section: replace(getattr(base, section), **given)
            for section, given in fields.items()})
    except ValueError as exc:
        raise ConfigError(f"invalid config: {exc}") from exc


def system_from_text(text: str) -> SpinSystem:
    """Build a SpinSystem from config text, rejecting unknown keys."""
    return system_from_mapping(read_ini(text))
