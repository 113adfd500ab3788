"""State preparation, pulse-level star circuit, readout and tomography.

Preparation circuits are ideal gate matrices applied to |000>; the gate
lists live in data/state_catalog.json next to the kets they must produce,
so the catalog is checkable against itself. Only the star-state circuit
also exists at pulse level (data/star_program.json): controlled rotations
compile to transverse pulses, z rotations as three-pulse composites, and
controlled-Z via a coupling echo that refocuses everything except the one
scalar coupling doing the work, run for 1/(2|J|).

Readout follows the pulse-word convention: a three-letter word over
{I, X, Y} applies a pi/2 rotation about the named axis to each non-I
position (letter position = qubit). The observable proxy for a detected
signal is the total magnitude in the order-(+1) sector after the word.

Tomography records, for each of the seven readout words, the populations
and the real and imaginary parts of every single-bit-flip element of the
rotated state, averaged over a configurable number of noisy scans, then
solves the linear model for the 64 real parameters of a Hermitian
unit-trace matrix and projects onto the physical cone.
"""

from __future__ import annotations

import json
from dataclasses import replace
from functools import lru_cache
from importlib import resources

import numpy as np

from . import qmat, spinsys
from .qmat import InvariantError
from .spinsys import PulseErrorModel, PulseEvent, SpinSystem, pulse

DIM = spinsys.DIM

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

TOMOGRAPHY_SETTINGS = ("III", "IIY", "IYY", "YII", "XYX", "XXY", "XXX")


@lru_cache(maxsize=1)
def state_catalog() -> dict:
    doc = json.loads(resources.files("triqdd").joinpath("data/state_catalog.json").read_text())
    return doc["states"]


def state_ids() -> tuple[str, ...]:
    return tuple(state_catalog())


def _ry(theta: float) -> np.ndarray:
    return spinsys.rotation2(theta, np.pi / 2)


def _controlled(control: int, target: int, op: np.ndarray) -> np.ndarray:
    p0 = np.array([[1, 0], [0, 0]], dtype=complex)
    p1 = np.array([[0, 0], [0, 1]], dtype=complex)
    return spinsys.embed(p0, control) + spinsys.embed(p1, control) @ spinsys.embed(op, target)


def gate_unitary(name: str, qubits, angle: float | None = None) -> np.ndarray:
    """8x8 unitary of one catalog gate; qubits are 1-based, control first."""
    if name == "h":
        return spinsys.embed(HADAMARD, qubits[0])
    if name == "x":
        return spinsys.embed(spinsys.SIGMA_X, qubits[0])
    if name == "ry":
        return spinsys.embed(_ry(angle), qubits[0])
    if name == "cnot":
        return _controlled(qubits[0], qubits[1], spinsys.SIGMA_X)
    if name == "cry":
        return _controlled(qubits[0], qubits[1], _ry(angle))
    raise ValueError(f"unknown gate '{name}'")


def _catalog_entry(state_id: str) -> dict:
    cat = state_catalog()
    if state_id not in cat:
        raise ValueError(f"unknown state '{state_id}', expected one of {sorted(cat)}")
    return cat[state_id]


def prepare_ket(state_id: str) -> np.ndarray:
    """Ideal preparation circuit applied to |000>."""
    entry = _catalog_entry(state_id)
    ket = np.zeros(DIM, dtype=complex)
    ket[0] = 1.0
    for gate in entry["gates"]:
        name, qubits = gate[0], gate[1]
        angle = gate[2] if len(gate) > 2 else None
        ket = gate_unitary(name, qubits, angle) @ ket
    return ket


def prepare(state_id: str) -> np.ndarray:
    """Density matrix of the ideally prepared state."""
    return qmat.ket_to_rho(prepare_ket(state_id))


def catalog_ket(state_id: str) -> np.ndarray:
    """The ket the catalog says the circuit must produce (term list)."""
    ket = np.zeros(DIM, dtype=complex)
    for index, amp in _catalog_entry(state_id)["terms"]:
        ket[index] = amp
    return ket


def tracked_element(state_id: str) -> tuple[int, int]:
    i, j = _catalog_entry(state_id)["tracked_element"]
    return int(i), int(j)


def element_label(state_id: str) -> str:
    return _catalog_entry(state_id)["element_label"]


def readout_word(state_id: str) -> str | None:
    return _catalog_entry(state_id).get("readout_word")


# -- pulse-level star circuit ----------------------------------------------

@lru_cache(maxsize=1)
def _star_template() -> dict:
    return json.loads(resources.files("triqdd").joinpath("data/star_program.json").read_text())


def _rz_events(t: float, target: int, angle: float) -> list[PulseEvent]:
    # z rotation as x(-90), y(angle), x(90), all instantaneous
    return [
        pulse(t, target, np.pi / 2, np.pi),
        pulse(t, target, angle, np.pi / 2),
        pulse(t, target, np.pi / 2, 0.0),
    ]


def _echo_events(t0: float, pair, spectator: int, t_total: float) -> list[PulseEvent]:
    q = t_total / 4.0
    return [
        pulse(t0 + 1 * q, spectator, np.pi, 0.0),
        pulse(t0 + 2 * q, pair, np.pi, 0.0),
        pulse(t0 + 3 * q, spectator, np.pi, 0.0),
        pulse(t0 + 4 * q, pair, np.pi, 0.0),
    ]


def star_circuit_nmr(sys: SpinSystem) -> tuple[tuple[PulseEvent, ...], float]:
    """Timed pulse program preparing the star state on this system.

    Controlled-Z blocks borrow the coupling of the named pair for
    1/(2 |J|) while an echo removes offsets and the two spectator
    couplings; the sign of J picks the direction of the corrective z
    rotations. Returns (events, duration); all rotations instantaneous.
    """
    events: list[PulseEvent] = []
    t = 0.0
    for step in _star_template()["steps"]:
        op = step["op"]
        if op == "ry":
            events.append(pulse(t, step["target"], np.deg2rad(step["angle_deg"]), np.pi / 2))
        elif op == "cz":
            control, target = step["control"], step["target"]
            spectator = step["spectator"]
            j = sys.coupling(control, target)
            if j == 0.0:
                raise ValueError(f"coupling J{control}{target} is zero, no controlled-Z possible")
            t_echo = 1.0 / (2.0 * abs(j))
            events.extend(_echo_events(t, (control, target), spectator, t_echo))
            t += t_echo
            sign = 1.0 if j > 0 else -1.0
            events.extend(_rz_events(t, control, -sign * np.pi / 2))
            events.extend(_rz_events(t, target, -sign * np.pi / 2))
        else:
            raise ValueError(f"unknown star-program op '{op}'")
    return tuple(events), t


def prepare_star_nmr(sys: SpinSystem) -> np.ndarray:
    """Run the pulse-level star program from |000> on the given system.

    The system's offsets, couplings and dephasing act; its pulses are
    taken as error-free.
    """
    rho0 = np.zeros((DIM, DIM), dtype=complex)
    rho0[0, 0] = 1.0
    events, duration = star_circuit_nmr(sys)
    return spinsys.apply_sequence(rho0, replace(sys, pulse=PulseErrorModel()), events, duration)


# -- readout ---------------------------------------------------------------

_AXIS_PHASE = {"X": 0.0, "Y": np.pi / 2}


def readout_unitary(word: str) -> np.ndarray:
    """Unitary of a three-letter readout pulse word over {I, X, Y}."""
    if len(word) != 3:
        raise ValueError(f"readout word must have three letters, got '{word}'")
    u = np.eye(DIM, dtype=complex)
    for position, letter in enumerate(word):
        if letter == "I":
            continue
        if letter not in _AXIS_PHASE:
            raise ValueError(f"invalid readout letter '{letter}' in '{word}'")
        u = spinsys.embed(spinsys.rotation2(np.pi / 2, _AXIS_PHASE[letter]), position + 1) @ u
    return u


def readout(rho: np.ndarray, word: str) -> np.ndarray:
    """Apply the readout word to a state."""
    u = readout_unitary(word)
    return u @ np.asarray(rho, dtype=complex) @ u.conj().T


def single_quantum_amplitude(rho: np.ndarray) -> float:
    """Total magnitude in the order-(+1) sector, the detectable-signal proxy."""
    rho = np.asarray(rho)
    orders = qmat.coherence_order_matrix(3)
    return float(np.abs(rho[orders == 1]).sum())


# -- tomography ------------------------------------------------------------

def _hermitian_basis() -> list[np.ndarray]:
    """64 Hermitian basis matrices matching the real parameter layout."""
    basis = []
    for k in range(DIM):
        e = np.zeros((DIM, DIM), dtype=complex)
        e[k, k] = 1.0
        basis.append(e)
    for a in range(DIM):
        for b in range(a + 1, DIM):
            re = np.zeros((DIM, DIM), dtype=complex)
            re[a, b] = re[b, a] = 1.0
            basis.append(re)
            im = np.zeros((DIM, DIM), dtype=complex)
            im[a, b] = 1j
            im[b, a] = -1j
            basis.append(im)
    return basis


def _observe(rho: np.ndarray) -> np.ndarray:
    """All recorded reals for one state: per setting, populations and
    the single-bit-flip line elements (real and imaginary parts)."""
    pairs = [(a, b) for a in range(DIM) for b in range(a + 1, DIM)
             if (a ^ b).bit_count() == 1]
    rows = []
    for word in TOMOGRAPHY_SETTINGS:
        rotated = readout(rho, word)
        rows.extend(np.diag(rotated).real)
        for a, b in pairs:
            rows.append(rotated[a, b].real)
            rows.append(rotated[a, b].imag)
    return np.array(rows)


@lru_cache(maxsize=1)
def _design_matrix() -> np.ndarray:
    cols = [_observe(m) for m in _hermitian_basis()]
    a = np.column_stack(cols)
    if np.linalg.matrix_rank(a) < 64:
        raise InvariantError("tomography design matrix is rank deficient; "
                             "the setting list does not determine the state")
    return a


def tomography(rho_true: np.ndarray, sigma: float = 0.0, seed: int = 0,
               scans: int = 32) -> np.ndarray:
    """Reconstruct a state from the seven-setting readout simulation.

    sigma adds seeded Gaussian noise to every recorded value of every
    scan; scans is the number of averaged acquisitions per setting, the
    usual way a spectrometer beats per-scan noise down. The linear solve
    enforces unit trace as an extra equation; the result is then clipped
    to the positive cone and renormalized.
    """
    rho_true = np.asarray(rho_true, dtype=complex)
    if rho_true.shape != (DIM, DIM):
        raise ValueError(f"expected an 8x8 state, got {rho_true.shape}")
    if scans < 1:
        raise ValueError("scans must be positive")
    if not 0.0 <= sigma < np.inf:
        raise ValueError(f"readout noise sigma must be finite and nonnegative, got {sigma}")
    y = _observe(rho_true)
    if sigma > 0:
        draws = np.random.default_rng(seed).normal(0.0, sigma, size=(scans, y.size))
        y = y + draws.mean(axis=0)
    a = _design_matrix()
    trace_row = np.concatenate([np.ones(DIM), np.zeros(64 - DIM)])
    a_full = np.vstack([a, trace_row])
    y_full = np.concatenate([y, [1.0]])
    x, *_ = np.linalg.lstsq(a_full, y_full, rcond=None)
    rho = np.zeros((DIM, DIM), dtype=complex)
    for coeff, m in zip(x, _hermitian_basis()):
        rho += coeff * m
    w, v = np.linalg.eigh(rho)
    w = np.clip(w, 0.0, None)
    rho = (v * w) @ v.conj().T
    return rho / np.trace(rho).real
