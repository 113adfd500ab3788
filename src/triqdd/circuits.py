"""State preparation, pulse-level star circuit and tomography.

Each catalog state is stated once, by its ket: data/state_catalog.json
lists its nonzero amplitudes, and the ideal preparation is that ket's
density matrix. Only the star state also has a physical preparation,
stated as code in star_circuit_nmr (there is no program file): controlled
rotations compile to transverse pulses, z rotations as three-pulse
composites, and controlled-Z via a coupling echo that refocuses everything
except the one scalar coupling doing the work, run for 1/(2|J|).

Tomography reads out through pulse words: a three-letter word over
{I, X, Y} applies a pi/2 rotation about the named axis to each non-I
position (letter position = qubit). It records, for each of the seven
words, the populations and the real and imaginary parts of every
single-bit-flip element of the rotated state, averaged over SCANS noisy
scans, then solves the linear model, with unit trace as one more
equation, for the 64 real parameters of a Hermitian matrix and projects
onto the physical cone. The rotation readout (_observe) defines the
design matrix; the settings determine the state, so on a unit-trace
Hermitian input (every caller passes a checked density matrix) the
noiseless solve returns the input exactly, and a reading is the state
plus the solve of its noise. No record of the state itself is formed. A
call reads one state, an (n, 8, 8) stack of recorded times, or an
(m, n, 8, 8) stack of m experiments read at the same n times (a star
run's protected pairs): time i draws its scan-averaged noise once, from
seed + i, and every experiment read at that time adds the same draw.
"""

from __future__ import annotations

import json
from dataclasses import replace
from functools import lru_cache
from importlib import resources

import numpy as np

from . import qmat, spinsys
from .qmat import InvariantError
from .spinsys import DisorderModel, PulseErrorModel, PulseEvent, SpinSystem, _frozen, pulse

DIM = spinsys.DIM

TOMOGRAPHY_SETTINGS = ("III", "IIY", "IYY", "YII", "XYX", "XXY", "XXX")
SCANS = 32  # averaged acquisitions per setting


@lru_cache(maxsize=1)
def state_catalog() -> dict:
    doc = json.loads(resources.files("triqdd").joinpath("data/state_catalog.json").read_text())
    return doc["states"]


def state_ids() -> tuple[str, ...]:
    return tuple(state_catalog())


def _catalog_entry(state_id: str) -> dict:
    cat = state_catalog()
    if state_id not in cat:
        raise ValueError(f"unknown state '{state_id}', expected one of {sorted(cat)}")
    return cat[state_id]


def prepare(state_id: str) -> np.ndarray:
    """Density matrix of the catalog state: its ket, one amplitude per term."""
    ket = np.zeros(DIM, dtype=complex)
    for index, amp in _catalog_entry(state_id)["terms"]:
        ket[index] = amp
    return qmat.ket_to_rho(ket)


def tracked_element(state_id: str) -> tuple[int, int]:
    i, j = _catalog_entry(state_id)["tracked_element"]
    return int(i), int(j)


def element_label(state_id: str) -> str:
    """The tracked element with 1-based row and column, e.g. rho18."""
    i, j = tracked_element(state_id)
    return f"rho{i + 1}{j + 1}"


# -- pulse-level star circuit ----------------------------------------------

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
    """Timed pulse program preparing the star state from |000> on this system.

    y(120 deg) on qubit 1 leaves 1/4 of the population with q1 = 0. Each
    controlled y(a) is CZ, y(-a/2) on the target, CZ, y(+a/2): on qubit 3,
    a/2 = 54.7356 deg (a = 2 acos(1/sqrt(3))) splits the excited branch
    1:sqrt(2); on qubit 2, a/2 = 45 deg halves the doubly excited branch.
    All four amplitudes land on 1/2. A controlled-Z borrows its pair's
    coupling for 1/(2 |J|) inside a four-pulse echo that refocuses the
    offsets and both spectator couplings; the sign of J picks the direction
    of the corrective z rotations, and a zero J is a ValueError. Returns
    (events, duration); all rotations instantaneous.
    """
    events = [pulse(0.0, 1, np.deg2rad(120.0), np.pi / 2)]
    t = 0.0
    # each controlled y(a): (control, target, spectator, a/2 in degrees)
    for control, target, spectator, half_deg in ((1, 3, 2, 54.73561031724535), (3, 2, 1, 45.0)):
        j = sys.coupling(control, target)
        if j == 0.0:
            raise ValueError(f"coupling J{control}{target} is zero, no controlled-Z possible")
        t_echo, sign = 1.0 / (2.0 * abs(j)), 1.0 if j > 0 else -1.0
        for angle_deg in (-half_deg, half_deg):
            events.extend(_echo_events(t, (control, target), spectator, t_echo))
            t += t_echo
            events.extend(_rz_events(t, control, -sign * np.pi / 2))
            events.extend(_rz_events(t, target, -sign * np.pi / 2))
            events.append(pulse(t, target, np.deg2rad(angle_deg), np.pi / 2))
    return tuple(events), t


def prepare_star_nmr(sys: SpinSystem) -> np.ndarray:
    """Walk the pulse-level star program once from |000> on the given system.

    The system's offsets, couplings and dephasing act; its pulses are
    taken as error-free and its disorder widths as zero: one zero shot.
    """
    rho0 = np.zeros((DIM, DIM), dtype=complex)
    rho0[0, 0] = 1.0
    return spinsys.walk(replace(sys, pulse=PulseErrorModel(), disorder=DisorderModel()),
                        star_circuit_nmr(sys), [1], [rho0])[0, 0]


# -- readout ---------------------------------------------------------------

_AXIS_PHASE = {"X": 0.0, "Y": np.pi / 2}


def readout_unitary(word: str) -> np.ndarray:
    """Unitary of a three-letter readout pulse word over {I, X, Y}."""
    if len(word) != 3:
        raise ValueError(f"readout word must have three letters, got '{word}'")
    for letter in word:
        if letter != "I" and letter not in _AXIS_PHASE:
            raise ValueError(f"invalid readout letter '{letter}' in '{word}'")
    targets = [q for q, letter in enumerate(word, 1) if letter != "I"]
    return spinsys.rotation_product(targets, np.pi / 2, [_AXIS_PHASE[word[q - 1]] for q in targets])


# -- tomography ------------------------------------------------------------

# The recorded reals of one setting: the eight populations, then the real
# and imaginary part of each single-bit-flip element (a, b), a < b. Each is
# a position in the rotated state's flattened float view (re, im per entry).
_LINE_PAIRS = [(a, b) for a in range(DIM) for b in range(a + 1, DIM)
               if (a ^ b).bit_count() == 1]
_RECORD_INDEX = _frozen(np.array(
    [2 * (k * DIM + k) for k in range(DIM)]
    + [2 * (a * DIM + b) + part for a, b in _LINE_PAIRS for part in (0, 1)]))


@lru_cache(maxsize=1)
def _readout_stack() -> np.ndarray:
    """(settings, 8, 8) unitaries of TOMOGRAPHY_SETTINGS, in order."""
    return _frozen(np.stack([readout_unitary(word) for word in TOMOGRAPHY_SETTINGS]))


@lru_cache(maxsize=1)
def _hermitian_basis() -> np.ndarray:
    """(64, 8, 8) Hermitian basis, one matrix per column of the design
    matrix: the diagonal units, then per a < b the real and imaginary
    pair. A vector of 64 reals in this order is a Hermitian matrix."""
    basis = np.zeros((64, DIM, DIM), dtype=complex)
    k = np.arange(DIM)
    basis[k, k, k] = 1.0
    m = DIM
    for a in range(DIM):
        for b in range(a + 1, DIM):
            basis[m, a, b] = basis[m, b, a] = 1.0
            basis[m + 1, a, b], basis[m + 1, b, a] = 1j, -1j
            m += 2
    return _frozen(basis)


def _observe(rho: np.ndarray) -> np.ndarray:
    """All recorded reals for one state, or per member of a (n, 8, 8) stack:
    per setting, populations and the single-bit-flip line elements (real
    and imaginary parts).

    Every setting is read at once, `U rho U†` over the cached unitary
    stack, and the record is gathered through the fixed _RECORD_INDEX;
    the values are those of rotating by each word in turn and reading the
    elements one by one. This is the readout's definition: the design
    matrix is built from it, one column per basis matrix, and tomography
    solves through that matrix's tables."""
    u = _readout_stack()
    rho = np.asarray(rho, dtype=complex)[..., None, :, :]
    rotated = u @ rho @ u.conj().swapaxes(-1, -2)
    records = rotated.reshape(rotated.shape[:-2] + (DIM * DIM,)).view(np.float64)
    return records[..., _RECORD_INDEX].reshape(rotated.shape[:-3] + (-1,))


@lru_cache(maxsize=1)
def _tomography_tables() -> tuple[np.ndarray, np.ndarray]:
    """(design matrix, solve matrix), built once and read-only.

    The solve matrix S is the pseudo-inverse of the design matrix A with
    the unit-trace row appended, so one matrix-vector product gives the
    same least-squares parameters a fresh solve of that system would. A
    has full column rank (checked here; settings that do not determine
    the state raise InvariantError), so S is a left inverse: on the
    records of a unit-trace Hermitian matrix it returns that matrix's
    parameters, and only the noise's solve S[:, :-1] @ noise is left."""
    a = _observe(_hermitian_basis()).T
    if np.linalg.matrix_rank(a) < 64:
        raise InvariantError("tomography design matrix is rank deficient; "
                             "the setting list does not determine the state")
    trace_row = np.concatenate([np.ones(DIM), np.zeros(64 - DIM)])
    return _frozen(a), _frozen(np.linalg.pinv(np.vstack([a, trace_row])))


def _design_matrix() -> np.ndarray:
    """The (records, 64) design matrix; the first call fills every
    tomography cache (unitary stack, basis, solve matrix)."""
    return _tomography_tables()[0]


def tomography(rho_true: np.ndarray, sigma: float = 0.0, seed: int = 0) -> np.ndarray:
    """Reconstruct a state, each member of an (n, 8, 8) stack, or each
    member of an (m, n, 8, 8) stack of m experiments read at the same n
    times, from the seven-setting readout simulation.

    sigma adds seeded Gaussian noise to every recorded value of every
    scan, and each setting averages SCANS acquisitions, the usual way a
    spectrometer beats per-scan noise down. Time i of the stack draws its
    scan-averaged noise once, from seed + i, and every experiment read at
    that time adds that one draw: an (n, 8, 8) stack reconstructs as n
    single calls would, and an (m, n, 8, 8) stack as m stacked calls with
    the same seed; a stack of no times draws nothing and reads back empty.
    A negative seed is refused at every sigma, noiseless included; a noise
    level whose draws overflow is a ValueError. The draws live for one call;
    nothing is kept between calls.

    The readout is linear: a state's records are A p, its 64 real
    parameters p (the diagonal, then Re and Im of each a < b) times the
    design matrix A, and the solve matrix S is a left inverse of A with the
    unit-trace row appended (see _tomography_tables). So the least-squares
    parameters of the noisy records are S [A p + noise; 1] = p + S[:, :-1]
    noise, which holds for a unit-trace Hermitian input; every caller
    passes one, a checked density matrix, and an input member that is not
    Hermitian is a ValueError naming it (qmat.assert_hermitian). No record
    of the state is formed: the state plus its solved noise is clipped to
    the positive cone and renormalized, over the whole stack with one
    batched eigh. The tables are fetched on every call, so settings that
    do not determine the state raise InvariantError at any sigma.
    """
    rho = np.asarray(rho_true, dtype=complex)
    if rho.ndim not in (2, 3, 4) or rho.shape[-2:] != (DIM, DIM):
        raise ValueError("expected an 8x8 state, an (n, 8, 8) stack or an (m, n, 8, 8) stack, "
                         f"got {rho.shape}")
    if not 0.0 <= sigma < np.inf:
        raise ValueError(f"readout noise sigma must be finite and nonnegative, got {sigma}")
    if seed < 0:
        raise ValueError(f"tomography seed must be nonnegative, got {seed}")
    qmat.assert_hermitian(rho)  # eigh reads one triangle: it would read any other input wrong
    design, solve = _tomography_tables()
    if sigma > 0:
        n = rho.shape[-3] if rho.ndim > 2 else 1
        size = (SCANS, design.shape[0])
        with np.errstate(over="ignore", invalid="ignore"):  # (n, records), n = 0 too
            noise = np.array([(np.random.default_rng(seed + i).standard_normal(size) * sigma)
                              .mean(axis=0) for i in range(n)]).reshape(n, size[1])
        if not np.isfinite(noise).all():
            raise ValueError(f"readout noise sigma {sigma:g} overflows the recorded values")
        rho = rho + np.tensordot(noise @ solve[:, :-1].T, _hermitian_basis(), axes=1)
    w, v = np.linalg.eigh(rho)
    rho = (v * np.clip(w, 0.0, None)[..., None, :]) @ v.conj().swapaxes(-1, -2)
    rho = rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]
    return rho.reshape(np.shape(rho_true))
