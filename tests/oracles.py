"""Oracles the tests check the program against, which the program never calls.

Each is a plain formula or a plain reader: per-time free-evolution
factors, the element-wise frequency shift of a static offset draw, a
pulse's rotation product as sequential matrix products and its signed
permutation in closed form, refocusing decided per spin, loaders for
exported density matrices and timed-event programs, and the golden
documents under tests/data (the coherence-order table and the star
state), which only the tests read.
The two free-evolution formulas read the model's energy, decay and
sensitivity tables (spinsys._tables), the tables the engine compiles
from, so the tests that check them against the superoperator
exponential still check the program's model.
"""

import json
from pathlib import Path

import numpy as np

from triqdd import qmat, spinsys
from triqdd.spinsys import NoiseModel, SpinSystem


def disorder_phase_rates(deltas) -> np.ndarray:
    """Element-wise frequency shift in Hz for static per-spin offset shifts.

    deltas is one (3,) shift or a (shots, 3) stack, giving (8, 8) or
    (shots, 8, 8) respectively. A common-mode shift c is c added to every
    spin: the sensitivities of an element sum to its coherence order.
    """
    levels = spinsys._tables((0.0,) * 3, (0.0,) * 3, NoiseModel())[3]
    sens = levels[:, None, :] - levels[None, :, :]
    return np.einsum("abq,...q->...ab", sens, np.asarray(deltas, dtype=float))


def free_factors(sys: SpinSystem, t: float, extra_hz: np.ndarray | None = None) -> np.ndarray:
    """Element-wise factors of free evolution for time t.

    extra_hz, if given, holds additional element frequencies (static
    disorder shifts) folded into the phase: an (8, 8) matrix, or a
    (shots, 8, 8) stack that yields one factor matrix per shot.
    """
    if t < 0:
        raise ValueError(f"negative evolution time {t}")
    _, phase, decay, _ = spinsys._tables(sys.offsets, sys.couplings, sys.noise)
    if extra_hz is not None:
        phase = phase + extra_hz
    return np.exp((-2j * np.pi * phase - decay) * t)


def sequential_rotation_product(targets, flip: float, phases) -> np.ndarray:
    """Flip-angle rotations on 1-based targets, multiplied in one at a time, first target first."""
    u = np.eye(spinsys.DIM, dtype=complex)
    for q, ph in zip(targets, phases):
        u = spinsys.embed(spinsys.rotation2(flip, ph), q) @ u
    return u


def pulse_permutation(ev: spinsys.PulseEvent, sys: SpinSystem):
    """Signed-permutation form (perm, d) of a pulse in closed form, U[i, perm[i]] = d[i].

    A pulse is a signed permutation when it is a plain rotation product
    (no internal Hamiltonian inside a finite window) whose flip angle,
    errors included, is a whole number n of half turns. With (c, s) the
    cosine and sine of n quarter turns, each target q at phase phi then
    contributes: for odd n the bit flip of q and the entry -i s e^(-i phi)
    on rows where q's bit is 0, -i s e^(i phi) where it is 1; for even n
    the sign c on every row. Returns None for any other pulse.
    """
    flip = ev.flip * (1.0 + sys.pulse.flip_fraction_error)
    phase = ev.phase + sys.pulse.phase_error
    if ev.duration > 0.0 and sys.pulse.internal_h_during_pulse:
        return None
    half_turns = flip / np.pi
    if half_turns != round(half_turns):
        return None
    n = int(half_turns)
    c, s = ((1, 0), (0, 1), (-1, 0), (0, -1))[n % 4]
    perm = np.arange(spinsys.DIM)
    if n % 2 == 0:
        return perm, np.full(spinsys.DIM, complex(c ** len(ev.targets)))
    d, sin, cos = np.ones(spinsys.DIM, dtype=complex), s * np.sin(phase), s * np.cos(phase)
    for q in ev.targets:
        bit_q = 1 << (spinsys.N_QUBITS - q)
        d = d * np.where(perm & bit_q, complex(sin, -cos), complex(-sin, -cos))
        perm = perm ^ bit_q
    return perm, d


def unrefocused_by_spin(hs) -> np.ndarray:
    """(8, 8) mask of the elements that frames' filter functions leave to the disorder, per spin.

    hs is the frames' H side by side, (8, 3 * frames). Spin q is turned
    when some frame's H changes as q flips, max |H[a] - H[a ^ m_q]| >
    TIME_ATOL with m_q the one-bit level on which spinsys.bit reads q (NaN
    counts as a change), and element (a, b) is unrefocused when a ^ b
    flips a turned spin. Real pulses only flip bits, so H[a, q] = s_q(a)
    T_q, and this is the rule spinsys.walk reads per element.
    """
    hs = np.asarray(hs, dtype=float)
    levels = np.arange(spinsys.DIM)
    masks = np.array([sum(b for b in (1, 2, 4) if spinsys.bit(b, q)) for q in (1, 2, 3)])
    turned = ~(np.abs(hs[levels ^ masks[:, None]] - hs).reshape(spinsys.N_QUBITS, -1).max(
        axis=1, initial=0.0) <= spinsys.TIME_ATOL)
    fixed = levels & int(masks @ turned)  # each level's bits on the turned spins
    return fixed[:, None] != fixed


def rho_from_json(doc) -> np.ndarray:
    """Inverse of qmat.rho_to_json; accepts the dict form or its JSON text."""
    if isinstance(doc, (str, bytes)):
        doc = json.loads(doc)
    dim = int(doc["dim"])
    qmat.n_qubits(dim)
    entries = doc["entries"]
    if len(entries) != dim * dim:
        raise ValueError(f"expected {dim * dim} entries, got {len(entries)}")
    flat = np.array([complex(re, im) for re, im in entries])
    return flat.reshape(dim, dim)


def load_data(name: str) -> dict:
    """A golden document from tests/data."""
    return json.loads((Path(__file__).parent / "data" / name).read_text())


def star_rho() -> np.ndarray:
    """The ideal star state, read from its golden document."""
    return rho_from_json(load_data("star_state.json"))


def program_from_json(doc) -> tuple[tuple[spinsys.PulseEvent, ...], float, str]:
    """Load an exported timed-event program (ddseq.cycle_to_json): (events, duration, name)."""
    if isinstance(doc, (str, bytes)):
        doc = json.loads(doc)
    try:
        events = tuple(
            spinsys.pulse(e["t_s"], e["targets"], np.deg2rad(e["flip_deg"]),
                          np.deg2rad(e["phase_deg"]), e["dur_s"])
            for e in doc["events"]
        )
        return events, float(doc["duration_s"]), str(doc["name"])
    except KeyError as exc:
        raise ValueError(f"timed-event document is missing field {exc}") from None
