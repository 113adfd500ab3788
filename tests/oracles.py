"""Oracles the tests check the program against, which the program never calls.

Each is a plain formula or a plain reader: per-time free-evolution
factors, the element-wise frequency shift of a static offset draw,
loaders for exported density matrices and timed-event programs, and the
golden documents under tests/data (the coherence-order table and the star
state), which only the tests read. The two
formulas read the model's energy, decay and sensitivity tables
(spinsys._tables), the tables the engine compiles from, so the tests
that check them against the superoperator exponential still check the
program's model.
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
