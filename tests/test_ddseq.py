"""Sequence generation, modification, timing, and the robustness gate."""

import numpy as np
import pytest
from scipy.linalg import expm

from triqdd import ddseq, spinsys
from triqdd.spinsys import SpinSystem, NoiseModel


def plain_system():
    return SpinSystem(noise=NoiseModel())


FAMILY_SIZES = {"XY4": 4, "XY8": 8, "XY16": 16, "UR12": 12, "KDD20": 20}


# -- generation ------------------------------------------------------------

def test_family_pulse_counts_and_duration():
    for fam, n in FAMILY_SIZES.items():
        c = ddseq.generate(fam, 1e-3, 5e-5, (1, 2))
        assert c.n_slots == n
        assert len(c.events) == n
        assert c.cycle_duration == pytest.approx(n * (1e-3 + 5e-5))
        for ev in c.events:
            assert ev.flip == pytest.approx(np.pi)
            assert ev.targets == (1, 2)
            assert -1e-12 <= ev.start and ev.end <= c.cycle_duration + 1e-12


def test_pulse_centers_on_uniform_grid():
    tau, tp = 8e-4, 6e-5
    c = ddseq.generate("XY8", tau, tp, (3,))
    pitch = tau + tp
    for i, ev in enumerate(c.events):
        assert ev.start + tp / 2 == pytest.approx((i + 0.5) * pitch, abs=1e-15)


def test_schedule_is_time_symmetric():
    for fam in FAMILY_SIZES:
        c = ddseq.generate(fam, 1e-3, 4e-5, (1,))
        centers = [ev.start + ev.duration / 2 for ev in c.events]
        for a, b in zip(centers, reversed(centers)):
            assert a + b == pytest.approx(c.cycle_duration, abs=1e-12)


def test_ur12_phases_follow_quadratic_rule():
    c = ddseq.generate("UR12", 1e-3, 0.0, (1,))
    for k, deg in enumerate(c.phases_deg):
        assert deg == pytest.approx((k * (k - 1) // 2 * 60) % 360)


def test_kdd20_is_four_composite_blocks():
    c = ddseq.generate("KDD20", 1e-3, 0.0, (1,))
    block = np.array([30.0, 0.0, 90.0, 0.0, 30.0])
    got = np.array(c.phases_deg).reshape(4, 5)
    for row, frame in zip(got, (0.0, 90.0, 0.0, 90.0)):
        assert np.allclose(row, (block + frame) % 360)


def test_xy16_is_xy8_plus_shifted_copy():
    xy8 = ddseq.generate("XY8", 1e-3, 0.0, (1,)).phases_deg
    xy16 = ddseq.generate("XY16", 1e-3, 0.0, (1,)).phases_deg
    assert xy16[:8] == xy8
    assert xy16[8:] == tuple((p + 180.0) % 360 for p in xy8)


def test_generate_rejects_bad_input():
    with pytest.raises(ValueError):
        ddseq.generate("XY7", 1e-3)
    with pytest.raises(ValueError):
        ddseq.generate("XY8", 0.0)
    with pytest.raises(ValueError):
        ddseq.generate("XY8", 1e-3, -1e-6)
    with pytest.raises(ValueError):
        ddseq.generate("XY8", 1e-3, 0.0, (1, 1))
    with pytest.raises(ValueError):
        ddseq.generate("XY8", 1e-3, 0.0, (5,))
    with pytest.raises(ValueError):
        ddseq.generate("XY8", 1e-5, 5e-5)  # pulse wider than the grid allows


def test_cpmg_generator():
    c = ddseq.generate_cpmg(8, 1e-3, 0.0, (2,))
    assert c.name == "CPMG8"
    assert all(p == 0.0 for p in c.phases_deg)
    with pytest.raises(ValueError):
        ddseq.generate_cpmg(0, 1e-3)


# -- modification ----------------------------------------------------------

def test_modify_counts_and_window():
    tau, tp = 1e-3, 8e-5
    c = ddseq.generate("XY8", tau, tp, (1, 2))
    m = ddseq.modify(c)
    assert m.name == "mXY8"
    assert m.modified == (4, 1, 2)
    on_passive = [ev for ev in m.events if 1 in ev.targets]
    on_doubled = [ev for ev in m.events if 2 in ev.targets]
    assert len(on_passive) == 7
    assert len(on_doubled) == 9
    assert m.cycle_duration == pytest.approx(c.cycle_duration + tp)
    # the doubled pair fills [center - tp, center + tp] back to back
    center = (4 + 0.5) * (tau + tp)
    first, second = [ev for ev in m.events if ev.targets == (2,)]
    assert first.start == pytest.approx(center - tp, abs=1e-15)
    assert first.end == pytest.approx(second.start, abs=1e-15)
    assert second.end == pytest.approx(center + tp, abs=1e-15)
    assert first.phases == second.phases
    # slots after the modified one shift by tp
    late_std = [ev for ev in m.events if len(ev.targets) == 2 and ev.start > center]
    for i, ev in zip(range(5, 8), late_std):
        assert ev.start + tp / 2 == pytest.approx((i + 0.5) * (tau + tp) + tp, abs=1e-13)


def test_modify_defaults_and_overrides():
    c = ddseq.generate("UR12", 1e-3, 0.0, (2, 3))
    m = ddseq.modify(c)
    assert m.modified == (6, 2, 3)
    m2 = ddseq.modify(c, slot=1)
    assert m2.modified == (1, 2, 3)
    assert m2.unit_cycles == 2
    assert c.unit_cycles == 1


def test_modify_rejections():
    c = ddseq.generate("XY8", 1e-3, 0.0, (1, 2))
    with pytest.raises(ValueError):
        ddseq.modify(ddseq.modify(c))  # already modified
    with pytest.raises(ValueError):
        ddseq.modify(ddseq.generate("XY8", 1e-3, 0.0, (1, 2, 3)))
    with pytest.raises(ValueError):
        ddseq.modify(ddseq.generate("XY8", 1e-3, 0.0, (1,)))
    with pytest.raises(ValueError):
        ddseq.modify(c, slot=8)


def up_to_phase_identity(u, atol):
    k = np.argmax(np.abs(np.diag(u)))
    phase = u[k, k] / abs(u[k, k])
    return np.allclose(u / phase, np.eye(u.shape[0]), atol=atol)


def test_modified_pair_is_identity_ideal():
    for fam in FAMILY_SIZES:
        m = ddseq.modify(ddseq.generate(fam, 1e-3, 0.0, (1, 2)))
        assert up_to_phase_identity(ddseq.pulse_product(m), 1e-10)


def test_standard_cycle_identity_ideal():
    for fam in FAMILY_SIZES:
        c = ddseq.generate(fam, 1e-3, 0.0, (1, 2, 3))
        assert up_to_phase_identity(ddseq.pulse_product(c), 1e-10)


def test_xy8_pulse_product_is_exactly_identity():
    c = ddseq.generate("XY8", 1e-3, 0.0, (2,))
    assert np.allclose(ddseq.pulse_product(c), np.eye(8), atol=1e-12)


# -- cycle propagator and refocusing ---------------------------------------

def brute_force_propagator(cycle, sys):
    """Literal matrix product of diagonal-H exponentials and rotations."""
    h = 2 * np.pi * np.diag(spinsys.energies(sys)).astype(complex)
    u = np.eye(8, dtype=complex)
    cursor = 0.0
    for ev in cycle.events:
        u = expm(-1j * h * (ev.start - cursor)) @ u
        rot = np.eye(8, dtype=complex)
        for q, ph in zip(ev.targets, ev.phases):
            rot = spinsys.embed(spinsys.rotation2(ev.flip, ph), q) @ rot
        u = rot @ u
        cursor = ev.end
    return expm(-1j * h * (cycle.cycle_duration - cursor)) @ u


def deleted_h_unitary(sys, removed_qubit, t):
    offsets = list(sys.offsets)
    offsets[removed_qubit - 1] = 0.0
    couplings = list(sys.couplings)
    for idx, pair in enumerate(((1, 2), (1, 3), (2, 3))):
        if removed_qubit in pair:
            couplings[idx] = 0.0
    stripped = SpinSystem(offsets=tuple(offsets), couplings=tuple(couplings), noise=NoiseModel())
    return np.diag(np.exp(-2j * np.pi * spinsys.energies(stripped) * t))


def test_single_spin_xy8_deletes_that_spins_terms():
    sys = plain_system()
    c = ddseq.generate("XY8", 1e-3, 0.0, (3,))
    u = ddseq.cycle_propagator(c, sys)
    assert np.allclose(u, brute_force_propagator(c, sys), atol=1e-12)
    assert np.allclose(u, deleted_h_unitary(sys, 3, c.cycle_duration), atol=1e-9)


def test_refocused_spin_is_fully_decoupled():
    sys = plain_system()
    c = ddseq.generate("XY8", 1e-3, 0.0, (3,))
    u = ddseq.cycle_propagator(c, sys)
    rng = np.random.default_rng(41)
    for _ in range(5):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        a = spinsys.embed(g, 3)
        assert np.abs(u @ a - a @ u).max() < 1e-9


def test_all_spin_xy8_keeps_couplings():
    sys = plain_system()
    c = ddseq.generate("XY8", 1e-3, 0.0, (1, 2, 3))
    u = ddseq.cycle_propagator(c, sys)
    assert np.allclose(u, brute_force_propagator(c, sys), atol=1e-12)
    # offsets refocused, J terms survive in full
    j_only = SpinSystem(offsets=(0.0, 0.0, 0.0), couplings=sys.couplings, noise=NoiseModel())
    want = np.diag(np.exp(-2j * np.pi * spinsys.energies(j_only) * c.cycle_duration))
    assert np.allclose(u, want, atol=1e-9)
    assert not np.allclose(u, np.eye(8), atol=1e-3)


def test_cycle_propagator_covers_modified_unit():
    sys = plain_system()
    m = ddseq.modify(ddseq.generate("XY8", 1e-3, 0.0, (1, 2)))
    u = ddseq.cycle_propagator(m, sys)
    assert u.shape == (8, 8)
    assert np.allclose(u @ u.conj().T, np.eye(8), atol=1e-10)


# -- repetition and serialization ------------------------------------------

def test_unit_count_counts():
    c = ddseq.generate("XY8", 0.58e-3, 0.045e-3, (2,))
    assert c.cycle_duration == pytest.approx(0.005)
    cycles = ddseq.unit_count(0.7, c.unit_duration, c.name) * c.unit_cycles
    assert cycles == 140
    events, duration = ddseq.program(c, cycles)
    assert duration == pytest.approx(0.7)
    assert len(events) == 140 * 8
    m = ddseq.modify(ddseq.generate("XY8", 0.538e-3, (0.005 - 8 * 0.538e-3) / 9, (1, 2)))
    assert m.cycle_duration == pytest.approx(0.005)
    cycles = ddseq.unit_count(0.7, m.unit_duration, m.name) * m.unit_cycles
    assert cycles == 140
    _, duration = ddseq.program(m, cycles)
    assert duration == pytest.approx(0.7)


def test_unit_count_empty_and_rejection():
    c = ddseq.generate("XY16", 0.58e-3, (0.01 - 16 * 0.58e-3) / 16, (2,))
    cycles = ddseq.unit_count(0.0, c.unit_duration, c.name)
    assert cycles == 0
    assert ddseq.program(c, cycles) == ((), 0.0)
    with pytest.raises(ValueError) as err:
        ddseq.unit_count(0.7 + 0.004, c.unit_duration, c.name)
    assert "nearest valid" in str(err.value)


def test_program_unit_enforcement():
    m = ddseq.modify(ddseq.generate("XY8", 1e-3, 0.0, (1, 2)))
    with pytest.raises(ValueError):
        ddseq.program(m, 3)
    events, duration = ddseq.program(m, 4)
    assert duration == pytest.approx(4 * m.cycle_duration)
    # second unit is a clean time translation of the first
    half = len(events) // 2
    for a, b in zip(events[:half], events[half:]):
        assert b.start - a.start == pytest.approx(2 * m.cycle_duration)
        assert (a.targets, a.phases, a.flip) == (b.targets, b.phases, b.flip)


def test_json_round_trip():
    m = ddseq.modify(ddseq.generate("KDD20", 0.417e-3, 1e-5, (1, 2)))
    doc = ddseq.cycle_to_json(m)
    assert doc["name"] == "mKDD20"
    events, duration, name = ddseq.program_from_json(doc)
    want_events, want_duration = ddseq.program(m, 2)
    assert name == "mKDD20"
    assert duration == pytest.approx(want_duration)
    assert len(events) == len(want_events)
    for got, want in zip(events, want_events):
        assert got.start == pytest.approx(want.start, abs=1e-12)
        assert got.duration == pytest.approx(want.duration, abs=1e-15)
        assert got.targets == want.targets
        assert got.flip == pytest.approx(want.flip)
        assert got.phases[0] == pytest.approx(want.phases[0])
    with pytest.raises(ValueError):
        ddseq.program_from_json({"name": "x", "events": [{"t_s": 0.0}]})


# -- robustness gate -------------------------------------------------------

ROBUSTNESS_OFFSETS = np.linspace(-400.0, 400.0, 33)
ROBUSTNESS_TAU = 1e-3
ROBUSTNESS_TP = 5e-5


def band_survival(cycle):
    return float(np.mean([
        ddseq.single_spin_survival(cycle, d, 0.05, 50) for d in ROBUSTNESS_OFFSETS]))


def test_phase_tables_beat_cpmg_under_flip_error():
    baseline = band_survival(ddseq.generate_cpmg(2, ROBUSTNESS_TAU, ROBUSTNESS_TP, (1,)))
    assert baseline < 0.9  # the probe has to bite, or the gate is vacuous
    for fam in ("XY8", "XY16", "UR12", "KDD20"):
        c = ddseq.generate(fam, ROBUSTNESS_TAU, ROBUSTNESS_TP, (1,))
        assert band_survival(c) > baseline + 0.1, fam


def test_survival_probe_sanity():
    c = ddseq.generate("XY8", 1e-3, 0.0, (1,))
    assert ddseq.single_spin_survival(c, 0.0, 0.0, 2) == pytest.approx(1.0, abs=1e-10)
    assert ddseq.single_spin_survival(c, 137.0, 0.0, 2) == pytest.approx(1.0, abs=1e-9)
    m = ddseq.modify(ddseq.generate("XY8", 1e-3, 0.0, (1, 2)))
    with pytest.raises(ValueError):
        ddseq.single_spin_survival(m, 0.0, 0.0, 3)
