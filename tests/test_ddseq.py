"""Sequence generation, modification, timing, and the robustness gate."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from triqdd import ddseq, spinsys
from triqdd.spinsys import SpinSystem, NoiseModel

from conftest import MATRIX_UNITS, unit_channel, unitary_channel
from oracles import program_from_json


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
    # a name is a named table, CPMGn with n >= 1 or URn with even n >= 4, in ASCII digits
    for family in ("XY7", "CPMG", "CPMGx", "CPMG0", "CPMG03", "UR2", "UR5", "UR", "UR012",
                   "cpmg4", " CPMG4", "CPMG4 ", "UR١٢"):
        with pytest.raises(ValueError, match=r"unknown family .*\], CPMGn or URn \(even n >= 4\)"):
            ddseq.generate(family, 1e-3)
    with pytest.raises(ValueError):
        ddseq.generate("XY8", 0.0)
    with pytest.raises(ValueError):
        ddseq.generate("XY8", 1e-3, -1e-6)
    # the targets are checked by the pulses that carry them
    with pytest.raises(ValueError, match=r"duplicate target in \(1, 1\)"):
        ddseq.generate("XY8", 1e-3, 0.0, (1, 1))
    with pytest.raises(ValueError, match=r"target 5 out of range 1\.\.3"):
        ddseq.generate("XY8", 1e-3, 0.0, (5,))
    with pytest.raises(ValueError, match="pulse needs at least one target"):
        ddseq.generate("XY8", 1e-3, 0.0, ())
    with pytest.raises(ValueError):
        ddseq.generate("XY8", 1e-5, 5e-5)  # pulse wider than the grid allows
    for tau, t_p in ((np.nan, 0.0), (np.inf, 0.0), (1e-3, np.nan)):
        with pytest.raises(ValueError, match="finite"):
            ddseq.generate("XY8", tau, t_p)
    # a schedule past the largest float is refused: a plain cycle, and a modified one whose
    # cycle fits but whose two-cycle unit does not
    with pytest.raises(ValueError, match=r"XY8 overflows a float at tau 1e\+308 s: unit inf s"):
        ddseq.generate("XY8", 1e308)
    plain = ddseq.generate("XY8", 1.5e307, 0.0, (1, 2))
    assert np.isfinite(plain.unit_duration)
    with pytest.raises(ValueError, match="mXY8 overflows a float"):
        ddseq.modify(plain)


def test_pulse_width_inverts_the_cycle_duration():
    for family in ("XY8", "UR12", "CPMG3"):
        duration = 1.1 * ddseq.generate(family, 1e-3).cycle_duration
        for modified, targets in ((False, (1, 2, 3)), (True, (1, 2))):
            t_p = ddseq.pulse_width(family, 1e-3, duration, modified)
            cycle = ddseq.generate(family, 1e-3, t_p, targets)
            cycle = ddseq.modify(cycle) if modified else cycle
            assert t_p > 0 and cycle.cycle_duration == pytest.approx(duration, rel=1e-15)


def test_cpmg_generator():
    c = ddseq.generate("CPMG8", 1e-3, 0.0, (2,))
    assert c.name == "CPMG8"
    assert all(p == 0.0 for p in c.phases_deg)
    with pytest.raises(ValueError, match="unknown family 'CPMG0'"):
        ddseq.generate("CPMG0", 1e-3)


def test_generated_tables_match_the_published_lists():
    # the lists each family's rule was once stored as, value for value
    assert ddseq.phase_tables() == {
        "XY4": (0, 90, 0, 90),
        "XY8": (0, 90, 0, 90, 90, 0, 90, 0),
        "XY16": (0, 90, 0, 90, 90, 0, 90, 0, 180, 270, 180, 270, 270, 180, 270, 180),
        "UR12": (0, 0, 60, 180, 0, 240, 180, 180, 240, 0, 180, 60),
        "KDD20": (30, 0, 90, 0, 30, 120, 90, 180, 90, 120,
                  30, 0, 90, 0, 30, 120, 90, 180, 90, 120),
    }
    assert all(type(p) is float for table in ddseq.phase_tables().values() for p in table)


def test_ur_rule_for_both_residues_mod_4():
    assert ddseq._ur(12) == ddseq.phase_tables()["UR12"]
    for n in range(4, 41, 2):
        phases = ddseq._ur(n)
        assert len(phases) == n and phases[:2] == (0.0, 0.0)
        assert all(0.0 <= p < 360.0 for p in phases)
    assert ddseq._ur(8) == (0, 0, 90, 270, 180, 180, 270, 90)  # n = 4m: Phi = 180/m
    assert ddseq._ur(10) == tuple(k * (k - 1) // 2 * 144 % 360 for k in range(10))  # 4m + 2
    assert ddseq.generate("UR8", 1e-3).phases_deg == ddseq._ur(8)


# -- modification ----------------------------------------------------------

def test_modify_counts_and_window():
    tau, tp = 1e-3, 8e-5
    c = ddseq.generate("XY8", tau, tp, (1, 2))
    m = ddseq.modify(c)
    assert m.name == "mXY8"
    assert m.slot == 4 and m.targets == (1, 2)
    passive, doubled = m.targets
    on_passive = [ev for ev in m.events if passive in ev.targets]
    on_doubled = [ev for ev in m.events if doubled in ev.targets]
    assert len(on_passive) == 7
    assert len(on_doubled) == 9
    assert m.cycle_duration == pytest.approx(c.cycle_duration + tp)
    # the doubled pair fills [center - tp, center + tp] back to back
    center = (4 + 0.5) * (tau + tp)
    first, second = [ev for ev in m.events if ev.targets == (2,)]
    assert first.start == pytest.approx(center - tp, abs=1e-15)
    assert first.end == pytest.approx(second.start, abs=1e-15)
    assert second.end == pytest.approx(center + tp, abs=1e-15)
    assert first.phase == second.phase
    # slots after the modified one shift by tp
    late_std = [ev for ev in m.events if len(ev.targets) == 2 and ev.start > center]
    for i, ev in zip(range(5, 8), late_std):
        assert ev.start + tp / 2 == pytest.approx((i + 0.5) * (tau + tp) + tp, abs=1e-13)


def test_modify_defaults_and_overrides():
    c = ddseq.generate("UR12", 1e-3, 0.0, (2, 3))
    m = ddseq.modify(c)
    assert m.slot == 6 and m.targets == (2, 3)
    m2 = ddseq.modify(c, slot=1)
    assert m2.slot == 1 and m2.targets == (2, 3)
    # the second target is the doubled one: only it is pulsed alone, twice, at the slot
    assert [ev.targets for ev in m2.events if len(ev.targets) == 1] == [(3,), (3,)]
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
    # a fractional slot would modify no slot at all; a numpy integer is a slot
    with pytest.raises(ValueError, match="slot 1.5 is not a whole number"):
        ddseq.modify(ddseq.generate("XY8", 5e-4, 2e-5, (1, 2)), slot=1.5)
    assert ddseq.modify(c, slot=np.int64(1)) == ddseq.modify(c, slot=1)
    # at an inner slot the doubled window's gaps are tau - t_p / 2: the cycle's
    # own width rule is the whole bound, so the widest width it takes modifies
    tau = 1e-3
    widest = np.nextafter(2 * tau, 0)
    assert ddseq.modify(ddseq.generate("XY8", tau, widest, (1, 2))).t_p == widest
    with pytest.raises(ValueError, match="does not fit the delay grid"):
        ddseq.generate("XY8", tau, 2 * tau, (1, 2))
    # slot 0's doubled window starts at (tau - t_p) / 2: t_p = tau starts it at 0
    m0 = ddseq.modify(ddseq.generate("XY8", tau, tau, (1, 2)), slot=0)
    assert m0.slot == 0 and m0.events[0].start == 0.0 and m0.events[0].targets == (2,)
    with pytest.raises(ValueError, match="slot 0"):
        ddseq.modify(ddseq.generate("XY8", tau, np.nextafter(tau, 1), (1, 2)), slot=0)


# zero Hamiltonian, no noise: a repeat unit compiles to its pulses alone
PULSES_ONLY = SpinSystem((0.0,) * 3, (0.0,) * 3, NoiseModel())


def test_modified_pair_is_identity_ideal():
    for fam in FAMILY_SIZES:
        m = ddseq.modify(ddseq.generate(fam, 1e-3, 0.0, (1, 2)))
        assert np.abs(unit_channel(PULSES_ONLY, m) - MATRIX_UNITS).max() <= 1e-10


def test_standard_cycle_identity_ideal():
    for fam in FAMILY_SIZES:
        c = ddseq.generate(fam, 1e-3, 0.0, (1, 2, 3))
        assert np.abs(unit_channel(PULSES_ONLY, c) - MATRIX_UNITS).max() <= 1e-10


def test_xy8_pulse_product_is_exactly_identity():
    c = ddseq.generate("XY8", 1e-3, 0.0, (2,))
    plan = spinsys.compile_program(PULSES_ONLY, *ddseq.program(c, 1))
    assert len(plan) == 1
    kind, coef, _, perm = plan[0]
    assert kind == "fused" and perm is None
    assert np.array_equal(coef, np.ones((8, 8)))


# -- the compiled unit against the literal product and refocusing ----------

def brute_force_propagator(cycle, sys):
    """Literal matrix product of diagonal-H exponentials and rotations over
    the repeat unit, for instantaneous pulses."""
    events, duration = ddseq.program(cycle, cycle.unit_cycles)
    h = 2 * np.pi * np.diag(spinsys.energies(sys)).astype(complex)
    u = np.eye(8, dtype=complex)
    cursor = 0.0
    for ev in events:
        u = expm(-1j * h * (ev.start - cursor)) @ u
        rot = np.eye(8, dtype=complex)
        for q in ev.targets:
            rot = spinsys.embed(spinsys.rotation2(ev.flip, ev.phase), q) @ rot
        u = rot @ u
        cursor = ev.end
    return expm(-1j * h * (duration - cursor)) @ u


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
    got = unit_channel(sys, c)
    assert np.abs(got - unitary_channel(brute_force_propagator(c, sys))).max() <= 1e-12
    want = unitary_channel(deleted_h_unitary(sys, 3, c.cycle_duration))
    assert np.abs(got - want).max() <= 1e-9


def test_refocused_spin_is_fully_decoupled():
    sys = plain_system()
    c = ddseq.generate("XY8", 1e-3, 0.0, (3,))
    plan = spinsys.compile_program(sys, *ddseq.program(c, 1))
    rng = np.random.default_rng(41)
    for _ in range(5):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        a = spinsys.embed(g, 3)
        # U commutes with every operator on spin 3 exactly when U a U^dagger = a
        assert np.abs(spinsys.apply_program(a, plan) - a).max() < 1e-9


def test_all_spin_xy8_keeps_couplings():
    sys = plain_system()
    c = ddseq.generate("XY8", 1e-3, 0.0, (1, 2, 3))
    got = unit_channel(sys, c)
    assert np.abs(got - unitary_channel(brute_force_propagator(c, sys))).max() <= 1e-12
    # offsets refocused, J terms survive in full
    j_only = SpinSystem(offsets=(0.0, 0.0, 0.0), couplings=sys.couplings, noise=NoiseModel())
    want = np.diag(np.exp(-2j * np.pi * spinsys.energies(j_only) * c.cycle_duration))
    assert np.abs(got - unitary_channel(want)).max() <= 1e-9
    assert np.abs(got - MATRIX_UNITS).max() > 1e-3


def test_cycle_propagator_covers_modified_unit():
    sys = plain_system()
    m = ddseq.modify(ddseq.generate("XY8", 1e-3, 0.0, (1, 2)))
    got = unit_channel(sys, m)
    assert np.abs(got - unitary_channel(brute_force_propagator(m, sys))).max() <= 1e-12


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


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
def test_unit_count_refuses_a_non_finite_time_by_name(t):
    with pytest.raises(ValueError, match=rf"time {t} s is not a finite number of XY8 units "
                                         r"\(0\.005 s\)"):
        ddseq.unit_count(t, 0.005, "XY8")


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
        assert (a.targets, a.phase, a.flip) == (b.targets, b.phase, b.flip)
    # every cycle equals the old re-stamp of each event, and the first is the cycle's own
    for family in ddseq.phase_tables():
        plain = ddseq.generate(family, 0.538e-3, 3e-5, (1, 2))
        for cycle in (plain, ddseq.modify(plain)):
            for n in (0, 1, 2, 4):
                if n % cycle.unit_cycles:
                    continue
                events, duration = ddseq.program(cycle, n)
                assert events == tuple(replace(ev, start=ev.start + rep * cycle.cycle_duration)
                                       for rep in range(n) for ev in cycle.events)
                assert duration == n * cycle.cycle_duration
                assert all(a is b for a, b in zip(events, cycle.events))
                assert len(events) == n * len(cycle.events)


def test_json_round_trip():
    m = ddseq.modify(ddseq.generate("KDD20", 0.417e-3, 1e-5, (1, 2)))
    doc = ddseq.cycle_to_json(m)
    assert doc["name"] == "mKDD20"
    events, duration, name = program_from_json(doc)
    want_events, want_duration = ddseq.program(m, 2)
    assert name == "mKDD20"
    assert duration == pytest.approx(want_duration)
    assert len(events) == len(want_events)
    for got, want in zip(events, want_events):
        assert got.start == pytest.approx(want.start, abs=1e-12)
        assert got.duration == pytest.approx(want.duration, abs=1e-15)
        assert got.targets == want.targets
        assert got.flip == pytest.approx(want.flip)
        assert got.phase == pytest.approx(want.phase)
    with pytest.raises(ValueError):
        program_from_json({"name": "x", "events": [{"t_s": 0.0}]})


# -- robustness gate -------------------------------------------------------

ROBUSTNESS_OFFSETS = np.linspace(-400.0, 400.0, 33)
ROBUSTNESS_TAU = 1e-3
ROBUSTNESS_TP = 5e-5


def band_survival(cycle):
    return float(np.mean([
        ddseq.single_spin_survival(cycle, d, 0.05, 50) for d in ROBUSTNESS_OFFSETS]))


def test_phase_tables_beat_cpmg_under_flip_error():
    baseline = band_survival(ddseq.generate("CPMG2", ROBUSTNESS_TAU, ROBUSTNESS_TP, (1,)))
    assert baseline < 0.9  # the probe has to bite, or the gate is vacuous
    for fam in ("XY8", "XY16", "UR12", "KDD20", "UR4", "UR6", "UR8", "UR16", "UR24"):
        c = ddseq.generate(fam, ROBUSTNESS_TAU, ROBUSTNESS_TP, (1,))
        assert band_survival(c) > baseline + 0.1, fam


def test_survival_probe_sanity():
    c = ddseq.generate("XY8", 1e-3, 0.0, (1,))
    assert ddseq.single_spin_survival(c, 0.0, 0.0, 2) == pytest.approx(1.0, abs=1e-10)
    assert ddseq.single_spin_survival(c, 137.0, 0.0, 2) == pytest.approx(1.0, abs=1e-9)
    m = ddseq.modify(ddseq.generate("XY8", 1e-3, 0.0, (1, 2)))
    # the walk counts whole units, and the repeat a nonnegative number of them
    with pytest.raises(ValueError, match="step 1.5 is not a whole number of units"):
        ddseq.single_spin_survival(m, 0.0, 0.0, 3)
    with pytest.raises(ValueError, match="repeat count must be nonnegative, got -2"):
        ddseq.single_spin_survival(c, 0.0, 0.0, -2)
