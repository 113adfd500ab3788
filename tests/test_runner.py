"""Protocols, decay recording, ordering facts, and star protection."""

import math

import numpy as np
import pytest

from triqdd import ddseq, runner, spinsys
from triqdd.runner import Protocol
from triqdd.spinsys import DisorderModel, NoiseModel, SpinSystem

QUIET = SpinSystem(noise=NoiseModel())


def unit_grid(protocol, t_max=0.7, points=20):
    cycle = runner.build_cycle(protocol)
    unit = None if cycle is None else cycle.unit_duration
    return runner.default_time_grid(unit, t_max, points)


# -- protocol validation ---------------------------------------------------

def test_protocol_rejections():
    with pytest.raises(ValueError, match="unknown protocol kind"):
        Protocol("DD4sp")
    with pytest.raises(ValueError, match="no family and no targets"):
        Protocol("FreeEv", family="XY8")
    with pytest.raises(ValueError, match="unknown family"):
        Protocol("DD1sp", family="XY9", tau=1e-3, targets=(1,))
    with pytest.raises(ValueError, match="positive interpulse delay"):
        Protocol("DD1sp", family="XY8", tau=0.0, targets=(1,))
    with pytest.raises(ValueError, match="targets exactly 3"):
        Protocol("DD3sp", family="XY8", tau=1e-3, targets=(1, 2))


def test_default_protocol_table_values():
    p = runner.default_protocol("DD1sp", "psi1a", "XY8")
    assert p.targets == (2,)
    assert p.tau == pytest.approx(0.58e-3)
    assert p.t_p == pytest.approx((0.005 - 8 * 0.58e-3) / 8)

    m = runner.default_protocol("mDD2sp", "psi0a", "XY8")
    assert m.targets == (1, 2)
    assert m.tau == pytest.approx(0.538e-3)
    assert m.t_p == pytest.approx((0.005 - 8 * 0.538e-3) / 9)

    p3 = runner.default_protocol("DD3sp", "psi3", "UR12")
    assert p3.targets == (1, 2, 3)
    assert runner.build_cycle(p3).unit_duration == pytest.approx(0.01)


def test_default_protocol_targets_follow_differing_bits():
    assert runner.differing_qubits("psi1b") == (3,)
    assert runner.default_protocol("DD1sp", "psi1b").targets == (3,)
    assert runner.differing_qubits("psi2a") == (1, 2)
    assert runner.default_protocol("mDD2sp", "psi2a").targets == (1, 2)


def test_star_protocol_delays():
    p = runner.star_protocol((1, 3))
    assert p.kind == "mDD2sp"
    assert p.tau == pytest.approx(0.563e-3)
    assert runner.build_cycle(p).unit_duration == pytest.approx(0.01)
    with pytest.raises(ValueError):
        runner.star_protocol((1, 2))


# -- time grids ------------------------------------------------------------

def test_default_time_grid_free_is_linspace():
    grid = runner.default_time_grid(None)
    assert grid[0] == 0.0 and grid[-1] == pytest.approx(0.7)
    assert len(grid) == 20
    assert np.allclose(np.diff(grid), grid[1] - grid[0])


def test_default_time_grid_snaps_to_units():
    grid = runner.default_time_grid(0.005)
    assert grid[0] == 0.0 and grid[-1] == pytest.approx(0.7)
    for t in grid:
        assert round(t / 0.005) * 0.005 == pytest.approx(t, abs=1e-12)


def test_default_time_grid_rejects_non_commensurate_span():
    with pytest.raises(ValueError, match="whole number"):
        runner.default_time_grid(0.006)


def test_run_decay_rejects_off_unit_times():
    p = runner.default_protocol("DD1sp", "psi1a", "XY8")
    with pytest.raises(ValueError, match="nearest valid times"):
        runner.run_decay("psi1a", p, QUIET, times=(0.0, 0.0071))


# -- free evolution analytics ----------------------------------------------

def test_free_third_order_decays_at_summed_rates():
    sys = SpinSystem(noise=NoiseModel((1.0, 2.0, 3.0), 0.0))
    curve = runner.run_decay("psi3", runner.default_protocol("FreeEv"), sys)
    for t, v in zip(curve.times, curve.values):
        assert v == pytest.approx(math.exp(-6.0 * t), abs=1e-6)


def test_free_third_order_feels_correlated_rate_ninefold():
    sys = SpinSystem(noise=NoiseModel((1.0, 2.0, 3.0), 0.5))
    curve = runner.run_decay("psi3", runner.default_protocol("FreeEv"), sys)
    for t, v in zip(curve.times, curve.values):
        assert v == pytest.approx(math.exp(-(6.0 + 9 * 0.5) * t), abs=1e-6)


def test_free_zero_order_immune_to_correlated_rate():
    slow = SpinSystem(noise=NoiseModel((0.3, 0.4, 0.5), 0.0))
    fast = SpinSystem(noise=NoiseModel((0.3, 0.4, 0.5), 7.0))
    a = runner.run_decay("psi0a", runner.default_protocol("FreeEv"), slow)
    b = runner.run_decay("psi0a", runner.default_protocol("FreeEv"), fast)
    assert a.values == pytest.approx(b.values, abs=1e-12)


def test_every_curve_starts_at_one():
    for kind, state in (("FreeEv", "psi2a"), ("DD1sp", "psi1a"), ("mDD2sp", "psi0b")):
        p = runner.default_protocol(kind, state)
        c = runner.run_decay(state, p, QUIET, times=unit_grid(p, 0.1, 3))
        assert c.times[0] == 0.0
        assert c.values[0] == pytest.approx(1.0, abs=1e-12)


# -- echo recording and the coupling mechanism -----------------------------

def test_single_spin_sequence_holds_its_element_exactly():
    p = runner.default_protocol("DD1sp", "psi1b", "XY8")
    c = runner.run_decay("psi1b", p, QUIET, times=unit_grid(p))
    assert max(abs(v - 1.0) for v in c.values) < 1e-9


def test_all_spin_sequence_leaves_couplings_running_for_first_order():
    # Offsets refocus but J does not, so the echo picks up the full
    # coupling phase: |cos(2 pi (J13+J23)/2 t)| clamped at zero.
    p = runner.default_protocol("DD3sp", "psi1b", "XY8")
    c = runner.run_decay("psi1b", p, QUIET, times=unit_grid(p))
    jsum = (161.0 - 192.0) / 2.0
    for t, v in zip(c.times, c.values):
        assert v == pytest.approx(max(math.cos(2 * np.pi * jsum * t), 0.0), abs=1e-9)
    assert min(c.values) == 0.0 and max(c.values) == 1.0
    diffs = np.diff(c.values)
    assert (diffs > 1e-6).any() and (diffs < -1e-6).any()


def test_third_order_element_is_coupling_blind_under_all_spin_dd():
    p = runner.default_protocol("DD3sp", "psi3", "XY8")
    c = runner.run_decay("psi3", p, QUIET, times=unit_grid(p))
    assert max(abs(v - 1.0) for v in c.values) < 1e-9


def test_modified_pair_sequence_refocuses_spectator_couplings():
    for state in ("psi0a", "psi2b"):
        p = runner.default_protocol("mDD2sp", state)
        c = runner.run_decay(state, p, QUIET, times=unit_grid(p))
        assert max(abs(v - 1.0) for v in c.values) < 1e-9


def test_echo_landings_at_table_time_match_hand_values():
    landings = {"psi0a": 0.0, "psi1a": 0.0, "psi1b": math.cos(2 * np.pi * 0.85),
                "psi2a": math.cos(2 * np.pi * 0.85), "psi3": 1.0}
    for state, want in landings.items():
        p = runner.default_protocol("DD3sp", state, "XY8")
        c = runner.run_decay(state, p, QUIET, times=(0.0, 0.7))
        assert c.values[-1] == pytest.approx(want, abs=1e-9)


def test_dd_floor_is_pure_markov_rate():
    sys = SpinSystem(noise=NoiseModel((0.08, 0.10, 0.22), 0.13))
    p = runner.default_protocol("DD1sp", "psi1b", "XY8")
    c = runner.run_decay("psi1b", p, sys, times=(0.0, 0.35, 0.7))
    for t, v in zip(c.times, c.values):
        assert v == pytest.approx(math.exp(-(0.22 + 0.13) * t), abs=1e-9)


def test_dd_refocuses_static_disorder_exactly():
    noisy = SpinSystem(noise=NoiseModel(),
                       disorder=DisorderModel((2.0, 2.0, 2.0), 3.0, shots=16, seed=1))
    p = runner.default_protocol("DD1sp", "psi1a", "XY8")
    grid = (0.0, 0.1, 0.7)
    with_d = runner.run_decay("psi1a", p, noisy, times=grid)
    without = runner.run_decay("psi1a", p, QUIET, times=grid)
    assert with_d.values == pytest.approx(without.values, abs=1e-9)


def test_free_evolution_feels_disorder_as_gaussian_decay():
    sigma = 1.5
    sys = SpinSystem(noise=NoiseModel(),
                     disorder=DisorderModel((0.0, 0.0, 0.0), sigma, shots=4096, seed=3))
    curve = runner.run_decay("psi1a", runner.default_protocol("FreeEv"), sys,
                             times=(0.0, 0.05, 0.1))
    for t, v in zip(curve.times, curve.values):
        want = math.exp(-0.5 * (2 * np.pi * sigma * t) ** 2)
        assert v == pytest.approx(want, abs=0.03)


def test_run_decay_is_deterministic():
    sys = SpinSystem(disorder=DisorderModel((0.1, 0.1, 0.1), 0.7, shots=32, seed=9))
    p = runner.default_protocol("mDD2sp", "psi2a")
    a = runner.run_decay("psi2a", p, sys, times=(0.0, 0.1, 0.7))
    b = runner.run_decay("psi2a", p, sys, times=(0.0, 0.1, 0.7))
    assert a.values == b.values


# -- percent_at ------------------------------------------------------------

def test_percent_at_grid_interpolation_and_misses():
    p = runner.default_protocol("FreeEv")
    sys = SpinSystem(noise=NoiseModel((1.0, 2.0, 3.0), 0.0))
    curve = runner.run_decay("psi3", p, sys, times=(0.0, 0.2, 0.4))
    assert runner.percent_at(curve, 0.0) == pytest.approx(100.0)
    assert runner.percent_at(curve, 0.2) == pytest.approx(100 * math.exp(-1.2), rel=1e-5)
    with pytest.raises(ValueError, match="not on the curve grid"):
        runner.percent_at(curve, 0.3)


# -- ordering facts --------------------------------------------------------

def synthetic_percents():
    return {("psi1a", "DD1sp", "XY8"): 80.0,
            ("psi1a", "DD3sp", "XY8"): 10.0,
            ("psi1a", "FreeEv", None): 2.0}


def test_fact_check_pass_fail_and_na():
    pcts = synthetic_percents()
    f = runner.fact_check(pcts, "psi1a", ("DD1sp", "XY8"), ("DD3sp", "XY8"))
    assert f.verdict == "pass" and f.margin_pp == pytest.approx(70.0)
    g = runner.fact_check(pcts, "psi1a", ("DD3sp", "XY8"), ("DD1sp", "XY8"))
    assert g.verdict == "fail"
    h = runner.fact_check(pcts, "psi1a", ("FreeEv", None), ("FreeEv", None))
    assert h.verdict == "n/a"


def test_fact_check_names_missing_cells():
    with pytest.raises(ValueError, match="missing cells"):
        runner.fact_check(synthetic_percents(), "psi1a",
                          ("DD1sp", "KDD20"), ("FreeEv", None))


def test_fact_check_attaches_published_context():
    f = runner.fact_check(synthetic_percents(), "psi1a",
                          ("DD1sp", "XY8"), ("FreeEv", None),
                          table=runner.load_reference())
    assert f.published_lhs == pytest.approx(63.94)
    assert f.published_rhs == pytest.approx(0.603)


def test_ordering_facts_cover_the_committed_claims():
    facts = runner.ordering_facts(("XY8",))
    assert len(facts) == 11
    states = [s for s, _, _ in facts]
    assert states.count("psi3") == 1
    for s in ("psi1a", "psi1b", "psi2a", "psi2b"):
        assert states.count(s) == 2
    for s in ("psi0a", "psi0b"):
        assert states.count(s) == 1


# -- reference table -------------------------------------------------------

def test_reference_transcription_spot_checks():
    table = runner.load_reference()
    assert table.time_s == pytest.approx(0.7)
    assert table.percent("psi0a", "mKDD20") == pytest.approx(76.26)
    assert table.percent("psi2a", "FreeEv") == pytest.approx(0.522)
    assert table.percent("psi1b", "UR12") == pytest.approx(80.29)
    assert table.percent("psi3", "XY16") == pytest.approx(16.2)
    with pytest.raises(ValueError, match="does not cover"):
        table.percent("psi9", "XY8")
    with pytest.raises(ValueError, match="no row"):
        table.percent("psi0a", "XY8")


# -- committed defaults ----------------------------------------------------

def test_default_system_matches_bundled_config():
    sys = runner.default_system()
    assert sys.noise.gamma == pytest.approx((0.08, 0.10, 0.22))
    assert sys.noise.gamma_corr == pytest.approx(0.13)
    assert sys.pulse.flip_fraction_error == 0.0
    assert not sys.pulse.internal_h_during_pulse
    assert sys.disorder is not None
    assert sys.disorder.sigma_corr == pytest.approx(0.72)
    assert sys.disorder.shots == 512


def test_baseline_facts_all_recorded_as_passing():
    doc = runner.load_baseline()
    assert doc["margin_pp"] == pytest.approx(5.0)
    assert doc["time_s"] == pytest.approx(0.7)
    assert len(doc["facts"]) == 44
    for fact in doc["facts"]:
        assert fact["verdict"] == "pass"
        assert fact["oracle_margin_pp"] >= doc["margin_pp"]


# -- star protection -------------------------------------------------------

def test_star_protection_noise_free_holds_half():
    curves = runner.star_protection(QUIET)
    for name in ("AC", "BC"):
        c = curves[name]
        assert c.kind == "concurrence"
        assert max(abs(v - 0.5) for v in c.values) < 1e-9


def test_star_free_evolution_loses_pair_entanglement():
    sys = runner.default_system()
    grid = {"AC": (0.0, 0.1, 0.7), "BC": (0.0, 0.1, 0.7)}
    prot = runner.star_protection(sys, times=grid)
    free = runner.star_protection(sys, times=grid, protected=False)
    for name in ("AC", "BC"):
        assert free[name].protocol.kind == "FreeEv"
        assert free[name].values[-1] < 0.1 < prot[name].values[-1]


def test_star_protection_through_noiseless_tomography():
    grid = (0.0, 0.01, 0.1)
    curves = runner.star_protection(QUIET, times=grid, tomo_sigma=0.0)
    for name in ("AC", "BC"):
        assert max(abs(v - 0.5) for v in curves[name].values) < 1e-6


def test_star_nmr_preparation_path():
    curves = runner.star_protection(QUIET, times=(0.0, 0.01), prep="nmr")
    for name in ("AC", "BC"):
        assert curves[name].values[0] == pytest.approx(0.5, abs=1e-6)
    with pytest.raises(ValueError, match="unknown preparation"):
        runner.star_protection(QUIET, prep="lab")


# -- emission --------------------------------------------------------------

def test_csv_round_trip(tmp_path):
    p = runner.default_protocol("DD1sp", "psi1a", "XY8")
    c = runner.run_decay("psi1a", p, QUIET, times=(0.0, 0.1))
    path = tmp_path / "curves.csv"
    runner.write_curves_csv([c], path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "state,protocol,sequence,time_s,value,kind"
    assert len(lines) == 3
    state, kind, seq, t, v, label = lines[2].split(",")
    assert (state, kind, seq, label) == ("psi1a", "DD1sp", "XY8", "amplitude")
    assert float(t) == pytest.approx(0.1)
    assert float(v) == pytest.approx(c.values[1])
    runner.write_curves_csv([c], tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_text() == path.read_text()


def test_grid_summary_shape():
    pcts = synthetic_percents()
    run = runner.GridRun((), pcts, 0.7)
    report = runner.OrderingReport(
        (runner.fact_check(pcts, "psi1a", ("DD1sp", "XY8"), ("FreeEv", None)),))
    doc = runner.grid_summary(run, report, {"shots": 4})
    assert doc["time_s"] == 0.7
    assert doc["config"] == {"shots": 4}
    assert doc["percents"]["psi1a"]["DD1sp/XY8"] == 80.0
    assert doc["ordering"]["all_pass"] is True
