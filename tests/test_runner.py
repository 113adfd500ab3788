"""Protocols, decay recording, ordering facts, and star protection."""

import csv
import dataclasses
import inspect
import io
import json
import math

import numpy as np
import pytest

from triqdd import circuits, ddseq, qmat, runner, spinsys
from triqdd.runner import Protocol
from triqdd.spinsys import DisorderModel, NoiseModel, SpinSystem

from conftest import random_rho
from oracles import disorder_phase_rates

QUIET = SpinSystem(noise=NoiseModel())


def unit_grid(protocol, t_max=0.7, points=20):
    cycle = runner.build_cycle(protocol)
    unit = None if cycle is None else cycle.unit_duration
    return runner.default_time_grid(unit, t_max, points)


# -- protocol validation ---------------------------------------------------

def test_protocol_rejections():
    # a protocol's own rules: free evolution takes nothing, and a cycle needs a delay
    for given in ({"tau": 1e-3}, {"t_p": 1e-5}, {"targets": (1,)}, {"modified": True}):
        with pytest.raises(ValueError, match="free evolution takes no"):
            Protocol(**given)
    with pytest.raises(ValueError, match="XY8 needs an interpulse delay"):
        Protocol("XY8", targets=(1,))
    with pytest.raises(ValueError, match="unknown family"):
        Protocol("XY9", tau=1e-3, targets=(1,))
    # the cycle rules are ddseq's, and a protocol meets them as it is made
    with pytest.raises(ValueError, match="interpulse delay must be positive"):
        Protocol("XY8", tau=0.0, targets=(1,))
    with pytest.raises(ValueError, match="does not fit the delay grid"):
        Protocol("XY8", tau=1e-3, t_p=2e-3, targets=(1,))
    with pytest.raises(ValueError, match="must be finite"):
        Protocol("XY8", tau=math.nan, targets=(1,))
    with pytest.raises(ValueError, match="at least one target"):
        Protocol("XY8", tau=1e-3)
    with pytest.raises(ValueError, match="modification needs a two-qubit cycle"):
        Protocol("XY8", tau=1e-3, targets=(1, 2, 3), modified=True)


def test_every_default_protocol_has_the_kind_it_was_asked_for():
    for state_id in runner.TABLE_STATES:
        for kind in {runner.FREE_KIND, runner.DESIGNATED_KIND[state_id], runner.ALL_SPIN_KIND}:
            for family in runner.FAMILIES:
                assert runner.default_protocol(kind, state_id, family).kind == kind
    for pair in runner.STAR_PAIRS.values():
        assert runner.star_protocol(pair).kind == "mDD2sp"
    assert runner.DESIGNATED_KIND == {"psi0a": "mDD2sp", "psi0b": "mDD2sp", "psi1a": "DD1sp",
                                      "psi1b": "DD1sp", "psi2a": "mDD2sp", "psi2b": "mDD2sp",
                                      "psi3": "DD3sp"}


def test_the_plain_pair_cycle_is_a_protocol():
    tau, t_p = 0.538e-3, 2e-5
    proto = Protocol("XY8", tau, t_p, (1, 2))
    assert (proto.kind, proto.sequence_label) == ("DD2sp", "XY8")
    cycle = ddseq.generate("XY8", tau, t_p, (1, 2))
    assert runner.build_cycle(proto) == cycle
    sys, rho0s = runner.default_system(), [circuits.prepare(s) for s in ("psi0a", "psi2a")]
    times = tuple(k * cycle.unit_duration for k in (0, 1, 3, 6))
    assert np.array_equal(runner._walk(sys, runner.build_cycle(proto), times, rho0s),
                          spinsys.walk(sys, cycle.unit_program, [0, 1, 2, 3], rho0s))


def test_default_protocol_refuses_a_kind_its_targets_do_not_make():
    with pytest.raises(ValueError, match="no delay defaults for kind 'DD2sp'"):
        runner.default_protocol("DD2sp", "psi0a")
    with pytest.raises(ValueError, match=r"DD1sp does not fit psi0a: .* qubits \(1, 2\)"):
        runner.default_protocol("DD1sp", "psi0a")
    with pytest.raises(ValueError, match=r"mDD2sp does not fit psi1a: .* qubits \(2,\)"):
        runner.default_protocol("mDD2sp", "psi1a")


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


def test_a_zero_span_grid_is_the_one_time_zero():
    assert runner.default_time_grid(None, 0.0) == (0.0,)
    assert runner.default_time_grid(0.005, 0.0) == (0.0,)


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


def test_explicit_times_off_the_unit_raise_on_every_call():
    # a failed schedule is not kept: a repeat call meets the same check
    p = runner.default_protocol("DD3sp", "psi3", "XY8")
    kept = runner._record_steps.cache_info().currsize
    errors = []
    for _ in range(2):
        with pytest.raises(ValueError, match="nearest valid times") as err:
            runner.run_decay("psi3", p, QUIET, times=(0.0, 0.0071))
        errors.append(str(err.value))
    assert errors[0] == errors[1]
    assert runner._record_steps.cache_info().currsize == kept


@pytest.mark.parametrize("t", [math.inf, math.nan])
def test_run_decay_refuses_a_non_finite_time_as_a_value_error(t):
    p = runner.default_protocol("DD3sp", "psi3", "XY8")
    with pytest.raises(ValueError, match="not a finite number of XY8 units"):
        runner.run_decay("psi3", p, runner.default_system(), times=(t,))


# -- schedules kept per process --------------------------------------------

def _counting(monkeypatch, module, name):
    calls, real = [], getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_a_repeated_grid_rebuilds_no_schedule(monkeypatch):
    sys = runner.default_system()
    first = runner.run_grid(sys)
    programs = _counting(monkeypatch, ddseq, "program")
    counts = _counting(monkeypatch, ddseq, "unit_count")
    again = runner.run_grid(sys)
    assert (len(programs), len(counts)) == (0, 0)
    assert len(again.curves) == 59
    assert again.curves == first.curves  # same protocols, times and values, bit for bit
    assert again.percents == first.percents


def test_a_sweep_keeps_at_most_the_bounded_cycles_and_tables():
    # a sweep over J12 and KDD20 delays makes a new system and a new protocol per
    # point: the cycles and the system tables it leaves behind stay within their
    # bounds, and a grid run twice after it builds no cycle the second time
    base = runner.default_system()
    for i in range(300):
        sys = dataclasses.replace(base, couplings=(40.0 + 0.1 * i,) + base.couplings[1:])
        proto = Protocol("KDD20", 0.4e-3 + 1e-6 * i, 0.0, (1, 2, 3))
        unit = runner.build_cycle(proto).unit_duration
        runner.run_decay("psi3", proto, sys, times=(0.0, 20 * unit))
    assert runner.build_cycle.cache_info().currsize <= runner.SCHEDULE_CACHE_SIZE
    assert spinsys._tables.cache_info().currsize <= spinsys.PLAN_CACHE_SIZE
    runner.run_grid(base)
    built = runner.build_cycle.cache_info().misses
    runner.run_grid(base)
    assert runner.build_cycle.cache_info().misses == built


def _frozen_only(value) -> bool:
    if isinstance(value, tuple):
        return all(_frozen_only(v) for v in value)
    if dataclasses.is_dataclass(value):
        return (value.__dataclass_params__.frozen
                and all(_frozen_only(getattr(value, f.name)) for f in dataclasses.fields(value)))
    return value is None or isinstance(value, (bool, int, float, str))


def test_a_kept_schedule_holds_only_tuples_and_frozen_values():
    protos = {c.protocol for c in runner.run_grid(runner.default_system()).curves}
    protos |= {runner.star_protocol(pair) for pair in runner.STAR_PAIRS.values()}
    assert len(protos) == 24
    for proto in protos:
        cycle = runner.build_cycle(proto)
        unit = None if cycle is None else cycle.unit_duration
        times = runner.default_time_grid(unit)
        steps = runner._record_steps(unit, None if cycle is None else cycle.name, times)
        kept = (proto, times, steps)
        if cycle is not None:
            kept += (cycle.unit_program,)
            # the cycle keeps one program: every walk hands spinsys the same events
            assert cycle.unit_program is cycle.unit_program
            assert cycle.unit_program == ddseq.program(cycle, cycle.unit_cycles)
        assert _frozen_only(kept), proto
    # a default protocol is built once and shared, as a frozen value
    assert runner.default_protocol("mDD2sp", "psi2a", "KDD20") is runner.default_protocol(
        "mDD2sp", "psi2a", "KDD20")


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


def test_refocused_dd_curves_do_not_move_with_the_disorder(monkeypatch):
    # with ideal pulses every DD walk of the grid refocuses its elements, so it
    # records K alone: bitwise the same curve at any width or seed, zero included.
    # The walks decide that from their frames, never from the draw, so even a
    # width of 1 MHz leaves them alone, and only free evolution's one distinct
    # frame asks for level phases
    base = runner.default_system()
    phases = _counting(monkeypatch, spinsys, "level_phases")
    runs, calls = [], []
    for disorder in (base.disorder,
                     dataclasses.replace(base.disorder, sigma=(0.0, 0.0, 0.0), sigma_corr=0.0),
                     dataclasses.replace(base.disorder, sigma_corr=5.0),
                     dataclasses.replace(base.disorder, seed=3),
                     dataclasses.replace(base.disorder, sigma_corr=1e6)):
        phases.clear()
        runs.append(runner.run_grid(dataclasses.replace(base, disorder=disorder)))
        calls.append(len(phases))
    assert calls == [1] * 5

    def curves(run, free):
        return [c.values for c in run.curves if (c.protocol.kind == "FreeEv") == free]

    assert len(curves(runs[0], False)) == 52
    for run in runs[1:]:
        assert curves(run, False) == curves(runs[0], False)
    # free evolution still takes the shots: another seed moves its curves
    assert curves(runs[3], True) != curves(runs[0], True)


def test_free_evolution_feels_disorder_as_gaussian_decay():
    sigma = 1.5
    sys = SpinSystem(noise=NoiseModel(),
                     disorder=DisorderModel((0.0, 0.0, 0.0), sigma, shots=4096, seed=3))
    curve = runner.run_decay("psi1a", runner.default_protocol("FreeEv"), sys,
                             times=(0.0, 0.05, 0.1))
    for t, v in zip(curve.times, curve.values):
        want = math.exp(-0.5 * (2 * np.pi * sigma * t) ** 2)
        assert v == pytest.approx(want, abs=0.03)


def committed_protocols():
    """Every distinct DD protocol of the committed table grid."""
    return sorted({runner.default_protocol(kind, state, family)
                   for state in runner.TABLE_STATES for family in runner.FAMILIES
                   for kind in (runner.DESIGNATED_KIND[state], "DD3sp")}, key=repr)


def toggling_integrals(program) -> np.ndarray:
    """Per spin, the time integral of its toggling-frame sign over a hard pi-pulse program."""
    sign, total = np.ones(3), np.zeros(3)
    for kind, item in spinsys.program_steps(*program, windowed=False):
        if kind == "free":
            total += sign * item
        else:
            assert item.flip == np.pi
            sign[[q - 1 for q in item.targets]] *= -1
    return total


# Monte Carlo shot averages must land within this many of their own standard errors
ORACLE_SE = 5.0


def test_shot_average_matches_the_gaussian_disorder_oracle():
    # A unit that compiles to one unpermuted fused frame, C_s = K g_s g_s^H with
    # K = D exp(E) and g_s g_s^H = exp(-2 pi i A . delta_s), A[a, b] = H[a] - H[b],
    # averages, after k units and over Gaussian delta with covariance Sigma, to
    # E_s[C_s^k] = (D exp(E))^k exp(-2 pi^2 k^2 A^T Sigma A) element by element.
    sys = runner.default_system()
    d = sys.disorder
    cov = np.diag(np.square(d.sigma)) + d.sigma_corr ** 2 * np.ones((3, 3))
    rho0 = random_rho(np.random.default_rng(21), spinsys.DIM)
    unit_offsets = np.vstack([np.zeros(3), np.eye(3)])  # 1 Hz on each spin in turn
    sens = disorder_phase_rates(np.eye(3))  # per spin, each element's sensitivity
    separated = 0
    for proto in committed_protocols():
        cycle = runner.build_cycle(proto)
        program = ddseq.program(cycle, cycle.unit_cycles)
        frame = spinsys.compile_program(sys, *program)
        (kind, coef, _, perm), = spinsys.expand_program(frame, unit_offsets)
        assert kind == "fused" and perm is None
        times_a = -np.angle(coef[1:] / coef[0]) / (2 * np.pi)  # A, one (8, 8) per spin
        # each element's offset sensitivity times its spin's zero-frequency filter
        assert np.allclose(times_a, sens * toggling_integrals(program)[:, None, None],
                           rtol=0, atol=1e-12)
        spread = np.einsum("qab,qr,rab->ab", times_a, cov, times_a)
        deltas = d.draw()
        (_, shot_coef, _, _), = spinsys.expand_program(frame, deltas)
        grid = runner.default_time_grid(cycle.unit_duration)
        for t, avg in zip(grid, runner._walk(sys, cycle, grid, [rho0])[0]):
            k = ddseq.unit_count(t, cycle.unit_duration, cycle.name)
            ideal = coef[0] ** k * rho0
            exact = ideal * np.exp(-2 * np.pi ** 2 * k ** 2 * spread)
            shots = shot_coef ** k * rho0
            std_err = shots.std(axis=0) / np.sqrt(d.shots)
            assert np.all(np.abs(avg - exact) <= ORACLE_SE * std_err + 1e-12)
            separated += np.sum(np.abs(ideal - exact) > 3 * ORACLE_SE * std_err + 1e-12)
    # the check has teeth: disorder moves thousands of values by over three tolerances
    assert separated > 5000


def test_run_decay_is_deterministic():
    sys = SpinSystem(disorder=DisorderModel((0.1, 0.1, 0.1), 0.7, shots=32, seed=9))
    p = runner.default_protocol("mDD2sp", "psi2a")
    a = runner.run_decay("psi2a", p, sys, times=(0.0, 0.1, 0.7))
    b = runner.run_decay("psi2a", p, sys, times=(0.0, 0.1, 0.7))
    assert a.values == b.values


def test_a_grid_run_after_another_pulse_model_reads_as_before():
    # plans are kept per pulse model: a run on other couplings in between takes
    # none of the first run's plans and leaves none of its own to the third
    sys = runner.default_system()
    j12, j13, j23 = sys.couplings
    first = runner.run_grid(sys)
    other = runner.run_grid(dataclasses.replace(sys, couplings=(j12, 1.01 * j13, j23)))
    third = runner.run_grid(sys)

    def values(run):
        return np.array([c.values for c in run.curves]).tobytes()

    assert values(third) == values(first) and third == first
    assert values(other) != values(first)


# -- the placement map ----------------------------------------------------

# noise-free systems with random offsets (+-400 Hz) and couplings (+-200 Hz):
# every unit is a phase map, so an element is returned exactly or not at all
_rng = np.random.default_rng(2024)
PLACEMENT_SYSTEMS = [SpinSystem(tuple(_rng.uniform(-400, 400, 3)),
                                tuple(_rng.uniform(-200, 200, 3)), NoiseModel()) for _ in range(3)]
OFF_DIAGONAL = [(a, b) for a in range(8) for b in range(8) if a != b]


def differs_on(a, b):
    return {q for q in (1, 2, 3) if spinsys.bit(a, q) != spinsys.bit(b, q)}


def unit_frame(sys, cycle):
    """K of a cycle's repeat unit, which must compile to one fused frame that permutes nothing."""
    plan = spinsys.compile_program(sys, *ddseq.program(cycle, cycle.unit_cycles))
    assert [seg[0] for seg in plan] == ["fused"] and plan[0][3] is None
    return plan[0][1]


def returned(k):
    return {(a, b) for a, b in OFF_DIAGONAL if abs(k[a, b] - 1) <= 1e-9}


def test_each_placement_returns_exactly_the_elements_that_differ_on_its_spins():
    # every family x {each spin, all three, the modified cycle on each ordered
    # pair at each slot}: ideal pulses return an element exactly when the
    # spins it differs on are the pulsed spins, whatever the family and slot
    tau, t_p = 0.5e-3, 20e-6
    by_spins = {}
    for family in ddseq.phase_tables():
        cycles = [ddseq.generate(family, tau, t_p, targets)
                  for targets in ((1,), (2,), (3,), (1, 2, 3))]
        for pair in ((1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)):
            plain = ddseq.generate(family, tau, t_p, pair)
            cycles += [ddseq.modify(plain, slot) for slot in range(plain.n_slots)]
        for cycle in cycles:
            spins = frozenset(cycle.targets)
            want = {(a, b) for a, b in OFF_DIAGONAL if differs_on(a, b) == spins}
            for sys in PLACEMENT_SYSTEMS:
                assert returned(unit_frame(sys, cycle)) == want, (cycle.name, cycle.slot, sys)
            by_spins[spins] = want
    # the seven spin sets cover the 56 elements, each exactly once
    assert len(by_spins) == 7 and sum(len(e) for e in by_spins.values()) == 56
    assert set().union(*by_spins.values()) == set(OFF_DIAGONAL)
    orders = qmat.coherence_order_matrix(3)
    pair_orders = sorted(abs(orders[e]) for e in by_spins[frozenset((1, 2))])
    assert pair_orders == [0] * 4 + [2] * 4
    all_orders = sorted(abs(orders[e]) for e in by_spins[frozenset((1, 2, 3))])
    assert all_orders == [1] * 6 + [3] * 2


def test_the_committed_protocols_return_the_elements_the_placement_map_says():
    # the designated protocol returns each table state's element; DD3sp returns
    # psi3's and no lower order's, and its 6 first-order elements are not psi1a/b's
    orders = qmat.coherence_order_matrix(3)
    first_order = {circuits.tracked_element(s) for s in ("psi1a", "psi1b")}
    first_order |= {(b, a) for a, b in first_order}
    for sys in PLACEMENT_SYSTEMS:
        for family in runner.FAMILIES:
            for state_id in runner.TABLE_STATES:
                element = circuits.tracked_element(state_id)
                kind = runner.DESIGNATED_KIND[state_id]
                designated = runner.build_cycle(runner.default_protocol(kind, state_id, family))
                assert element in returned(unit_frame(sys, designated)), (state_id, family)
                all_spin = runner.build_cycle(runner.default_protocol("DD3sp", state_id, family))
                kept = returned(unit_frame(sys, all_spin))
                assert (element in kept) == (state_id == "psi3"), (state_id, family)
                kept_first = {e for e in kept if abs(orders[e]) == 1}
                assert len(kept_first) == 6 and not kept_first & first_order


# -- grid percents ---------------------------------------------------------

def test_grid_percent_is_the_curve_value_at_t_max():
    sys = SpinSystem(noise=NoiseModel((1.0, 2.0, 3.0), 0.0))
    run = runner.run_grid(sys, ("XY8",), ("psi3",), t_max=0.2, points=3)
    assert run.t_eval == 0.2 and len(run.curves) == 2
    for curve in run.curves:
        assert curve.times[-1] == pytest.approx(0.2, abs=ddseq.REPEAT_ATOL)
        key = ("psi3", curve.protocol.kind, curve.protocol.family)
        assert run.percents[key] == 100.0 * curve.values[-1]
    assert run.percents[("psi3", "FreeEv", None)] == pytest.approx(
        100 * math.exp(-1.2), rel=1e-5)


def test_run_grid_rejects_an_empty_family_list():
    with pytest.raises(ValueError, match="empty family list"):
        runner.run_grid(SpinSystem(), (), ("psi3",))


# -- ordering facts --------------------------------------------------------

def synthetic_percents():
    return {("psi1a", "DD1sp", "XY8"): 80.0,
            ("psi1a", "DD3sp", "XY8"): 10.0,
            ("psi1a", "FreeEv", None): 2.0}


def test_fact_check_pass_and_fail():
    pcts = synthetic_percents()
    f = runner.fact_check(pcts, "psi1a", ("DD1sp", "XY8"), ("DD3sp", "XY8"))
    assert f.verdict == "pass" and f.margin_pp == pytest.approx(70.0)
    g = runner.fact_check(pcts, "psi1a", ("DD3sp", "XY8"), ("DD1sp", "XY8"))
    assert g.verdict == "fail"


def test_fact_check_names_missing_cells():
    with pytest.raises(ValueError, match="missing cells"):
        runner.fact_check(synthetic_percents(), "psi1a",
                          ("DD1sp", "KDD20"), ("FreeEv", None))


def test_fact_check_attaches_published_context():
    f = runner.fact_check(synthetic_percents(), "psi1a",
                          ("DD1sp", "XY8"), ("FreeEv", None))
    assert f.published_lhs == pytest.approx(63.94)
    assert f.published_rhs == pytest.approx(0.603)
    # every committed fact: a designated cell reads the row of the cycle it runs, free
    # evolution its own row, and the all-spin control of a state designated otherwise none
    facts = runner.ordering_facts()
    assert len(facts) == 44
    percents = {(state_id,) + side: 0.0 for state_id, lhs, rhs in facts for side in (lhs, rhs)}
    table = runner.load_reference()
    for state_id, lhs, rhs in facts:
        f = runner.fact_check(percents, state_id, lhs, rhs)
        kind, family = lhs
        assert kind == runner.DESIGNATED_KIND[state_id]
        assert f.published_lhs == table[state_id, ("m" if kind == "mDD2sp" else "") + family]
        if rhs == ("FreeEv", None):
            assert f.published_rhs == table[state_id, "FreeEv"]
        else:
            assert rhs[0] == "DD3sp" != kind and f.published_rhs is None


def test_ordering_facts_cover_the_committed_claims():
    facts = runner.ordering_facts(("XY8",))
    assert len(facts) == 11
    states = [s for s, _, _ in facts]
    assert states.count("psi3") == 1
    for s in ("psi1a", "psi1b", "psi2a", "psi2b"):
        assert states.count(s) == 2
    for s in ("psi0a", "psi0b"):
        assert states.count(s) == 1
    # the committed claims, in the order the frozen baseline lists them
    assert runner.ordering_facts() == tuple(
        (f["state"], tuple(f["lhs"]), tuple(f["rhs"])) for f in runner.load_baseline()["facts"])


# -- reference table -------------------------------------------------------

def test_reference_transcription_spot_checks():
    table = runner.load_reference()
    assert table[("psi0a", "mKDD20")] == pytest.approx(76.26)
    assert table[("psi2a", "FreeEv")] == pytest.approx(0.522)
    assert table[("psi1b", "UR12")] == pytest.approx(80.29)
    assert table[("psi3", "XY16")] == pytest.approx(16.2)
    assert ("psi9", "XY8") not in table
    assert ("psi0a", "XY8") not in table


# -- committed defaults ----------------------------------------------------

def test_default_system_matches_bundled_config():
    sys = runner.default_system()
    assert sys.noise.gamma == pytest.approx((0.08, 0.10, 0.22))
    assert sys.noise.gamma_corr == pytest.approx(0.13)
    assert sys.pulse.flip_fraction_error == 0.0
    assert not sys.pulse.internal_h_during_pulse
    assert sys.disorder.sigma_corr == pytest.approx(0.72)
    assert sys.disorder.shots == 512


def test_ordering_report_reads_its_families_and_states_from_the_grid():
    run = runner.run_grid(runner.default_system(), ("XY8",), ("psi3", "psi1a"))
    facts = runner.compare_to_reference(run.percents).facts
    assert [(f.state, f.lhs, f.rhs) for f in facts] == [
        ("psi3", ("DD3sp", "XY8"), ("FreeEv", None)),
        ("psi1a", ("DD1sp", "XY8"), ("FreeEv", None)),
        ("psi1a", ("DD1sp", "XY8"), ("DD3sp", "XY8"))]
    # the facts follow the grid's family order, as the CLI names them
    run = runner.run_grid(runner.default_system(), ("XY16", "UR12"), ("psi3",))
    facts = runner.compare_to_reference(run.percents).facts
    assert [f.lhs for f in facts] == [("DD3sp", "XY16"), ("DD3sp", "UR12")]


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
    assert len(curves) == 2
    for c in curves:
        assert c.kind == "concurrence"
        assert max(abs(v - 0.5) for v in c.values) < 1e-9


def test_star_free_evolution_loses_pair_entanglement():
    sys = runner.default_system()
    rows = runner.star_protection(sys, free=True, t_max=0.7, points=3)
    for p, f in zip(rows[:2], rows[2:]):
        assert f.protocol.kind == "FreeEv"
        assert f.values[-1] < 0.1 < p.values[-1]


def test_star_protection_through_noiseless_tomography():
    curves = runner.star_protection(QUIET, tomo_sigma=0.0, t_max=0.1, points=3)
    for c in curves:
        assert max(abs(v - 0.5) for v in c.values) < 1e-6


def test_star_nmr_preparation_path():
    curves = runner.star_protection(QUIET, prep="nmr", t_max=0.01, points=2)
    for c in curves:
        assert c.values[0] == pytest.approx(0.5, abs=1e-6)
    with pytest.raises(ValueError, match="unknown preparation"):
        runner.star_protection(QUIET, prep="lab")


def _count_star_work(monkeypatch):
    """Count star preparations and the free-evolution walks built."""
    counts = {"prep": 0, "free_walks": 0}
    prepare = circuits.prepare_star_nmr

    def counting_prepare(sys):
        counts["prep"] += 1
        return prepare(sys)

    walk = runner._walk

    def counting_walk(sys, cycle, times, rho0s):
        counts["free_walks"] += cycle is None
        return walk(sys, cycle, times, rho0s)

    monkeypatch.setattr(circuits, "prepare_star_nmr", counting_prepare)
    monkeypatch.setattr(runner, "_walk", counting_walk)
    return counts


def test_star_run_prepares_once_and_walks_free_evolution_once(monkeypatch):
    counts = _count_star_work(monkeypatch)
    rows = runner.star_protection(runner.default_system(), free=True, prep="nmr")
    assert [c.protocol.kind for c in rows] == ["mDD2sp"] * 2 + ["FreeEv"] * 2
    assert counts == {"prep": 1, "free_walks": 1}


def test_star_protected_only_builds_no_free_walk(monkeypatch):
    counts = _count_star_work(monkeypatch)
    rows = runner.star_protection(runner.default_system(), prep="nmr", t_max=0.1, points=3)
    assert [c.protocol.targets for c in rows] == list(runner.STAR_PAIRS.values())
    assert counts == {"prep": 1, "free_walks": 0}


def test_a_grid_or_star_run_draws_its_offsets_once(monkeypatch):
    # the grid's 22 protocols and the star run's 3 walks besides its preparation each
    # receive one and the same array, and the seeded RNG runs once per run
    walks, drawn, rngs = [], [], []
    real_walk, real_draw, real_rng = spinsys.walk, DisorderModel.draw, np.random.default_rng

    def counting_walk(sys, *args):
        walks.append(sys)
        return real_walk(sys, *args)

    def recording_draw(self):
        drawn.append(real_draw(self))
        return drawn[-1]

    def counting_rng(*args):
        rngs.append(inspect.currentframe().f_back.f_globals["__name__"])
        return real_rng(*args)

    monkeypatch.setattr(spinsys, "walk", counting_walk)
    monkeypatch.setattr(DisorderModel, "draw", recording_draw)
    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    sys = runner.default_system()
    DisorderModel._random_draw.cache_clear()
    run = runner.run_grid(sys)
    assert len({c.protocol for c in run.curves}) == 22 and len(walks) == len(drawn) == 22
    assert all(d is drawn[0] for d in drawn) and drawn[0].shape == (512, 3)
    assert rngs == ["triqdd.spinsys"]
    with pytest.raises(ValueError):
        drawn[0][0, 0] = 1.0
    for seen in (walks, drawn, rngs):
        seen.clear()
    DisorderModel._random_draw.cache_clear()
    rows = runner.star_protection(sys, free=True, prep="nmr")
    assert len(rows) == 4 and len(walks) == len(drawn) == 4
    # the preparation walks zero widths: one zero shot, and no RNG
    assert walks[0].disorder == DisorderModel() and np.array_equal(drawn[0], np.zeros((1, 3)))
    assert all(d is drawn[1] for d in drawn[1:]) and drawn[1].shape == (512, 3)
    assert rngs == ["triqdd.spinsys"]
    for d in drawn[:2]:
        with pytest.raises(ValueError):
            d[0, 0] = 1.0
    # the preparation's zero shot is no cached draw, so it does not evict the system's:
    # a second nmr run hands every walk the first run's array and constructs no RNG
    first = drawn[1]
    for seen in (walks, drawn, rngs):
        seen.clear()
    runner.star_protection(sys, free=True, prep="nmr")
    assert len(drawn) == 4 and all(d is first for d in drawn[1:]) and rngs == []


def test_each_walk_checks_its_states_once_as_one_stack(monkeypatch):
    # one check per walk: the grid's 22 protocols; the star run's preparation, 2 pairs
    # and 1 free grid
    checks = []
    real = qmat.assert_density_matrix

    def counting(rho):
        checks.append(np.shape(rho))
        return real(rho)

    monkeypatch.setattr(qmat, "assert_density_matrix", counting)
    sys = runner.default_system()
    runner.run_grid(sys)
    assert len(checks) == 22
    # free evolution and DD3sp walk all seven states, (7, 20, 8, 8), in one check each
    assert sum(shape[0] == 7 for shape in checks) == 1 + len(runner.FAMILIES)
    checks.clear()
    runner.star_protection(sys, free=True, prep="nmr")
    assert len(checks) == 4


def test_star_readout_is_one_stacked_call_per_grid(monkeypatch):
    counts = {"tomography": 0, "concurrence": 0}

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counting(circuits, "tomography")
    counting(qmat, "concurrence")
    rows = runner.star_protection(runner.default_system(), free=True, prep="nmr",
                                  tomo_sigma=0.01)
    assert len(rows) == 4 and len(rows[0].times) == 20
    # both protected pairs share one 20-point grid, so one (2, 20, 8, 8) read;
    # one concurrence call per pair and curve (free rows read exactly)
    assert counts == {"tomography": 1, "concurrence": 4}


def test_star_draws_each_times_readout_noise_once(monkeypatch):
    # no disorder widths, so the walks draw nothing and every generator is the readout's
    sys = dataclasses.replace(runner.default_system(), disorder=DisorderModel())
    seeds = []
    real = np.random.default_rng

    def recording(seed=None):
        seeds.append(seed)
        return real(seed)

    monkeypatch.setattr(np.random, "default_rng", recording)
    rows = runner.star_protection(sys, free=True, prep="nmr", tomo_sigma=0.01, seed=7)
    # one generator per recorded time, shared by both pairs read at that time
    assert seeds == list(range(7, 7 + len(rows[0].times))) and len(seeds) == 20


@pytest.mark.parametrize("seed", [0, 7])
def test_star_protected_rows_equal_per_pair_tomography_reads(seed):
    sys = runner.default_system()
    rows = runner.star_protection(sys, prep="nmr", tomo_sigma=0.01, seed=seed)
    rho0 = circuits.prepare_star_nmr(sys)
    assert len(rows) == len(runner.STAR_PAIRS)
    for row, pair in zip(rows, runner.STAR_PAIRS.values()):
        states = runner._walk(sys, runner.build_cycle(row.protocol), row.times, [rho0])[0]
        read = circuits.tomography(states, sigma=0.01, seed=seed)
        want = qmat.concurrence(qmat.partial_trace(read, pair))
        assert row.protocol.targets == pair
        assert np.max(np.abs(np.array(row.values) - want)) <= 1e-12


def test_star_free_rows_match_an_independent_free_walk():
    sys = runner.default_system()
    rows = runner.star_protection(sys, free=True, prep="nmr", tomo_sigma=0.01, seed=7)
    rho0 = circuits.prepare_star_nmr(sys)
    for protected, free, pair in zip(rows[:2], rows[2:], runner.STAR_PAIRS.values()):
        states = runner._walk(sys, None, protected.times, [rho0])[0]
        assert free.times == protected.times
        assert free.values == tuple(
            qmat.concurrence(qmat.partial_trace(avg, pair)) for avg in states)


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
    # the one-pass text is exactly csv.writer's, CRLF line ends included
    sys = runner.default_system()
    for curves in (runner.run_grid(sys).curves,
                   runner.star_protection(sys, free=True, prep="nmr", tomo_sigma=0.01, seed=3)):
        want = io.StringIO(newline="")
        w = csv.writer(want)
        w.writerow(["state", "protocol", "sequence", "time_s", "value", "kind"])
        for curve in curves:
            w.writerows([curve.state, curve.protocol.kind, curve.protocol.sequence_label,
                         format(float(t), ".12g"), format(float(v), ".12g"), curve.kind]
                        for t, v in zip(curve.times, curve.values))
        runner.write_curves_csv(curves, path)
        assert path.read_bytes() == want.getvalue().encode()


def test_csv_formats_shared_and_separate_time_grids_per_row(tmp_path):
    # one grid object shared by two curves, an equal grid built apart, and another grid
    shared = (0.0, 0.1 + 0.2, 1 / 3, 0.7)
    protos = (runner.default_protocol("FreeEv"), runner.default_protocol("DD1sp", "psi1a"))
    curves = [runner.DecayCurve("psi1a", protos[0], "amplitude", shared, (1.0, 0.5, 1 / 7, 0.0)),
              runner.DecayCurve("psi1b", protos[0], "amplitude", shared, (1.0, 2 / 3, 0.25, 1e-17)),
              runner.DecayCurve("psi1a", protos[1], "amplitude", tuple(list(shared)),
                                (1.0, 0.9, 0.8, 0.7)),
              runner.DecayCurve("star", protos[1], "concurrence", (0.0, 0.35, 0.7 + 1e-13),
                                (0.5, 0.25, 0.125))]
    want = ["state,protocol,sequence,time_s,value,kind"]
    for c in curves:
        want += [f"{c.state},{c.protocol.kind},{c.protocol.sequence_label},"
                 f"{t:.12g},{v:.12g},{c.kind}" for t, v in zip(c.times, c.values)]
    runner.write_curves_csv(curves, tmp_path / "c.csv")
    assert (tmp_path / "c.csv").read_bytes() == ("\r\n".join(want) + "\r\n").encode()


def test_grid_summary_shape(tmp_path):
    pcts = synthetic_percents()
    run = runner.GridRun((), pcts, 0.7)
    report = runner.OrderingReport(
        (runner.fact_check(pcts, "psi1a", ("DD1sp", "XY8"), ("FreeEv", None)),))
    doc = runner.grid_summary(run, report, {"shots": 4})
    assert doc["time_s"] == 0.7
    assert doc["config"] == {"shots": 4}
    assert doc["percents"]["psi1a"]["DD1sp/XY8"] == 80.0
    assert doc["ordering"]["all_pass"] is True
    # the written summary is what json.dump writes, and a final newline
    runner.write_json(doc, tmp_path / "summary.json")
    want = io.StringIO()
    json.dump(doc, want, indent=2, sort_keys=True)
    assert (tmp_path / "summary.json").read_text() == want.getvalue() + "\n"
