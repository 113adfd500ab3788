"""Spin-system model against an explicit superoperator-exponential oracle."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import random_rho
from oracles import (disorder_phase_rates, free_factors, pulse_permutation,
                     sequential_rotation_product)
from triqdd import circuits, cli, ddseq, qmat, runner, spinsys
from triqdd.spinsys import (
    ConfigError,
    DisorderModel,
    NoiseModel,
    PulseErrorModel,
    SpinSystem,
    pulse,
)


def plain_system(**kw):
    return SpinSystem(noise=NoiseModel(), **kw)


# -- energies and free evolution -------------------------------------------

def test_energies_hand_values():
    sys = SpinSystem()
    e = spinsys.energies(sys)
    nu1, nu2, nu3 = sys.offsets
    j12, j13, j23 = sys.couplings
    # |000> has all s = +1, |111> all s = -1
    assert e[0] == pytest.approx((nu1 + nu2 + nu3) / 2 + (j12 + j13 + j23) / 4)
    assert e[7] == pytest.approx(-(nu1 + nu2 + nu3) / 2 + (j12 + j13 + j23) / 4)
    # |110>: qubits 1,2 down, qubit 3 up
    assert e[6] == pytest.approx((-nu1 - nu2 + nu3) / 2 + (j12 - j13 - j23) / 4)


def test_single_quantum_element_frequency():
    # element (6,7) runs at nu3 - j13/2 - j23/2
    sys = plain_system()
    nu3 = sys.offsets[2]
    j12, j13, j23 = sys.couplings
    t = 1.7e-3
    rho = np.zeros((8, 8), dtype=complex)
    rho[6, 6] = rho[7, 7] = 0.5
    rho[6, 7] = rho[7, 6] = 0.5
    out = rho * free_factors(sys, t)
    freq = nu3 - j13 / 2 - j23 / 2
    assert out[6, 7] == pytest.approx(0.5 * np.exp(-2j * np.pi * freq * t), abs=1e-12)


def liouvillian(sys):
    """Full 64x64 generator built from operators, no element-wise shortcuts."""
    h = 2 * np.pi * np.diag(spinsys.energies(sys)).astype(complex)
    eye = np.eye(8, dtype=complex)
    m = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    jumps = []
    for q, g in zip((1, 2, 3), sys.noise.gamma):
        jumps.append(np.sqrt(g / 2) * spinsys.embed(spinsys.SIGMA_Z, q))
    ztot = sum(spinsys.embed(spinsys.SIGMA_Z, q) for q in (1, 2, 3))
    jumps.append(np.sqrt(sys.noise.gamma_corr / 2) * ztot)
    for L in jumps:
        ld = L.conj().T @ L
        m += np.kron(L, L.conj())
        m -= 0.5 * (np.kron(ld, eye) + np.kron(eye, ld.T))
    return m


def test_free_evolution_matches_superoperator_exponential():
    rng = np.random.default_rng(23)
    sys = SpinSystem()
    m = liouvillian(sys)
    for t in (1e-4, 2.3e-3, 0.05):
        prop = expm(m * t)
        for _ in range(4):
            rho = random_rho(rng, 8)
            direct = rho * free_factors(sys, t)
            via_super = (prop @ rho.reshape(-1)).reshape(8, 8)
            assert np.allclose(direct, via_super, atol=1e-8)


def test_free_evolution_semigroup_and_channel_properties():
    rng = np.random.default_rng(29)
    sys = SpinSystem()
    rho = random_rho(rng, 8)
    both = rho * free_factors(sys, 0.013)
    split = rho * free_factors(sys, 0.009) * free_factors(sys, 0.004)
    assert np.allclose(both, split, atol=1e-12)
    qmat.assert_density_matrix(both)
    assert np.allclose(np.diag(both), np.diag(rho), atol=1e-12)  # pure dephasing
    with pytest.raises(ValueError):
        free_factors(sys, -0.1)


_RATES = st.floats(0.0, 50.0)
_HZ = st.floats(-2000.0, 2000.0)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(gamma=st.tuples(_RATES, _RATES, _RATES), gamma_corr=_RATES,
       offsets=st.tuples(_HZ, _HZ, _HZ), couplings=st.tuples(_HZ, _HZ, _HZ),
       t=st.floats(0.0, 2.0),
       shifts=st.none() | st.tuples(st.lists(st.tuples(_HZ, _HZ, _HZ), min_size=1,
                                              max_size=4), _HZ))
def test_free_channel_is_cptp_under_random_noise(gamma, gamma_corr, offsets,
                                                  couplings, t, shifts):
    # rho -> F * rho is CP iff the multiplier F is positive semidefinite (Schur
    # product theorem), and trace preserving iff its diagonal is one
    sys = SpinSystem(offsets, couplings, NoiseModel(gamma, gamma_corr))
    # the drawn common-mode shift is the same shift on every spin
    extra = None if shifts is None else disorder_phase_rates(np.add(*shifts))
    factors = free_factors(sys, t, extra)
    # float64 rounds a phase angle theta to about eps * theta, which bounds how
    # far below zero an eigenvalue of the eight-row multiplier can round
    hz = sum(map(abs, offsets + couplings)) + (0.0 if extra is None else np.abs(extra).max())
    tol = 1e-12 + 32 * np.finfo(float).eps * 2 * np.pi * hz * t
    stack = factors.reshape(-1, 8, 8)
    for f in (*stack, stack.mean(axis=0)):
        assert np.allclose(f, f.conj().T, rtol=0, atol=1e-12)
        assert np.linalg.eigvalsh(f).min() >= -tol
        assert np.allclose(np.diag(f), 1.0, rtol=0, atol=1e-12)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(family=st.sampled_from(("XY8", "UR12", "XY16", "KDD20")),
       targets=st.sets(st.sampled_from((1, 2, 3)), min_size=1).map(sorted).map(tuple),
       modified=st.booleans(), tau=st.floats(0.3e-3, 0.7e-3), t_p=st.floats(0.0, 1e-4),
       pulse_model=st.builds(PulseErrorModel, st.just(0.0) | st.floats(-0.1, 0.1),
                             st.just(0.0) | st.floats(-0.3, 0.3), st.booleans()),
       gamma=st.tuples(_RATES, _RATES, _RATES), gamma_corr=_RATES,
       offsets=st.tuples(_HZ, _HZ, _HZ), couplings=st.tuples(_HZ, _HZ, _HZ),
       deltas=st.lists(st.tuples(_HZ, _HZ, _HZ), min_size=1, max_size=4),
       seed=st.integers(0, 2**32 - 1))
def test_pulsed_unit_keeps_a_random_state_a_density_matrix(
        family, targets, modified, tau, t_p, pulse_model, gamma, gamma_corr,
        offsets, couplings, deltas, seed):
    cycle = ddseq.generate(family, tau, t_p, targets)
    if modified and len(targets) == 2:
        cycle = ddseq.modify(cycle)
    sys = SpinSystem(offsets, couplings, NoiseModel(gamma, gamma_corr), pulse_model)
    events, duration = ddseq.program(cycle, cycle.unit_cycles)
    plan = spinsys.expand_program(spinsys.compile_program(sys, events, duration),
                                  np.array(deltas))
    rho = random_rho(np.random.default_rng(seed), spinsys.DIM)
    states = spinsys.apply_program(np.broadcast_to(rho, (len(deltas),) + rho.shape), plan)
    # the free channel's floor, over the unit's duration and its largest disorder shift
    hz = sum(map(abs, offsets + couplings)) + np.abs(deltas).sum(axis=1).max()
    tol = 1e-12 + 32 * np.finfo(float).eps * 2 * np.pi * hz * duration
    for out in (*states, states.mean(axis=0)):
        assert np.allclose(out, out.conj().T, rtol=0, atol=1e-12)
        assert abs(np.trace(out) - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(out).min() >= -tol


def test_decay_rates_by_order():
    # |coherence| decays at gamma_q per differing spin plus gamma_c * order^2
    sys = SpinSystem()
    g1, g2, g3 = sys.noise.gamma
    gc = sys.noise.gamma_corr
    t = 0.21
    rho = np.full((8, 8), 0.125, dtype=complex)
    out = rho * free_factors(sys, t)
    cases = {
        (0, 7): g1 + g2 + g3 + 9 * gc,   # triple quantum
        (6, 7): g3 + gc,                  # single spin flips
        (2, 4): g1 + g2,                  # zero quantum, immune to common mode
        (0, 5): g1 + g3 + 4 * gc,         # double quantum, spins 1 and 3 flip
        (3, 3): 0.0,
    }
    for (a, b), rate in cases.items():
        assert abs(out[a, b]) == pytest.approx(0.125 * np.exp(-rate * t), abs=1e-12)


def test_disorder_phase_rates():
    shift = disorder_phase_rates((1.0, 10.0, 100.0))
    assert shift[6, 7] == pytest.approx(100.0)   # only qubit 3 differs
    assert shift[0, 7] == pytest.approx(111.0)   # all three add up
    assert shift[2, 4] == pytest.approx(1.0 - 10.0)
    # a common-mode shift c moves each element by c times its coherence order
    common = disorder_phase_rates((2.0, 2.0, 2.0))
    assert np.array_equal(common, 2.0 * qmat.coherence_order_matrix(3))
    deltas = np.random.default_rng(3).standard_normal((5, 3))
    stacked = disorder_phase_rates(deltas)
    assert stacked.shape == (5, 8, 8)
    for row, shift in zip(deltas, stacked):
        assert np.allclose(shift, disorder_phase_rates(tuple(row)), rtol=0, atol=1e-13)
        assert np.allclose(disorder_phase_rates(row + 0.4),
                           shift + 0.4 * qmat.coherence_order_matrix(3), rtol=0, atol=1e-13)


def test_disorder_draw_is_seeded_and_sized():
    d = DisorderModel(sigma=(0.1, 0.2, 0.3), sigma_corr=0.5, shots=40, seed=9)
    a, b = d.draw(), d.draw()
    assert a.shape == (40, 3)
    assert np.array_equal(a, b)
    # common mode correlates all three columns
    big = DisorderModel(sigma=(0.0, 0.0, 0.0), sigma_corr=1.0, shots=30, seed=2).draw()
    assert np.allclose(big[:, 0], big[:, 1], atol=0) and np.allclose(big[:, 0], big[:, 2], atol=0)
    # at zero widths every shot would be the same zero shift: shots and seed change nothing
    assert np.array_equal(DisorderModel(shots=64, seed=3).draw(), np.zeros((1, 3)))


# -- pulses ----------------------------------------------------------------

def test_instantaneous_pi_pulse_is_pauli_x():
    sys = plain_system()
    u = spinsys.pulse_propagator(pulse(0.0, 1, np.pi, 0.0), sys)
    x1 = spinsys.embed(spinsys.SIGMA_X, 1)
    assert np.allclose(u, -1j * x1, atol=1e-12)


def test_y_half_pulse_makes_superposition():
    sys = plain_system()
    u = spinsys.pulse_propagator(pulse(0.0, 1, np.pi / 2, np.pi / 2), sys)
    ket0 = np.zeros(8)
    ket0[0] = 1.0
    out = u @ ket0
    assert out[0] == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert out[4] == pytest.approx(1 / np.sqrt(2), abs=1e-12)


def test_finite_pulse_without_internal_h_equals_instantaneous():
    sys = plain_system()
    inst = spinsys.pulse_propagator(pulse(0.0, 2, np.pi, 0.3), sys)
    wide = spinsys.pulse_propagator(pulse(0.0, 2, np.pi, 0.3, duration=20e-6), sys)
    assert np.allclose(inst, wide, atol=1e-10)


def test_hard_pulse_equals_expm_of_rf_hamiltonian():
    # with the internal Hamiltonian on, a window also integrates 2 pi diag(E),
    # E written out from the model formula of random offsets and couplings
    rng = np.random.default_rng(41)
    s = 1 - 2 * ((np.arange(8)[:, None] >> np.array([2, 1, 0])) & 1)
    for internal_h in (False, True):
        for _ in range(60):
            targets = tuple(int(q) for q in rng.permutation((1, 2, 3))[:rng.integers(1, 4)])
            flip = rng.choice((np.pi, np.pi / 2, rng.uniform(-3 * np.pi, 3 * np.pi)))
            phase = rng.uniform(-np.pi, np.pi)
            eps, phase_err = rng.choice((0.0, 0.02, -0.02)), rng.uniform(-0.1, 0.1)
            duration = rng.uniform(1e-6, 1e-3 if internal_h else 1e-4)
            offsets, couplings = rng.uniform(-2000, 2000, 3), rng.uniform(-200, 200, 3)
            sys = SpinSystem(tuple(offsets), tuple(couplings), NoiseModel(),
                             PulseErrorModel(eps, phase_err, internal_h))
            got = spinsys.pulse_propagator(pulse(0.0, targets, flip, phase, duration), sys)
            omega = flip * (1 + eps) / duration
            h = sum((omega / 2) * spinsys.embed(np.cos(phase + phase_err) * spinsys.SIGMA_X
                                                + np.sin(phase + phase_err) * spinsys.SIGMA_Y, q)
                    for q in targets)
            if internal_h:
                j12, j13, j23 = couplings
                energy = s @ offsets / 2 + (j12 * s[:, 0] * s[:, 1] + j13 * s[:, 0] * s[:, 2]
                                            + j23 * s[:, 1] * s[:, 2]) / 4
                h = h + 2 * np.pi * np.diag(energy)
            assert np.max(np.abs(got - expm(-1j * h * duration))) <= 1e-13


def read_off(ev, sys):
    """The signed permutation the engine reads off a pulse's unitary, or None."""
    return spinsys.signed_permutation(spinsys.pulse_propagator(ev, sys))


def test_pulse_permutation_is_the_exact_signed_permutation():
    rng = np.random.default_rng(43)
    for _ in range(60):
        targets = tuple(int(q) for q in rng.permutation((1, 2, 3))[:rng.integers(1, 4)])
        flip = rng.choice((-3, -2, -1, 1, 2, 3, 4)) * np.pi
        phase = rng.uniform(-np.pi, np.pi)
        duration = rng.choice((0.0, 3e-5))
        sys = plain_system(pulse=PulseErrorModel(phase_error=rng.uniform(-0.1, 0.1)))
        ev = pulse(0.0, targets, flip, phase, duration)
        u = spinsys.pulse_propagator(ev, sys)
        perm, d = spinsys.signed_permutation(u)
        signed = np.zeros((8, 8), dtype=complex)
        signed[np.arange(8), perm] = d
        # every signed-permutation pulse flips its targets' bits, or none for an even
        # number of half turns, so it keeps each element's flip pattern a ^ b
        odd = round(flip / np.pi) % 2
        # of the one-bit levels, those on which bit reads a target
        mask = sum(b for b in (1, 2, 4) if any(spinsys.bit(b, q) for q in targets)) if odd else 0
        assert np.array_equal(perm, np.arange(8) ^ mask)
        assert np.allclose(np.abs(d), 1.0, rtol=0, atol=1e-15)
        # exact half turns leave every other entry exactly zero: u is its read-off
        assert np.array_equal(signed, u)
    ev = pulse(0.0, (1, 2), np.pi, 0.3, duration=3e-5)
    assert read_off(ev, plain_system(pulse=PulseErrorModel(flip_fraction_error=0.02))) is None
    inside = plain_system(pulse=PulseErrorModel(internal_h_during_pulse=True))
    assert read_off(ev, inside) is None
    assert read_off(pulse(0.0, (1, 2), np.pi, 0.3), inside) is not None
    assert read_off(pulse(0.0, 1, np.pi / 2, 0.0), plain_system()) is None


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.lists(st.sampled_from((1, 2, 3)), min_size=1, max_size=3, unique=True),
       st.sampled_from((-4, -3, -2, -1, 1, 2, 3, 4)), st.floats(-np.pi, np.pi),
       st.one_of(st.just(0.0), st.floats(-0.2, 0.2)), st.sampled_from((0.0, 30e-6)),
       st.booleans(), st.sampled_from((0.0, 0.02)))
def test_the_signed_permutation_read_off_a_pulse_is_its_closed_form(
        targets, half_turns, phase, phase_error, duration, internal_h, flip_error):
    sys = SpinSystem(pulse=PulseErrorModel(flip_error, phase_error, internal_h))
    ev = pulse(0.0, targets, half_turns * np.pi, phase, duration)
    got, want = read_off(ev, sys), pulse_permutation(ev, sys)
    assert (got is None) == (want is None)
    if want is not None:
        assert np.array_equal(got[0], want[0])
        assert np.max(np.abs(got[1] - want[1])) <= 1e-15


def test_rotation_product_is_the_sequential_product_and_keeps_the_tomography_tables(
        monkeypatch):
    rng = np.random.default_rng(44)
    for _ in range(500):
        targets = tuple(int(q) for q in rng.permutation((1, 2, 3))[:rng.integers(1, 4)])
        flip = rng.choice((rng.integers(-4, 5) * np.pi, rng.uniform(-4 * np.pi, 4 * np.pi)))
        phases = rng.uniform(-np.pi, np.pi, len(targets))
        got = spinsys.rotation_product(targets, flip, phases)
        assert np.max(np.abs(got - sequential_rotation_product(targets, flip, phases))) <= 1e-15
    # the readout rotations built either way give the same tables, bit for bit
    kept = circuits._tomography_tables()
    caches = (circuits._readout_stack, circuits._tomography_tables)
    monkeypatch.setattr(spinsys, "rotation_product", sequential_rotation_product)
    for cache in caches:
        cache.cache_clear()
    try:
        sequential = circuits._tomography_tables()
    finally:
        for cache in caches:
            cache.cache_clear()
    assert all(np.array_equal(a, b) for a, b in zip(kept, sequential))


def test_finite_pulse_with_internal_h_feels_couplings():
    sys = plain_system(pulse=PulseErrorModel(internal_h_during_pulse=True))
    inst = spinsys.pulse_propagator(pulse(0.0, (1, 2), np.pi, 0.0), sys)
    wide = spinsys.pulse_propagator(pulse(0.0, (1, 2), np.pi, 0.0, duration=500e-6), sys)
    assert not np.allclose(inst, wide, atol=1e-3)
    # still unitary
    assert np.allclose(wide @ wide.conj().T, np.eye(8), atol=1e-10)


def test_flip_error_scales_angle():
    sys = plain_system(pulse=PulseErrorModel(flip_fraction_error=0.05))
    u = spinsys.pulse_propagator(pulse(0.0, 3, np.pi, 0.0), sys)
    expect = spinsys.embed(spinsys.rotation2(1.05 * np.pi, 0.0), 3)
    assert np.allclose(u, expect, atol=1e-12)
    ideal = spinsys.pulse_propagator(pulse(0.0, 3, np.pi, 0.0), plain_system())
    assert np.allclose(ideal, spinsys.embed(spinsys.rotation2(np.pi, 0.0), 3), atol=1e-12)


def test_flip_error_past_whole_float_half_turns_is_refused():
    # from 2^52 half turns on every float is whole, so a pi pulse would read as the identity
    ev = pulse(0.5e-3, (1, 2, 3), np.pi, 0.0)
    big = plain_system(pulse=PulseErrorModel(flip_fraction_error=1e15))
    assert read_off(ev, big) is None  # still resolved: a dense rotation
    plan = spinsys.compile_program(big, [ev], 1e-3)
    assert [seg[0] for seg in plan] == ["fused", "dense", "fused"]
    qmat.assert_density_matrix(spinsys.apply_program(random_rho(np.random.default_rng(5), 8), plan))
    for eps in (1e16, 1e17):
        huge = plain_system(pulse=PulseErrorModel(flip_fraction_error=eps))
        for build in (spinsys.pulse_propagator, lambda ev, sys: spinsys.compile_program(
                sys, [ev], 1e-3)):
            with pytest.raises(ConfigError, match="2\\^52 half turns"):
                build(ev, huge)


def test_zero_flip_finite_pulse_rejected():
    sys = plain_system()
    with pytest.raises(ValueError):
        spinsys.pulse_propagator(pulse(0.0, 1, 0.0, 0.0, duration=1e-5), sys)


def test_pulse_event_validation():
    with pytest.raises(ValueError):
        pulse(-1.0, 1, np.pi, 0.0)
    with pytest.raises(ValueError):
        pulse(0.0, (1, 1), np.pi, 0.0)
    with pytest.raises(ValueError):
        pulse(0.0, 4, np.pi, 0.0)


def test_a_nan_pulse_field_is_refused_by_name():
    # NaN compares false against every bound, so each field is refused as NaN, by name
    for name, args in (("start", (np.nan, 1, np.pi, 0.0)), ("duration", (0.0, 1, np.pi, 0.0, np.nan)),
                       ("phase", (0.0, 1, np.pi, np.nan)), ("flip", (0.0, 1, np.nan, 0.0))):
        with pytest.raises(ValueError, match=f"^pulse {name} is NaN$"):
            pulse(*args)
    # an infinite start is no NaN: the schedule is left to refuse it
    assert pulse(np.inf, 1, np.pi, 0.0).start == np.inf


# -- timed sequences -------------------------------------------------------

def walk_once(rho, sys, events, duration):
    """One state walked through one run of a timed program on a system free of disorder."""
    return spinsys.walk(sys, (events, duration), [1], [rho])[0, 0]


def test_sequence_free_pulse_free_composition():
    rng = np.random.default_rng(31)
    sys = SpinSystem()
    rho = random_rho(rng, 8)
    # two simultaneous pulses on disjoint targets, each at its own phase: they commute
    evs = [pulse(0.003, 1, np.pi, 0.0), pulse(0.003, 3, np.pi, np.pi / 2)]
    got = walk_once(rho, sys, evs, 0.008)
    u = spinsys.pulse_propagator(evs[1], sys) @ spinsys.pulse_propagator(evs[0], sys)
    first = rho * free_factors(sys, 0.003)
    want = (u @ first @ u.conj().T) * free_factors(sys, 0.005)
    assert np.allclose(got, want, atol=1e-12)


def test_single_spin_echo_refocuses_offset_and_couplings():
    # pi on qubit 3 at the midpoint: element (6,7) returns exactly
    sys = plain_system()
    rho = np.zeros((8, 8), dtype=complex)
    rho[6, 6] = rho[7, 7] = 0.5
    rho[6, 7] = 0.3 + 0.1j
    rho[7, 6] = np.conj(rho[6, 7])
    tau = 0.004
    out = walk_once(rho, sys, [pulse(tau, 3, np.pi, 0.0)], 2 * tau)
    # the pulse swaps the element to (7,6); phases cancel
    assert out[7, 6] == pytest.approx(rho[6, 7], abs=1e-12)
    with_noise = walk_once(rho, SpinSystem(), [pulse(tau, 3, np.pi, 0.0)], 2 * tau)
    g3 = SpinSystem().noise.gamma[2]
    gc = SpinSystem().noise.gamma_corr
    assert abs(with_noise[7, 6]) == pytest.approx(0.3162277660168379 * np.exp(-(g3 + gc) * 2 * tau), rel=1e-9)


def test_collective_echo_does_not_refocus_couplings():
    # flipping every spin leaves J terms running: element phase survives
    sys = plain_system()
    rho = np.full((8, 8), 0.125, dtype=complex)
    tau = 0.004
    ev = pulse(tau, (1, 2, 3), np.pi, 0.0)
    out = walk_once(rho, sys, [ev], 2 * tau)
    j12, j13, j23 = sys.couplings
    # (6,7) -> (1,0): offsets cancel, couplings accumulate with the same sign
    residual = np.exp(1j * 2 * np.pi * (j13 + j23) * tau)
    assert out[1, 0] == pytest.approx(0.125 * residual, abs=1e-10)


def test_sequence_rejects_overlap_and_overrun():
    sys = plain_system()
    rho = np.eye(8, dtype=complex) / 8
    a = pulse(0.001, 1, np.pi, 0.0, duration=1e-4)
    b = pulse(0.00105, 1, np.pi, 0.0, duration=1e-4)
    with pytest.raises(ValueError):
        walk_once(rho, sys, [a, b], 0.01)
    late = pulse(0.0099, 2, np.pi, 0.0, duration=2e-4)
    with pytest.raises(ValueError):
        walk_once(rho, sys, [late], 0.01)
    # a pulseless program of NaN length would otherwise compile to no segment at all;
    # a program that fails to compile is not kept, so it raises again on every call
    for _ in range(2):
        with pytest.raises(ValueError, match="overlapping"):
            spinsys.compile_program(sys, [a, b], 0.01)
        for duration in (-0.01, np.nan, np.inf):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                spinsys.compile_program(sys, (), duration)


def test_a_pulse_is_checked_against_every_earlier_pulse_still_running():
    # an instantaneous pulse on spin 2 sits between a 10 us pulse at 0 and a 1 us pulse
    # at 3 us: the third overlaps the first, not its predecessor, on spin 1 and on
    # disjoint spin 3 alike
    sys = plain_system()
    first, between = pulse(0.0, 1, np.pi, 0.0, duration=10e-6), pulse(1e-6, 2, np.pi, 0.0)
    for q, match in ((1, r"overlapping pulses on qubits \{1\} at t=0.0 and t=3e-06"),
                     (3, "time-overlapping finite pulses on disjoint qubits")):
        third = pulse(3e-6, q, np.pi, 0.0, duration=1e-6)
        with pytest.raises(ValueError, match=match):
            spinsys.compile_program(sys, [first, between, third], 1e-3)
        # a first pulse that ends before the third starts leaves the schedule valid
        short = replace(first, duration=2e-6)
        assert spinsys.program_steps([short, between, third], 1e-3, False)


# -- compiled plans, kept per pulse model ------------------------------------

# a permuting pi pulse, a pi/2 pulse that mixes basis states and a free tail:
# a fused frame with a perm, a dense segment and a fused frame without one
KEPT_PROGRAM = ((pulse(0.2e-3, (1, 2), np.pi, 0.3, duration=4e-5),
                 pulse(0.5e-3, 3, np.pi / 2, 0.0, duration=4e-5)), 1e-3)


def plan_bytes(plan):
    """Every segment's kind and the exact bytes of each of its arrays."""
    return [(seg[0],) + tuple(None if a is None else (a.dtype, a.shape, a.tobytes())
                              for a in seg[1:]) for seg in plan]


def test_a_system_equal_but_for_its_disorder_shares_the_read_only_plan():
    events, duration = KEPT_PROGRAM
    for model in (PulseErrorModel(), PulseErrorModel(flip_fraction_error=0.02)):
        sys = SpinSystem(pulse=model)
        plan = spinsys.compile_program(sys, events, duration)
        other = replace(sys, disorder=DisorderModel((1.0, 2.0, 3.0), 0.5, shots=7, seed=11))
        assert spinsys.compile_program(other, list(events), duration) is plan
        arrays = [a for seg in plan for a in seg[1:] if a is not None]
        assert len(arrays) == (7 if model == PulseErrorModel() else 10)
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 0


def test_equal_dense_pulses_share_one_read_only_segment():
    # a flip error makes every pulse of the modified KDD20 pair unit dense: its 42
    # pulses are 6 distinct rotations, and each keeps one U and one U dagger
    cycle = ddseq.modify(ddseq.generate("KDD20", 5e-4, 2e-5, (1, 2)))
    sys = SpinSystem(pulse=PulseErrorModel(flip_fraction_error=0.02))
    plan = spinsys.compile_program(sys, *ddseq.program(cycle, cycle.unit_cycles))
    dense = [seg for seg in plan if seg[0] == "dense"]
    assert len(dense) == 42
    for i in (1, 2):
        assert len({id(seg[i]) for seg in dense}) == 6
    for _, u, u_dagger in dense:
        assert np.array_equal(u_dagger, u.conj().T)
        assert not u.flags.writeable and not u_dagger.flags.writeable


@pytest.mark.parametrize("model", [PulseErrorModel(), PulseErrorModel(flip_fraction_error=0.02)],
                         ids=["fused", "dense"])
def test_compiling_builds_each_distinct_pulse_once(model, monkeypatch):
    # the unitary is the one statement of a pulse: compiling builds each distinct
    # pulse of the 42 once, whether it reads as a frame or stays dense
    real, built = spinsys.pulse_propagator, []

    def counting(ev, sys):
        built.append((ev.targets, ev.phase, ev.flip, ev.duration))
        return real(ev, sys)

    monkeypatch.setattr(spinsys, "pulse_propagator", counting)
    cycle = ddseq.modify(ddseq.generate("KDD20", 5e-4, 2e-5, (1, 2)))
    events, duration = ddseq.program(cycle, cycle.unit_cycles)
    spinsys._compiled.cache_clear()
    spinsys.compile_program(SpinSystem(pulse=model), events, duration)
    assert len(events) == 42 and len(built) == len(set(built)) == 6


@pytest.mark.parametrize("change", [
    dict(offsets=(510.0, -300.0, 150.0)),
    dict(couplings=(48.0, 162.0, -192.0)),
    dict(noise=NoiseModel((1.0, 1.3, 2.0), 1.5)),
    dict(noise=NoiseModel((1.0, 1.2, 2.0), 1.6)),
    dict(pulse=PulseErrorModel(flip_fraction_error=0.02)),
    dict(pulse=PulseErrorModel(phase_error=0.02)),
    dict(pulse=PulseErrorModel(internal_h_during_pulse=True)),
], ids=["offsets", "couplings", "gamma", "gamma_corr", "flip_fraction_error", "phase_error",
        "internal_h_during_pulse"])
def test_each_field_compiling_reads_keys_its_own_plan(change):
    base = SpinSystem()
    kept = spinsys.compile_program(base, *KEPT_PROGRAM)
    changed = spinsys.compile_program(replace(base, **change), *KEPT_PROGRAM)
    assert changed is not kept and plan_bytes(changed) != plan_bytes(kept)
    spinsys._compiled.cache_clear()
    fresh = spinsys.compile_program(replace(base, **change), *KEPT_PROGRAM)
    assert fresh is not changed and plan_bytes(fresh) == plan_bytes(changed)


# -- the frame algebra that compile and repeat share --------------------------

_SIGNED_PULSE = st.tuples(st.sets(st.sampled_from((1, 2, 3)), min_size=1).map(sorted).map(tuple),
                          st.sampled_from((np.pi, 2 * np.pi)), st.floats(-np.pi, np.pi))
_GAP = st.floats(1e-5, 1e-3)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(pulses=st.lists(st.tuples(_GAP, _SIGNED_PULSE), max_size=8), tail=_GAP,
       phase_error=st.just(0.0) | st.floats(-0.3, 0.3), split=st.integers(0, 8),
       fraction=st.floats(0.1, 0.9))
def test_a_compiled_program_is_then_of_its_compiled_halves(pulses, tail, phase_error,
                                                           split, fraction):
    # ideal pulses, phase errors and 2 pi pulses are signed permutations: each program
    # is one fused frame, and cutting it inside a gap splits the frame by _then
    sys = replace(runner.default_system(), pulse=PulseErrorModel(phase_error=phase_error))
    events, t = [], 0.0
    for gap, (targets, flip, phase) in pulses:
        t += gap
        events.append(pulse(t, targets, flip, phase))
    gaps = [gap for gap, _ in pulses] + [tail]
    split = min(split, len(pulses))
    cut = sum(gaps[:split]) + fraction * gaps[split]
    duration = t + tail
    assert duration <= 10e-3
    first = [ev for ev in events if ev.start < cut]
    second = [replace(ev, start=ev.start - cut) for ev in events if ev.start > cut]
    [(_, k, h, perm)] = spinsys.compile_program(sys, events, duration)
    [(_, *head)] = spinsys.compile_program(sys, first, cut)
    [(_, *rest)] = spinsys.compile_program(sys, second, duration - cut)
    k2, h2, perm2 = spinsys._then(head, rest)
    assert np.allclose(k2, k, rtol=0, atol=1e-12)
    assert np.allclose(h2, h, rtol=0, atol=1e-12)
    assert (perm is None and perm2 is None) or np.array_equal(perm, perm2)


# -- configuration ---------------------------------------------------------

GOOD_CONFIG = """
[system]
offsets_hz = 500 -300 150
couplings_hz = 48 161 -192

[noise]
gamma_s = 1.0 1.2 2.0
gamma_corr_s = 1.5

[pulse]
internal_h_during_pulse = on

[disorder]
sigma_hz = 0.06 0.06 0.05
sigma_corr_hz = 0.55
shots = 64
seed = 1
"""


def test_config_round_trip():
    sys = spinsys.system_from_text(GOOD_CONFIG)
    assert sys.offsets == (500.0, -300.0, 150.0)
    assert sys.couplings == (48.0, 161.0, -192.0)
    assert sys.noise.gamma == (1.0, 1.2, 2.0)
    assert sys.noise.gamma_corr == 1.5
    assert sys.pulse.internal_h_during_pulse
    assert sys.disorder.sigma == (0.06, 0.06, 0.05)
    assert sys.disorder.shots == 64
    assert sys.disorder.sigma_corr == 0.55


def test_config_rejects_unknown_key():
    # [DEFAULT] is refused like any unknown section: its keys are neither
    # dropped nor copied into the sections beside it
    for text in ("[system]\noffsets_hz = 1 2 3\ntypo_key = 5\n", "[mystery]\nx = 1\n",
                 "[DEFAULT]\nshots = 5\nnonsense_key = 1\n",
                 "[DEFAULT]\nshots = 5\n[disorder]\nsigma_corr_hz = 0.5\n",
                 "[DEFAULT]\ngamma_s = 1 1 1\n[disorder]\nsigma_corr_hz = 0.5\n"):
        with pytest.raises(ConfigError, match=r"unknown (key '\w+' in section \[system\]|"
                                              r"config section \[(mystery|DEFAULT)\])"):
            spinsys.system_from_text(text)


def test_config_rejects_malformed_values():
    for text in ("[system]\noffsets_hz = 1 2\n", "[noise]\ngamma_corr_s = fast\n",
                 "[noise]\ngamma_corr_s = nan\n"):
        with pytest.raises(ConfigError):
            spinsys.system_from_text(text)


def test_config_refuses_an_empty_item_in_a_comma_list():
    # an empty item is never dropped: 48,,161,-192 is not the three couplings 48 161 -192
    for raw in ("48,,161,-192", ",48,161,-192", "48,161,-192,", "48, ,161,-192"):
        with pytest.raises(ConfigError, match=r"\[system\] couplings_hz: empty item in"):
            spinsys.system_from_text(f"[system]\ncouplings_hz = {raw}\n")
    # commas, blanks or both set the items apart
    for raw in ("48,161,-192", "48 161 -192", "48, 161, -192", " 48 ,161 , -192 "):
        assert spinsys.system_from_text(
            f"[system]\ncouplings_hz = {raw}\n").couplings == (48.0, 161.0, -192.0)
    assert spinsys.split_list("", "x") == [] and spinsys.split_list("1 2,3", "x") == ["1", "2", "3"]


def test_config_parses_disorder_keys_while_disorder_is_off():
    # at zero widths disorder is off, yet every [disorder] key is parsed and validated
    for bad in ("sigma_hz = abc", "sigma_hz = 1 2", "sigma_hz = 0 -1 0", "sigma_corr_hz = -2",
                "sigma_corr_hz = nan", "shots = banana", "shots = 0", "shots = 2.5",
                "seed = -1", "seed = 1.5"):
        with pytest.raises(ConfigError):
            spinsys.system_from_text(f"[disorder]\nsigma_hz = 0 0 0\nsigma_corr_hz = 0\n{bad}\n")
    quiet = spinsys.system_from_text(
        "[disorder]\nsigma_hz = 0 0 0\nsigma_corr_hz = 0\nshots = 64\nseed = 3\n")
    assert quiet.disorder == DisorderModel(shots=64, seed=3)
    assert np.array_equal(quiet.disorder.draw(), np.zeros((1, 3)))
    # any nonzero width turns it on, with no further switch
    on = spinsys.system_from_text("[disorder]\nsigma_corr_hz = 0.5\nshots = 64\nseed = 3\n")
    assert on.disorder.draw().shape == (64, 3)


def test_config_table_defaults_are_the_model_defaults(capsys):
    # every default config-reference prints, under its section, parses back to the model
    assert cli.main(["config-reference"]) == 0
    docs = {(section, key): doc for section, key, _, doc in spinsys.CONFIG_KEYS}
    printed, section = {}, None
    for line in capsys.readouterr().out.split("\nFlag overrides")[0].splitlines():
        if line.startswith("["):
            section = line.strip("[]")
        elif line.startswith("  "):
            key, value = (part.strip() for part in line.split("=", 1))
            printed.setdefault(section, {})[key] = value.removesuffix(docs[section, key]).strip()
    assert sorted((sec, key) for sec in printed for key in printed[sec]) == sorted(docs)
    assert printed["noise"]["gamma_s"] == "1 1.2 2"
    assert spinsys.system_from_mapping(printed) == SpinSystem()


def test_coupling_lookup():
    sys = SpinSystem()
    assert sys.coupling(1, 2) == 48.0
    assert sys.coupling(3, 1) == 161.0
    assert sys.coupling(2, 3) == -192.0
    with pytest.raises(ValueError):
        sys.coupling(1, 1)
