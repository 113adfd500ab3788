"""Preparation circuits, star pulse program, readout words, tomography."""

import itertools
import re
from functools import lru_cache

import numpy as np
import pytest

from triqdd import circuits, qmat, spinsys
from triqdd.qmat import InvariantError

from oracles import star_rho


TWO_TERM_STATES = ("psi0a", "psi0b", "psi1a", "psi1b", "psi2a", "psi2b", "psi3")


# -- catalog --------------------------------------------------------------

def label_indices(label):
    """Basis indices of the |bbb> tokens a catalog label names."""
    return sorted(int(bits, 2) for bits in re.findall(r"\|([01]{3})>", label))


def test_every_label_names_exactly_the_basis_states_of_its_terms():
    for state_id, entry in circuits.state_catalog().items():
        assert label_indices(entry["label"]) == sorted(i for i, _ in entry["terms"]), state_id


def test_tracked_elements_sit_on_the_terms_of_their_state():
    for state_id, entry in circuits.state_catalog().items():
        indices = sorted(i for i, _ in entry["terms"])
        a, b = circuits.tracked_element(state_id)
        if state_id in TWO_TERM_STATES:
            # the coherence between the state's two terms
            assert [a, b] == indices, state_id
        else:
            assert a in indices and b in indices, state_id


def test_prepared_states_are_pure():
    for state_id in circuits.state_ids():
        rho = circuits.prepare(state_id)
        qmat.assert_density_matrix(rho)
        assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-12)


def test_unknown_state_rejected():
    with pytest.raises(ValueError):
        circuits.prepare("psi9")


def test_tracked_elements_carry_the_advertised_order_and_weight():
    for state_id in TWO_TERM_STATES:
        rho = circuits.prepare(state_id)
        a, b = circuits.tracked_element(state_id)
        # the id names the order: psi<order><variant>
        assert qmat.coherence_order(a, b) == int(state_id[3]), state_id
        assert abs(rho[a, b]) == pytest.approx(0.5, abs=1e-12)
    star = circuits.prepare("star")
    a, b = circuits.tracked_element("star")
    assert abs(star[a, b]) == pytest.approx(0.25, abs=1e-12)


def test_star_circuit_matches_golden_state():
    assert np.allclose(circuits.prepare("star"), star_rho(), atol=1e-12)


# -- pulse-level star program ----------------------------------------------

def test_star_nmr_ideal_fidelity():
    sys = spinsys.SpinSystem(noise=spinsys.NoiseModel())
    rho = circuits.prepare_star_nmr(sys)
    qmat.assert_density_matrix(rho)
    assert qmat.fidelity(rho, star_rho()) == pytest.approx(1.0, abs=1e-9)


def test_star_nmr_preparation_is_a_checked_walk(monkeypatch):
    # fused frames scaled by 1.01 inflate the trace: the walk's check refuses the state
    real = spinsys.compile_program

    def inflated(sys, events, duration):
        return [("fused", 1.01 * seg[1]) + seg[2:] if seg[0] == "fused" else seg
                for seg in real(sys, events, duration)]

    monkeypatch.setattr(spinsys, "compile_program", inflated)
    with pytest.raises(InvariantError, match="not a density matrix"):
        circuits.prepare_star_nmr(spinsys.SpinSystem())


def test_star_nmr_preparation_ignores_disorder_and_pulse_errors():
    # the preparation walks ideal pulses at zero disorder widths: one zero shot
    want = circuits.prepare_star_nmr(spinsys.SpinSystem())
    for sigma_corr, seed, flip in itertools.product((0.0, 0.72), (0, 7), (0.0, 0.02)):
        sys = spinsys.SpinSystem(
            pulse=spinsys.PulseErrorModel(flip_fraction_error=flip),
            disorder=spinsys.DisorderModel((0.08, 0.08, 0.08), sigma_corr, shots=64, seed=seed))
        assert np.array_equal(circuits.prepare_star_nmr(sys), want)


def test_star_nmr_duration_is_two_coupling_echoes_each():
    sys = spinsys.SpinSystem()
    events, duration = circuits.star_circuit_nmr(sys)
    j13, j23 = abs(sys.coupling(1, 3)), abs(sys.coupling(2, 3))
    assert duration == pytest.approx(2.0 / (2.0 * j13) + 2.0 / (2.0 * j23), rel=1e-12)
    assert all(0.0 <= ev.start <= duration + 1e-12 for ev in events)


def test_star_nmr_dephasing_costs_fidelity_monotonically():
    quiet = spinsys.SpinSystem(noise=spinsys.NoiseModel())
    default = spinsys.SpinSystem()
    loud = spinsys.SpinSystem(
        noise=spinsys.NoiseModel(gamma=(2.0, 2.4, 4.0), gamma_corr=3.0))
    fids = [qmat.fidelity(circuits.prepare_star_nmr(s), star_rho())
            for s in (quiet, default, loud)]
    assert fids[0] > fids[1] > fids[2]
    assert fids[1] > 0.9  # echoes keep the default-noise run close


# The star preparation as the nine-step program it was once shipped as: y
# rotations on a target by degrees, and controlled-Z blocks on a
# control/target pair with its spectator.
STAR_STEPS = (
    {"op": "ry", "target": 1, "angle_deg": 120.0},
    {"op": "cz", "control": 1, "target": 3, "spectator": 2},
    {"op": "ry", "target": 3, "angle_deg": -54.73561031724535},
    {"op": "cz", "control": 1, "target": 3, "spectator": 2},
    {"op": "ry", "target": 3, "angle_deg": 54.73561031724535},
    {"op": "cz", "control": 3, "target": 2, "spectator": 1},
    {"op": "ry", "target": 2, "angle_deg": -45.0},
    {"op": "cz", "control": 3, "target": 2, "spectator": 1},
    {"op": "ry", "target": 2, "angle_deg": 45.0},
)


def star_steps_schedule(sys):
    """(events, duration) of STAR_STEPS, read one step at a time: a controlled-Z is
    a pi-pulse echo on spectator, pair, spectator, pair over 1/(2|J|), then on
    control and target the z rotation x(-90) y(-sign(J) 90) x(90)."""
    events, t = [], 0.0
    for step in STAR_STEPS:
        if step["op"] == "ry":
            angle = np.deg2rad(step["angle_deg"])
            events.append(spinsys.pulse(t, step["target"], angle, np.pi / 2))
            continue
        control, target = step["control"], step["target"]
        j = sys.coupling(control, target)
        if j == 0.0:
            raise ValueError(f"coupling J{control}{target} is zero")
        t_echo = 1.0 / (2.0 * abs(j))
        for n, on in enumerate((step["spectator"], (control, target)) * 2, 1):
            events.append(spinsys.pulse(t + n * (t_echo / 4.0), on, np.pi, 0.0))
        t += t_echo
        for qubit in (control, target):
            events += [spinsys.pulse(t, qubit, np.pi / 2, np.pi),
                       spinsys.pulse(t, qubit, -np.sign(j) * np.pi / 2, np.pi / 2),
                       spinsys.pulse(t, qubit, np.pi / 2, 0.0)]
    return tuple(events), t


def test_star_circuit_nmr_is_the_nine_step_program():
    base = spinsys.SpinSystem()
    for couplings in (base.couplings, tuple(-j for j in base.couplings), (30.0, 150.0, -100.0)):
        sys = spinsys.SpinSystem(couplings=couplings)
        assert circuits.star_circuit_nmr(sys) == star_steps_schedule(sys), couplings
    # a zero coupling is refused by name, J13 before J23
    for couplings, pair in (((48.0, 0.0, -192.0), "J13"), ((48.0, 161.0, 0.0), "J32"),
                            ((48.0, 0.0, 0.0), "J13")):
        for schedule in (circuits.star_circuit_nmr, star_steps_schedule):
            with pytest.raises(ValueError, match=f"coupling {pair} is zero"):
                schedule(spinsys.SpinSystem(couplings=couplings))


def test_star_nmr_needs_both_couplings():
    broken = spinsys.SpinSystem(couplings=(48.0, 0.0, -192.0))
    with pytest.raises(ValueError):
        circuits.star_circuit_nmr(broken)


# -- readout ---------------------------------------------------------------

def test_readout_identity_word():
    assert np.allclose(circuits.readout_unitary("III"), np.eye(8), atol=0)


def test_readout_word_validation():
    with pytest.raises(ValueError):
        circuits.readout_unitary("XZ I"[:3])
    with pytest.raises(ValueError):
        circuits.readout_unitary("XY")


# -- tomography ------------------------------------------------------------

def test_tomography_settings_are_the_committed_seven():
    assert circuits.TOMOGRAPHY_SETTINGS == ("III", "IIY", "IYY", "YII",
                                            "XYX", "XXY", "XXX")


def test_tomography_noiseless_is_essentially_exact():
    for state_id in circuits.state_ids():
        rho = circuits.prepare(state_id)
        rec = circuits.tomography(rho)
        assert np.allclose(rec, rho, atol=1e-8), state_id
        assert qmat.fidelity(rec, rho) >= 0.999


def test_tomography_recovers_the_maximally_mixed_state():
    mix = np.eye(8) / 8
    assert np.max(np.abs(circuits.tomography(mix) - mix)) < 1e-6


@pytest.mark.parametrize("seed", [0, 1])
def test_tomography_noisy_fidelity_floor(seed):
    for state_id in circuits.state_ids():
        rho = circuits.prepare(state_id)
        rec = circuits.tomography(rho, sigma=0.01, seed=seed)
        qmat.assert_density_matrix(rec)
        assert qmat.fidelity(rec, rho) >= 0.98, state_id


@pytest.mark.parametrize("seed", range(8))
def test_fidelity_with_a_pure_state_is_its_overlap(seed):
    # the pure side's square root has rank one: roundoff-sized eigenvalues must count as zero
    for state_id in circuits.state_ids():
        pure = circuits.prepare(state_id)
        rec = circuits.tomography(pure, sigma=0.01, seed=seed)
        overlap = np.trace(pure @ rec).real
        assert abs(qmat.fidelity(pure, rec) - overlap) <= 1e-12, state_id
        assert abs(qmat.fidelity(rec, pure) - overlap) <= 1e-12, state_id


def test_tomography_is_deterministic_per_seed():
    rho = circuits.prepare("star")
    a = circuits.tomography(rho, sigma=0.01, seed=7)
    b = circuits.tomography(rho, sigma=0.01, seed=7)
    c = circuits.tomography(rho, sigma=0.01, seed=8)
    assert np.array_equal(a, b)
    assert not np.allclose(a, c, atol=1e-6)


def test_tomography_input_validation():
    with pytest.raises(ValueError):
        circuits.tomography(np.eye(4) / 4)
    for sigma in (-1.0, -1e-12, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="sigma"):
            circuits.tomography(np.eye(8) / 8, sigma=sigma)
    # member i draws from seed + i: a negative seed is refused by name, noiseless too
    for sigma in (0.0, 0.01):
        with pytest.raises(ValueError, match="^tomography seed must be nonnegative, got -1$"):
            circuits.tomography(np.eye(8) / 8, sigma=sigma, seed=-1)


def test_tomography_refuses_a_state_that_is_not_hermitian():
    # eigh reads one triangle: psi1a's upper triangle, its coherence doubled above
    # the diagonal and zero below, would read back as a state 0.5 away from psi1a
    rho = circuits.prepare("psi1a")
    upper = np.triu(rho) + np.triu(rho, 1)
    for sigma in (0.0, 0.01):
        with pytest.raises(ValueError, match="^matrix is not Hermitian$"):
            circuits.tomography(upper, sigma=sigma)
    # a stack names its first failing member, counted over the flattened stack
    stack = np.broadcast_to(rho, (2, 3, 8, 8)).copy()
    stack[1, 1] = stack[1, 2] = upper
    with pytest.raises(ValueError, match="^member 4: matrix is not Hermitian$"):
        circuits.tomography(stack, sigma=0.01)
    with pytest.raises(ValueError, match="^member 1: matrix is not Hermitian$"):
        circuits.tomography(stack[1])


@pytest.mark.parametrize("sigma", [0.0, 0.01, 0.3])
def test_stacked_tomography_equals_single_calls_seeded_per_member(sigma):
    states = np.stack([circuits.prepare(state_id) for state_id in circuits.state_ids()])
    stacked = circuits.tomography(states, sigma=sigma, seed=11)
    assert stacked.shape == states.shape
    for i, rho in enumerate(states):
        single = circuits.tomography(rho, sigma=sigma, seed=11 + i)
        assert np.max(np.abs(stacked[i] - single)) < 1e-14
    # m experiments at the same n times: time i shares one draw from seed + i
    experiments = np.stack([states, states[::-1], np.roll(states, 3, axis=0)])
    read = circuits.tomography(experiments, sigma=sigma, seed=11)
    assert read.shape == experiments.shape
    for e, stack in enumerate(experiments):
        for i, rho in enumerate(stack):
            single = circuits.tomography(rho, sigma=sigma, seed=11 + i)
            assert np.max(np.abs(read[e, i] - single)) < 1e-14, (e, i)
    # mixed members of every rank: each (e, i) is the literal readout of that
    # member alone, seeded seed + i
    rng = np.random.default_rng(21)
    mixed = np.array([[random_rank_rho(rng, rank) for rank in (1, 2, 4, 8)] for _ in range(2)])
    read = circuits.tomography(mixed, sigma=sigma, seed=11)
    for e, stack in enumerate(mixed):
        for i, rho in enumerate(stack):
            want = literal_tomography(rho, sigma, 11 + i)
            assert np.max(np.abs(read[e, i] - want)) <= 1e-12, (e, i)


@pytest.mark.parametrize("sigma", [0.0, 0.01])
def test_an_empty_stack_reads_back_empty(sigma):
    # a stack with no members reads back empty, with or without noise
    for shape in ((0, 8, 8), (2, 0, 8, 8), (0, 3, 8, 8)):
        read = circuits.tomography(np.zeros(shape, dtype=complex), sigma=sigma, seed=4)
        assert read.shape == shape


def test_views_read_as_their_contiguous_copies():
    states = np.stack([circuits.prepare(state_id) for state_id in circuits.state_ids()])
    views = (np.broadcast_to(states[2], (4, 8, 8)),
             np.broadcast_to(states, (2,) + states.shape),
             states[::2],
             states[:, ::-1, ::-1],
             states.swapaxes(-1, -2).conj())
    for view in views:
        assert not view.flags.c_contiguous
        for sigma in (0.0, 0.01):
            got = circuits.tomography(view, sigma=sigma, seed=5)
            assert np.array_equal(got, circuits.tomography(view.copy(), sigma=sigma, seed=5))


def test_stacked_tomography_rejects_other_shapes():
    for shape in ((2, 4, 4), (2, 2, 3, 8, 8)):
        with pytest.raises(ValueError, match="stack"):
            circuits.tomography(np.broadcast_to(np.eye(shape[-1]) / shape[-1], shape))


# -- the cached readout against the literal one ----------------------------
#
# The references below are the tomography pipeline as first written: one
# readout per word, the recorded elements read one by one, and a fresh
# least-squares solve against a design matrix rebuilt from 64 loose basis
# matrices. The cached stacks and solve matrix must reproduce them.

LINE_PAIRS = [(a, b) for a in range(8) for b in range(a + 1, 8) if (a ^ b).bit_count() == 1]


def literal_observe(rho):
    rows = []
    for word in circuits.TOMOGRAPHY_SETTINGS:
        u = circuits.readout_unitary(word)
        rotated = u @ rho @ u.conj().T
        rows.extend(np.diag(rotated).real)
        for a, b in LINE_PAIRS:
            rows.append(rotated[a, b].real)
            rows.append(rotated[a, b].imag)
    return np.array(rows)


def literal_basis():
    basis = []
    for k in range(8):
        e = np.zeros((8, 8), dtype=complex)
        e[k, k] = 1.0
        basis.append(e)
    for a in range(8):
        for b in range(a + 1, 8):
            re = np.zeros((8, 8), dtype=complex)
            re[a, b] = re[b, a] = 1.0
            im = np.zeros((8, 8), dtype=complex)
            im[a, b], im[b, a] = 1j, -1j
            basis += [re, im]
    return basis


@lru_cache(maxsize=1)
def literal_design():
    return np.column_stack([literal_observe(m) for m in literal_basis()])


def literal_tomography(rho, sigma, seed, scans=32):
    y = literal_observe(rho)
    if sigma > 0:
        y = y + np.random.default_rng(seed).normal(0.0, sigma, size=(scans, y.size)).mean(axis=0)
    a_full = np.vstack([literal_design(), np.concatenate([np.ones(8), np.zeros(56)])])
    x, *_ = np.linalg.lstsq(a_full, np.concatenate([y, [1.0]]), rcond=None)
    out = sum(coeff * m for coeff, m in zip(x, literal_basis()))
    w, v = np.linalg.eigh(out)
    out = (v * np.clip(w, 0.0, None)) @ v.conj().T
    return out / np.trace(out).real


def random_rank_rho(rng, rank):
    g = rng.standard_normal((8, rank)) + 1j * rng.standard_normal((8, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


@pytest.mark.parametrize("rank", range(1, 9))
def test_cached_readout_matches_the_literal_one(rank):
    rng = np.random.default_rng(100 + rank)
    for _ in range(3):
        rho = random_rank_rho(rng, rank)
        assert np.max(np.abs(circuits._observe(rho) - literal_observe(rho))) <= 1e-12
        for sigma in (0.0, 0.01):
            for seed in range(3):
                got = circuits.tomography(rho, sigma=sigma, seed=seed)
                want = literal_tomography(rho, sigma, seed)
                assert np.max(np.abs(got - want)) <= 1e-12, (sigma, seed)


def test_cached_design_matrix_matches_the_literal_one():
    assert np.max(np.abs(circuits._design_matrix() - literal_design())) <= 1e-12
    assert np.array_equal(circuits._hermitian_basis(), np.array(literal_basis()))


def test_cached_tomography_arrays_are_read_only():
    design, solve = circuits._tomography_tables()
    for cached in (circuits._readout_stack(), circuits._hermitian_basis(),
                   design, solve, circuits._RECORD_INDEX):
        with pytest.raises(ValueError):
            cached[0] = 0


@pytest.fixture
def fresh_tomography_caches():
    caches = (circuits._readout_stack, circuits._tomography_tables)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


def test_rank_deficient_settings_still_raise(monkeypatch, fresh_tomography_caches):
    monkeypatch.setattr(circuits, "TOMOGRAPHY_SETTINGS", ("III", "IIY", "IYY"))
    mixed = np.eye(8) / 8
    # every call fetches the tables, noiseless stacks and noisy states alike
    for rho, sigma in ((mixed, 0.0), (np.broadcast_to(mixed, (3, 8, 8)), 0.0),
                       (np.broadcast_to(mixed, (2, 3, 8, 8)), 0.0), (mixed, 0.01)):
        with pytest.raises(InvariantError, match="rank deficient"):
            circuits.tomography(rho, sigma=sigma)


def test_overflowing_readout_noise_is_a_value_error():
    with pytest.raises(ValueError, match="sigma"):
        circuits.tomography(circuits.prepare("psi1a"), sigma=1e308)
