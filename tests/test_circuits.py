"""Preparation circuits, star pulse program, readout words, tomography."""

import json
from importlib import resources

import numpy as np
import pytest

from triqdd import circuits, qmat, spinsys


def load_data(name):
    return json.loads(resources.files("triqdd").joinpath(f"data/{name}").read_text())


def star_rho():
    return qmat.rho_from_json(load_data("star_state.json"))


TWO_TERM_STATES = ("psi0a", "psi0b", "psi1a", "psi1b", "psi2a", "psi2b", "psi3")


# -- catalog gates ---------------------------------------------------------

def test_gate_unitaries_are_involutions_or_invert():
    eye = np.eye(8)
    for u in (circuits.gate_unitary("h", [2]),
              circuits.gate_unitary("x", [3]),
              circuits.gate_unitary("cnot", [1, 2])):
        assert np.allclose(u @ u, eye, atol=1e-12)
    ry = circuits.gate_unitary("ry", [1], 0.7)
    assert np.allclose(circuits.gate_unitary("ry", [1], -0.7) @ ry, eye, atol=1e-12)
    cry = circuits.gate_unitary("cry", [3, 2], 1.1)
    assert np.allclose(circuits.gate_unitary("cry", [3, 2], -1.1) @ cry, eye, atol=1e-12)


def test_unknown_gate_rejected():
    with pytest.raises(ValueError):
        circuits.gate_unitary("swap", [1, 2])


def test_every_circuit_produces_its_catalog_ket():
    for state_id in circuits.state_ids():
        got = circuits.prepare_ket(state_id)
        want = circuits.catalog_ket(state_id)
        # global phase is irrelevant, overlap magnitude is not
        assert abs(np.vdot(want, got)) == pytest.approx(1.0, abs=1e-12), state_id


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
        order = circuits.state_catalog()[state_id]["order"]
        assert qmat.coherence_order(a, b) == order
        assert abs(rho[a, b]) == pytest.approx(0.5, abs=1e-12)
    star = circuits.prepare("star")
    a, b = circuits.tracked_element("star")
    assert abs(star[a, b]) == pytest.approx(0.25, abs=1e-12)


def test_star_circuit_matches_golden_state():
    assert np.allclose(circuits.prepare("star"), star_rho(), atol=1e-12)


# -- pulse-level star program ----------------------------------------------

def test_star_nmr_ideal_fidelity():
    sys = spinsys.SpinSystem().without_noise()
    rho = circuits.prepare_star_nmr(sys)
    qmat.assert_density_matrix(rho)
    assert qmat.fidelity(rho, star_rho()) == pytest.approx(1.0, abs=1e-9)


def test_star_nmr_duration_is_two_coupling_echoes_each():
    sys = spinsys.SpinSystem()
    events, duration = circuits.star_circuit_nmr(sys)
    j13, j23 = abs(sys.coupling(1, 3)), abs(sys.coupling(2, 3))
    assert duration == pytest.approx(2.0 / (2.0 * j13) + 2.0 / (2.0 * j23), rel=1e-12)
    assert all(0.0 <= ev.start <= duration + 1e-12 for ev in events)


def test_star_nmr_dephasing_costs_fidelity_monotonically():
    quiet = spinsys.SpinSystem().without_noise()
    default = spinsys.SpinSystem()
    loud = spinsys.SpinSystem(
        noise=spinsys.NoiseModel(gamma=(2.0, 2.4, 4.0), gamma_corr=3.0))
    fids = [qmat.fidelity(circuits.prepare_star_nmr(s), star_rho())
            for s in (quiet, default, loud)]
    assert fids[0] > fids[1] > fids[2]
    assert fids[1] > 0.9  # echoes keep the default-noise run close


def test_star_nmr_needs_both_couplings():
    broken = spinsys.SpinSystem(couplings=(48.0, 0.0, -192.0))
    with pytest.raises(ValueError):
        circuits.star_circuit_nmr(broken)


# -- readout ---------------------------------------------------------------

def test_readout_identity_word():
    assert np.allclose(circuits.readout_unitary("III"), np.eye(8), atol=0)


def test_readout_preserves_density_matrix():
    rho = circuits.prepare("psi3")
    out = circuits.readout(rho, "XYX")
    qmat.assert_density_matrix(out)


def test_readout_word_validation():
    with pytest.raises(ValueError):
        circuits.readout_unitary("XZ I"[:3])
    with pytest.raises(ValueError):
        circuits.readout_unitary("XY")


def test_single_quantum_amplitude_of_direct_state():
    # psi1a already sits in the single-quantum sector, no word needed
    rho = circuits.prepare("psi1a")
    assert circuits.readout_word("psi1a") is None
    assert circuits.single_quantum_amplitude(rho) == pytest.approx(0.5, abs=1e-12)


def scaled_tracked(rho, pair, factor):
    out = rho.copy()
    a, b = pair
    out[a, b] *= factor
    out[b, a] *= factor
    return out


@pytest.mark.parametrize("state_id", ["psi0b", "psi2a", "psi3"])
def test_readout_word_converts_tracked_element_linearly(state_id):
    # shrinking the tracked element must shrink the observed signal with
    # a constant gain over the element-independent baseline
    rho = circuits.prepare(state_id)
    pair = circuits.tracked_element(state_id)
    word = circuits.readout_word(state_id)
    base = circuits.single_quantum_amplitude(
        circuits.readout(scaled_tracked(rho, pair, 0.0), word))
    slopes = []
    for factor in (1.0, 0.5, 0.2):
        signal = circuits.single_quantum_amplitude(
            circuits.readout(scaled_tracked(rho, pair, factor), word))
        slopes.append((signal - base) / factor)
    assert slopes[0] > 0.1
    assert max(slopes) - min(slopes) < 1e-10


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
    with pytest.raises(ValueError):
        circuits.tomography(np.eye(8) / 8, sigma=0.01, scans=0)
    for sigma in (-1.0, -1e-12, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="sigma"):
            circuits.tomography(np.eye(8) / 8, sigma=sigma)
