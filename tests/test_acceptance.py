"""End-to-end gates on the package's headline behaviors.

One test per committed claim, each against an oracle that is rebuilt
here from first principles rather than imported from the module under
test wherever the claim is about physics.
"""

import math
import time

import numpy as np
import pytest
import scipy.linalg

from triqdd import circuits, ddseq, qmat, runner, spinsys
from triqdd.spinsys import DIM, NoiseModel, PulseErrorModel, SpinSystem

from conftest import MATRIX_UNITS, random_rho, unit_channel, unitary_channel
from oracles import disorder_phase_rates, free_factors, load_data

QUIET = SpinSystem(noise=NoiseModel())


def phase_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Largest entry deviation after aligning the global phase of u to v."""
    z = np.vdot(v, u)
    phase = z / abs(z) if abs(z) > 0 else 1.0
    return float(np.max(np.abs(u / phase - v)))


def energies_oracle(offsets, couplings) -> np.ndarray:
    """Diagonal energies in Hz, rebuilt from the sign convention directly."""
    j12, j13, j23 = couplings
    pairs = ((1, 2, j12), (1, 3, j13), (2, 3, j23))
    out = np.zeros(DIM)
    for b in range(DIM):
        s = [1 - 2 * ((b >> (2 - q)) & 1) for q in range(3)]
        out[b] = sum(0.5 * nu * s[q] for q, nu in enumerate(offsets))
        out[b] += sum(0.25 * j * s[q - 1] * s[r - 1] for q, r, j in pairs)
    return out


# -- order matrix golden ---------------------------------------------------

def test_order_matrix_golden_and_fast():
    want = np.array(load_data("coherence_orders_3q.json")["orders"])
    got = qmat.coherence_order_matrix()
    assert got.shape == (8, 8) and got.dtype.kind == "i"
    assert np.array_equal(got, want)
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        qmat.coherence_order_matrix()
        best = min(best, time.perf_counter() - t0)
    assert best < 1e-3


# -- star state golden -----------------------------------------------------

def test_star_state_and_pair_concurrence():
    doc = load_data("star_state.json")
    want = np.array([complex(re, im) for re, im in doc["entries"]]).reshape(8, 8)
    rho = circuits.prepare("star")
    assert np.max(np.abs(rho - want)) <= 1e-12
    for pair in ((1, 3), (2, 3)):
        c = qmat.concurrence(qmat.partial_trace(rho, pair))
        assert abs(c - 0.5) <= 1e-10


# -- modified cycles compose to identity -----------------------------------

def test_modified_cycles_compose_to_identity():
    for family in ("XY8", "UR12", "XY16", "KDD20"):
        cycle = ddseq.modify(ddseq.generate(family, 0.5e-3, 0.0, targets=(1, 2)))
        # repeat unit = two cycles, zero Hamiltonian
        got = unit_channel(SpinSystem((0.0,) * 3, (0.0,) * 3, NoiseModel()), cycle)
        assert np.max(np.abs(got - MATRIX_UNITS)) <= 1e-10


# -- single-spin refocusing ------------------------------------------------

XY8_PHASES_DEG = (0.0, 90.0, 0.0, 90.0, 90.0, 0.0, 90.0, 0.0)


def test_single_spin_refocusing_theorem():
    tau, q = 0.5e-3, 2
    sys = QUIET
    cycle = ddseq.generate("XY8", tau, 0.0, targets=(q,))

    def free_u(energies, t):
        return np.diag(np.exp(-2j * np.pi * energies * t))

    def pi_pulse(phi_deg, target):
        phi = math.radians(phi_deg)
        rot = np.array([[0.0, -1j * np.exp(-1j * phi)],
                        [-1j * np.exp(1j * phi), 0.0]])
        return spinsys.embed(rot, target)

    e_full = energies_oracle(sys.offsets, sys.couplings)
    u_oracle = free_u(e_full, tau / 2)
    for i, deg in enumerate(XY8_PHASES_DEG):
        u_oracle = pi_pulse(deg, q) @ u_oracle
        u_oracle = free_u(e_full, tau if i < 7 else tau / 2) @ u_oracle
    assert np.max(np.abs(unit_channel(sys, cycle) - unitary_channel(u_oracle))) <= 1e-9

    # pulsing one spin deletes its offset and every coupling it touches
    offsets = list(sys.offsets)
    offsets[q - 1] = 0.0
    couplings = [j if q not in pair else 0.0
                 for pair, j in zip(((1, 2), (1, 3), (2, 3)), sys.couplings)]
    e_deleted = energies_oracle(offsets, couplings)
    assert phase_distance(u_oracle, free_u(e_deleted, 8 * tau)) <= 1e-9

    # the all-spin counterpart refocuses the offsets but not the couplings
    cycle3 = ddseq.generate("XY8", tau, 0.0, targets=(1, 2, 3))
    channel3 = unit_channel(sys, cycle3)
    e_j_only = energies_oracle((0.0, 0.0, 0.0), sys.couplings)
    assert np.max(np.abs(channel3 - unitary_channel(free_u(e_j_only, 8 * tau)))) <= 1e-9
    assert np.max(np.abs(channel3 - MATRIX_UNITS)) > 0.01


# -- analytic dephasing against a superoperator exponential ----------------

def dephasing_superoperator(sys: SpinSystem) -> np.ndarray:
    """64x64 generator acting on row-major vec(rho)."""
    h = 2 * np.pi * np.diag(energies_oracle(sys.offsets, sys.couplings))
    eye = np.eye(DIM)
    lind = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    jumps = [math.sqrt(sys.noise.gamma[q] / 2.0) * spinsys.embed(spinsys.SIGMA_Z, q + 1)
             for q in range(3)]
    jumps.append(math.sqrt(sys.noise.gamma_corr / 2.0)
                 * sum(spinsys.embed(spinsys.SIGMA_Z, q) for q in (1, 2, 3)))
    for a in jumps:
        ada = a.conj().T @ a
        lind += (np.kron(a, a.conj())
                 - 0.5 * (np.kron(ada, eye) + np.kron(eye, ada.T)))
    return lind


def test_analytic_dephasing_against_superoperator():
    gamma, gamma_corr = (0.8, 1.1, 1.7), 0.4
    sys = SpinSystem(noise=NoiseModel(gamma, gamma_corr))
    times = tuple(float(t) for t in np.linspace(0.0, 0.5, 11))
    curve = runner.run_decay("psi3", runner.default_protocol("FreeEv"), sys, times=times)
    rate = sum(gamma) + 9 * gamma_corr
    for t, v in zip(curve.times, curve.values):
        assert abs(v - math.exp(-rate * t)) <= 1e-6

    lind = dephasing_superoperator(sys)
    rho0 = circuits.prepare("psi3")
    for t in (0.0, 0.1, 0.37):
        vec = scipy.linalg.expm(lind * t) @ rho0.reshape(-1)
        oracle = abs(vec.reshape(8, 8)[0, 7]) / abs(rho0[0, 7])
        assert abs(oracle - math.exp(-rate * t)) <= 1e-9
        sim = abs((free_factors(sys, t) * rho0)[0, 7]) / abs(rho0[0, 7])
        assert abs(sim - oracle) <= 1e-9

    # order-zero elements never feel the correlated channel, bit for bit
    quiet_corr = SpinSystem(noise=NoiseModel(gamma, 0.0))
    loud_corr = SpinSystem(noise=NoiseModel(gamma, 25.0))
    free = runner.default_protocol("FreeEv")
    a = runner.run_decay("psi0a", free, quiet_corr, times=times)
    b = runner.run_decay("psi0a", free, loud_corr, times=times)
    assert a.values == b.values


# -- protection orderings under the committed config -----------------------

def test_protection_orderings_at_margin():
    t0 = time.perf_counter()
    run = runner.run_grid(runner.default_system())
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0

    report = runner.compare_to_reference(run.percents)
    assert len(report.facts) == 44
    assert report.all_pass
    for f in report.facts:
        assert f.verdict == "pass"
        assert f.margin_pp >= 5.0

    # the frozen golden run must still be what this machine computes
    by_claim = {(f.state, f.lhs, f.rhs): f for f in report.facts}
    for fact in runner.load_baseline()["facts"]:
        got = by_claim[(fact["state"], tuple(fact["lhs"]), tuple(fact["rhs"]))]
        assert got.verdict == fact["verdict"] == "pass"
        assert abs(got.lhs_pct - fact["oracle_lhs_pct"]) < 5e-4
        assert abs(got.rhs_pct - fact["oracle_rhs_pct"]) < 5e-4


# -- robust families beat plain CPMG ---------------------------------------

def test_robust_families_beat_cpmg_under_flip_error():
    tau, flip_error, offset_hz, n_cycles = 0.5e-3, 0.05, 120.0, 50
    for family in ("XY8", "XY16", "KDD20", "UR12"):
        cycle = ddseq.generate(family, tau, 0.0, targets=(1,))
        cpmg = ddseq.generate(f"CPMG{cycle.n_slots}", tau, 0.0, targets=(1,))
        s = ddseq.single_spin_survival(cycle, offset_hz, flip_error, n_cycles)
        s_cpmg = ddseq.single_spin_survival(cpmg, offset_hz, flip_error, n_cycles)
        assert s > s_cpmg


# -- seven-setting tomography ----------------------------------------------

def test_seven_setting_tomography_fidelity():
    for state_id in runner.TABLE_STATES + ("star",):
        rho = circuits.prepare(state_id)
        assert qmat.fidelity(circuits.tomography(rho), rho) >= 0.999
        noisy = circuits.tomography(rho, sigma=0.01, seed=0)
        assert qmat.fidelity(noisy, rho) >= 0.98


# -- star pair protection --------------------------------------------------

def test_star_pair_protection_beats_free_evolution():
    sys = runner.default_system()
    rows = runner.star_protection(sys, free=True)
    for protected, free in zip(rows[:2], rows[2:]):
        checked = 0
        for t, p, f in zip(protected.times, protected.values, free.values):
            if t >= 0.1:
                assert p >= f
                checked += 1
        assert checked >= 10

    for ideal in runner.star_protection(QUIET):
        assert max(abs(v - 0.5) for v in ideal.values) <= 1e-9


# -- channel properties ----------------------------------------------------

def test_channel_properties_and_semigroup():
    rng = np.random.default_rng(17)
    sys = SpinSystem(noise=NoiseModel((0.5, 0.8, 1.1), 0.3))
    err_sys = SpinSystem(
        noise=NoiseModel(),
        pulse=PulseErrorModel(flip_fraction_error=0.03, phase_error=0.05))
    unitaries = [
        spinsys.pulse_propagator(spinsys.pulse(0.0, (1,), np.pi, 0.0), QUIET),
        spinsys.pulse_propagator(
            spinsys.pulse(0.0, (2, 3), np.pi, np.pi / 2, 2e-5), err_sys),
    ]
    plans = [[("dense", u, u.conj().T)] for u in unitaries]
    plans.append(spinsys.compile_program(
        err_sys, *ddseq.program(ddseq.generate("XY8", 4e-4, 2e-5, targets=(1, 2, 3)), 1)))
    disorder = spinsys.DisorderModel((1.0, 1.0, 1.0), 2.0, shots=16, seed=5)
    shifts = [disorder_phase_rates(tuple(d)) for d in disorder.draw()]

    for i in range(1000):
        rho = random_rho(rng, DIM)
        t1, t2 = rng.uniform(0.01, 0.4, size=2)

        evolved = free_factors(sys, t1) * rho
        qmat.assert_density_matrix(evolved)

        pulsed = spinsys.apply_program(rho, plans[i % len(plans)])
        qmat.assert_density_matrix(pulsed)

        stepped = free_factors(sys, t2) * evolved
        joint = free_factors(sys, t1 + t2) * rho
        assert np.max(np.abs(stepped - joint)) <= 1e-12

        if i % 8 == 0:
            averaged = np.mean(
                [free_factors(sys, t1, extra) * rho for extra in shifts],
                axis=0)
            qmat.assert_density_matrix(averaged)
