"""The fused repeat-unit walk against the plain dense walk it replaced.

The reference below is the earlier engine, kept verbatim: one pair of
(8 x 8) matmuls per shot per pulse and one free_factors call per shot per
gap. The fused walk must reproduce its shot-averaged states over random
families, targets, modification slots, pulse errors, pulse widths and
disorder shots.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from triqdd import ddseq, runner, spinsys
from triqdd.qmat import InvariantError
from triqdd.spinsys import DisorderModel, NoiseModel, PulseErrorModel, SpinSystem

from conftest import random_rho


# -- reference: the dense walk, verbatim -----------------------------------

def _unit_plan(sys: SpinSystem, cycle: ddseq.DDCycle, shifts: np.ndarray) -> list:
    """Segment list for one repeat unit: ('free', stacked factors) and
    ('pulse', U, U dagger), batched over disorder shots.

    Hard pulses (internal Hamiltonian off) are rotations at the scheduled
    pulse centers while free evolution, dephasing included, runs through
    the nominal window spans; the window width then only shapes the
    schedule. With the internal Hamiltonian on, each window is integrated
    as a finite segment and free evolution covers the gaps alone.
    """
    events, duration = ddseq.program(cycle, cycle.unit_cycles)
    hard = not sys.pulse.internal_h_during_pulse
    plan = []
    gap_cache: dict[float, np.ndarray] = {}
    pulse_cache: dict[tuple, np.ndarray] = {}

    def free_segment(dt):
        key = round(dt, 15)
        if key not in gap_cache:
            gap_cache[key] = np.stack(
                [spinsys.free_factors(sys, dt, shift) for shift in shifts])
        plan.append(("free", gap_cache[key]))

    t = 0.0
    for ev in sorted(events, key=lambda e: e.start):
        edge = ev.start + ev.duration / 2.0 if hard else ev.start
        gap = edge - t
        if gap < -spinsys.TIME_ATOL:
            raise InvariantError(f"overlapping events in {cycle.name} program")
        if gap > spinsys.TIME_ATOL:
            free_segment(gap)
        key = (ev.targets, ev.phases, ev.flip, ev.duration)
        if key not in pulse_cache:
            pulse_cache[key] = spinsys.pulse_propagator(ev, sys)
        u = pulse_cache[key]
        plan.append(("pulse", u, u.conj().T))
        t = edge if hard else ev.end
    if duration - t > spinsys.TIME_ATOL:
        free_segment(duration - t)
    return plan


def _apply_unit(states: np.ndarray, plan) -> np.ndarray:
    for seg in plan:
        if seg[0] == "free":
            states = states * seg[1]
        else:
            states = np.matmul(seg[1], states) @ seg[2]
    return states


# -- the property ----------------------------------------------------------

def averaged_states(plan_fn, apply_fn, rho, sys, cycle, shifts, units):
    plan = plan_fn(sys, cycle, shifts)
    states = np.broadcast_to(rho, (shifts.shape[0],) + rho.shape).copy()
    out = []
    for _ in range(units):
        states = apply_fn(states, plan)
        out.append(states.mean(axis=0))
    return out, plan


@st.composite
def walk_cases(draw):
    family = draw(st.sampled_from(("XY8", "UR12", "XY16", "KDD20", "CPMG")))
    n_targets = draw(st.integers(1, 3))
    targets = tuple(sorted(draw(st.permutations((1, 2, 3)))[:n_targets]))
    tau = draw(st.floats(0.3e-3, 0.7e-3))
    t_p = draw(st.sampled_from((0.0, 2e-5, 8e-5)))
    if family == "CPMG":
        cycle = ddseq.generate_cpmg(draw(st.integers(1, 6)), tau, t_p, targets)
    else:
        cycle = ddseq.generate(family, tau, t_p, targets)
    if n_targets == 2 and draw(st.booleans()):
        cycle = ddseq.modify(cycle, slot=draw(st.integers(0, cycle.n_slots - 1)))
    pulse_model = PulseErrorModel(
        flip_fraction_error=draw(st.sampled_from((0.0, 0.02, -0.02))),
        phase_error=draw(st.one_of(st.just(0.0), st.floats(-0.2, 0.2))),
        internal_h_during_pulse=draw(st.booleans()))
    shots = draw(st.integers(1, 4))
    sys = SpinSystem(noise=NoiseModel((0.5, 0.8, 1.1), 0.3), pulse=pulse_model,
                     disorder=DisorderModel((3.0, 4.0, 5.0), 6.0, shots=shots,
                                            seed=draw(st.integers(0, 99))))
    return cycle, sys, draw(st.integers(1, 3)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(walk_cases())
def test_fused_walk_matches_dense_walk(case):
    cycle, sys, units, seed = case
    rho = random_rho(np.random.default_rng(seed), spinsys.DIM)
    shifts = runner._disorder_shifts(sys)
    want, _ = averaged_states(_unit_plan, _apply_unit, rho, sys, cycle, shifts, units)
    got, plan = averaged_states(runner._unit_plan, runner._apply_unit,
                                rho, sys, cycle, shifts, units)
    for a, b in zip(got, want):
        assert np.max(np.abs(a - b)) <= 1e-12

    # the fast path is really taken: dense segments only for pulses that mix states
    err = sys.pulse
    mixing = err.flip_fraction_error != 0.0 or (err.internal_h_during_pulse and cycle.t_p > 0)
    n_pulses = len(ddseq.program(cycle, cycle.unit_cycles)[0])
    n_dense = sum(seg[0] == "dense" for seg in plan)
    assert n_dense == (n_pulses if mixing else 0)
    if not mixing:  # a whole unit is one fused map, unpermuted when its pulses are
        keeps_basis = np.allclose(np.abs(np.diag(ddseq.pulse_product(cycle))), 1.0)
        assert len(plan) == 1 and (plan[0][2] is None) == keeps_basis
