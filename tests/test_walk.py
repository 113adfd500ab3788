"""The schedule engine against the plain dense walk it replaced.

The reference below is the earlier runner engine, kept verbatim except
that it takes a program's (events, duration) instead of a cycle and the
(shots, 3) offset draw instead of its frequency shifts: one pair
of (8 x 8) matmuls per shot per pulse and one free_factors call per shot
per gap. spinsys.compile_program, expanded over the draw, must reproduce
its shot-averaged states over random families, targets, modification
slots, pulse errors, pulse widths and disorder shots, and on the
pulse-level star preparation; spinsys.walk, which every timed evolution
runs through, must agree with it on the committed protocols. A fused
frame's per-level filter function H must give the element-wise disorder
times A it replaced, A[a, b] = H[a] - H[b]. A fused frame permutes
levels by an XOR mask, as every pulse that keeps the basis flips bits; a
pulse that is a signed permutation but no mask compiles dense, and a run
of either kind must match the dense walk. The runner's free-evolution
curves, which walk one pulseless program per distinct gap, must
reproduce the per-time factor stacks they replaced, compiling each gap
length once. A plan of k units (spinsys.repeat_program) must match k
walks of its unit, whether it is the closed-form power of one fused
frame, compiled or expanded over the draw, or the concatenation of a
dense unit's own segments. A fused walk's shot-averaged map, stepped on
its frame and per-shot level phases and read by every state at once,
must match the expanded plan walked on a (shots, 8, 8) stack, for every
protocol of the grid and the star run. It steps all eight levels, so
each state walked alone must match too. A unit whose fused frame
permutes the levels, which no committed protocol compiles to, is walked
on the shot stack instead, one expanded frame per recorded step, and
must match as well. A step's plan is one fused frame or none, and a walk
handed two must fail, not drop one. Refocusing is read
per element off the walk's frames, once per walk and never off the draw:
an element whose two levels' filter functions agree within TIME_ATOL in
every frame records K alone, so a state reads the same bits alone or
beside others and at any disorder width, the grid's DD walks take no
shots and must still match the shot walk on the states the grid serves
them, and a walk with any frame that turns an occupied element takes
every frame's shots. On real pulses, which only flip bits, the rule per
element is the rule per spin (oracles.unrefocused_by_spin). A permuted
record holds its states' elements on other levels, and the shots must
reach them there. A dense walk, which steps the shot stacks of
all its states as one, must equal each state walked alone; and
runner.run_cells, which walks each protocol once for all the states its
cells name and steps no shot stack when it is fused, must match one
run_decay per cell bit for bit, on the grid's table cells and on any others.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from triqdd import circuits, ddseq, runner, spinsys
from triqdd.qmat import InvariantError
from triqdd.runner import Protocol
from triqdd.spinsys import DisorderModel, NoiseModel, PulseErrorModel, SpinSystem

from conftest import random_rho
from oracles import disorder_phase_rates, free_factors, unrefocused_by_spin


# -- reference: the dense walk ---------------------------------------------

def _unit_plan(sys: SpinSystem, events, duration: float, deltas: np.ndarray) -> list:
    """Segment list for one program: ('free', stacked factors) and
    ('pulse', U, U dagger), batched over the (shots, 3) offset draw.

    Hard pulses (internal Hamiltonian off) are rotations at the scheduled
    pulse centers while free evolution, dephasing included, runs through
    the nominal window spans; the window width then only shapes the
    schedule. With the internal Hamiltonian on, each window is integrated
    as a finite segment and free evolution covers the gaps alone.
    """
    hard = not sys.pulse.internal_h_during_pulse
    shifts = disorder_phase_rates(deltas)
    plan = []
    gap_cache: dict[float, np.ndarray] = {}
    pulse_cache: dict[tuple, np.ndarray] = {}

    def free_segment(dt):
        key = round(dt, 15)
        if key not in gap_cache:
            gap_cache[key] = np.stack(
                [free_factors(sys, dt, shift) for shift in shifts])
        plan.append(("free", gap_cache[key]))

    t = 0.0
    for ev in sorted(events, key=lambda e: e.start):
        edge = ev.start + ev.duration / 2.0 if hard else ev.start
        gap = edge - t
        if gap < -spinsys.TIME_ATOL:
            raise InvariantError("overlapping events in the program")
        if gap > spinsys.TIME_ATOL:
            free_segment(gap)
        key = (ev.targets, ev.phase, ev.flip, ev.duration)
        if key not in pulse_cache:
            pulse_cache[key] = spinsys.pulse_propagator(ev, sys)
        u = pulse_cache[key]
        plan.append(("pulse", u, u.conj().T))
        t = edge if hard else ev.end
    if duration - t > spinsys.TIME_ATOL:
        free_segment(duration - t)
    return plan


def expanded_plan(sys: SpinSystem, events, duration: float, deltas: np.ndarray) -> list:
    """The compiled frames of a program written out over the (shots, 3) draw."""
    return spinsys.expand_program(spinsys.compile_program(sys, events, duration), deltas)


def _apply_unit(states: np.ndarray, plan) -> np.ndarray:
    for seg in plan:
        if seg[0] == "free":
            states = states * seg[1]
        else:
            states = np.matmul(seg[1], states) @ seg[2]
    return states


# -- the property ----------------------------------------------------------

def averaged_states(plan_fn, apply_fn, rho, sys, program, deltas, units):
    plan = plan_fn(sys, *program, deltas)
    states = np.broadcast_to(rho, (len(deltas),) + rho.shape).copy()
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
        family += str(draw(st.integers(1, 6)))
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
    deltas = sys.disorder.draw()
    program = ddseq.program(cycle, cycle.unit_cycles)
    want, _ = averaged_states(_unit_plan, _apply_unit, rho, sys, program, deltas, units)
    got, plan = averaged_states(expanded_plan, spinsys.apply_program,
                                rho, sys, program, deltas, units)
    for a, b in zip(got, want):
        assert np.max(np.abs(a - b)) <= 1e-12

    # the fast path is really taken: dense segments only for pulses that mix states
    err = sys.pulse
    mixing = err.flip_fraction_error != 0.0 or (err.internal_h_during_pulse and cycle.t_p > 0)
    n_pulses = len(program[0])
    n_dense = sum(seg[0] == "dense" for seg in plan)
    assert n_dense == (n_pulses if mixing else 0)
    if not mixing:  # a whole unit is one fused map, whose mask flips the bits pulses flip
        # ideal pi pulses flip the bit of every spin pulsed an odd number of times
        mask = sum(8 >> q for q in (1, 2, 3)
                   if sum(q in ev.targets for ev in program[0]) % 2 == 1)
        assert len(plan) == 1 and type(plan[0][3]) is int and plan[0][3] == mask


STAR_SYSTEMS = (
    SpinSystem(),
    SpinSystem(noise=NoiseModel((0.5, 0.8, 1.1), 0.3),
               disorder=DisorderModel((3.0, 4.0, 5.0), 6.0, shots=4, seed=3)),
    SpinSystem(pulse=PulseErrorModel(flip_fraction_error=0.02, phase_error=0.1),
               disorder=DisorderModel((3.0, 4.0, 5.0), 6.0, shots=3, seed=8)),
)


@pytest.mark.parametrize("sys", STAR_SYSTEMS)
def test_star_program_matches_dense_walk(sys):
    # pi/2 pulses mix basis states, and several events share an instant
    program = circuits.star_circuit_nmr(sys)
    assert len({ev.start for ev in program[0]}) < len(program[0])
    rho = random_rho(np.random.default_rng(5), spinsys.DIM)
    deltas = sys.disorder.draw()
    want, _ = averaged_states(_unit_plan, _apply_unit, rho, sys, program, deltas, 1)
    got, plan = averaged_states(expanded_plan, spinsys.apply_program,
                                rho, sys, program, deltas, 1)
    assert np.max(np.abs(got[0] - want[0])) <= 1e-12
    assert any(seg[0] == "dense" for seg in plan) and any(seg[0] == "fused" for seg in plan)


COMMITTED = (("DD1sp", "psi1a"), ("mDD2sp", "psi2a"), ("DD3sp", "psi3"))


@pytest.mark.parametrize("kind, state", COMMITTED)
def test_every_schedule_runner_shares_the_pulse_window_convention(kind, state):
    cycle = runner.build_cycle(runner.default_protocol(kind, state, "XY8"))
    assert cycle.t_p > 0  # the committed widths are finite
    program = ddseq.program(cycle, cycle.unit_cycles)
    rho = random_rho(np.random.default_rng(11), spinsys.DIM)

    def one_unit(plan_fn, apply_fn, sys):
        deltas = sys.disorder.draw()
        return averaged_states(plan_fn, apply_fn, rho, sys, program, deltas, 1)[0][0]

    dephasing = replace(runner.default_system(), disorder=DisorderModel())
    coherent = replace(dephasing, noise=spinsys.NoiseModel())
    for sys in (dephasing, coherent):
        reference = one_unit(_unit_plan, _apply_unit, sys)
        runs = [one_unit(expanded_plan, spinsys.apply_program, sys),
                spinsys.walk(sys, program, [1], [rho])[0, 0]]
        for got in runs:
            assert np.max(np.abs(got - reference)) <= 1e-12


# -- free evolution against its per-time factors ---------------------------

FREE_GRIDS = {
    "uniform": runner.default_time_grid(None),
    "star": runner.default_time_grid(
        runner.build_cycle(runner.star_protocol((1, 3))).unit_duration),
}


@pytest.mark.parametrize("grid", sorted(FREE_GRIDS))
def test_free_walk_matches_per_time_factors(grid):
    sys = runner.default_system()  # the committed 512-shot disorder
    assert sys.disorder.shots == 512
    times = FREE_GRIDS[grid]
    rho0 = random_rho(np.random.default_rng(13), spinsys.DIM)
    deltas = sys.disorder.draw()
    shifts = disorder_phase_rates(deltas)
    walked = runner._walk(sys, None, times, [rho0])[0]
    assert len(walked) == len(times)
    for t, avg in zip(times, walked):
        want = rho0 * free_factors(sys, t, shifts).mean(axis=0)
        assert np.max(np.abs(avg - want)) <= 1e-12


def test_free_walk_compiles_each_distinct_gap_once(monkeypatch):
    # a unit-snapped star grid alternates between two gap lengths
    real = spinsys.compile_program
    gaps = []

    def counting(sys, events, duration):
        gaps.append(duration)
        return real(sys, events, duration)

    monkeypatch.setattr(spinsys, "compile_program", counting)
    sys = runner.default_system()
    rho0 = circuits.prepare("star")
    for pair in runner.STAR_PAIRS.values():
        times = runner.default_time_grid(runner.build_cycle(runner.star_protocol(pair)).unit_duration)
        distinct = {round(b - a, 12) for a, b in zip(times, times[1:])}
        assert len(distinct) == 2
        gaps.clear()
        walked = runner._walk(sys, None, times, [rho0])[0]
        assert len(walked) == len(times)
        assert len(gaps) == 2 and {round(g, 12) for g in gaps} == distinct
    # the gaps of a uniform grid differ by roundoff: they are one gap, compiled once
    free = runner.default_time_grid(None)
    assert len(set(np.diff(free))) > 1
    gaps.clear()
    runner._walk(sys, None, free, [rho0])
    assert len(gaps) == 1
    # a NaN gap matches no other step: it compiles, and the schedule check rejects it
    with pytest.raises(ValueError):
        runner._walk(sys, None, (0.0, 0.1, float("nan")), [rho0])


# -- one shot-averaged map per fused protocol, shared by every state --------

def _state_walk(sys, cycle, times, rho0):
    """The shot stack of one state walked through every recorded time, then averaged.

    Each step is its compiled plan expanded over the draw: C_s = K g_s g_s^H
    written out on a (shots, 8, 8) stack.
    """
    deltas = sys.disorder.draw()
    states = np.broadcast_to(rho0, (len(deltas),) + rho0.shape).copy()
    unit = None if cycle is None else spinsys.compile_program(
        sys, *ddseq.program(cycle, cycle.unit_cycles))
    out, done = [], 0
    for t in times:
        if unit is None:
            plan = spinsys.compile_program(sys, (), t - done)
            done = t
        else:
            k = ddseq.unit_count(t, cycle.unit_duration, cycle.name)
            plan = spinsys.repeat_program(unit, k - done)
            done = k
        states = spinsys.apply_program(states, spinsys.expand_program(plan, deltas))
        out.append(states.mean(0))
    return np.array(out)


_CPMG3 = ddseq.generate("CPMG3", 0.5e-3, 4e-5, (1, 2))
# one pi pulse on spins 1 and 2 at a fifth of the unit: it permutes the basis, and unlike
# a symmetric train it leaves the pulsed spins a filter function, so H[P] differs from H
_OFF_CENTER = replace(ddseq.generate("CPMG1", 1e-3, 0.0, (1, 2)), name="off-center",
                      events=(spinsys.pulse(0.2e-3, (1, 2), np.pi, 0.3),))
MAP_WALKS = {  # (cycle, t_max)
    "FreeEv": (None, runner.GRID_T_MAX),
    "DD3sp-XY8": (runner.build_cycle(runner.default_protocol("DD3sp", "psi3", "XY8")),
                  runner.GRID_T_MAX),
    # an odd pulse count per spin: the unit permutes the basis, so P_t flips with the unit count
    "CPMG3-permuting": (_CPMG3, 401 * _CPMG3.unit_duration),
    "off-center-permuting": (_OFF_CENTER, 201 * _OFF_CENTER.unit_duration),
}


def _count_stack_steps(monkeypatch) -> list:
    """Record the apply_program calls on a shot stack, not on one state."""
    stack_steps, real = [], spinsys.apply_program

    def counting(states, plan):
        if np.ndim(states) > 2:
            stack_steps.append(plan)
        return real(states, plan)

    monkeypatch.setattr(spinsys, "apply_program", counting)
    return stack_steps


@pytest.mark.parametrize("name", sorted(MAP_WALKS))
def test_map_walk_matches_state_walk(name, monkeypatch):
    sys = runner.default_system()  # the committed 512-shot disorder
    cycle, t_max = MAP_WALKS[name]
    times = runner.default_time_grid(None if cycle is None else cycle.unit_duration, t_max)
    state_ids = runner.TABLE_STATES + ("star",)
    stack_steps = _count_stack_steps(monkeypatch)
    walked = runner._walk(sys, cycle, times, [circuits.prepare(state_id) for state_id in state_ids])
    # an unpermuted fused walk steps its frame, never a shot stack; a unit whose frame
    # permutes the levels is expanded over the draw and steps the shot stack, once per
    # recorded step that adds units, through one frame that repeat_program squares
    assert bool(stack_steps) == name.endswith("-permuting")
    if name.endswith("-permuting"):
        counts = [ddseq.unit_count(t, cycle.unit_duration, cycle.name) for t in times]
        added = np.count_nonzero(np.diff(counts, prepend=0))
        assert max(counts) > added > 1
        assert [len(plan) for plan in stack_steps if plan] == [1] * added
    for state_id, got in zip(state_ids, walked):
        want = _state_walk(sys, cycle, times, circuits.prepare(state_id))
        assert np.max(np.abs(got - want)) <= 1e-12
        # walked alone, a state reads the same bits: a refocused element records K in
        # either fused walk, one that is not reads the same shot mean, and a shot-stack
        # walk steps each state's stack as it would alone
        alone = runner._walk(sys, cycle, times, [circuits.prepare(state_id)])[0]
        assert np.array_equal(alone, got)
    # |000><000| lands on |a><a| with P_t[a] = 0; the pulses flip bits, so P_t is
    # an XOR with a mask, and it is the identity exactly when it fixes |000>
    ground = np.zeros((spinsys.DIM, spinsys.DIM), dtype=complex)
    ground[0, 0] = 1.0
    landed = runner._walk(sys, cycle, times, [ground])[0]
    lands = np.argmax(landed.diagonal(axis1=1, axis2=2).real, axis=1)
    assert np.max(np.abs(landed - np.eye(spinsys.DIM)[lands][:, :, None]
                         * np.eye(spinsys.DIM)[lands][:, None, :])) <= 1e-12
    identity = lands == 0
    if name.endswith("-permuting"):
        odd = [ddseq.unit_count(t, cycle.unit_duration, cycle.name) % 2 == 1 for t in times]
        assert any(odd) and not all(odd)
        assert list(identity) == [not o for o in odd]
    else:
        assert identity.all()
    # a dense segment sends the walk back to one shot stack of its states
    flip = replace(sys, pulse=PulseErrorModel(flip_fraction_error=0.02))
    stack_steps.clear()  # _state_walk steps shot stacks too
    runner._walk(flip, cycle, times[:2], [ground])
    assert bool(stack_steps) == (cycle is not None)


def _recording_level_phases(monkeypatch) -> list:
    """Record the filter-function rows each level_phases call is asked for."""
    rows, real = [], spinsys.level_phases

    def recording(h, deltas):
        rows.append(np.array(h))
        return real(h, deltas)

    monkeypatch.setattr(spinsys, "level_phases", recording)
    return rows


def test_a_fused_walk_steps_all_eight_levels(monkeypatch):
    # a walk asks for level phases on all eight levels, once per distinct frame, and
    # only when it takes shots, whether it carries one state or seven
    rows = _recording_level_phases(monkeypatch)
    sys = runner.default_system()
    dd1 = runner.default_protocol("DD1sp", "psi1a", "XY8")

    def walked(proto, state_ids):
        cycle = runner.build_cycle(proto)
        rows.clear()
        runner._walk(sys, cycle, runner.default_time_grid(None if cycle is None else
                                                          cycle.unit_duration),
                     [circuits.prepare(s) for s in state_ids])
        return [h.shape for h in rows]

    def frame_count(cycle):  # the distinct nonzero steps of the walk on the default grid
        times = runner.default_time_grid(None if cycle is None else cycle.unit_duration)
        if cycle is None:
            return len({round(b - a, 12) for a, b in zip(times, times[1:])})
        counts = [ddseq.unit_count(t, cycle.unit_duration, cycle.name) for t in times]
        return len(set(np.diff(counts, prepend=0)) - {0})

    free = runner.default_protocol("FreeEv")
    for proto, state_ids in ((free, runner.TABLE_STATES), (dd1, runner.TABLE_STATES),
                             (free, ["psi1a"])):
        assert walked(proto, state_ids) == [(8, 3)] * frame_count(runner.build_cycle(proto))
    # DD1sp on the spin psi1a's coherence lives on refocuses it: K alone, no phases
    assert walked(dd1, ["psi1a"]) == []
    # psi0a's coherence also lives on spin 2, which DD1sp on spin 1 leaves to the
    # disorder: its walk takes shots, on all eight levels, once per distinct frame
    off_target = runner.Protocol("XY8", dd1.tau, dd1.t_p, (1,))
    assert runner.differing_qubits("psi0a") == (1, 2)
    cycle = runner.build_cycle(off_target)
    assert frame_count(cycle) > 1
    assert walked(off_target, ["psi0a"]) == [(8, 3)] * frame_count(cycle)
    # no recorded step, for one catalog state or the maximally mixed one, is an empty
    # record of each state
    for rho0 in (circuits.prepare("psi1a"), np.eye(spinsys.DIM) / spinsys.DIM):
        assert spinsys.walk(sys, None, [], [rho0]).shape == (1, 0, spinsys.DIM, spinsys.DIM)


def test_a_walk_with_a_frame_that_does_not_refocus_takes_every_frames_shots(monkeypatch):
    # two pi pulses on all three spins, a quarter and three quarters into a 1 ms unit,
    # the first 0.4 ps late: as a spin flips, one unit's H changes by 0.8 ps, within
    # TIME_ATOL, so that frame refocuses every spin, while two units change it by
    # 1.6 ps and three by 2.4 ps, past it. The shots are decided once per walk, from
    # its frames: a walk of single units records K alone and asks for no phases, and
    # a walk that meets two or three units takes every frame's shots from its first
    # step, asking once for each of its three distinct frames. The draw does not
    # enter the decision: at a width of 1 GHz the single-unit walk still equals the
    # zero-width walk bit for bit
    unit = ((spinsys.pulse(0.25e-3 + 0.4e-12, (1, 2, 3), np.pi, 0.0),
             spinsys.pulse(0.75e-3, (1, 2, 3), np.pi, 0.0)), 1e-3)
    sys = SpinSystem(noise=NoiseModel(), disorder=DisorderModel((0.0, 0.0, 0.0), 1e9,
                                                                shots=64, seed=5))
    still = replace(sys, disorder=DisorderModel())
    rho0 = random_rho(np.random.default_rng(31), spinsys.DIM)
    rows = _recording_level_phases(monkeypatch)
    refocused = spinsys.walk(sys, unit, [1, 1], [rho0])
    assert rows == []
    assert np.array_equal(refocused, spinsys.walk(still, unit, [1, 1], [rho0]))
    steps = [1, 1, 2, 1, 3, 1]
    got = spinsys.walk(sys, unit, steps, [rho0])[0]
    assert [h.shape for h in rows] == [(8, 3)] * 3
    # the first step's frame is asked for first: k units turn each level by k * 0.4 ps
    assert [np.abs(h).max() for h in rows] == pytest.approx([0.4e-12, 0.8e-12, 1.2e-12],
                                                            rel=1e-3)
    monkeypatch.undo()
    deltas, plan = sys.disorder.draw(), spinsys.compile_program(sys, *unit)
    states = np.broadcast_to(rho0, (len(deltas),) + rho0.shape).copy()
    for step, walked in zip(steps, got):
        states = spinsys.apply_program(
            states, spinsys.expand_program(spinsys.repeat_program(plan, step), deltas))
        assert np.max(np.abs(walked - states.mean(0))) <= 1e-12
    # the disorder acts: the shots move the state away from its disorder-free walk
    assert np.max(np.abs(got - spinsys.walk(still, unit, steps, [rho0])[0])) > 1e-4


def test_a_state_records_the_same_bits_alone_and_beside_the_table_states():
    # CPMG3 on spins 1 and 2 pulses each an odd number of times: its frame permutes the
    # levels, so the walk steps one shot stack of its states, and psi1a's stack
    # walks as it would alone
    sys = runner.default_system()
    steps = (0, 1, 2, 3, 5, 8, 401)
    states = [circuits.prepare(state_id) for state_id in runner.TABLE_STATES]
    beside = spinsys.walk(sys, _CPMG3.unit_program, steps, states)
    alone = spinsys.walk(sys, _CPMG3.unit_program, steps, [circuits.prepare("psi1a")])[0]
    assert np.array_equal(alone, beside[runner.TABLE_STATES.index("psi1a")])


@pytest.mark.parametrize("pair", sorted(runner.STAR_PAIRS))
def test_a_star_pair_walk_records_k_alone_on_every_element_it_refocuses(pair, monkeypatch):
    # mXY8 on a pair refocuses its two spins and leaves the third unpulsed: the star
    # state occupies elements that flip the third spin, so the walk takes the shots,
    # and every element that flips only the pair records K * rho0 exactly, K stepped
    # as the walk steps it
    sys = runner.default_system()
    cycle = runner.build_cycle(runner.star_protocol(runner.STAR_PAIRS[pair]))
    counts = [ddseq.unit_count(t, cycle.unit_duration, cycle.name)
              for t in runner.default_time_grid(cycle.unit_duration)]
    steps = np.diff(counts, prepend=0)
    rho0 = circuits.prepare("star")
    rows = _recording_level_phases(monkeypatch)
    got = spinsys.walk(sys, cycle.unit_program, steps, [rho0])[0]
    assert rows
    plan = spinsys.compile_program(sys, *cycle.unit_program)
    k, want = np.ones((spinsys.DIM, spinsys.DIM), dtype=complex), []
    for step in steps:
        if step:
            [(_, k_step, _, mask)] = spinsys.repeat_program(plan, int(step))
            assert mask == 0
            k = k_step * k
        want.append(k * rho0)
    third, = set(range(1, 4)) - set(runner.STAR_PAIRS[pair])
    levels = np.arange(spinsys.DIM)
    kept = np.array([[spinsys.bit(a ^ b, third) == 0 for b in levels] for a in levels])
    assert np.array_equal(got[:, kept], np.array(want)[:, kept])
    # the shots act on the third spin's coherences the star state occupies
    moved = ~kept & (rho0 != 0)
    assert moved.any() and np.max(np.abs(got[:, moved] - np.array(want)[:, moved])) > 1e-6


def _grid_protocols():
    """The distinct protocols of the committed grid, as run_grid builds them."""
    protos = {runner.default_protocol("FreeEv")}
    for state_id in runner.TABLE_STATES:
        for family in runner.FAMILIES:
            protos.add(runner.default_protocol(runner.DESIGNATED_KIND[state_id], state_id, family))
            protos.add(runner.default_protocol("DD3sp", state_id, family))
    return protos


GRID_PROTOCOLS = _grid_protocols()
FRAME_WALKS = {  # name: cycle, for the grid's 22 protocols and both star pairs
    f"grid{i:02d}-{p.kind}-{p.sequence_label}": runner.build_cycle(p)
    for i, p in enumerate(sorted(GRID_PROTOCOLS, key=lambda p: (p.kind, repr(p))))}
FRAME_WALKS.update({f"star-{name}": runner.build_cycle(runner.star_protocol(pair))
                    for name, pair in runner.STAR_PAIRS.items()})


def test_frame_walks_cover_the_grid_and_the_star_run():
    assert len(GRID_PROTOCOLS) == 22 and len(FRAME_WALKS) == 24


@pytest.mark.parametrize("name", sorted(FRAME_WALKS))
def test_frame_walk_matches_the_expanded_shot_walk(name, monkeypatch):
    sys = runner.default_system()  # the committed 512-shot disorder
    cycle = FRAME_WALKS[name]
    times = runner.default_time_grid(None if cycle is None else cycle.unit_duration)
    # states with distinct entries check C_t and the permutations together
    rho0s = [random_rho(np.random.default_rng(seed), spinsys.DIM) for seed in (19, 23)]
    stack_steps = _count_stack_steps(monkeypatch)
    walked = runner._walk(sys, cycle, times, rho0s)
    assert not stack_steps
    for rho0, got in zip(rho0s, walked):
        want = _state_walk(sys, cycle, times, rho0)
        assert np.max(np.abs(got - want)) <= 1e-12


def test_each_grid_walk_matches_the_shot_walk_on_the_states_it_serves(monkeypatch):
    # the grid's own walks, each on exactly the catalog states run_grid serves with
    # it: its 21 DD walks refocus every element they occupy and record K alone,
    # free evolution takes shots, and every state matches its expanded shot walk
    real_walk = runner._walk
    rows, walks = _recording_level_phases(monkeypatch), []

    def recording(sys, cycle, times, rho0s):
        rows.clear()
        out = real_walk(sys, cycle, times, rho0s)
        walks.append((cycle, times, rho0s, out, len(rows)))
        return out

    monkeypatch.setattr(runner, "_walk", recording)
    sys = runner.default_system()  # the committed 512-shot disorder
    run = runner.run_grid(sys)
    monkeypatch.undo()
    assert len(walks) == len(GRID_PROTOCOLS) == 22
    # the grid's 59 curves; a walk of several states refocuses the elements they occupy
    assert sum(len(rho0s) for _, _, rho0s, _, _ in walks) == 59
    for cycle, times, rho0s, got, calls in walks:
        assert (calls > 0) == (cycle is None)
        for rho0, states in zip(rho0s, got):
            assert np.max(np.abs(states - _state_walk(sys, cycle, times, rho0))) <= 1e-12
    # every walk steps all eight levels, so no curve depends on the states beside it:
    # each equals its curve walked alone, bit for bit
    assert len(run.curves) == 59
    for curve in run.curves:
        assert curve.values == runner.run_decay(curve.state, curve.protocol, sys).values


def test_an_all_fused_plan_is_one_frame_or_none():
    # compile_program closes a fused run only before a dense pulse or at the end,
    # and repeat_program composes a one-frame unit into one frame: walk reads each
    # fused step's plan as one frame or none
    sys = runner.default_system()
    cycles = list(FRAME_WALKS.values())
    cycles += [cycle for name, (cycle, _) in MAP_WALKS.items() if name.endswith("-permuting")]
    # free evolution is the pulseless program of a gap; a zero step is the empty plan
    programs = [((), runner.GRID_T_MAX / 19), ((), 0.0)]
    programs += [ddseq.program(cycle, cycle.unit_cycles) for cycle in cycles if cycle is not None]
    assert len(programs) == 2 + 23 + 2
    for events, duration in programs:
        unit = spinsys.compile_program(sys, events, duration)
        assert all(seg[0] == "fused" for seg in unit)
        assert len(unit) == (duration > 0)
        for k in (0, 1, 2, 7):
            assert len(spinsys.repeat_program(unit, k)) == min(len(unit), k)


def test_a_fused_walk_refuses_a_step_of_two_frames(monkeypatch):
    # a step's plan of two fused frames breaks the rule above: the walk must fail on
    # it, not walk its first frame and drop the second
    real = spinsys.repeat_program
    monkeypatch.setattr(spinsys, "repeat_program", lambda plan, k: real(plan, k) * 2)
    cycle = runner.build_cycle(runner.default_protocol("DD3sp", "psi3", "XY8"))
    program = ddseq.program(cycle, cycle.unit_cycles)
    assert len(spinsys.repeat_program(spinsys.compile_program(runner.default_system(),
                                                              *program), 3)) == 2
    for sys in (runner.default_system(), replace(runner.default_system(),
                                                 disorder=DisorderModel())):
        with pytest.raises(ValueError, match="too many values to unpack"):
            spinsys.walk(sys, program, [1, 3], [circuits.prepare("psi3")])


def old_disorder_times(sys, events, duration) -> np.ndarray:
    """Per spin, the element-wise disorder times A, (3, 8, 8), of a fused program.

    The way the engine accumulated them before its per-level frames: a gap
    of t adds (s_q(a) - s_q(b)) t / 2, a pulse U[i, i ^ m] = d[i] takes A
    to A[p][:, p] with p = levels ^ m.
    """
    s = np.array([[1 - 2 * spinsys.bit(b, q) for b in range(spinsys.DIM)] for q in (1, 2, 3)])
    sens = (s[:, :, None] - s[:, None, :]) / 2.0
    times_a = np.zeros((3, spinsys.DIM, spinsys.DIM))
    for kind, item in spinsys.program_steps(events, duration, sys.pulse.internal_h_during_pulse):
        if kind == "free":
            times_a = times_a + sens * item
        else:
            m, _ = spinsys.signed_permutation(spinsys.pulse_propagator(item, sys))
            p = np.arange(spinsys.DIM) ^ m
            times_a = times_a[:, p[:, None], p]
    return times_a


_TARGET_SETS = ((1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3))


@st.composite
def fused_cases(draw):
    """A unit of pi pulses: a DD cycle, or pulses placed at random in their slots."""
    if draw(st.booleans()):
        family = draw(st.sampled_from(("XY8", "UR12", "XY16", "KDD20", "CPMG")))
        targets = draw(st.sampled_from(_TARGET_SETS))
        tau = draw(st.floats(0.3e-3, 0.7e-3))
        t_p = draw(st.sampled_from((0.0, 2e-5, 8e-5)))
        if family == "CPMG":  # an odd pulse count per spin permutes the basis
            family += str(draw(st.integers(1, 6)))
        cycle = ddseq.generate(family, tau, t_p, targets)
        if len(targets) == 2 and draw(st.booleans()):
            cycle = ddseq.modify(cycle, slot=draw(st.integers(0, cycle.n_slots - 1)))
        events, duration = ddseq.program(cycle, cycle.unit_cycles)
    else:  # off-center pulses leave the pulsed spins a filter function that pulses permute
        slot, n = 1e-3, draw(st.integers(1, 6))
        # clear of the slot edges: gaps under TIME_ATOL merge, so units would not concatenate
        events = tuple(
            spinsys.pulse(i * slot + draw(st.floats(0.01, 0.75)) * slot,
                          draw(st.sampled_from(_TARGET_SETS)), np.pi,
                          draw(st.floats(-np.pi, np.pi)), draw(st.sampled_from((0.0, 1e-4))))
            for i in range(n))
        duration = n * slot
    # any phase error keeps a pi pulse a signed permutation, with complex entries
    phase_error = draw(st.one_of(st.just(0.0), st.floats(-0.2, 0.2)))
    sys = SpinSystem(pulse=PulseErrorModel(phase_error=phase_error))
    return events, duration, sys, draw(st.integers(1, 4))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(fused_cases())
def test_level_filter_function_gives_the_element_disorder_times(case):
    events, duration, sys, units = case
    unit = spinsys.compile_program(sys, events, duration)
    (kind, _, h, _), = spinsys.repeat_program(unit, units)
    assert kind == "fused" and h.shape == (spinsys.DIM, 3)
    repeated = tuple(replace(ev, start=ev.start + j * duration)
                     for j in range(units) for ev in events)
    want = old_disorder_times(sys, repeated, units * duration)
    got = np.moveaxis(h[:, None, :] - h[None, :, :], -1, 0)
    assert np.max(np.abs(got - want)) <= 1e-15


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(fused_cases())
def test_a_walk_takes_shots_exactly_on_the_elements_a_spin_rule_leaves_unrefocused(case):
    # one element pair at a time, of the pure state (|a> + |b>) / sqrt 2: a walk of one
    # and of several units asks for level phases exactly when the rule per spin calls
    # (a, b) unrefocused in either frame; a population never asks
    events, duration, sys, units = case
    unit = spinsys.compile_program(sys, events, duration)
    assume(unit[0][3] == 0)  # a permuting unit walks the shot stack
    steps = (1, units)
    hs = np.concatenate([spinsys.repeat_program(unit, k)[0][2] for k in set(steps)], axis=1)
    want = unrefocused_by_spin(hs)
    asked, real = [], spinsys.level_phases
    spinsys.level_phases = lambda h, deltas: asked.append(h) or real(h, deltas)
    try:
        got = np.zeros((spinsys.DIM, spinsys.DIM), dtype=bool)
        for a in range(spinsys.DIM):
            for b in range(a, spinsys.DIM):
                psi = np.zeros(spinsys.DIM)
                psi[[a, b]] = 1.0
                asked.clear()
                spinsys.walk(sys, (events, duration), steps, [np.outer(psi, psi) / psi.sum()])
                got[a, b] = got[b, a] = bool(asked)
    finally:
        spinsys.level_phases = real
    assert np.array_equal(got, want)


@st.composite
def signed_permutation_programs(draw):
    """Pulses at random places, each a signed permutation drawn at random.

    A pulse's permutation is an XOR mask, as every pulse the program builds
    flips bits, or a general permutation, which no pulse makes and which
    must compile dense. Each pulse's unitary, U[i, perm[i]] = d[i], is keyed
    by its phase, which is distinct per pulse.
    """
    slot, n = 1e-3, draw(st.integers(1, 6))
    angles = st.lists(st.floats(-np.pi, np.pi), min_size=spinsys.DIM, max_size=spinsys.DIM)
    perms = st.one_of(st.integers(0, spinsys.DIM - 1).map(lambda m: np.arange(spinsys.DIM) ^ m),
                      st.permutations(range(spinsys.DIM)))
    table = {}
    for i in range(n):
        u = np.zeros((spinsys.DIM, spinsys.DIM), dtype=complex)
        u[np.arange(spinsys.DIM), draw(perms)] = np.exp(1j * np.array(draw(angles)))
        table[float(i)] = u
    events = tuple(spinsys.pulse(i * slot + draw(st.floats(0.01, 0.75)) * slot,
                                 draw(st.sampled_from(_TARGET_SETS[:3])), np.pi, float(i),
                                 draw(st.sampled_from((0.0, 1e-4))))
                   for i in range(n))
    return (events, n * slot), table, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(signed_permutation_programs())
def test_fused_run_matches_dense_walk_on_any_signed_permutation(case):
    program, table, seed = case
    sys = SpinSystem(noise=NoiseModel((0.5, 0.8, 1.1), 0.3),
                     disorder=DisorderModel((3.0, 4.0, 5.0), 6.0, shots=3, seed=seed % 100))
    rho = random_rho(np.random.default_rng(seed), spinsys.DIM)
    deltas = sys.disorder.draw()
    real = spinsys.pulse_propagator
    # examples reuse equal events with other tables: no plan may outlive its swap
    spinsys._compiled.cache_clear()
    spinsys.pulse_propagator = lambda ev, sys: table[ev.phase]
    try:
        want, _ = averaged_states(_unit_plan, _apply_unit, rho, sys, program, deltas, 1)
        got, plan = averaged_states(expanded_plan, spinsys.apply_program,
                                    rho, sys, program, deltas, 1)
    finally:
        spinsys.pulse_propagator = real
        spinsys._compiled.cache_clear()
    # a mask pulse folds into its fused run; any other pulse is a dense segment of its
    # own, with a gap on either side
    perms = [np.argmax(u != 0, axis=1) for u in table.values()]
    n_dense = sum(not np.array_equal(p, np.arange(spinsys.DIM) ^ p[0]) for p in perms)
    assert [seg[0] for seg in plan] == ["fused"] + ["dense", "fused"] * n_dense
    assert np.max(np.abs(got[0] - want[0])) <= 1e-12


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(signed_permutation_programs(), st.integers(1, 4))
def test_fused_walk_moves_occupied_rows_under_any_signed_permutation(case, occupied):
    # a state on a few levels walks to the levels the pulses move it to, under masks and,
    # through dense segments, under permutations that are no mask
    program, table, seed = case
    rng = np.random.default_rng(seed)
    levels = rng.permutation(spinsys.DIM)[:occupied]
    rho = np.zeros((spinsys.DIM, spinsys.DIM), dtype=complex)
    rho[levels[:, None], levels] = random_rho(rng, occupied)
    sys = SpinSystem(noise=NoiseModel((0.5, 0.8, 1.1), 0.3),
                     disorder=DisorderModel((3.0, 4.0, 5.0), 6.0, shots=3, seed=seed % 100))
    steps = (1, 2, 0, 3)
    real = spinsys.pulse_propagator
    spinsys._compiled.cache_clear()  # as above: equal events, another table
    spinsys.pulse_propagator = lambda ev, sys: table[ev.phase]
    try:
        got = spinsys.walk(sys, program, steps, [rho])[0]
        plan = expanded_plan(sys, *program, sys.disorder.draw())
    finally:
        spinsys.pulse_propagator = real
        spinsys._compiled.cache_clear()
    states, want = np.broadcast_to(rho, (3,) + rho.shape), []
    for k in steps:
        for _ in range(k):
            states = spinsys.apply_program(states, plan)
        want.append(states.mean(axis=0))
    assert np.max(np.abs(got - np.array(want))) <= 1e-12


@pytest.mark.parametrize("steps, mask, level", [((1, 0), 4, 4), ((1, 1), 2, 0)],
                         ids=["steps0-4", "steps1-2"])
def test_a_permuted_record_decides_the_shots_on_the_rows_it_holds(steps, mask, level,
                                                                   monkeypatch):
    # the mask moves rho0's element (0, 1) to (mask, mask ^ 1) after one unit and back
    # after two. A frame with a filter function on the record's first level alone turns
    # it only on a unit that lands it there, and the frame permutes: the walk steps the
    # expanded shot stack, and the shots must reach the element where the record holds it
    h = np.zeros((spinsys.DIM, spinsys.N_QUBITS))
    h[level, 0] = 1e-3
    plan = [("fused", np.ones((spinsys.DIM, spinsys.DIM), dtype=complex), h, mask)]
    monkeypatch.setattr(spinsys, "compile_program", lambda sys, events, duration: plan)
    sys = SpinSystem(disorder=DisorderModel((3.0, 4.0, 5.0), 6.0, shots=3, seed=1))
    rho = np.zeros((spinsys.DIM, spinsys.DIM), dtype=complex)
    rho[:2, :2] = 0.5
    got = spinsys.walk(sys, ((), 1.0), steps, [rho])[0]
    states, want = np.broadcast_to(rho, (3,) + rho.shape), []
    for k in steps:
        for _ in range(k):
            states = spinsys.apply_program(states,
                                           spinsys.expand_program(plan, sys.disorder.draw()))
        want.append(states.mean(axis=0))
    assert abs(want[-1][level, level + 1] - 0.5) > 1e-6  # K alone would be off
    assert np.max(np.abs(got - np.array(want))) <= 1e-12


# -- k units in one plan, and one walk per grid protocol -------------------

REPEAT_CASES = {
    # three pulses per spin: the fused unit permutes the basis
    "fused-permuting": (ddseq.generate("CPMG3", 0.5e-3, 0.0, (1, 2)), PulseErrorModel()),
    # permuting, with a filter function on the pulsed spins that the permutation moves
    "fused-off-center": (_OFF_CENTER, PulseErrorModel(phase_error=0.1)),
    "flip-error": (ddseq.generate("XY8", 0.5e-3, 4e-5, (1, 3)),
                   PulseErrorModel(flip_fraction_error=0.02)),
    "internal-h": (ddseq.modify(ddseq.generate("UR12", 0.4e-3, 3e-5, (2, 3))),
                   PulseErrorModel(internal_h_during_pulse=True)),
}


@pytest.mark.parametrize("case", sorted(REPEAT_CASES))
@pytest.mark.parametrize("k", (0, 1, 2, 5))
def test_repeated_plan_matches_unit_walks(case, k):
    cycle, pulse_model = REPEAT_CASES[case]
    sys = SpinSystem(noise=NoiseModel((0.5, 0.8, 1.1), 0.3), pulse=pulse_model,
                     disorder=DisorderModel((3.0, 4.0, 5.0), 6.0, shots=4, seed=2))
    plan = spinsys.compile_program(sys, *ddseq.program(cycle, cycle.unit_cycles))
    deltas = sys.disorder.draw()
    shot_plan = spinsys.expand_program(plan, deltas)
    rho = random_rho(np.random.default_rng(17), spinsys.DIM)
    want = np.broadcast_to(rho, (4,) + rho.shape)
    for _ in range(k):
        want = spinsys.apply_program(want, shot_plan)
    repeated = spinsys.repeat_program(plan, k)
    got = spinsys.apply_program(np.broadcast_to(rho, (4,) + rho.shape),
                                spinsys.expand_program(repeated, deltas))
    assert np.max(np.abs(got - want)) <= 1e-12
    if case.startswith("fused-"):  # one frame, whatever k: the closed form
        assert len(plan) == 1 and plan[0][0] == "fused" and plan[0][3] != 0
        assert len(repeated) == min(k, 1)
        assert repeated == [] or (repeated[0][3] == 0) == (k % 2 == 0)
    else:  # the plain concatenation, of the unit's own segment objects
        assert any(seg[0] == "dense" for seg in plan)
        assert len(repeated) == k * len(plan)
        assert all(seg is plan[i % len(plan)] for i, seg in enumerate(repeated))
    # the walk's order: expand the unit once, then repeat the expanded plan, whose one
    # frame squares as the compiled frame does and whose dense unit concatenates
    walked = spinsys.repeat_program(shot_plan, k)
    assert len(walked) == len(repeated)
    got = spinsys.apply_program(np.broadcast_to(rho, (4,) + rho.shape), walked)
    assert np.max(np.abs(got - want)) <= 1e-12
    with pytest.raises(ValueError):
        spinsys.repeat_program(plan, -1)


def test_repeat_refuses_an_expanded_fused_frame():
    # an expanded frame keeps its H and mask, so it composes by _then as a compiled
    # frame does: an expanded one-frame plan repeats as one frame, squared on its
    # (shots, 8, 8) coefficients, not as k units, and walks as the expanded k-unit frame
    sys = SpinSystem(noise=NoiseModel((0.5, 0.8, 1.1), 0.3),
                     disorder=DisorderModel((3.0, 4.0, 5.0), 6.0, shots=4, seed=2))
    cycle = ddseq.generate("CPMG3", 0.5e-3, 0.0, (1, 2))
    plan = spinsys.compile_program(sys, *ddseq.program(cycle, cycle.unit_cycles))
    assert len(plan) == 1 and plan[0][0] == "fused" and plan[0][3] != 0
    deltas = sys.disorder.draw()
    expanded = spinsys.expand_program(plan, deltas)
    rho = np.broadcast_to(random_rho(np.random.default_rng(29), spinsys.DIM), (4, 8, 8))
    for k in (0, 1, 2, 3, 6):
        repeated, compiled = spinsys.repeat_program(expanded, k), spinsys.repeat_program(plan, k)
        assert len(repeated) == min(k, 1) and (k != 1 or repeated[0] is expanded[0])
        if k:
            [(_, coef, h, mask)], [(_, _, want_h, want_mask)] = repeated, compiled
            assert coef.shape == (4, 8, 8) and mask == want_mask == 6 * (k % 2)
            assert np.array_equal(h, want_h)
        want = spinsys.apply_program(rho, spinsys.expand_program(compiled, deltas))
        assert np.max(np.abs(spinsys.apply_program(rho, repeated) - want)) <= 1e-12


GRID_STATES = ("psi0a", "psi1a", "psi3")


def test_grid_walks_each_protocol_once_for_all_its_states(monkeypatch):
    real, real_apply, real_walk = spinsys.compile_program, spinsys.apply_program, runner._walk
    units, gaps, stack_walks, walked = [], [], [], {}

    def counting(sys, events, duration):
        (units if events else gaps).append((events, duration))
        return real(sys, events, duration)

    def counting_apply(states, plan):
        if states.ndim > 2:  # a shot stack, not one state
            stack_walks.append(plan)
        return real_apply(states, plan)

    def per_cycle(sys, cycle, times, rho0s):
        before = len(stack_walks)
        out = real_walk(sys, cycle, times, rho0s)
        walked[cycle] = (len(stack_walks) - before, len(rho0s), len(times))
        return out

    monkeypatch.setattr(spinsys, "compile_program", counting)
    monkeypatch.setattr(spinsys, "apply_program", counting_apply)
    monkeypatch.setattr(runner, "_walk", per_cycle)
    sys = runner.default_system()  # the committed 512-shot disorder
    run = runner.run_grid(sys, ("XY8",), GRID_STATES)
    # FreeEv and DD3sp serve all three states, each DD protocol compiles its unit once
    pulsed = {c.protocol for c in run.curves if c.protocol.kind != "FreeEv"}
    assert len(run.curves) == 8 and len(pulsed) == 3
    assert len(units) == len(set(units)) == len(pulsed)
    # the free gaps too, once for all three states
    free = runner.default_time_grid(None)
    assert len(gaps) == len({round(b - a, 12) for a, b in zip(free, free[1:])})
    # every protocol is fused: its walk steps its frame, never a shot stack
    assert sorted(n for _, n, _ in walked.values()) == [1, 1, 3, 3]
    assert all(calls == 0 for calls, _, _ in walked.values())
    # a flip error makes the pulsed unit dense: one shot-stack step per recorded time
    # for all the protocol's states together, while free evolution still steps no stack
    flip = replace(sys, pulse=PulseErrorModel(flip_fraction_error=0.02))
    walked.clear()
    flip_run = runner.run_grid(flip, ("XY8",), ("psi0a", "psi3"), t_max=0.05, points=3)
    by_kind = {proto.kind: walked[runner.build_cycle(proto)]
               for proto in {c.protocol for c in flip_run.curves}}
    assert by_kind["FreeEv"][0] == 0
    calls, n_states, steps = by_kind["DD3sp"]
    assert n_states == 2 and calls == steps > 0
    monkeypatch.setattr(spinsys, "compile_program", real)
    monkeypatch.setattr(spinsys, "apply_program", real_apply)
    monkeypatch.setattr(runner, "_walk", real_walk)
    # state-major order, and the curves of one run_decay each
    assert [c.state for c in run.curves] == ["psi0a"] * 3 + ["psi1a"] * 3 + ["psi3"] * 2
    for curve in run.curves:
        alone = runner.run_decay(curve.state, curve.protocol, sys)
        assert curve.times == alone.times
        assert curve.values == alone.values
        key = (curve.state, curve.protocol.kind, curve.protocol.family)
        assert run.percents[key] == 100.0 * curve.values[-1]


def test_cells_read_as_one_run_decay_each_from_one_walk_per_protocol(monkeypatch):
    # any cells: a target subset outside the table, the plain pair cycle, free
    # evolution, a table protocol on a state it does not serve, and a repeated cell
    base = runner.default_protocol("DD1sp", "psi1a", "XY8")  # a delay that fits t_max
    single, pair = (Protocol("XY8", base.tau, base.t_p, targets) for targets in ((2,), (1, 2)))
    free = runner.default_protocol("FreeEv")
    table = runner.default_protocol("DD3sp", "psi3", "KDD20")
    cells = [("psi1a", single), ("psi0a", pair), ("psi3", free), ("psi2a", pair),
             ("psi0a", free), ("psi1a", single), ("psi3", single), ("psi1b", table)]
    unit = runner.build_cycle(single).unit_duration
    assert runner.build_cycle(pair).unit_duration == unit and single.kind == "DD1sp"
    assert (pair.kind, table.kind) == ("DD2sp", "DD3sp")
    real_walk, real_prepare, walks, prepared = runner._walk, circuits.prepare, [], []

    def recording(sys, cycle, times, rho0s):
        walks.append((cycle, len(rho0s)))
        return real_walk(sys, cycle, times, rho0s)

    def preparing(state_id):
        prepared.append(state_id)
        return real_prepare(state_id)

    sys = runner.default_system()  # the committed 512-shot disorder
    # each protocol's own grid, then given times: unsorted, repeated, on XY8's unit
    for times in (None, (3 * unit, 0.0, unit, 7 * unit, 3 * unit)):
        with monkeypatch.context() as patch:
            patch.setattr(runner, "_walk", recording)
            patch.setattr(circuits, "prepare", preparing)
            walks.clear()
            prepared.clear()
            kept = cells if times is None else cells[:-1]  # KDD20's unit is not XY8's
            curves = runner.run_cells(sys, kept, times=times)
        # one walk per distinct protocol over its distinct states, each state prepared once
        users = {}
        for state_id, proto in kept:
            users.setdefault(runner.build_cycle(proto), set()).add(state_id)
        assert sorted(walks, key=repr) == sorted(
            ((cycle, len(state_ids)) for cycle, state_ids in users.items()), key=repr)
        assert sorted(prepared) == sorted({state_id for state_id, _ in kept})
        # cell order, and one run_decay per cell bit for bit
        assert [(c.state, c.protocol) for c in curves] == kept
        assert curves[0] == curves[5]
        for (state_id, proto), curve in zip(kept, curves):
            alone = runner.run_decay(state_id, proto, sys, times=times)
            assert curve.times == alone.times and curve.values == alone.values
            if times is not None:
                assert curve.times == (0.0, unit, 3 * unit, 7 * unit)


def test_dense_walk_of_several_states_equals_each_walked_alone():
    # a flip error makes DD3sp/XY8 dense: its states share one (n, shots, 8, 8) stack
    sys = replace(runner.default_system(), pulse=PulseErrorModel(flip_fraction_error=0.02))
    cycle = runner.build_cycle(runner.default_protocol("DD3sp", "psi3", "XY8"))
    times = runner.default_time_grid(cycle.unit_duration, 0.1, 4)
    rho0s = [circuits.prepare(state_id) for state_id in GRID_STATES]
    together = runner._walk(sys, cycle, times, rho0s)
    assert together.shape == (3, len(times), spinsys.DIM, spinsys.DIM)
    for rho0, got in zip(rho0s, together):
        alone = runner._walk(sys, cycle, times, [rho0])[0]
        assert np.array_equal(got, alone)


def test_a_broadcast_stack_walks_as_its_contiguous_copy():
    # a copy of a broadcast view keeps the shot axis innermost in memory, which
    # changes the summation order of the shot mean; apply_program pins C order
    sys = replace(runner.default_system(), pulse=PulseErrorModel(flip_fraction_error=0.02))
    cycle = runner.build_cycle(runner.default_protocol("mDD2sp", "psi0a", "XY8"))
    unit = spinsys.compile_program(sys, *ddseq.program(cycle, cycle.unit_cycles))
    plan = spinsys.repeat_program(spinsys.expand_program(unit, sys.disorder.draw()), 3)
    rho0s = np.array([circuits.prepare("psi0a")])
    broadcast = np.broadcast_to(rho0s[:, None], (1, 512, spinsys.DIM, spinsys.DIM))
    walks = []
    for states in (broadcast, np.ascontiguousarray(broadcast)):
        means = []
        for _ in range(20):
            states = spinsys.apply_program(states, plan)
            means.append(states.mean(axis=1))  # what spinsys.walk records
        walks.append(np.array(means))
    assert np.array_equal(*walks)


def test_a_unit_walk_takes_whole_unit_counts_only():
    # a fractional unit count is refused, not truncated to its whole part
    sys = runner.default_system()
    unit = ddseq.program(ddseq.generate("XY8", 5e-4, 2e-5), 1)
    rho0s = [circuits.prepare("psi3")]
    with pytest.raises(ValueError, match="step 2.5 is not a whole number"):
        spinsys.walk(sys, unit, [2.5], rho0s)
    assert np.array_equal(spinsys.walk(sys, unit, [2.0], rho0s), spinsys.walk(sys, unit, [2], rho0s))
    # free gaps are seconds: a fraction is any other gap
    free = spinsys.walk(sys, None, [2.5e-3], rho0s)
    halves = spinsys.walk(sys, None, [1.25e-3, 1.25e-3], rho0s)[:, 1:]
    assert np.allclose(free, halves, rtol=0, atol=1e-12)
