"""Density-matrix utilities: golden tables, hand oracles, random sweeps."""

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_ket, random_rho, random_unitary
from oracles import load_data, rho_from_json, star_rho
from triqdd import qmat


# -- coherence orders ------------------------------------------------------

def test_order_matrix_matches_golden_table():
    golden = np.array(load_data("coherence_orders_3q.json")["orders"])
    assert np.array_equal(qmat.coherence_order_matrix(3), golden)


def test_order_of_named_elements():
    # triple quantum corner and a few hand-counted entries
    assert qmat.coherence_order(0, 7) == 3
    assert qmat.coherence_order(7, 0) == -3
    assert qmat.coherence_order(6, 7) == 1
    assert qmat.coherence_order(2, 4) == 0
    assert qmat.coherence_order(0, 5) == 2
    assert qmat.coherence_order(3, 4) == -1


def test_order_antisymmetry_and_zero_diagonal():
    m = qmat.coherence_order_matrix(3)
    assert np.array_equal(m, -m.T)
    assert np.array_equal(np.diag(m), np.zeros(8, dtype=int))


def test_order_index_range_checks():
    with pytest.raises(ValueError):
        qmat.coherence_order(8, 0)
    with pytest.raises(ValueError):
        qmat.coherence_order(0, -1)
    with pytest.raises(ValueError):
        qmat.coherence_order(5, 0, n=2)


# -- state construction and checks ----------------------------------------

def test_ket_to_rho_plus_state():
    plus = np.array([1, 1]) / np.sqrt(2)
    rho = qmat.ket_to_rho(plus)
    assert np.allclose(rho, 0.5 * np.ones((2, 2)), atol=1e-12)


def test_ket_to_rho_rejects_unnormalized():
    with pytest.raises(ValueError):
        qmat.ket_to_rho(np.array([1.0, 1.0]))


def test_density_matrix_checks():
    qmat.assert_density_matrix(np.eye(2) / 2)
    with pytest.raises(ValueError):
        qmat.assert_density_matrix(np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        qmat.assert_density_matrix(np.array([[0.5, 1j], [1j, 0.5]]))  # not hermitian
    with pytest.raises(ValueError):
        qmat.assert_density_matrix(np.diag([1.5, -0.5]))  # negative eigenvalue


def _broken_member(how):
    """A pure basis state with one invariant broken well past its threshold."""
    rho = np.zeros((8, 8), dtype=complex)
    rho[0, 0] = 1.0
    if how == "non-Hermitian":
        rho[0, 1] = 1e-6
    elif how == "trace-off":
        rho[2, 2] = 1e-6
    elif how == "negative":  # trace kept: eigenvalues 1 + 1e-6 and -1e-6
        rho[0, 0], rho[1, 1] = 1.0 + 1e-6, -1e-6
    else:
        rho[4, 5] = np.nan
    return rho


@pytest.mark.parametrize("how, message", [("non-Hermitian", "not Hermitian"),
                                          ("trace-off", "trace is"),
                                          ("negative", "positive semidefinite"),
                                          ("NaN", "not Hermitian")])
def test_a_stack_with_one_broken_member_fails(how, message):
    rng = np.random.default_rng(3)
    stack = np.stack([random_rho(rng, 8) for _ in range(5)])
    stack[0] = qmat.ket_to_rho(random_ket(rng, 8))  # zero eigenvalues pass
    qmat.assert_density_matrix(stack)
    qmat.assert_density_matrix(stack[:0])  # an empty stack holds nothing to fail
    stack[3] = _broken_member(how)
    with pytest.raises(ValueError, match=f"member 3: .*{message}"):
        qmat.assert_density_matrix(stack)
    with pytest.raises(ValueError, match=message):
        qmat.assert_density_matrix(stack[3])


def _rotated_spectrum(rng, lowest):
    """A unit-trace 8x8 state, not diagonal, whose smallest eigenvalue is `lowest`."""
    w = np.array([1.0 - lowest, 0, 0, 0, 0, 0, 0, lowest])
    u = random_unitary(rng, 8)
    return (u * w) @ u.conj().T


def test_the_psd_threshold_holds_at_its_edge():
    # the factorization accepts -5e-11; below -1e-10 the eigenvalues decide and name the member
    rng = np.random.default_rng(5)
    stack = np.stack([random_rho(rng, 8) for _ in range(4)])
    stack[1] = _rotated_spectrum(rng, -5e-11)
    qmat.assert_density_matrix(stack)
    qmat.assert_density_matrix(stack[1])
    stack[2] = _rotated_spectrum(rng, -2e-10)
    with pytest.raises(ValueError, match=r"^member 2: matrix is not positive semidefinite "
                                         r"\(min eigenvalue \S+\)$") as exc:
        qmat.assert_density_matrix(stack)
    lowest = float(str(exc.value).rpartition(" ")[2].rstrip(")"))
    assert lowest == pytest.approx(-2e-10, rel=1e-4)
    with pytest.raises(ValueError, match=r"^matrix is not positive semidefinite"):
        qmat.assert_density_matrix(stack[2])
    stack[0, 4, 5] = np.nan  # NaN is refused before positivity is asked
    with pytest.raises(ValueError, match="^member 0: matrix is not Hermitian$"):
        qmat.assert_density_matrix(stack)


def test_random_kets_make_valid_states():
    rng = np.random.default_rng(11)
    for dim in (2, 4, 8):
        for _ in range(10):
            rho = qmat.ket_to_rho(random_ket(rng, dim))
            qmat.assert_density_matrix(rho)


# -- partial trace ---------------------------------------------------------

def pt_oracle(rho, keep):
    """Index-bit bookkeeping oracle, 1-based qubit labels, output in keep order."""
    def bit(b, q):
        return (b >> (3 - q)) & 1

    traced = [q for q in (1, 2, 3) if q not in keep]
    n_out = len(keep)
    out = np.zeros((2 ** n_out, 2 ** n_out), dtype=complex)
    for a in range(8):
        for b in range(8):
            if all(bit(a, q) == bit(b, q) for q in traced):
                ia = sum(bit(a, q) << (n_out - 1 - k) for k, q in enumerate(keep))
                ib = sum(bit(b, q) << (n_out - 1 - k) for k, q in enumerate(keep))
                out[ia, ib] += rho[a, b]
    return out


def test_partial_trace_product_state():
    rng = np.random.default_rng(3)
    r1, r2, r3 = (random_rho(rng, 2) for _ in range(3))
    rho = np.kron(np.kron(r1, r2), r3)
    assert np.allclose(qmat.partial_trace(rho, [2]), r2, atol=1e-12)
    assert np.allclose(qmat.partial_trace(rho, [1, 3]), np.kron(r1, r3), atol=1e-12)
    assert np.allclose(qmat.partial_trace(rho, [3, 1]), np.kron(r3, r1), atol=1e-12)


def test_partial_trace_matches_oracle():
    rng = np.random.default_rng(5)
    keeps = [[1], [2], [3], [1, 2], [1, 3], [2, 3], [3, 2], [2, 1]]
    for _ in range(10):
        rho = random_rho(rng, 8)
        for keep in keeps:
            got = qmat.partial_trace(rho, keep)
            assert np.allclose(got, pt_oracle(rho, keep), atol=1e-12)
            assert np.trace(got) == pytest.approx(1.0, abs=1e-12)


def test_partial_trace_rejects_bad_keep():
    rho = np.eye(8) / 8
    with pytest.raises(ValueError):
        qmat.partial_trace(rho, [])
    with pytest.raises(ValueError):
        qmat.partial_trace(rho, [1, 1])
    with pytest.raises(ValueError):
        qmat.partial_trace(rho, [4])


def stacked_states(seed, n=50):
    """Random 3-qubit states of every rank, the star state and a rank-2
    state near |000>.

    The near state's pair spectra in concurrence peak near 1e-7 and reach
    down to 1e-16: a roundoff floor taken over the whole stack instead of
    per member would zero eigenvalues that a single call keeps."""
    rng = np.random.default_rng(seed)
    g = np.eye(8)[:, :1] + 1e-4 * (rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2)))
    out = [star_rho(), g @ g.conj().T / np.trace(g @ g.conj().T).real]
    for i in range(n - 2):
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        g = g[:, :1 + i % 8]
        out.append(g @ g.conj().T / np.trace(g @ g.conj().T).real)
    return np.stack(out)


@pytest.mark.parametrize("keep", [(1, 3), (2, 3), (3, 1), (1, 2)])
def test_stacked_partial_trace_and_concurrence_equal_single_calls(keep):
    states = stacked_states(4)
    pairs = qmat.partial_trace(states, keep)
    assert pairs.shape == (len(states), 4, 4)
    assert np.array_equal(pairs, [qmat.partial_trace(rho, keep) for rho in states])
    c = qmat.concurrence(pairs)
    assert isinstance(c, np.ndarray) and c.shape == (len(states),)
    assert np.array_equal(c, [qmat.concurrence(pair) for pair in pairs])
    assert isinstance(qmat.concurrence(pairs[0]), float)


def test_stacked_kernels_reject_bad_input():
    states = stacked_states(5, n=3)
    with pytest.raises(ValueError):
        qmat.concurrence(states)
    for keep in ([], [1, 1], [4]):
        with pytest.raises(ValueError):
            qmat.partial_trace(states, keep)
    with pytest.raises(ValueError, match="square"):
        qmat.partial_trace(states[:, :4], [1])


# -- concurrence and fidelity ----------------------------------------------

def test_concurrence_bell_and_product():
    bell = qmat.ket_to_rho(np.array([1, 0, 0, 1]) / np.sqrt(2))
    assert qmat.concurrence(bell) == pytest.approx(1.0, abs=1e-10)
    prod = qmat.ket_to_rho(np.array([1, 0, 0, 0], dtype=float))
    assert qmat.concurrence(prod) == pytest.approx(0.0, abs=1e-10)


def test_concurrence_werner_state():
    # p |bell><bell| + (1-p) I/4 has concurrence (3p-1)/2 above p=1/3
    bell = qmat.ket_to_rho(np.array([1, 0, 0, 1]) / np.sqrt(2))
    for p, expected in [(0.9, 0.85), (0.6, 0.4), (0.2, 0.0)]:
        rho = p * bell + (1 - p) * np.eye(4) / 4
        assert qmat.concurrence(rho) == pytest.approx(expected, abs=1e-10)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(rank=st.integers(1, 8), pair=st.sampled_from([(1, 2), (1, 3), (2, 3)]),
       entries=st.lists(st.floats(-1.0, 1.0), min_size=2 * 8 * 8, max_size=2 * 8 * 8))
def test_pair_concurrence_of_a_random_three_qubit_state_is_in_unit_interval(
        rank, pair, entries):
    g = np.array(entries[:64]).reshape(8, 8) + 1j * np.array(entries[64:]).reshape(8, 8)
    g = g[:, :rank]
    rho = g @ g.conj().T
    assume(np.trace(rho).real > 1e-3)
    rho /= np.trace(rho).real
    c = qmat.concurrence(qmat.partial_trace(rho, pair))
    assert 0.0 <= c <= 1.0 + 1e-9


def test_pure_state_concurrence_is_the_spin_flip_overlap():
    # a pure state's concurrence is |<psi| Y x Y |psi*>|; at C >= 0.1 the
    # eigenvalues of a non-Hermitian rho rho~ carry errors up to ~1e-8
    yy = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])
    rng = np.random.default_rng(0)
    checked = 0
    for _ in range(1000):
        psi = random_ket(rng, 4)
        expected = abs(psi.conj() @ yy @ psi.conj())
        if expected >= 0.1:
            assert abs(qmat.concurrence(qmat.ket_to_rho(psi)) - expected) < 1e-12
            checked += 1
    assert checked > 900


@pytest.mark.parametrize("pair", [(1, 3), (2, 3)])
def test_star_pair_concurrence_ignores_roundoff_perturbations(pair):
    # the pair states have rank 2; a 1e-15 Hermitian kick must not lift
    # their zero eigenvalues into ~1e-10 concurrence changes
    rho = qmat.partial_trace(star_rho(), pair)
    base = qmat.concurrence(rho)
    rng = np.random.default_rng(3)
    for _ in range(100):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert abs(qmat.concurrence(rho + 1e-15 * (g + g.conj().T)) - base) < 1e-12


def test_concurrence_needs_two_qubits():
    with pytest.raises(ValueError):
        qmat.concurrence(np.eye(8) / 8)


def test_star_state_pair_entanglement():
    rho = star_rho()
    qmat.assert_density_matrix(rho)
    # both leaf-center pairs of the star hold concurrence 1/2
    assert qmat.concurrence(qmat.partial_trace(rho, [1, 3])) == pytest.approx(0.5, abs=1e-10)
    assert qmat.concurrence(qmat.partial_trace(rho, [2, 3])) == pytest.approx(0.5, abs=1e-10)


def test_fidelity_known_values():
    zero = qmat.ket_to_rho(np.array([1.0, 0.0]))
    one = qmat.ket_to_rho(np.array([0.0, 1.0]))
    plus = qmat.ket_to_rho(np.array([1, 1]) / np.sqrt(2))
    assert qmat.fidelity(zero, zero) == pytest.approx(1.0, abs=1e-10)
    assert qmat.fidelity(zero, one) == pytest.approx(0.0, abs=1e-10)
    assert qmat.fidelity(zero, plus) == pytest.approx(0.5, abs=1e-10)
    assert qmat.fidelity(np.eye(2) / 2, zero) == pytest.approx(0.5, abs=1e-10)


def test_fidelity_properties_random():
    rng = np.random.default_rng(13)
    for _ in range(10):
        a, b = random_rho(rng, 4), random_rho(rng, 4)
        f = qmat.fidelity(a, b)
        assert 0.0 <= f <= 1.0
        assert qmat.fidelity(b, a) == pytest.approx(f, abs=1e-9)
        u = random_unitary(rng, 4)
        rot = qmat.fidelity(u @ a @ u.conj().T, u @ b @ u.conj().T)
        assert rot == pytest.approx(f, abs=1e-9)
    with pytest.raises(ValueError):
        qmat.fidelity(np.eye(2) / 2, np.eye(4) / 4)


# -- serialization ---------------------------------------------------------

def test_rho_json_round_trip():
    rng = np.random.default_rng(17)
    for dim in (2, 4, 8):
        rho = random_rho(rng, dim)
        again = rho_from_json(json.loads(json.dumps(qmat.rho_to_json(rho))))
        assert np.allclose(again, rho, atol=1e-15)


def test_star_state_file_is_the_expected_matrix():
    rho = star_rho()
    expected = np.zeros((8, 8))
    for a in (0, 4, 5, 7):
        for b in (0, 4, 5, 7):
            expected[a, b] = 0.25
    assert np.allclose(rho, expected, atol=0)
