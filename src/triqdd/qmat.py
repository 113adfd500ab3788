"""Density-matrix core for registers of one to three qubits.

Basis convention used across the package: computational product basis with
qubit 1 as the most significant bit, so for three qubits index 5 means
|101> (qubits 1 and 3 flipped, qubit 2 not). States are plain complex
numpy arrays; the invariants of a density matrix are enforced by
``assert_density_matrix`` rather than by a wrapper class.

The coherence order of element (i, j) is popcount(j) - popcount(i), the
net number of spin flips between the bra and the ket. Order 0 covers the
populations and all zero-quantum coherences, order +-n the n-quantum
coherences.
"""

from __future__ import annotations

import numpy as np

SUPPORTED_DIMS = (2, 4, 8)

HERMITICITY_ATOL = 1e-10
TRACE_ATOL = 1e-10
EIGENVALUE_ATOL = 1e-10


class InvariantError(Exception):
    """A physics or bookkeeping invariant failed at runtime.

    Raised when a computation produces something that should be impossible
    (a channel breaking trace or positivity, a rank-deficient tomography
    design). Distinct from ValueError, which flags bad caller input.
    """


def n_qubits(dim: int) -> int:
    """Number of qubits for a supported Hilbert-space dimension."""
    if dim not in SUPPORTED_DIMS:
        raise ValueError(f"unsupported dimension {dim}, expected one of {SUPPORTED_DIMS}")
    return dim.bit_length() - 1


def ket_to_rho(psi: np.ndarray) -> np.ndarray:
    """Outer product |psi><psi| of a normalized state vector."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    n_qubits(psi.size)
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"state vector is not normalized (norm {norm})")
    return np.outer(psi, psi.conj())


def _refuse(rho: np.ndarray, bad: np.ndarray, message) -> None:
    """Raise ValueError(message(i)) at the first member i of rho's flattened
    stack where bad holds."""
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(("" if rho.ndim == 2 else f"member {i}: ") + message(i))


def assert_hermitian(rho: np.ndarray) -> None:
    """Raise ValueError unless rho, or every member of a (..., d, d) stack, is
    Hermitian: max-abs of rho - rho^dagger at most HERMITICITY_ATOL, NaN failing.
    The message names the first failing member, counted over the flattened stack.
    """
    rho = np.asarray(rho)
    stack = rho.reshape((-1,) + rho.shape[-2:])
    skew = np.abs(stack - stack.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    _refuse(rho, ~(skew <= HERMITICITY_ATOL), lambda i: "matrix is not Hermitian")


def assert_density_matrix(rho: np.ndarray) -> None:
    """Raise ValueError unless rho is a valid density matrix, or a stack of them.

    Checks shape, Hermiticity (assert_hermitian), unit trace and positive
    semidefiniteness (eigenvalues above -EIGENVALUE_ATOL). A (..., d, d)
    stack is checked at once with the same thresholds; the message names
    the first failing member, counted over the flattened stack. PSD is
    accepted by one batched Cholesky factorization of the stack shifted
    by EIGENVALUE_ATOL; only when that fails are the eigenvalues computed,
    to decide and to name the failing member.
    """
    rho = np.asarray(rho)
    if rho.ndim < 2 or rho.shape[-2] != rho.shape[-1]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {rho.shape}")
    n_qubits(rho.shape[-1])
    assert_hermitian(rho)
    stack = rho.reshape((-1,) + rho.shape[-2:])
    tr = np.trace(stack, axis1=-2, axis2=-1)
    _refuse(rho, np.abs(tr - 1.0) > TRACE_ATOL, lambda i: f"trace is {tr[i]}, expected 1")
    try:  # every eigenvalue above -EIGENVALUE_ATOL: the shifted stack factorizes
        np.linalg.cholesky(stack + EIGENVALUE_ATOL * np.eye(stack.shape[-1]))
    except np.linalg.LinAlgError:
        lowest = np.linalg.eigvalsh(stack).min(axis=-1)
        _refuse(rho, lowest < -EIGENVALUE_ATOL, lambda i: "matrix is not positive semidefinite "
                                                          f"(min eigenvalue {lowest[i]})")


def coherence_order(i: int, j: int, n: int = 3) -> int:
    """Coherence order of element (i, j) of an n-qubit density matrix."""
    dim = 2 ** n
    if n not in (1, 2, 3):
        raise ValueError(f"qubit count {n} out of range, expected 1..3")
    if not (0 <= i < dim and 0 <= j < dim):
        raise ValueError(f"indices ({i}, {j}) out of range for dimension {dim}")
    return int(j).bit_count() - int(i).bit_count()


def coherence_order_matrix(n: int = 3) -> np.ndarray:
    """Matrix of coherence orders for every element, dtype int."""
    return np.array([[coherence_order(i, j, n) for j in range(2 ** n)] for i in range(2 ** n)])


def partial_trace(rho: np.ndarray, keep: tuple[int, ...]) -> np.ndarray:
    """Reduced density matrix over the kept qubits, of one state or a stack.

    ``keep`` lists 1-based qubit labels; the output tensor order follows
    the order given. Tracing out everything or keeping a duplicate label
    is rejected. A (..., d, d) stack is reduced member by member in one
    pass, each member exactly as a single call reduces it.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim < 2 or rho.shape[-2] != rho.shape[-1]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {rho.shape}")
    n = n_qubits(rho.shape[-1])
    keep = tuple(keep)
    if len(keep) == 0:
        raise ValueError("keep must name at least one qubit")
    if len(set(keep)) != len(keep):
        raise ValueError(f"duplicate qubit label in keep={keep}")
    for q in keep:
        if not 1 <= q <= n:
            raise ValueError(f"qubit label {q} out of range 1..{n}")
    # One axis per ket bit, then one per bra bit, after the stack axes; MSB-first
    # indexing makes axis q - 1 of each half qubit q. A traced qubit's bra axis
    # takes its ket label, so einsum sums that diagonal.
    ket = "abc"[:n]  # n <= 3 (SUPPORTED_DIMS)
    bra = "".join(k if q not in keep else k.upper() for q, k in enumerate(ket, 1))
    out = "".join(ket[q - 1] for q in keep) + "".join(bra[q - 1] for q in keep)
    reduced = np.einsum(f"...{ket}{bra}->...{out}", rho.reshape(rho.shape[:-2] + (2,) * (2 * n)))
    return reduced.reshape(rho.shape[:-2] + (2 ** len(keep),) * 2)


_YY = np.array(
    [[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=complex
)


def concurrence(rho: np.ndarray) -> float | np.ndarray:
    """Two-qubit mixed-state concurrence, of one pair or a (..., 4, 4) stack.

    max(0, l1 - l2 - l3 - l4) with l_i the eigenvalues, in decreasing order,
    of the Hermitian sqrt(sqrt(rho) rho~ sqrt(rho)), rho~ = (Y x Y) rho* (Y x Y);
    roundoff-sized ones count as zero, as in fidelity. One pair gives a
    float; a stack gives an array, each member equal to its single call.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"concurrence is defined for one qubit pair, got shape {rho.shape}")
    s = _psd_sqrt(rho)
    lam = np.sqrt(_psd_eigh(s @ _YY @ rho.conj() @ _YY @ s)[0])[..., ::-1]  # eigh sorts ascending
    c = np.maximum(0.0, lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3])
    return float(c) if rho.ndim == 2 else c


def _psd_eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    w, v = np.linalg.eigh(m)
    # eigenvalues at roundoff level are zero: numpy.linalg.matrix_rank's tolerance,
    # taken per member of a stack
    floor = np.abs(w).max(axis=-1, keepdims=True) * w.shape[-1] * np.finfo(float).eps
    return np.where(w > floor, w, 0.0), v


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    w, v = _psd_eigh(m)
    return (v * np.sqrt(w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Squared Uhlmann fidelity (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2.

    The squared convention is used everywhere in this package. For a pure
    rho it reduces to <psi|sigma|psi>.
    """
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    if rho.shape != sigma.shape:
        raise ValueError(f"shape mismatch {rho.shape} vs {sigma.shape}")
    n_qubits(rho.shape[0])
    s = _psd_sqrt(rho)
    val = np.trace(_psd_sqrt(s @ sigma @ s)).real ** 2
    return float(min(max(val, 0.0), 1.0))


def rho_to_json(rho: np.ndarray) -> dict:
    """Serialize a density matrix to the package JSON schema.

    Schema: {"dim": d, "entries": [[re, im], ...]} with entries row-major.
    Returns the document as a dict so it can embed in larger payloads.
    """
    rho = np.asarray(rho, dtype=complex)
    n_qubits(rho.shape[0])
    entries = [[float(z.real), float(z.imag)] for z in rho.reshape(-1)]
    return {"dim": int(rho.shape[0]), "entries": entries}
