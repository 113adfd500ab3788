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

import json

import numpy as np

SUPPORTED_DIMS = (2, 4, 8)

HERMITICITY_ATOL = 1e-10
TRACE_ATOL = 1e-10


class InvariantError(Exception):
    """A physics or bookkeeping invariant failed at runtime.

    Raised when a computation produces something that should be impossible
    (a channel breaking trace or positivity, a rank-deficient tomography
    design). Distinct from ValueError, which flags bad caller input.
    """
EIGENVALUE_ATOL = 1e-10


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


def assert_density_matrix(rho: np.ndarray, *, atol: float = EIGENVALUE_ATOL) -> None:
    """Raise ValueError unless rho is a valid density matrix.

    Checks shape, Hermiticity, unit trace and positive semidefiniteness
    (eigenvalues above -atol).
    """
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {rho.shape}")
    n_qubits(rho.shape[0])
    if not np.allclose(rho, rho.conj().T, atol=HERMITICITY_ATOL):
        raise ValueError("matrix is not Hermitian")
    tr = np.trace(rho)
    if abs(tr - 1.0) > TRACE_ATOL:
        raise ValueError(f"trace is {tr}, expected 1")
    evals = np.linalg.eigvalsh(rho)
    if evals.min() < -atol:
        raise ValueError(f"matrix is not positive semidefinite (min eigenvalue {evals.min()})")


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
    dim = 2 ** n
    pop = np.array([int(b).bit_count() for b in range(dim)])
    return pop[None, :] - pop[:, None]


def decompose_by_order(rho: np.ndarray) -> dict[int, np.ndarray]:
    """Split rho into its coherence-order components.

    Returns a map from order to a full-size matrix that is zero outside
    the elements of that order. Only orders with a nonzero component are
    included, and the components sum back to rho exactly.
    """
    rho = np.asarray(rho, dtype=complex)
    n = n_qubits(rho.shape[0])
    orders = coherence_order_matrix(n)
    out: dict[int, np.ndarray] = {}
    for k in range(-n, n + 1):
        comp = np.where(orders == k, rho, 0.0)
        if comp.any():
            out[k] = comp
    return out


def coherence_amplitude(rho: np.ndarray, element: tuple[int, int]) -> float:
    """Magnitude of a single off-diagonal element, the tracked coherence signal."""
    rho = np.asarray(rho)
    i, j = element
    coherence_order(i, j, n_qubits(rho.shape[0]))
    if i == j:
        raise ValueError("element must be off-diagonal")
    return float(abs(rho[i, j]))


def partial_trace(rho: np.ndarray, keep: tuple[int, ...]) -> np.ndarray:
    """Reduced density matrix over the kept qubits.

    ``keep`` lists 1-based qubit labels; the output tensor order follows
    the order given. Tracing out everything or keeping a duplicate label
    is rejected.
    """
    rho = np.asarray(rho, dtype=complex)
    n = n_qubits(rho.shape[0])
    keep = tuple(keep)
    if len(keep) == 0:
        raise ValueError("keep must name at least one qubit")
    if len(set(keep)) != len(keep):
        raise ValueError(f"duplicate qubit label in keep={keep}")
    for q in keep:
        if not 1 <= q <= n:
            raise ValueError(f"qubit label {q} out of range 1..{n}")
    # Reshape to one axis per ket bit then per bra bit; MSB-first indexing
    # means axis q-1 is exactly qubit q.
    t = rho.reshape((2,) * (2 * n))
    traced = [q for q in range(1, n + 1) if q not in keep]
    for q in sorted(traced, reverse=True):
        t = np.trace(t, axis1=q - 1, axis2=q - 1 + t.ndim // 2)
    # Axes now follow ascending label order of the kept qubits.
    kept_sorted = sorted(keep)
    perm = [kept_sorted.index(q) for q in keep]
    k = len(keep)
    t = t.transpose(tuple(perm) + tuple(p + k for p in perm))
    return t.reshape(2 ** k, 2 ** k)


_YY = np.array(
    [[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=complex
)


def concurrence(rho: np.ndarray) -> float:
    """Two-qubit mixed-state concurrence.

    max(0, l1 - l2 - l3 - l4) with l_i the square roots of the
    eigenvalues of rho (Y x Y) rho* (Y x Y) in decreasing order.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"concurrence is defined for one qubit pair, got shape {rho.shape}")
    rho_tilde = _YY @ rho.conj() @ _YY
    evals = np.linalg.eigvals(rho @ rho_tilde)
    # The product has real nonnegative spectrum up to roundoff.
    lam = np.sqrt(np.clip(evals.real, 0.0, None))
    lam[::-1].sort()
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


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


def rho_from_json(doc) -> np.ndarray:
    """Inverse of rho_to_json; accepts the dict form or its JSON text."""
    if isinstance(doc, (str, bytes)):
        doc = json.loads(doc)
    dim = int(doc["dim"])
    n_qubits(dim)
    entries = doc["entries"]
    if len(entries) != dim * dim:
        raise ValueError(f"expected {dim * dim} entries, got {len(entries)}")
    flat = np.array([complex(re, im) for re, im in entries])
    return flat.reshape(dim, dim)
