import numpy as np
import pytest

from triqdd import ddseq, spinsys


@pytest.fixture(autouse=True)
def fresh_compiled_plans():
    """Each test compiles its own plans: a test that swaps a table the compiler
    reads must not get a plan kept from another test, nor leave one behind."""
    spinsys._compiled.cache_clear()
    yield
    spinsys._compiled.cache_clear()


def random_ket(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_rho(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


# the 64 matrix units E_ab: a linear map on 8x8 matrices is fixed by their images
MATRIX_UNITS = np.eye(64, dtype=complex).reshape(64, 8, 8)


def unit_channel(sys, cycle):
    """Images of the matrix units under one compiled repeat unit of cycle."""
    plan = spinsys.compile_program(sys, *ddseq.program(cycle, cycle.unit_cycles))
    return spinsys.apply_program(MATRIX_UNITS, plan)


def unitary_channel(u):
    """Images of the matrix units under rho -> U rho U^dagger."""
    return u @ MATRIX_UNITS @ u.conj().T
