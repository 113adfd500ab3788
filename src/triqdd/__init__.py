"""Desk-scale simulator for multiple-quantum coherence protection.

Builds three-qubit states carrying a chosen coherence order, evolves them
under NMR-style dephasing, and runs standard and modified dynamical
decoupling to protect single elements of the density matrix, including
two-qubit entanglement inside a three-qubit star state.
"""

__version__ = "0.1.0"

from .qmat import (
    coherence_order,
    coherence_order_matrix,
    partial_trace,
    concurrence,
    fidelity,
    ket_to_rho,
)
from .spinsys import SpinSystem, NoiseModel, PulseErrorModel, DisorderModel, ConfigError

__all__ = [
    "coherence_order",
    "coherence_order_matrix",
    "partial_trace",
    "concurrence",
    "fidelity",
    "ket_to_rho",
    "SpinSystem",
    "NoiseModel",
    "PulseErrorModel",
    "DisorderModel",
    "ConfigError",
]
