"""Centered finite Fourier transform on the return lattice.

The transform is the unitary d x d matrix

    F[k, n] = d**-0.5 * exp(-2*pi*1j * k*n / d),    k, n in {-q, ..., q},

its inverse is the adjoint F+. It maps the return basis onto the dual
(trend) basis. Matrices are built explicitly: d is small and odd, and the
exact signed-index phases matter more than FFT speed here. Phases are
reduced with exact integer arithmetic, exp(-2*pi*1j * ((k*n) mod d) / d),
which keeps the trig arguments small.

One matrix pair is cached per lattice (a bounded cache) and reused by
the propagator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .lattice import Lattice, StateVector


@dataclass(frozen=True, eq=False)
class DftMatrices:
    """Forward transform F and its adjoint/inverse F+ for one lattice."""

    lattice: Lattice
    forward: np.ndarray = field(repr=False)
    adjoint: np.ndarray = field(repr=False)


@lru_cache(maxsize=16)
def _cached_dft(q: int) -> DftMatrices:
    lattice = Lattice(q)
    d = lattice.d
    pts = lattice.points().astype(np.int64)
    phase_index = np.outer(pts, pts) % d
    forward = np.exp(-2j * np.pi * phase_index / d) / np.sqrt(d)
    adjoint = forward.conj().T.copy()
    forward.flags.writeable = False
    adjoint.flags.writeable = False
    return DftMatrices(lattice, forward, adjoint)


def dft_matrices(lattice: Lattice) -> DftMatrices:
    """The centered DFT matrix pair for a lattice (cached per q)."""
    return _cached_dft(lattice.q)


def even_dual_matrix(lattice: Lattice, weights: np.ndarray) -> np.ndarray:
    """F+ diag(weights) F for dual weights w(k) = w(-k), as a d x d array.

    For even weights the sine parts of the conjugation cancel, so entry
    (a, b) is (1/d) * sum_k w(k) cos(2 pi k (a - b) / d): a circulant with
    one value per distance |a - b|, exactly symmetric (real for real
    weights), built in O(d^2) time and memory.
    """
    d = lattice.d
    pts = lattice.points()
    angles = 2.0 * np.pi / d * (np.outer(np.arange(d), pts) % d)
    row = np.cos(angles) @ weights / d
    return row[np.abs(pts[:, None] - pts[None, :])]


def apply_dft(psi: StateVector) -> StateVector:
    """Map a state to the dual basis: phi(k) = d**-0.5 sum_n e^{-2pi i kn/d} psi(n)."""
    mats = dft_matrices(psi.lattice)
    return StateVector(psi.lattice, mats.forward @ psi.amplitudes)


def apply_inverse_dft(phi: StateVector) -> StateVector:
    """Inverse of :func:`apply_dft` (application of the adjoint matrix)."""
    mats = dft_matrices(phi.lattice)
    return StateVector(phi.lattice, mats.adjoint @ phi.amplitudes)


def tilde_delta(lattice: Lattice, n: int) -> StateVector:
    """Dual basis state, the inverse transform of the point mass at n.

    Explicitly: (1/sqrt(d)) * exp(+2*pi*1j * k*n / d) as a function of k.
    """
    mats = dft_matrices(lattice)
    return StateVector(lattice, mats.adjoint[:, lattice.index(n)].copy())
