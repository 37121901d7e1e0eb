"""Observables of the return model as Hermitian matrices.

The rate-of-return operator is diagonal with the integer returns as
eigenvalues. The trend operator (the momentum analogue, "tendency of the
return to change") is its conjugate by the centered DFT and is diagonal
in the dual basis. The market Hamiltonian combines a kinetic term
T^2/(2 mu), modelling the traders' efforts to change prices, with a
periodic information potential beta*cos(omega*t)*R. hbar = 1 throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import NumericalError
from .fourier import dft_matrices, even_dual_matrix
from .lattice import NORM_TOLERANCE, Lattice, StateVector

HERMITICITY_TOL = 1e-12

#: Raw imaginary part of <psi, A psi> above which expectation() refuses
#: to return a real number.
EXPECTATION_IMAG_LIMIT = 1e-8


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """A d x d Hermitian matrix acting on states of one lattice.

    The constructor verifies hermiticity (entrywise, within
    ``HERMITICITY_TOL``) instead of symmetrizing; a non-Hermitian input is
    a bug that should surface, not be hidden.
    """

    lattice: Lattice
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex)
        d = self.lattice.d
        if m.shape != (d, d):
            raise ValueError(f"matrix must be {d}x{d}, got {m.shape}")
        defect = np.abs(m - m.conj().T).max()
        if not defect <= HERMITICITY_TOL:  # NaN included
            raise ValueError(f"matrix is not Hermitian (defect {defect:.3e})")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def apply(self, psi: StateVector) -> StateVector:
        if psi.lattice != self.lattice:
            raise ValueError("operator and state live on different lattices")
        return StateVector(self.lattice, self.matrix @ psi.amplitudes)


def rate_operator(lattice: Lattice) -> HermitianOperator:
    """Diagonal observable of the return value: (R psi)(n) = n psi(n)."""
    return HermitianOperator(lattice, np.diag(lattice.points().astype(complex)))


def trend_operator(lattice: Lattice) -> HermitianOperator:
    """Trend observable F+ R F; diagonal in the dual basis with spectrum -q..q."""
    mats = dft_matrices(lattice)
    n = lattice.points().astype(float)
    return HermitianOperator(lattice, mats.adjoint @ (n[:, None] * mats.forward))


def price_operator(lattice: Lattice, p0: float, scale: float = 1.0) -> HermitianOperator:
    """Price observable p0*I + p0*scale*R for previous closing price p0.

    ``scale`` is the return-unit convention: 1.0 treats the integer
    return n as the jump in units of p0 (one lattice step moves the price
    by a whole p0), 0.01 treats n as a percentage (one step moves the
    price by p0/100). Both conventions are meaningful; neither is forced.
    """
    if not p0 > 0:
        raise ValueError(f"p0 must be positive, got {p0}")
    n = lattice.points().astype(complex)
    return HermitianOperator(lattice, np.diag(p0 + p0 * scale * n))


def kinetic_operator(lattice: Lattice, mu: float) -> HermitianOperator:
    """Kinetic part T^2/(2 mu); positive semidefinite, diagonal in the dual basis.

    Built by conjugating diag(n^2/(2 mu)) with the DFT rather than by
    squaring the trend matrix, which keeps the spectrum exact.
    """
    if not mu > 0:
        raise ValueError(f"mu must be positive, got {mu}")
    mats = dft_matrices(lattice)
    w = lattice.points().astype(float) ** 2 / (2.0 * mu)
    return HermitianOperator(lattice, mats.adjoint @ (w[:, None] * mats.forward))


def diagonal_potential(lattice: Lattice, values) -> HermitianOperator:
    """Observable diagonal in the return basis from a table of d real values.

    The hook for potentials beyond the built-in beta*cos(omega*t)*R family.
    """
    v = np.asarray(values, dtype=float)
    if v.shape != (lattice.d,):
        raise ValueError(f"need {lattice.d} diagonal values, got shape {v.shape}")
    return HermitianOperator(lattice, np.diag(v.astype(complex)))


@lru_cache(maxsize=16)
def _kinetic_matrix(q: int, mu: float) -> np.ndarray:
    lattice = Lattice(q)
    kin = even_dual_matrix(lattice, lattice.points().astype(float) ** 2 / (2.0 * mu))
    kin.flags.writeable = False
    return kin


def hamiltonians(lattice: Lattice, mu: float, coupling) -> np.ndarray:
    """Real symmetric matrices T^2/(2 mu) + c*R, one per coupling value c.

    Returns an (m, d, d) float array for a sequence of m coupling values.
    The kinetic part is the real circulant of the dual weights n^2/(2 mu),
    cached per (q, mu), so every slice is exactly symmetric and costs
    O(d^2) to build.
    """
    if not mu > 0:
        raise ValueError(f"mu must be positive, got {mu}")
    coupling = np.asarray(coupling, dtype=float)
    m, d = len(coupling), lattice.d
    h = np.empty((m, d, d))
    h[:] = _kinetic_matrix(lattice.q, float(mu))
    h.reshape(m, d * d)[:, :: d + 1] += coupling[:, None] * lattice.points()
    return h


def hamiltonian_at(
    lattice: Lattice, t: float, mu: float, beta: float, omega: float
) -> HermitianOperator:
    """Market Hamiltonian H(t) = T^2/(2 mu) + beta*cos(omega*t)*R at time t.

    One slice of :func:`hamiltonians`, the builder the propagator uses.
    """
    return HermitianOperator(lattice, hamiltonians(lattice, mu, [beta * np.cos(omega * t)])[0])


def expectation(op: HermitianOperator, psi: StateVector) -> float:
    """Mean value <psi, A psi> of an observable in a normalized state.

    The raw value of a Hermitian observable is real up to roundoff; an
    imaginary part above ``EXPECTATION_IMAG_LIMIT`` signals a
    non-Hermitian matrix or a numerical fault and raises instead of being
    silently discarded.
    """
    if psi.lattice != op.lattice:
        raise ValueError("operator and state live on different lattices")
    nrm = psi.norm()
    if abs(nrm - 1.0) > NORM_TOLERANCE:
        raise ValueError(f"state is not normalized: ||psi|| = {nrm!r}")
    raw = complex(np.vdot(psi.amplitudes, op.matrix @ psi.amplitudes))
    if abs(raw.imag) > EXPECTATION_IMAG_LIMIT:
        raise NumericalError(
            f"expectation value has non-negligible imaginary part {raw.imag:.3e}"
        )
    return raw.real
