"""Return lattice, state vectors and probabilities.

The model lives on the integer lattice {-q, ..., q} of admissible daily
returns (in percent) under a price-limit rule of +-q%. States are complex
amplitude functions on the lattice; squared moduli of a normalized state
are the probabilities of the individual return values.

All values are immutable after construction and every operation is a pure
function, so everything here is safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Tolerance on ||psi|| - 1 for "is normalized" checks at probability and
#: expectation boundaries.
NORM_TOLERANCE = 1e-10


@dataclass(frozen=True)
class Lattice:
    """The set of admissible integer returns {-q, ..., q}, d = 2q+1 points."""

    q: int

    def __post_init__(self) -> None:
        if not isinstance(self.q, (int, np.integer)) or isinstance(self.q, bool):
            raise ValueError(f"q must be an integer, got {self.q!r}")
        if self.q < 1:
            raise ValueError(f"q must be >= 1, got {self.q} (need at least {{-1, 0, 1}})")
        object.__setattr__(self, "q", int(self.q))

    @property
    def d(self) -> int:
        return 2 * self.q + 1

    def points(self) -> np.ndarray:
        """Lattice points -q..q as an int array in storage order."""
        return np.arange(-self.q, self.q + 1)

    def index(self, n: int) -> int:
        """Storage index of lattice point n (amplitudes are stored in ascending n)."""
        if not -self.q <= n <= self.q:
            raise ValueError(f"n={n} outside lattice [-{self.q}, {self.q}]")
        return int(n) + self.q


def new_lattice(q: int) -> Lattice:
    """Build the return lattice for price-limit percentage q >= 1."""
    return Lattice(q)


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex amplitude function on a return lattice.

    ``amplitudes[i]`` is the amplitude at lattice point ``i - q``. Entries
    must be finite; the vector need not be normalized.
    """

    lattice: Lattice
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.shape != (self.lattice.d,):
            raise ValueError(
                f"amplitudes must have length d={self.lattice.d}, got shape {amps.shape}"
            )
        if not np.isfinite(amps).all():
            raise ValueError("amplitudes must be finite (no NaN/Inf)")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    def amplitude(self, n: int) -> complex:
        """Amplitude at lattice point n."""
        return complex(self.amplitudes[self.lattice.index(n)])

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True, eq=False)
class ProbabilityDistribution:
    """Probabilities of the individual return values of a normalized state."""

    lattice: Lattice
    probs: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        p = np.array(self.probs, dtype=float)
        if p.shape != (self.lattice.d,):
            raise ValueError(f"probs must have length d={self.lattice.d}")
        if (p < 0).any():
            raise ValueError("probabilities must be non-negative")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError(f"probabilities must sum to 1, got {p.sum()!r}")
        p.flags.writeable = False
        object.__setattr__(self, "probs", p)

    def prob(self, n: int) -> float:
        return float(self.probs[self.lattice.index(n)])


def inner_product(a: StateVector, b: StateVector) -> complex:
    """Scalar product <a, b> = sum_n conj(a(n)) b(n), conjugate-linear in a."""
    if a.lattice != b.lattice:
        raise ValueError(f"lattice mismatch: q={a.lattice.q} vs q={b.lattice.q}")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def normalize(psi: StateVector) -> StateVector:
    """Unit-norm state parallel to psi. Rejects the zero vector.

    The amplitudes are divided by their largest modulus first, so the sum
    of squares neither overflows nor underflows at any finite scale.
    """
    largest = np.abs(psi.amplitudes).max()
    if not largest > 0:
        raise ValueError("cannot normalize a zero state vector")
    scaled = psi.amplitudes / largest
    return StateVector(psi.lattice, scaled / np.linalg.norm(scaled))


def delta_state(lattice: Lattice, n: int) -> StateVector:
    """Basis state with amplitude 1 at return n and 0 elsewhere."""
    amps = np.zeros(lattice.d, dtype=complex)
    amps[lattice.index(n)] = 1.0
    return StateVector(lattice, amps)


def probabilities(psi: StateVector) -> ProbabilityDistribution:
    """Return-value probabilities |psi(n)|^2 of a normalized state.

    The input must be normalized within ``NORM_TOLERANCE``; the output is
    rescaled by the squared norm so the probabilities sum to 1 exactly
    (a no-op for exactly normalized input).
    """
    nrm = psi.norm()
    if abs(nrm - 1.0) > NORM_TOLERANCE:
        raise ValueError(
            f"state is not normalized: ||psi|| = {nrm!r} "
            f"(defect {nrm - 1.0:.3e}, tolerance {NORM_TOLERANCE})"
        )
    p = np.abs(psi.amplitudes) ** 2
    return ProbabilityDistribution(psi.lattice, p / p.sum())
