"""Jacobi theta function and discrete Gaussian states.

theta3(z, tau) = sum_a exp(1j*pi*tau*a^2) * exp(2j*pi*a*z), Im(tau) > 0.

The equilibrium-market state on the lattice is the wrapped Gaussian

    gamma_kappa(n) = sum_m exp(-(kappa*pi/d) * (m*d + n)^2),

a discrete bell curve of width parameter kappa > 0, equal to
(kappa*d)**-0.5 * theta3(n/d, 1j/(kappa*d)). Its normalization
upsilon_kappa is self-dual under the centered DFT at kappa = 1, and in
general maps to upsilon_{1/kappa}.

gamma_kappa sums real positive terms directly (no complex arithmetic),
truncating when the next wrap term drops below 1e-18 of the running
maximum; theta3 is evaluated fresh per call since it only backs
cross-checks and state construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .lattice import Lattice, StateVector

#: gamma_kappa truncation: stop adding wrap terms once they fall below
#: this fraction of the largest amplitude so far.
_GAMMA_RELATIVE_TAIL = 1e-18

#: Most wrap terms gamma_kappa sums; it needs about sqrt(ln(1/tail) / (pi kappa d)),
#: so this bounds its run time and sets the smallest kappa it accepts.
_GAMMA_MAX_WRAPS = 10_000

#: Most index pairs a, -a theta3 sums; it needs about sqrt(ln(1/tol) / (pi Im(tau)))
#: at real z, so this bounds its run time and sets the smallest Im(tau) it sums.
_THETA_MAX_PAIRS = 10_000


@dataclass(frozen=True)
class GaussianParams:
    """Width parameter of the discrete Gaussian; kappa in (0, inf)."""

    kappa: float

    def __post_init__(self) -> None:
        if not (self.kappa > 0 and math.isfinite(self.kappa)):
            raise ValueError(f"kappa must be strictly positive and finite, got {self.kappa}")


@dataclass(frozen=True)
class ThetaArgs:
    """Arguments of theta3, numbers or arrays that broadcast together; the
    series converges only for Im(tau) > 0, in every element."""

    z: complex | np.ndarray
    tau: complex | np.ndarray

    def __post_init__(self) -> None:
        if not (np.asarray(self.tau).imag > 0).all():
            raise ValueError(f"Im(tau) must be > 0, got tau={self.tau}")


def theta3(args: ThetaArgs, tol: float = 1e-12) -> complex | np.ndarray:
    """Partial sum of the theta series, accurate to tol relative to the total.

    Terms with index a and -a are paired; |term_a| <= 2*exp(-pi*Im(tau)*a^2
    + 2*pi*|Im(z)|*a), so once past the peak of that bound the tail is
    dominated by a geometric series and summation stops as soon as the
    bound times its geometric tail factor is below tolerance. Arrays of z
    and tau broadcast, and each element stops by that rule on its own:
    terms past its stopping index are not computed. Returns a complex for
    numbers, an array of the broadcast shape otherwise. Raises ValueError
    past _THETA_MAX_PAIRS pairs.
    """
    if not 0 < tol <= 1e-6:
        raise ValueError(f"tol must be in (0, 1e-6], got {tol}")
    shape = np.broadcast_shapes(np.shape(args.z), np.shape(args.tau))
    z, tau = (np.broadcast_to(np.asarray(x, dtype=complex), shape).ravel()
              for x in (args.z, args.tau))
    total = np.ones(len(z), dtype=complex)
    # the elements still summing: their indices, arguments and partial sums
    index, sums = np.arange(len(z)), total.copy()
    decay, growth = -math.pi * tau.imag, 2.0 * math.pi * np.abs(z.imag)
    for a in range(1, _THETA_MAX_PAIRS + 1):
        quad = np.exp(1j * math.pi * tau * a * a)
        sums += quad * (np.exp(2j * math.pi * a * z) + np.exp(-2j * math.pi * a * z))
        # bound on the next pair of terms, and the ratio of consecutive bounds
        bound = 2.0 * np.exp(decay * (a + 1) ** 2 + growth * (a + 1))
        ratio = np.exp(decay * (2 * a + 3) + growth)
        done = (ratio < 1.0) & (bound <= tol * np.maximum(np.abs(sums), 1e-300) * (1.0 - ratio))
        if done.any():
            total[index[done]] = sums[done]
            left = ~done
            if not left.any():
                return total.reshape(shape) if shape else complex(total[0])
            index, sums, z, tau, decay, growth = (x[left] for x in (index, sums, z, tau, decay,
                                                                    growth))
    raise ValueError(f"theta3 at tau={complex(tau[0])} needs over {_THETA_MAX_PAIRS} term pairs")


@np.errstate(over="ignore")  # exponents beyond the float range give exp(-inf) = 0
def gamma_kappa(lattice: Lattice, params: GaussianParams) -> StateVector:
    """Wrapped Gaussian gamma(n) = sum_m exp(-(kappa*pi/d)(m*d+n)^2); real, even, positive."""
    d = lattice.d
    smallest = -math.log(_GAMMA_RELATIVE_TAIL) / (math.pi * d * _GAMMA_MAX_WRAPS**2)
    if params.kappa < smallest:
        raise ConfigError(f"kappa={params.kappa!r} at q={lattice.q} needs over {_GAMMA_MAX_WRAPS} "
                          f"wrap terms; the smallest accepted kappa is {smallest:.3g}")
    n = lattice.points().astype(float)
    c = params.kappa * (math.pi / d)  # finite for every finite kappa: no NaN from inf * 0
    total = np.exp(-c * n * n)
    m = 1
    while True:
        wrap = np.exp(-c * (m * d + n) ** 2) + np.exp(-c * (m * d - n) ** 2)
        total += wrap
        if wrap.max() < _GAMMA_RELATIVE_TAIL * total.max():
            break
        m += 1
    return StateVector(lattice, total)


def upsilon_kappa(lattice: Lattice, params: GaussianParams) -> StateVector:
    """The unit-norm discrete Gaussian gamma_kappa / ||gamma_kappa||."""
    g = gamma_kappa(lattice, params)
    return StateVector(lattice, g.amplitudes / g.norm())
