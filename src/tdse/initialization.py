"""Initial coefficient vectors: closed-form Gaussian packets, least-squares
fits of sampled wavefunctions, and support/closure predicates.

The Gaussian convention is

    psi0(x) = exp[-(x - x0)^2 / (4 sigma^2) + i k0 (x - x0)]

i.e. the plane-wave factor multiplies (x - x0), not x.  Fitting inverts
exp(S(x)) by fitting a polynomial to log|psi| + i*phi with the phase phi
unwrapped sequentially along ascending x; sampling must be dense enough
that true phase increments stay below pi between neighbours (this cannot
be detected in-band).  Wavefunctions with nodes are out of reach of the
log-polynomial form, hence the magnitude floor.
"""

import math
from typing import NamedTuple

import numpy as np

from .records import Frozen
from .state import CoefficientState

__all__ = [
    "GaussianPacket",
    "FitResult",
    "SampleTooSmall",
    "DegenerateSystem",
    "gaussian_coefficients",
    "fit_log_polynomial",
    "support_bound_after_step",
    "is_closed_system",
]


class SampleTooSmall(ValueError):
    """A sample magnitude sits under the floor (node or underflow)."""


class DegenerateSystem(ValueError):
    """Rank-deficient fit system, from duplicated or badly scaled x."""


MAGNITUDE_FLOOR = 1e-12  # a sample |psi| at or under it is a node or an underflow


class GaussianPacket(Frozen):
    __slots__ = ("center", "width", "wavenumber")

    def __init__(self, center: float = 0.0, width: float = 1.0, wavenumber: float = 0.0):
        if not (math.isfinite(width) and width > 0):
            raise ValueError(f"width must be positive and finite, got {width!r}")
        if not (math.isfinite(center) and math.isfinite(wavenumber)):
            raise ValueError("center and wavenumber must be finite")
        self._set(center, width, wavenumber)


def gaussian_coefficients(packet: GaussianPacket, truncation_order: int = 2) -> CoefficientState:
    """Exact degree-2 coefficients of a Gaussian packet at t = 0.

    alpha_2 = -1/(4 sigma^2), alpha_1 = x0/(2 sigma^2) + i k0,
    alpha_0 = -x0^2/(4 sigma^2) - i k0 x0 (+0.0 for x0 = 0, never -0.0);
    zero-padded up to the requested truncation order.
    """
    if truncation_order < 2:
        raise ValueError("truncation_order must be at least 2")
    x0, sigma, k0 = packet.center, packet.width, packet.wavenumber
    alphas = np.zeros(truncation_order + 1, dtype=np.complex128)
    alphas[2] = -1.0 / (4.0 * sigma**2)
    alphas[1] = x0 / (2.0 * sigma**2) + 1j * k0
    alphas[0] = -(x0**2) / (4.0 * sigma**2) - 1j * k0 * x0 + 0.0
    return CoefficientState(alphas, time=0.0)


class FitResult(NamedTuple):
    state: CoefficientState
    residual: float  # rms of the least-squares residual over the samples


def _unwrap_ascending(phase: np.ndarray) -> np.ndarray:
    # fold each consecutive jump into (-pi, pi], then accumulate
    d = np.diff(phase)
    folded = np.pi - np.mod(np.pi - d, 2.0 * np.pi)
    return np.concatenate(([phase[0]], phase[0] + np.cumsum(folded)))


def fit_log_polynomial(samples, degree: int) -> FitResult:
    """Least-squares polynomial fit of log|psi| + i*phase over the samples.

    ``samples`` is a sequence of (x, psi) pairs with distinct x sorted
    ascending (re-sorted defensively here).  Raises ValueError when an x or
    a psi is not finite or a power x^degree overflows, SampleTooSmall when
    any |psi| falls under MAGNITUDE_FLOOR and DegenerateSystem when the fit
    matrix is rank-deficient: too few distinct x, or x too badly scaled.
    """
    if degree < 1:
        raise ValueError("degree must be at least 1")
    pairs = sorted(samples, key=lambda s: s[0])
    xs = np.array([p[0] for p in pairs], dtype=np.float64)
    psis = np.array([p[1] for p in pairs], dtype=np.complex128)
    if xs.size == 0:
        raise DegenerateSystem("no samples given")
    finite = np.isfinite(xs) & np.isfinite(psis)
    if not finite.all():
        j = int(np.argmin(finite))
        raise ValueError(f"sample x = {xs[j]}, psi = {psis[j]} is not finite")

    magnitudes = np.abs(psis)
    small = magnitudes <= MAGNITUDE_FLOOR
    if np.any(small):
        j = int(np.argmax(small))
        raise SampleTooSmall(
            f"|psi| = {magnitudes[j]:.3e} at x = {xs[j]} is under the floor "
            f"{MAGNITUDE_FLOOR:.3e}"
        )

    y = np.log(magnitudes) + 1j * _unwrap_ascending(np.angle(psis))
    with np.errstate(over="ignore"):
        vander = np.vander(xs, degree + 1, increasing=True)
    if not np.isfinite(vander).all():
        raise ValueError(f"x^{degree} overflows at |x| = {np.max(np.abs(xs))}; rescale x")
    coeffs, _, rank, _ = np.linalg.lstsq(vander, y, rcond=None)
    if rank < degree + 1:  # lstsq drops singular values under its rcond
        cause = ("need degree+1 samples with distinct x" if np.unique(xs).size <= degree
                 else "the x are distinct but too badly scaled; rescale x")
        raise DegenerateSystem(f"fit matrix has rank {rank} < {degree + 1}; {cause}")
    residual = float(np.sqrt(np.mean(np.abs(vander @ coeffs - y) ** 2)))

    order = max(degree, 2)
    alphas = np.zeros(order + 1, dtype=np.complex128)
    alphas[: degree + 1] = coeffs
    return FitResult(CoefficientState(alphas, time=0.0), residual)


def support_bound_after_step(A: int, D: int) -> int:
    """Largest coefficient index one Euler step can populate.

    From support contained in {0..A} under a degree-D potential, the
    velocity reaches index A-2 through the ladder term, 2A-2 through the
    quadratic term, and D through the forcing, so post-step support stays
    within {0..max(A, 2A-2, D)}.
    """
    if A < 0 or D < 0:
        raise ValueError("A and D must be nonnegative")
    return max(A, 2 * A - 2, D)


def is_closed_system(A: int, D: int) -> bool:
    """True iff the flow stays exactly finite-dimensional for all time.

    With initial support within {0, 1, 2} and potential degree at most 2,
    the velocity at every index n >= 3 vanishes identically, so no higher
    coefficient is ever populated.
    """
    if A < 0 or D < 0:
        raise ValueError("A and D must be nonnegative")
    return A <= 2 and D <= 2
