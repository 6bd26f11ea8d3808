"""Initial coefficient vectors: closed-form Gaussian packets, least-squares
fits of sampled wavefunctions, and the closure predicate.

The Gaussian convention is

    psi0(x) = exp[-(x - x0)^2 / (4 sigma^2) + i k0 (x - x0)]

i.e. the plane-wave factor multiplies (x - x0), not x.  Fitting inverts
exp(S(x)) by fitting a polynomial to log|psi| + i*phi with the phase phi
unwrapped sequentially along ascending x; sampling must be dense enough
that true phase increments stay below pi between neighbours (this cannot
be detected in-band).  Wavefunctions with nodes are out of reach of the
log-polynomial form, hence the magnitude floor.  Every failure here is a
ValueError.
"""

import math
from typing import NamedTuple

import numpy as np

from .records import Frozen
from .state import CoefficientState

__all__ = [
    "GaussianPacket",
    "FitResult",
    "gaussian_coefficients",
    "fit_log_polynomial",
    "is_closed_system",
]


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
    zero-padded up to the requested truncation order.  Raises ValueError
    when a coefficient overflows, divides by zero or is not finite: a
    packet past the double range.
    """
    if truncation_order < 2:
        raise ValueError("truncation_order must be at least 2")
    x0, sigma, k0 = packet.center, packet.width, packet.wavenumber
    alphas = np.zeros(truncation_order + 1, dtype=np.complex128)
    try:
        alphas[2] = -1.0 / (4.0 * sigma**2)
        alphas[1] = x0 / (2.0 * sigma**2) + 1j * k0
        alphas[0] = -(x0**2) / (4.0 * sigma**2) - 1j * k0 * x0 + 0.0
    except (OverflowError, ZeroDivisionError):
        alphas[0] = math.nan  # not finite: reported below
    if not np.isfinite(alphas).all():
        raise ValueError("initial coefficients must be finite")
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
    a psi is not finite, a power x^degree overflows, any |psi| falls under
    MAGNITUDE_FLOOR (a node or an underflow) or the fit matrix is
    rank-deficient: too few distinct x, found before the matrix is built, or
    x too badly scaled.
    """
    if degree < 1:
        raise ValueError("degree must be at least 1")
    pairs = sorted(samples, key=lambda s: s[0])
    xs = np.array([p[0] for p in pairs], dtype=np.float64)
    psis = np.array([p[1] for p in pairs], dtype=np.complex128)
    if xs.size == 0:
        raise ValueError("no samples given")
    finite = np.isfinite(xs) & np.isfinite(psis)
    if not finite.all():
        j = int(np.argmin(finite))
        raise ValueError(f"sample x = {xs[j]}, psi = {psis[j]} is not finite")

    magnitudes = np.abs(psis)
    small = magnitudes <= MAGNITUDE_FLOOR
    if np.any(small):
        j = int(np.argmax(small))
        raise ValueError(
            f"|psi| = {magnitudes[j]:.3e} at x = {xs[j]} is under the floor "
            f"{MAGNITUDE_FLOOR:.3e}"
        )

    # the rank is at most the number of distinct x; np.unique would import
    # numpy.ma, about 2 MiB
    distinct = len(set(xs.tolist()))
    if distinct <= degree:
        raise ValueError(f"fit matrix has rank {distinct} < {degree + 1}; "
                         "need degree+1 samples with distinct x")
    y = np.log(magnitudes) + 1j * _unwrap_ascending(np.angle(psis))
    with np.errstate(over="ignore"):
        vander = np.vander(xs, degree + 1, increasing=True)
    if not np.isfinite(vander).all():
        raise ValueError(f"x^{degree} overflows at |x| = {np.max(np.abs(xs))}; rescale x")
    coeffs, _, rank, _ = np.linalg.lstsq(vander, y, rcond=None)
    if rank < degree + 1:  # lstsq drops singular values under its rcond
        raise ValueError(f"fit matrix has rank {rank} < {degree + 1}; "
                         "the x are distinct but too badly scaled; rescale x")
    residual = float(np.sqrt(np.mean(np.abs(vander @ coeffs - y) ** 2)))

    order = max(degree, 2)
    alphas = np.zeros(order + 1, dtype=np.complex128)
    alphas[: degree + 1] = coeffs
    return FitResult(CoefficientState(alphas, time=0.0), residual)


def is_closed_system(A: int, D: int) -> bool:
    """True iff the flow stays exactly finite-dimensional for all time.

    With initial support within {0, 1, 2} and potential degree at most 2,
    the velocity at every index n >= 3 vanishes identically, so no higher
    coefficient is ever populated.
    """
    if A < 0 or D < 0:
        raise ValueError("A and D must be nonnegative")
    return A <= 2 and D <= 2
