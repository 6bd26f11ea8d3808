"""Coefficient-flow state types and the right-hand side of the coefficient ODEs.

The wavefunction is represented as psi(x, t) = exp(S(x, t)) with

    S(x, t) = sum_{n=0}^{N} alphas[n](t) * x**n,

truncated at a fixed order N.  Substituting into
i*hbar*dpsi/dt = -(hbar^2/2m)*d2psi/dx2 + V(x,t)*psi and matching powers
of x gives one ODE per coefficient:

    d(alpha_n)/dt = (i*hbar/2m) * [ (n+2)(n+1)*alpha_{n+2}
                     + sum_{k=0}^{n} (k+1)(n-k+1)*alpha_{k+1}*alpha_{n-k+1} ]
                    - (i/hbar) * V_n(t)

where V_n(t) is the n-th Taylor coefficient of the potential about x = 0,
with the 1/n! factor already absorbed (see the potential module).  The
infinite system is closed by holding alpha_n = 0 for every n > N.

Unit conventions: alphas[n] carries length^-n, V_n carries
energy * length^-n.  coefficient_velocity is pure; the functions a
velocity_kernel returns reuse scratch buffers, so each caller builds
its own kernel.
"""

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PhysicalParams",
    "CoefficientState",
    "velocity_kernel",
    "coefficient_velocity",
]


@dataclass(frozen=True)
class PhysicalParams:
    """hbar and particle mass, in any consistent unit system."""

    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.hbar) and self.hbar > 0):
            raise ValueError(f"hbar must be positive and finite, got {self.hbar!r}")
        if not (math.isfinite(self.mass) and self.mass > 0):
            raise ValueError(f"mass must be positive and finite, got {self.mass!r}")


@dataclass
class CoefficientState:
    """Complex coefficient vector alpha_0..alpha_N at one time instant.

    ``alphas[n]`` multiplies x**n in the exponent; the array always has
    length ``truncation_order + 1``.  A physically meaningful state has
    only finite entries; states produced by a diverging time step may
    transiently violate this, which is what ``propagate``'s blow-up
    detector in the integrators module is for.
    """

    alphas: np.ndarray
    time: float = 0.0
    truncation_order: int = field(default=-1)

    def __post_init__(self):
        self.alphas = np.array(self.alphas, dtype=np.complex128)
        if self.alphas.ndim != 1:
            raise ValueError("alphas must be a one-dimensional sequence")
        if self.truncation_order == -1:
            self.truncation_order = len(self.alphas) - 1
        if len(self.alphas) != self.truncation_order + 1:
            raise ValueError(
                f"alphas has length {len(self.alphas)}, expected "
                f"truncation_order + 1 = {self.truncation_order + 1}"
            )
        if self.truncation_order < 2:
            raise ValueError("truncation_order must be at least 2")


def velocity_kernel(truncation_order: int, params: PhysicalParams):
    """(forcing, velocity): the coefficient ODE's right-hand side for one
    truncation order N and one set of physical parameters.

    ``forcing(v_coeffs)`` turns the potential's Taylor coefficients
    V_0..V_M into the term (i/hbar) * V_n over n = 0..N; entries beyond
    the stored range count as zero; a 2-D table of such rows, one per
    time, gives one forcing row per time.  ``velocity(alphas, forced)``
    returns d(alpha_n)/dt for the coefficient array alpha_0..alpha_N as a
    new array.  The ladder and derivative weights are built once here, so
    a propagation loop computes the forcing once per distinct V row and
    pays only the arithmetic per stage.  The returned functions share
    scratch buffers: use one kernel per thread.
    """
    size = truncation_order + 1
    n = np.arange(size)
    ladder = ((n + 2) * (n + 1)).astype(np.complex128)
    slope = np.arange(1, size).astype(np.complex128)
    kinetic_scale = 0.5j * params.hbar / params.mass
    forcing_scale = 1j / params.hbar
    # alpha_{n+2}, zero above the truncation order; the top two slots stay zero
    shifted = np.zeros(size, dtype=np.complex128)
    no_quad = np.zeros(size, dtype=np.complex128)
    kinetic = np.empty(size, dtype=np.complex128)  # the ladder term, then kinetic + quad

    def forcing(v_coeffs) -> np.ndarray:
        v = np.asarray(v_coeffs, dtype=np.float64)
        if v.shape[-1] != size:
            pot = np.zeros(v.shape[:-1] + (size,))
            m = min(v.shape[-1], size)
            pot[..., :m] = v[..., :m]
            v = pot
        return forcing_scale * v

    def combine(quad, forced):
        # kinetic_scale * (kinetic + quad) - forced, allocating only the result
        np.add(kinetic, quad, out=kinetic)
        out = kinetic_scale * kinetic
        out -= forced
        return out

    def velocity(a: np.ndarray, forced: np.ndarray) -> np.ndarray:
        # ladder term (n+2)(n+1) * alpha_{n+2}
        shifted[: size - 2] = a[2:]
        np.multiply(ladder, shifted, out=kinetic)

        # Cauchy square of the derivative series c_j = (j+1) * alpha_{j+1};
        # trailing zeros are trimmed first so the summation order (and thus
        # the bit pattern) depends only on the numerical content, not on how
        # much zero padding the truncation order happens to carry
        c = slope * a[1:]
        if c[-1] == 0:
            nonzero = np.nonzero(c)[0]
            if not len(nonzero):
                return combine(no_quad, forced)
            c = c[: nonzero[-1] + 1]
        full = np.convolve(c, c)
        if len(full) >= size:
            quad = full[:size]
        else:
            quad = np.zeros(size, dtype=np.complex128)
            quad[: len(full)] = full
        return combine(quad, forced)

    return forcing, velocity


def coefficient_velocity(
    state: CoefficientState, v_coeffs, params: PhysicalParams
) -> np.ndarray:
    """Right-hand side of the coefficient ODE system at the state's instant.

    ``v_coeffs`` holds the potential's Taylor coefficients V_0..V_M
    evaluated at the current time; entries beyond the stored range count
    as zero, as do alpha coefficients above the truncation order.
    """
    forcing, velocity = velocity_kernel(state.truncation_order, params)
    return velocity(state.alphas, forcing(v_coeffs))
