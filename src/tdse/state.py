"""Coefficient-flow state types and the right-hand side of the coefficient ODEs.

The wavefunction is represented as psi(x, t) = exp(S(x, t)) with

    S(x, t) = sum_{n=0}^{N} alphas[n](t) * x**n,

truncated at a fixed order N = len(alphas) - 1.  Substituting into
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

import numpy as np

from .records import Frozen, Record

__all__ = [
    "PhysicalParams",
    "CoefficientState",
    "velocity_kernel",
    "coefficient_velocity",
]


class PhysicalParams(Frozen):
    """hbar and particle mass, in any consistent unit system."""

    __slots__ = ("hbar", "mass")

    def __init__(self, hbar: float = 1.0, mass: float = 1.0):
        if not (math.isfinite(hbar) and hbar > 0):
            raise ValueError(f"hbar must be positive and finite, got {hbar!r}")
        if not (math.isfinite(mass) and mass > 0):
            raise ValueError(f"mass must be positive and finite, got {mass!r}")
        self._set(hbar, mass)


class CoefficientState(Record):
    """Complex coefficient vector alpha_0..alpha_N at one time instant.

    ``alphas[n]`` multiplies x**n in the exponent; the truncation order N
    is ``len(alphas) - 1``.  A physically meaningful state has only finite
    entries; states produced by a diverging time step may transiently
    violate this, which is what ``propagate``'s blow-up detector in the
    integrators module is for.
    """

    __slots__ = ("alphas", "time")

    def __init__(self, alphas, time: float = 0.0):
        alphas = np.array(alphas, dtype=np.complex128)
        if alphas.ndim != 1:
            raise ValueError("alphas must be a one-dimensional sequence")
        if len(alphas) < 3:
            raise ValueError("truncation_order must be at least 2")
        self.alphas, self.time = alphas, time

    @property
    def truncation_order(self) -> int:
        return len(self.alphas) - 1


def velocity_kernel(truncation_order: int, params: PhysicalParams):
    """(forcing, velocity): the coefficient ODE's right-hand side for one
    truncation order N and one set of physical parameters.

    ``forcing(v_coeffs)`` turns the potential's Taylor coefficients
    V_0..V_N into the term (i/hbar) * V_n; a 2-D table of such rows, one
    per time, gives one forcing row per time.  ``velocity(alphas, forced)``
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

    def forcing(v_coeffs: np.ndarray) -> np.ndarray:
        return forcing_scale * v_coeffs

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
    v = np.zeros(len(state.alphas))  # forcing takes full-width rows
    v[: min(len(v_coeffs), len(v))] = v_coeffs[: len(v)]
    forcing, velocity = velocity_kernel(state.truncation_order, params)
    return velocity(state.alphas, forcing(v))
