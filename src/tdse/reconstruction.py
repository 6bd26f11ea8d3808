"""Sampled wavefunctions from coefficient states, norms and observables.

The exponential prefactor is fixed to one: psi(x) = exp(S(x)) with the
real part of alpha_0 carrying the log-amplitude.  Physical normalization
happens at analysis time (expectation values divide by the norm), never
by rescaling coefficients.  Quadrature is composite trapezoid.
"""

import math
from typing import NamedTuple

import numpy as np

from .records import Record
from .state import CoefficientState, PhysicalParams

__all__ = [
    "WaveGrid",
    "Observables",
    "ExponentOverflow",
    "ZeroNorm",
    "evaluate_at",
    "evaluate_on_grid",
    "Window",
    "norm_squared",
    "observables",
]

# just under the double-precision exp ceiling (exp(710) overflows)
_EXP_CUTOFF = 700.0


class ExponentOverflow(OverflowError):
    """Re S(x) exceeded the exp ceiling or is not finite, or |psi|^2 or a
    moment built from it overflowed: non-normalizable state or a window
    wider than the representation's validity region."""


class ZeroNorm(ValueError):
    """Norm too small to divide by."""


def _check_samples(dx, values: np.ndarray) -> None:
    if not (np.isfinite(dx) and dx > 0):
        raise ValueError(f"dx must be positive and finite, got {dx!r}")
    if not np.isfinite(values).all():
        raise ValueError("grid values must be finite")


class WaveGrid(Record):
    """Complex samples psi(xmin + j*dx), j = 0..M-1, at one time instant."""

    __slots__ = ("xmin", "dx", "values", "time")

    def __init__(self, xmin: float, dx: float, values, time: float = 0.0):
        values = np.asarray(values, dtype=np.complex128)
        if values.ndim != 1 or len(values) < 8:
            raise ValueError("values must be a 1-D sequence of at least 8 samples")
        _check_samples(dx, values)
        self.xmin, self.dx, self.values, self.time = xmin, dx, values, time

    @property
    def npoints(self) -> int:
        return len(self.values)

    @property
    def xs(self) -> np.ndarray:
        """Positions xmin + j*dx.  For a grid from evaluate_on_grid these are
        where moments are taken and what `run` prints, not the linspace
        points the values were sampled at; the two can differ in the last
        bit."""
        return self.xmin + self.dx * np.arange(self.npoints)


def evaluate_at(state: CoefficientState, xs: np.ndarray) -> np.ndarray:
    """exp(S(x)) at arbitrary positions, S by Horner's rule."""
    xs = np.asarray(xs, dtype=np.float64)
    a = state.alphas
    s = np.full(xs.shape, a[-1], dtype=np.complex128)
    # a sum that overflows is rejected by the Re S guard below when its real
    # part is inf or NaN (np.max is then NaN, which fails every comparison),
    # else by the finite-sample check of the caller
    with np.errstate(over="ignore", invalid="ignore"):
        for coeff in a[-2::-1]:
            s = s * xs + coeff
    peak = float(np.max(s.real))
    if not peak <= _EXP_CUTOFF:
        reach = "is not finite" if math.isnan(peak) else f"reaches {peak:.1f} > {_EXP_CUTOFF:.0f}"
        raise ExponentOverflow(f"Re S {reach} on the requested window")
    return np.exp(s)


def evaluate_on_grid(
    state: CoefficientState, xmin: float, xmax: float, points: int
) -> WaveGrid:
    """Sample the wavefunction on Window.inclusive(xmin, xmax, points): the
    values at its linspace points, in a grid whose positions (WaveGrid.xs)
    are its moment positions xmin + j*dx.  The two can differ in the last
    bit at some points."""
    window = Window.inclusive(xmin, xmax, points, PhysicalParams())  # hbar enters only moments
    return WaveGrid(xmin, window.dx, window.sample(state), state.time)


def _finite(name: str, *values) -> None:
    if not all(math.isfinite(v) for v in values):
        raise ExponentOverflow(
            f"{name} is not finite on this window: |psi|^2 or a moment of it "
            "passes the double range (Re S above about 354)"
        )


# np.trapezoid(y, dx=dx) and np.gradient(f, dx) (edge_order=1) for 1-D
# arrays, written out with the same operations in the same order, so the
# results are bitwise numpy's without the cost of their Python wrappers


def _trapezoid(y: np.ndarray, dx):
    return (dx * (y[1:] + y[:-1]) / 2.0).sum()


def _gradient(f: np.ndarray, dx, out: np.ndarray) -> np.ndarray:
    out[1:-1] = (f[2:] - f[:-2]) / (2.0 * dx)
    out[0] = (f[1] - f[0]) / dx
    out[-1] = (f[-1] - f[-2]) / dx
    return out


def norm_squared(grid: WaveGrid) -> float:
    """Trapezoid integral of |psi|^2 over the grid window; raises
    ExponentOverflow when it is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        n2 = float(_trapezoid(np.abs(grid.values) ** 2, grid.dx))
    _finite("norm^2", n2)
    return n2


class Observables(NamedTuple):
    norm2: float
    mean_x: float
    mean_x2: float
    mean_p_re: float
    mean_p_im: float  # diagnostic; near zero for well-resolved states


class Window:
    """Where a command samples its states and takes their moments, built
    once per window: the sample positions, the moment positions
    xs = xmin + j*dx and their squares, hbar and one scratch buffer (use one
    window per thread).  The plain constructor samples at xs, as the
    oracle's periodic grid does; `inclusive` is evaluate_on_grid's window."""

    __slots__ = ("samples", "dx", "xs", "xs_sq", "hbar", "_dpsi")

    def __init__(self, xmin: float, dx: float, points: int, params: PhysicalParams, samples=None):
        self.dx = dx
        self.xs = xmin + dx * np.arange(points)
        self.samples = self.xs if samples is None else samples
        self.xs_sq = self.xs**2
        self.hbar = params.hbar
        self._dpsi = np.empty(points, dtype=np.complex128)

    @classmethod
    def inclusive(cls, xmin: float, xmax: float, points: int, params: PhysicalParams) -> "Window":
        """Samples at np.linspace(xmin, xmax, points), moments at xmin + j*dx
        with dx = (xmax - xmin) / (points - 1)."""
        if not xmax > xmin:
            raise ValueError(f"xmax must exceed xmin, got [{xmin}, {xmax}]")
        if points < 8:
            raise ValueError(f"points must be at least 8, got {points}")
        if not math.isfinite(xmax - xmin):
            raise ValueError(f"bounds and their span must be finite, got [{xmin}, {xmax}]")
        samples = np.linspace(xmin, xmax, points)
        return cls(xmin, (xmax - xmin) / (points - 1), points, params, samples)

    def sample(self, state: CoefficientState) -> np.ndarray:
        """exp(S) at the sample positions, checked as WaveGrid checks them."""
        values = evaluate_at(state, self.samples)
        _check_samples(self.dx, values)
        return values

    def moments(self, values: np.ndarray) -> Observables:
        """norm^2 and normalized <x>, <x^2>, <p> of values on this window.

        <p> uses -i*hbar*d/dx with central differences in the interior and
        one-sided differences at the ends; its residual imaginary part is
        reported as a discretization diagnostic.  Raises ExponentOverflow
        when any of them is not finite, ZeroNorm when the norm vanishes.
        """
        dx = self.dx
        with np.errstate(over="ignore", invalid="ignore"):
            density = np.abs(values) ** 2
            n2 = float(_trapezoid(density, dx))
            _finite("norm^2", n2)
            if n2 <= 1e-300:
                raise ZeroNorm("norm^2 vanishes on this window")
            mean_x = float(_trapezoid(self.xs * density, dx)) / n2
            mean_x2 = float(_trapezoid(self.xs_sq * density, dx)) / n2
            p_int = np.conj(values) * (-1j * self.hbar) * _gradient(values, dx, self._dpsi)
            mean_p = complex(_trapezoid(p_int, dx)) / n2
        _finite("an observable", mean_x, mean_x2, mean_p.real, mean_p.imag)
        return Observables(n2, mean_x, mean_x2, mean_p.real, mean_p.imag)


def observables(grid: WaveGrid, params: PhysicalParams) -> Observables:
    """Window.moments of the grid's values, on the grid's positions."""
    return Window(grid.xmin, grid.dx, grid.npoints, params).moments(grid.values)
