"""Sampled wavefunctions from coefficient states, norms and observables.

The exponential prefactor is fixed to one: psi(x) = exp(S(x)) with the
real part of alpha_0 carrying the log-amplitude.  Physical normalization
happens at analysis time (expectation values divide by the norm), never
by rescaling coefficients.  Quadrature is composite trapezoid.  <p> takes
psi' = S' psi from the coefficients; no samples are differentiated.
"""

import math
from typing import NamedTuple

import numpy as np

from .records import Record
from .state import CoefficientState

__all__ = [
    "WaveGrid",
    "Observables",
    "ExponentOverflow",
    "ZeroNorm",
    "check_bounds",
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


def check_bounds(xmin: float, xmax: float, label: str = "") -> None:
    """Raise ValueError, its message starting with label, unless xmax > xmin,
    the span xmax - xmin is finite and so are xmin^2 and xmax^2 (<x^2> takes
    the squares of the positions): the rule of every window."""
    if not xmax > xmin:
        raise ValueError(f"{label}xmax must exceed xmin, got [{xmin}, {xmax}]")
    if not math.isfinite(xmax - xmin):
        raise ValueError(f"{label}bounds and their span must be finite, got [{xmin}, {xmax}]")
    if not math.isfinite(max(xmin * xmin, xmax * xmax)):
        raise ValueError(f"{label}bounds must have finite squares, got [{xmin}, {xmax}]")


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

    def matches(self, xmin: float, dx: float, points: int) -> bool:
        """Whether this grid is points samples from xmin in steps of dx, to
        1e-12 (absolute in xmin, relative in dx)."""
        same_xmin = math.isclose(self.xmin, xmin, rel_tol=0.0, abs_tol=1e-12)
        return self.npoints == points and same_xmin and math.isclose(self.dx, dx, rel_tol=1e-12)


def _horner(coeffs: np.ndarray, xs: np.ndarray) -> np.ndarray:
    s = np.full(xs.shape, coeffs[-1], dtype=np.complex128)
    for coeff in coeffs[-2::-1]:
        s = s * xs + coeff
    return s


def evaluate_at(state: CoefficientState, xs: np.ndarray) -> np.ndarray:
    """exp(S(x)) at arbitrary positions, S by Horner's rule."""
    xs = np.asarray(xs, dtype=np.float64)
    # a sum that overflows is rejected by the Re S guard below when its real
    # part is inf or NaN (np.max is then NaN, which fails every comparison),
    # else by the finite-sample check of the caller
    with np.errstate(over="ignore", invalid="ignore"):
        s = _horner(state.alphas, xs)
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
    window = Window.inclusive(xmin, xmax, points)
    return WaveGrid(xmin, window.dx, window.sample(state), state.time)


def _finite(name: str, *values) -> None:
    if not all(math.isfinite(v) for v in values):
        raise ExponentOverflow(
            f"{name} is not finite on this window: |psi|^2 or a moment of it "
            "passes the double range (Re S above about 354)"
        )


# np.trapezoid with dx for 1-D arrays, written out with the same operations
# in the same order, so the result is bitwise numpy's without the cost of
# its Python wrapper
def _trapezoid(y: np.ndarray, dx):
    return (dx * (y[1:] + y[:-1]) / 2.0).sum()


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


class Window:
    """Where a command samples its states and takes their moments, built once
    per window: the sample positions, and the moment positions xs = xmin + j*dx
    and their squares.  The plain constructor samples at xs, as the oracle's
    periodic grid does; `inclusive` is evaluate_on_grid's window.  magnitude and
    density hold |psi| and |psi|^2 of the last `moments` call (one per thread)."""

    __slots__ = ("samples", "dx", "xs", "xs_sq", "magnitude", "density")

    def __init__(self, xmin: float, dx: float, points: int, samples=None):
        self.dx = dx
        self.xs = xmin + dx * np.arange(points)
        self.samples = self.xs if samples is None else samples
        with np.errstate(over="ignore"):  # moments reports an <x^2> that is not finite
            self.xs_sq = self.xs**2

    @classmethod
    def inclusive(cls, xmin: float, xmax: float, points: int) -> "Window":
        """Samples at np.linspace(xmin, xmax, points), moments at xmin + j*dx
        with dx = (xmax - xmin) / (points - 1)."""
        check_bounds(xmin, xmax)
        if points < 8:
            raise ValueError(f"points must be at least 8, got {points}")
        samples = np.linspace(xmin, xmax, points)
        return cls(xmin, (xmax - xmin) / (points - 1), points, samples)

    def sample(self, state: CoefficientState) -> np.ndarray:
        """exp(S) at the sample positions, checked as WaveGrid checks them."""
        values = evaluate_at(state, self.samples)
        _check_samples(self.dx, values)
        return values

    def moments(self, values: np.ndarray) -> Observables:
        """norm^2 and normalized <x>, <x^2> of values on this window; raises
        ExponentOverflow when one is not finite, ZeroNorm when the norm vanishes."""
        dx = self.dx
        with np.errstate(over="ignore", invalid="ignore"):
            magnitude = self.magnitude = np.abs(values)
            density = self.density = magnitude**2
            n2 = float(_trapezoid(density, dx))
            _finite("norm^2", n2)
            if n2 <= 1e-300:
                raise ZeroNorm("norm^2 vanishes on this window")
            mean_x = float(_trapezoid(self.xs * density, dx)) / n2
            mean_x2 = float(_trapezoid(self.xs_sq * density, dx)) / n2
        _finite("an observable", mean_x, mean_x2)
        return Observables(n2, mean_x, mean_x2)

    def mean_p(self, state: CoefficientState, hbar: float, norm2: float) -> complex:
        """<p> = -i*hbar * integral of S'|psi|^2 / norm2 of the state whose
        values the last `moments` call took, norm2 being their norm^2.  Im <p>
        is the edge term -(hbar/2)(|psi(xmax)|^2 - |psi(xmin)|^2) / norm2, up
        to quadrature.  Raises ExponentOverflow when <p> is not finite."""
        a = state.alphas
        with np.errstate(over="ignore", invalid="ignore"):
            ds = _horner(np.arange(1, len(a)) * a[1:], self.samples)  # psi' = S' psi
            ds[self.density == 0.0] = 0.0  # S' may overflow where |psi|^2 underflows
            p_re = hbar * float(_trapezoid(ds.imag * self.density, self.dx)) / norm2
            # + 0.0 turns an edge term that cancels exactly into +0.0, not -0.0
            p_im = -hbar * float(_trapezoid(ds.real * self.density, self.dx)) / norm2 + 0.0
        _finite("an observable", p_re, p_im)
        return complex(p_re, p_im)


def observables(grid: WaveGrid) -> Observables:
    """Window.moments of the grid's values, on the grid's positions."""
    return Window(grid.xmin, grid.dx, grid.npoints).moments(grid.values)
