"""Sampled wavefunctions from coefficient states, norms and observables.

The exponential prefactor is fixed to one: psi(x) = exp(S(x)) with the
real part of alpha_0 carrying the log-amplitude.  Physical normalization
happens at analysis time (expectation values divide by the norm), never
by rescaling coefficients.  Quadrature is composite trapezoid.  <p> takes
psi' = S' psi from the coefficients; no samples are differentiated.

A Window reconstructs a block of one or more states by one code path, in
buffers it allocates once, and checks the block's rows one at a time.
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


class ExponentOverflow(ValueError):
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


def _check_samples(dx, finite: bool) -> None:
    if not (np.isfinite(dx) and dx > 0):
        raise ValueError(f"dx must be positive and finite, got {dx!r}")
    if not finite:
        raise ValueError("grid values must be finite")


class WaveGrid(Record):
    """Complex samples psi(xmin + j*dx), j = 0..M-1, at one time instant."""

    __slots__ = ("xmin", "dx", "values", "time")

    def __init__(self, xmin: float, dx: float, values, time: float = 0.0):
        values = np.asarray(values, dtype=np.complex128)
        if values.ndim != 1 or len(values) < 8:
            raise ValueError("values must be a 1-D sequence of at least 8 samples")
        _check_samples(dx, np.isfinite(values).all())
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


def _horner(coeffs: np.ndarray, xs: np.ndarray, out: np.ndarray) -> np.ndarray:
    """S(x) = sum of coeffs[..., n] x^n by Horner's rule, into out: one row of
    coefficients, or a row for each row of out."""
    coeffs = coeffs.reshape(-1, coeffs.shape[-1])
    rows = out.reshape(-1, out.shape[-1])
    rows[...] = coeffs[:, -1:]
    for n in range(coeffs.shape[-1] - 2, -1, -1):
        np.multiply(out, xs, out=out)
        # a row at a time: numpy would buffer a column added to every row
        for row, coeff in zip(rows, coeffs[:, n].tolist()):
            np.add(row, coeff, out=row)
    return out


def _check_peak(peak: float) -> None:
    """Raise ExponentOverflow unless the largest Re S is at most the ceiling."""
    if not peak <= _EXP_CUTOFF:
        reach = "is not finite" if math.isnan(peak) else f"reaches {peak:.1f} > {_EXP_CUTOFF:.0f}"
        raise ExponentOverflow(f"Re S {reach} on the requested window")


def evaluate_at(state: CoefficientState, xs: np.ndarray) -> np.ndarray:
    """exp(S(x)) at arbitrary positions, S by Horner's rule."""
    xs = np.asarray(xs, dtype=np.float64)
    # an overflowing sum fails the Re S check, else the caller's sample check
    with np.errstate(over="ignore", invalid="ignore"):
        s = _horner(state.alphas, xs, np.empty(xs.shape, np.complex128))
    _check_peak(float(np.max(s.real)))
    return np.exp(s)


def evaluate_on_grid(state: CoefficientState, xmin: float, xmax: float, points: int) -> WaveGrid:
    """Sample the wavefunction on Window.inclusive(xmin, xmax, points): the
    values at its linspace points, in a grid whose positions (WaveGrid.xs)
    are its moment positions xmin + j*dx.  The two can differ in the last
    bit at some points."""
    window = Window.inclusive(xmin, xmax, points)
    return WaveGrid(xmin, window.dx, evaluate_at(state, window.samples), state.time)


def _finite(name: str, *values) -> None:
    if not all(map(math.isfinite, values)):
        raise ExponentOverflow(
            f"{name} is not finite on this window: |psi|^2 or a moment of it "
            "passes the double range (Re S above about 354)"
        )


def _trapezoid(y: np.ndarray, dx, pairs=None):
    """np.trapezoid(y, dx=dx) along real y's last axis, written out in its
    operations and their order, so each result is bitwise numpy's without the
    cost of its Python wrapper.  It pairs neighbours over y flattened, into
    pairs (y's size, or a new array), so numpy iterates one dimension; a pair
    that joins two rows is never summed."""
    flat = y.reshape(-1)
    pairs = np.empty_like(flat) if pairs is None else pairs
    inner = pairs[:-1]
    np.add(flat[1:], flat[:-1], out=inner)
    np.multiply(dx, inner, out=inner)
    # * 0.5 gives the bits of / 2.0 for real values, at a third of its cost
    np.multiply(inner, 0.5, out=inner)
    return pairs.reshape(y.shape)[..., :-1].sum(axis=-1)


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
    per window: the sample positions, the moment positions xs = xmin + j*dx
    and their squares, and the buffers of a block of up to `block` rows.  The
    plain constructor samples at xs, as the oracle's periodic grid does;
    `inclusive` is evaluate_on_grid's window.  Until the next `observe`,
    values and magnitude hold exp(S) and |psi| of each row of the block
    (one thread per window)."""

    __slots__ = (
        "samples", "dx", "xs", "xs_sq", "values", "magnitude",
        "_zs", "_xs", "_xs_sq", "_s", "_mask", "_integrands", "_pairs", "_peaks", "_sums",
    )

    def __init__(self, xmin: float, dx: float, points: int, samples=None, block: int = 1):
        self.dx = dx
        self.xs = xmin + dx * np.arange(points)
        self.samples = self.xs if samples is None else samples
        with np.errstate(over="ignore"):  # row reports an <x^2> that is not finite
            self.xs_sq = self.xs**2
        # the positions in every row of a block, so that numpy iterates each
        # operation on a block as one dimension, without a buffer of its own
        positions = (self.samples.astype(np.complex128), self.xs, self.xs_sq)
        self._zs, self._xs, self._xs_sq = (np.tile(a, (block, 1)) for a in positions)
        shape = (block, points)
        self.values, self._s = np.empty(shape, np.complex128), np.empty(shape, np.complex128)
        self.magnitude, self._mask = np.empty(shape), np.empty(shape, bool)
        # |psi|^2, x|psi|^2, x^2|psi|^2, Im S'|psi|^2, Re S'|psi|^2; their pairs
        self._integrands, self._pairs = np.empty((5, *shape)), np.empty(5 * block * points)
        self._peaks = self._sums = None

    @classmethod
    def inclusive(cls, xmin: float, xmax: float, points: int, block: int = 1) -> "Window":
        """Samples at np.linspace(xmin, xmax, points), moments at xmin + j*dx
        with dx = (xmax - xmin) / (points - 1)."""
        check_bounds(xmin, xmax)
        if points < 8:
            raise ValueError(f"points must be at least 8, got {points}")
        samples = np.linspace(xmin, xmax, points)
        return cls(xmin, (xmax - xmin) / (points - 1), points, samples, block)

    def observe(self, states=None, values=None, count: int = 2) -> np.ndarray:
        """The block's values: exp(S) of each of states at the sample
        positions, or else the rows of values (a grid's).  Then, in one
        trapezoid pass, the integrals of the first count of the integrands
        (the last two need states).  Nothing is checked here: see row."""
        # a row's overflow or NaN is for its own check to report
        with np.errstate(over="ignore", invalid="ignore"):
            if values is None:
                alphas = np.array([state.alphas for state in states])
                n = len(alphas)
                s = _horner(alphas, self._zs[:n], self._s[:n])
                self._peaks = s.real.max(axis=-1).tolist()
                values = np.exp(s, out=self.values[:n])
            else:
                values, self._peaks = values.reshape(-1, self.xs.size), None
                n = len(values)
            y = self._integrands[:count]
            density = np.square(np.abs(values, out=self.magnitude[:n]), out=y[0, :n])
            np.multiply(self._xs[:n], density, out=y[1, :n])
            if count > 2:
                np.multiply(self._xs_sq[:n], density, out=y[2, :n])
            if count > 3:  # psi' = S' psi
                ds = _horner(np.arange(1, alphas.shape[1]) * alphas[:, 1:], self._zs[:n], s)
                # S' may overflow where |psi|^2 underflows
                np.copyto(ds, 0.0, where=np.equal(density, 0.0, out=self._mask[:n]))
                np.multiply(ds.imag, density, out=y[3, :n])
                np.multiply(ds.real, density, out=y[4, :n])
            # over every row, so that y is one piece of memory; rows past n are dropped
            self._sums = _trapezoid(y, self.dx, self._pairs[: y.size])[:, :n].T.tolist()
        return values

    def row(self, b: int, hbar: float = 1.0) -> tuple:
        """(norm^2, normalized <x>, and as observe counted, <x^2>, Re <p>,
        Im <p>) of row b, checked as one state is: Re S and the samples, then
        the norm and the observables.  Raises ExponentOverflow when one is not
        finite, ZeroNorm when the norm vanishes.  <p> = -i*hbar * integral of
        S'|psi|^2 / norm^2; Im <p> is the edge term -(hbar/2)(|psi(xmax)|^2 -
        |psi(xmin)|^2) / norm^2, up to quadrature."""
        n2, *integrals = self._sums[b]
        if self._peaks is not None:
            _check_peak(self._peaks[b])
            # a sample that is not finite makes norm^2 inf or NaN
            _check_samples(self.dx, math.isfinite(n2) or np.isfinite(self.values[b]).all())
        _finite("norm^2", n2)
        if n2 <= 1e-300:
            raise ZeroNorm("norm^2 vanishes on this window")
        means = [integral / n2 for integral in integrals[:2]]
        if len(integrals) > 2:
            im_ds, re_ds = integrals[2:]
            # + 0.0 turns an edge term that cancels exactly into +0.0, not -0.0
            means += (hbar * im_ds / n2, -hbar * re_ds / n2 + 0.0)
        _finite("an observable", *means)
        return (n2, *means)


def observables(grid: WaveGrid) -> Observables:
    """The moments of the grid's values, on the grid's positions."""
    window = Window(grid.xmin, grid.dx, grid.npoints)
    window.observe(values=grid.values, count=3)
    return Observables(*window.row(0))
