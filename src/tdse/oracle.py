"""Independent grid propagator used to validate the coefficient flow.

Strang splitting on a periodic uniform grid: half-step potential phase,
full spectral kinetic step, half-step potential phase, with both
potential phases sampled at the interval midpoint time.  The scheme is
unitary up to rounding and second-order in dt, and shares no machinery
with the series method (grid versus coefficient discretization), which
is what makes it a usable cross-check.

Periodic boundaries mean a packet reaching the window edge wraps around;
the EdgeLeakage guard turns that failure mode into an error instead of a
silent corruption.  The same guard catches a truncated series that breaks
down: its reconstruction grows without bound towards the window edges.
"""

import math
from typing import NamedTuple

import numpy as np

from .initialization import is_closed_system
from .integrators import BLOCK_VALUES, StepperConfig, propagate
from .potential import PotentialModel, eval_taylor_coefficients, taylor_rows
from .records import Frozen
# observables is not called here, but perfbench/tracing.py wraps it under
# tdse.oracle's name
from .reconstruction import (  # noqa: F401
    ExponentOverflow,
    WaveGrid,
    Window,
    ZeroNorm,
    evaluate_at,
    norm_squared,
    observables,
)
from .state import CoefficientState, PhysicalParams

__all__ = [
    "OracleConfig",
    "EdgeLeakage",
    "GridMismatch",
    "ComparisonReport",
    "state_on_oracle_grid",
    "split_step_evolve",
    "l2_distance",
    "check_alignment",
    "compare_snapshots",
    "compare_methods",
    "oracle_error_estimate",
    "series_edge_guard",
]

_EDGE_FRACTION = 1e-6

# A run at S steps with no configured step count is trusted when its
# estimated error is at most ADAPTIVE_TOLERANCE of the error it measures;
# S is a power of two from ADAPTIVE_MIN_STEPS up to ADAPTIVE_MAX_STEPS.
ADAPTIVE_MIN_STEPS = 256
ADAPTIVE_MAX_STEPS = 8192
ADAPTIVE_TOLERANCE = 0.01


class EdgeLeakage(RuntimeError):
    """Wavefunction magnitude at the window edge exceeded 1e-6 of the peak;
    periodic wrap-around would corrupt the run."""


class GridMismatch(ValueError):
    """Grids disagree in window, spacing or size."""


class OracleConfig(Frozen):
    __slots__ = ("xmin", "xmax", "points", "dt", "steps")

    def __init__(self, xmin: float, xmax: float, points: int, dt: float, steps: int):
        if not xmax > xmin:
            raise ValueError(f"xmax must exceed xmin, got [{xmin}, {xmax}]")
        if points < 256 or points & (points - 1):
            raise ValueError(f"points must be a power of two >= 256, got {points}")
        if not (np.isfinite(dt) and dt > 0):
            raise ValueError(f"dt must be positive and finite, got {dt!r}")
        if steps < 0:
            raise ValueError(f"steps must be nonnegative, got {steps}")
        if not math.isfinite(xmax - xmin):
            raise ValueError(f"bounds and their span must be finite, got [{xmin}, {xmax}]")
        self._set(xmin, xmax, points, dt, steps)

    @property
    def dx(self) -> float:
        return (self.xmax - self.xmin) / self.points


def state_on_oracle_grid(state: CoefficientState, cfg: OracleConfig) -> WaveGrid:
    """Reconstruct a coefficient state on the oracle's periodic grid, at
    xmin + j*dx for j = 0..points-1 (xmax excluded)."""
    xs = cfg.xmin + cfg.dx * np.arange(cfg.points)
    return WaveGrid(cfg.xmin, cfg.dx, evaluate_at(state, xs), state.time)


def _check_edges(values: np.ndarray, time: float, label: str = ""):
    peak = float(np.max(np.abs(values)))
    edge = float(max(abs(values[0]), abs(values[-1])))
    if peak == 0.0 or edge > _EDGE_FRACTION * peak:
        raise EdgeLeakage(
            f"{label}edge magnitude {edge:.3e} exceeds {_EDGE_FRACTION:.0e} of peak "
            f"{peak:.3e} at t = {time:.6g}"
        )


def series_edge_guard(initial: CoefficientState, potential: PotentialModel):
    """guard(values, time), which raises EdgeLeakage when a series
    reconstruction is not negligible at its window's edges.  A closed
    system's series is exact and cannot diverge, so its guard checks
    nothing: an exact packet near the edges is not a series failure."""
    support = np.flatnonzero(initial.alphas)
    if is_closed_system(int(support[-1]) if support.size else 0, potential.degree):
        return lambda values, time: None
    return lambda values, time: _check_edges(values, time, "series ")


def _half_phases(potential, params, cfg, t0, steps):
    """Yield the half-step phase exp(-i V dt / 2 hbar) on the grid for steps
    1..steps in turn, V taken at the step's midpoint time t0 + (p - 0.5)*dt.

    A static potential gives one phase.  A time-dependent one is tabulated
    for a block of at most BLOCK_VALUES grid values at a time: one
    taylor_rows call, one Horner pass broadcast over the block with the
    operations of np.polynomial.polynomial.polyval (c[-1] + x*0, then
    c[-i] + c0*x), and one np.exp.  A block never reaches past the last
    step, and it ends before a midpoint whose evaluation fails, so the
    block that starts at that step raises its error after the steps before
    it have run and been checked.
    """
    degree = potential.degree
    xs = cfg.xmin + cfg.dx * np.arange(cfg.points)
    zero = xs * 0

    def phases(rows):
        # in place, so a block allocates one real and one complex array
        v = rows[:, -1:] + zero
        for i in range(2, degree + 2):
            np.multiply(v, xs, out=v)
            np.add(rows[:, -i, None], v, out=v)
        phase = -0.5j * v
        phase *= cfg.dt
        phase /= params.hbar
        return np.exp(phase, out=phase)

    if potential.is_static:
        if steps:  # with no step to take, nothing is evaluated
            row = eval_taylor_coefficients(potential, t0 + 0.5 * cfg.dt, degree)
            phase = phases(row[None])[0]
            for _ in range(steps):
                yield phase
        return
    block = max(1, BLOCK_VALUES // cfg.points)
    done = 0
    while done < steps:
        mids = [t0 + (p - 0.5) * cfg.dt for p in range(done + 1, min(done + block, steps) + 1)]
        rows = taylor_rows(potential, mids, degree, group=1)
        yield from phases(rows)
        done += len(rows)


def split_step_evolve(
    initial: WaveGrid,
    potential: PotentialModel,
    params: PhysicalParams,
    cfg: OracleConfig,
    capture: set,
):
    """Propagate the grid wavefunction up to the last step index in capture
    (at most cfg.steps), yielding (index, grid) at each captured step as it
    is reached, in ascending index order; dict(...) collects them.

    Each step runs in two preallocated buffers.  Raises EdgeLeakage, in
    place of the next pair, when the wavefunction stops being negligible at
    the window edges at a captured step.
    """
    if initial.npoints != cfg.points or not (
        math.isclose(initial.xmin, cfg.xmin, rel_tol=0.0, abs_tol=1e-12)
        and math.isclose(initial.dx, cfg.dx, rel_tol=1e-12)
    ):
        raise GridMismatch("initial grid does not match the oracle configuration")

    k = 2.0 * np.pi * np.fft.fftfreq(cfg.points, d=cfg.dx)
    kinetic_phase = np.exp(-0.5j * params.hbar * k**2 * cfg.dt / params.mass)

    psi = np.array(initial.values, dtype=np.complex128)
    spectrum = np.empty_like(psi)
    t0 = initial.time
    if 0 in capture:
        _check_edges(psi, t0)
        yield 0, WaveGrid(cfg.xmin, cfg.dx, psi.copy(), t0)
    last = min(cfg.steps, max(capture, default=0))
    half_phases = _half_phases(potential, params, cfg, t0, last)
    for p, half_phase in enumerate(half_phases, start=1):
        np.multiply(half_phase, psi, out=psi)
        np.fft.fft(psi, out=spectrum)
        np.multiply(kinetic_phase, spectrum, out=spectrum)
        np.fft.ifft(spectrum, out=psi)
        np.multiply(half_phase, psi, out=psi)
        if p in capture:
            t = t0 + p * cfg.dt
            _check_edges(psi, t)
            yield p, WaveGrid(cfg.xmin, cfg.dx, psi.copy(), t)


def l2_distance(a: WaveGrid, b: WaveGrid) -> float:
    """Phase-aligned L2 distance between two normalized grids.

    Both inputs are normalized to unit norm, then b is rotated by the
    global phase maximizing Re<a, b> before the trapezoid integral of
    |a - b|^2 is taken; a global phase difference therefore counts as
    zero distance.
    """
    if (
        a.npoints != b.npoints
        or not math.isclose(a.xmin, b.xmin, rel_tol=0.0, abs_tol=1e-12)
        or not math.isclose(a.dx, b.dx, rel_tol=1e-12)
    ):
        raise GridMismatch("grids disagree in window, spacing or size")
    return _l2(a.values, norm_squared(a), b.values, norm_squared(b), a.dx)


def _l2(a, na, b, nb, dx) -> float:
    """l2_distance of the values a and b, of norms^2 na and nb."""
    if na <= 0.0 or nb <= 0.0:
        raise GridMismatch("cannot normalize a zero grid")
    va = a / np.sqrt(na)
    vb = b / np.sqrt(nb)
    inner = complex(np.trapezoid(np.conj(va) * vb, dx=dx))
    if abs(inner) > 0.0:
        vb = vb * (np.conj(inner) / abs(inner))
    return float(np.sqrt(np.trapezoid(np.abs(va - vb) ** 2, dx=dx)))


class ComparisonReport(NamedTuple):
    """Per-snapshot agreement between the series method and the oracle.

    d_mean_x is the <x> difference (series minus oracle); d_norm compares
    relative norm drift, i.e. norm2(t)/norm2(0) of the series
    reconstruction minus the same ratio for the (unitary) oracle.
    reconstruction_error is the exception that ended the rows (see
    compare_snapshots), or None when every snapshot was compared.
    """

    times: np.ndarray
    l2: np.ndarray
    d_mean_x: np.ndarray
    d_norm: np.ndarray
    stepper_status: str
    reconstruction_error: Exception | None = None


def _oracle_index(time: float, t0: float, oracle_dt: float):
    """The oracle step index that lands on time, or None off the step grid."""
    j = (time - t0) / oracle_dt
    if abs(j - round(j)) > 1e-6 * max(1.0, abs(j)):
        return None
    return int(round(j))


def check_alignment(t0: float, stepper_cfg: StepperConfig, oracle_cfg: OracleConfig):
    """Raise ValueError, before any stepping, unless the stepper and the
    oracle share a horizon and every snapshot the stepper records from time
    t0 lands on the oracle's step grid."""
    horizon_s = stepper_cfg.dt * stepper_cfg.steps
    horizon_o = oracle_cfg.dt * oracle_cfg.steps
    if abs(horizon_s - horizon_o) > 1e-12 * max(1.0, abs(horizon_s)):
        raise ValueError(f"time horizons differ: stepper {horizon_s!r} vs oracle {horizon_o!r}")
    recorded = {*range(0, stepper_cfg.steps + 1, stepper_cfg.snapshot_stride), stepper_cfg.steps}
    for p in sorted(recorded):
        # the same arithmetic as propagate's clock and the index lookup below
        time = t0 + p * stepper_cfg.dt
        if _oracle_index(time, t0, oracle_cfg.dt) is None:
            raise ValueError(f"snapshot time {time!r} does not land on the oracle step grid")


def compare_snapshots(pairs, potential: PotentialModel, window: Window, status="completed"):
    """The ComparisonReport, with stepper_status status, of each (series
    state, oracle grid) of pairs in turn, both sampled on window.

    The first pair is the start: its grid is its state on the window, so
    that state is not reconstructed again, and norms are relative to it.
    Pairs that share an oracle grid come one after another; its moments,
    which give the norms, are taken once.  A state that cannot be
    reconstructed (ExponentOverflow or ZeroNorm) or fails
    series_edge_guard, or an EdgeLeakage raised while pairs is iterated,
    ends the rows: the report keeps the rows before it and carries the
    exception as reconstruction_error.
    """
    rows = []
    guard = grid_seen = reconstruction_error = None
    try:
        for state, grid in pairs:
            if guard is None:  # the start
                guard = series_edge_guard(state, potential)
                values = grid.values
                obs_s = obs_o = window.moments(values)
                norm0 = obs_s.norm2
            else:
                values = window.sample(state)
                obs_s = window.moments(values)
                if grid is not grid_seen:
                    obs_o = window.moments(grid.values)
            grid_seen = grid
            l2 = _l2(grid.values, obs_o.norm2, values, obs_s.norm2, window.dx)
            guard(values, state.time)
            rows.append((state.time, l2, obs_s.mean_x - obs_o.mean_x,
                         obs_s.norm2 / norm0 - obs_o.norm2 / norm0))
    except (ExponentOverflow, ZeroNorm, EdgeLeakage) as exc:
        reconstruction_error = exc
    columns = np.array(rows, dtype=np.float64).reshape(-1, 4).T
    return ComparisonReport(*columns, status, reconstruction_error)


def compare_methods(
    initial: CoefficientState,
    potential: PotentialModel,
    params: PhysicalParams,
    stepper_cfg: StepperConfig,
    oracle_cfg: OracleConfig,
) -> ComparisonReport:
    """Propagate both methods over the same horizon and compare snapshots:
    check_alignment, propagate, then compare_snapshots of each snapshot
    that lands on the oracle's step grid with the oracle's grid at that
    step, the oracle run step by step as the comparison reaches it.

    When the series blows up, the last healthy state that propagate appends
    is compared only if it lands on the grid as well.
    """
    check_alignment(initial.time, stepper_cfg, oracle_cfg)
    trajectory = propagate(initial, potential, params, stepper_cfg)
    on_grid = [
        (j, snap)
        for snap in trajectory.snapshots
        if (j := _oracle_index(snap.time, initial.time, oracle_cfg.dt)) is not None
    ]
    start = state_on_oracle_grid(initial, oracle_cfg)
    grids = split_step_evolve(start, potential, params, oracle_cfg, {j for j, _ in on_grid})

    def pairs():
        p = grid = None
        for j, snap in on_grid:
            while p != j:  # snapshots can share a step
                p, grid = next(grids)
            yield snap, grid

    window = Window(oracle_cfg.xmin, oracle_cfg.dx, oracle_cfg.points, params)
    return compare_snapshots(pairs(), potential, window, trajectory.status)


def oracle_error_estimate(fine: WaveGrid, coarse: WaveGrid) -> float:
    """Estimated l2 error of fine, the final grid of an S-step oracle run,
    from coarse, the final grid of the S/2-step run over the same horizon:
    l2(fine, coarse) / 3, from the error ratio 4 of a second-order scheme
    under step halving."""
    return l2_distance(fine, coarse) / 3.0
