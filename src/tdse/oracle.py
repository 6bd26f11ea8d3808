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

from typing import NamedTuple

import numpy as np

from .initialization import is_closed_system
from .integrators import StepperConfig, propagate
from .potential import EvaluationError, PotentialModel, eval_taylor_coefficients, step_blocks
from .records import Frozen
# observables is not called here, but perfbench/tracing.py wraps it under
# tdse.oracle's name
from .reconstruction import (  # noqa: F401
    ExponentOverflow,
    WaveGrid,
    Window,
    ZeroNorm,
    _trapezoid,
    check_bounds,
    evaluate_at,
    norm_squared,
    observables,
)
from .state import CoefficientState, PhysicalParams

__all__ = [
    "OracleConfig",
    "EdgeLeakage",
    "ComparisonReport",
    "state_on_oracle_grid",
    "split_step_evolve",
    "l2_distance",
    "check_alignment",
    "compare_with_oracle",
    "compare_methods",
    "oracle_error_estimate",
    "series_edge_guard",
    "SNAPSHOT_FAILURES",
]

_EDGE_FRACTION = 1e-6
_WINDOW_FRACTION = 1e-5  # see series_edge_guard

# A run at S steps with no configured step count is trusted when its
# estimated error is at most ADAPTIVE_TOLERANCE of the error it measures;
# S is a power of two from ADAPTIVE_MIN_STEPS up to ADAPTIVE_MAX_STEPS.  The
# estimate at 128 steps, with its 64-step partner, is already within a few
# percent of the error it estimates; an input that needs more pays one rung.
ADAPTIVE_MIN_STEPS = 128
ADAPTIVE_MAX_STEPS = 8192
ADAPTIVE_TOLERANCE = 0.01


class EdgeLeakage(ValueError):
    """Wavefunction magnitude at the window edge exceeded 1e-6 of the peak;
    periodic wrap-around would corrupt the run."""


# what ends the rows of a comparison or a run, keeping the rows before it: a
# state that cannot be reconstructed, a grid not negligible at its edges, or
# a potential the oracle cannot evaluate at a step's midpoint
SNAPSHOT_FAILURES = (ExponentOverflow, ZeroNorm, EdgeLeakage, EvaluationError)


class OracleConfig(Frozen):
    __slots__ = ("xmin", "xmax", "points", "dt", "steps")

    def __init__(self, xmin: float, xmax: float, points: int, dt: float, steps: int):
        check_bounds(xmin, xmax)
        if points < 256 or points & (points - 1):
            raise ValueError(f"points must be a power of two >= 256, got {points}")
        if not (np.isfinite(dt) and dt > 0):
            raise ValueError(f"dt must be positive and finite, got {dt!r}")
        if steps < 0:
            raise ValueError(f"steps must be nonnegative, got {steps}")
        self._set(xmin, xmax, points, dt, steps)

    @property
    def dx(self) -> float:
        return (self.xmax - self.xmin) / self.points


def state_on_oracle_grid(state: CoefficientState, cfg: OracleConfig) -> WaveGrid:
    """Reconstruct a coefficient state on the oracle's periodic grid, at
    xmin + j*dx for j = 0..points-1 (xmax excluded)."""
    xs = cfg.xmin + cfg.dx * np.arange(cfg.points)
    return WaveGrid(cfg.xmin, cfg.dx, evaluate_at(state, xs), state.time)


def _edge_test(magnitude: np.ndarray, time: float, label: str = "", fraction=_EDGE_FRACTION):
    """Raise EdgeLeakage when |psi| at either edge of its window exceeds
    fraction of its peak, magnitude being |psi| on the window."""
    peak = float(magnitude.max())
    edge = float(max(magnitude[0], magnitude[-1]))
    if peak == 0.0 or edge > fraction * peak:
        raise EdgeLeakage(
            f"{label}edge magnitude {edge:.3e} exceeds {fraction:.0e} of peak "
            f"{peak:.3e} at t = {time:.6g}"
        )


def series_edge_guard(initial: CoefficientState, potential: PotentialModel, window=None):
    """guard(magnitude, time), which raises EdgeLeakage when a series
    reconstruction, of |psi| magnitude on its window, is not negligible at
    the window's edges.  A closed system's series is exact and cannot
    diverge, so its guard checks nothing: an exact packet near the edges is
    not a series failure.

    Given run's window, a closed system's guard tests that window instead:
    |psi| at an edge may reach f = _WINDOW_FRACTION = 1e-5 of its peak.  The
    tail past the edge then moves <x> of a packet of width s by about
    f^2 s / sqrt(2 pi) = 4e-11 s; the oracle's 1e-6 would stop packets
    their window holds to 4e-13 s.
    """
    support = np.flatnonzero(initial.alphas)
    if not is_closed_system(int(support[-1]) if support.size else 0, potential.degree):
        return lambda magnitude, time: _edge_test(magnitude, time, "series ")
    if window is None:
        return lambda magnitude, time: None
    return lambda magnitude, time: _edge_test(magnitude, time, "window ", _WINDOW_FRACTION)


def _half_phases(potential, params, cfg, t0, steps, width):
    """Yield the half-step phase exp(-i V dt / 2 hbar) on the grid for steps
    1..steps in turn, V taken at the step's midpoint time t0 + (p - 0.5)*dt.
    The first step whose V dt / 2 hbar is not finite somewhere on the grid
    raises EvaluationError "overflow at t = <its midpoint>", in place of its
    phase.

    A static potential gives one phase.  A time-dependent one is tabulated
    by step_blocks, width values per step (the values of every row a march
    steps), with one Horner pass broadcast over each block with the
    operations of np.polynomial.polynomial.polyval (c[-1] + x*0, then
    c[-i] + c0*x) and one np.exp.
    """
    degree = potential.degree
    xs = cfg.xmin + cfg.dx * np.arange(cfg.points)
    zero = xs * 0
    scale = 1.0 / params.hbar

    def midpoint(p):
        return (t0 + (p - 0.5) * cfg.dt,)

    def phases(rows, first):
        """Yield the phases of the rows of steps first, first + 1, ..."""
        # in place, so a block allocates one real and one complex array; an
        # overflow is found below, not warned of
        with np.errstate(over="ignore", invalid="ignore"):
            v = rows[:, -1:] + zero
            for i in range(2, degree + 2):
                np.multiply(v, xs, out=v)
                np.add(rows[:, -i, None], v, out=v)
            # -0.5j*v, times dt, over hbar in numpy's complex arithmetic
            # leaves a real part of +0 and these bits in the imaginary part,
            # its divide multiplying by 1/hbar
            v *= -0.5
            v *= cfg.dt
            v += 0.0
            v *= scale
        finite = np.isfinite(v).all(axis=1)
        healthy = len(v) if finite.all() else int(np.argmin(finite))
        phase = np.zeros((healthy, v.shape[1]), dtype=np.complex128)
        phase.imag = v[:healthy]
        yield from np.exp(phase, out=phase)
        if healthy < len(v):
            raise EvaluationError(f"overflow at t = {midpoint(first + healthy)[0]}")

    if potential.is_static:
        if steps:  # with no step to take, nothing is evaluated
            row = eval_taylor_coefficients(potential, t0 + 0.5 * cfg.dt, degree)
            phase = next(phases(row[None], 1))
            for _ in range(steps):
                yield phase
        return

    first = 1
    for rows in step_blocks(potential, midpoint, steps, width, degree):
        yield from phases(rows, first)
        first += len(rows)


def split_step_evolve(
    initial: WaveGrid,
    potential: PotentialModel,
    params: PhysicalParams,
    cfg: OracleConfig,
    capture: set,
    halved: bool = False,
):
    """Propagate the grid wavefunction up to the last step index in capture
    (at most cfg.steps), yielding (index, grid) at each captured step as it
    is reached, in ascending index order; dict(...) collects them.

    halved marches, from the same start as a second row, the run of half the
    steps over the same window and horizon: cfg with twice the dt and half
    the steps, which must be even (ValueError otherwise).  The derived dt,
    2*(h/S), is h/(S/2) to the bit for a power-of-two S.  On each even step
    both rows take one np.fft.fft and one np.fft.ifft call, on odd steps the
    first row steps alone.  The first row then runs to cfg.steps, and its
    captures are followed by (cfg.steps // 2, the second row's final grid),
    bit for bit what a run of that config alone reaches.  Each row's phases
    are tabulated a block of BLOCK_VALUES // (2 points) steps at a time.

    Each step runs in preallocated buffers.  Raises EdgeLeakage, in place of
    the next (index, grid), when the wavefunction stops being negligible at
    the window edges at a captured step or at the second row's final step.  An
    EvaluationError of the second row's potential is raised in place of its
    final grid, so that every failure of the first row comes first.
    """
    if not initial.matches(cfg.xmin, cfg.dx, cfg.points):
        raise ValueError("initial grid does not match the oracle configuration")
    if halved and cfg.steps % 2:
        raise ValueError(f"a run of {cfg.steps} steps cannot be halved")
    half = cfg.replace(dt=2 * cfg.dt, steps=cfg.steps // 2) if halved else None
    configs = (cfg,) if half is None else (cfg, half)

    k = 2.0 * np.pi * np.fft.fftfreq(cfg.points, d=cfg.dx)
    kinetic_phase = np.array(
        [np.exp(-0.5j * params.hbar * k**2 * c.dt / params.mass) for c in configs]
    )
    psi = np.empty((len(configs), cfg.points), dtype=np.complex128)
    psi[:] = initial.values
    spectrum = np.empty_like(psi)
    stacked = np.empty_like(psi)  # both rows' half phases on an even step
    # the rows that step, as views: the first alone, or both
    views = [(psi[0], spectrum[0], kinetic_phase[0]), (psi, spectrum, kinetic_phase)]
    t0 = initial.time
    if 0 in capture:
        _edge_test(np.abs(psi[0]), t0)
        yield 0, WaveGrid(cfg.xmin, cfg.dx, psi[0].copy(), t0)
    width = len(configs) * cfg.points
    last = cfg.steps if half is not None else min(cfg.steps, max(capture, default=0))
    half_phases = _half_phases(potential, params, cfg, t0, last, width)
    paired = None if half is None else _half_phases(potential, params, half, t0, half.steps, width)
    failure = None
    for p, half_phase in enumerate(half_phases, start=1):
        rows, spec, kinetic = views[0]
        if paired is not None and p % 2 == 0:
            try:
                stacked[1] = next(paired)
            except EvaluationError as exc:  # the second row stops here
                failure, paired = exc, None
            else:
                stacked[0] = half_phase
                half_phase = stacked
                rows, spec, kinetic = views[1]
        np.multiply(half_phase, rows, out=rows)
        np.fft.fft(rows, out=spec)
        np.multiply(kinetic, spec, out=spec)
        np.fft.ifft(spec, out=rows)
        np.multiply(half_phase, rows, out=rows)
        if p in capture:
            t = t0 + p * cfg.dt
            _edge_test(np.abs(psi[0]), t)
            yield p, WaveGrid(cfg.xmin, cfg.dx, psi[0].copy(), t)
    if half is not None:
        if failure is not None:
            raise failure
        t = t0 + half.steps * half.dt
        _edge_test(np.abs(psi[1]), t)
        yield half.steps, WaveGrid(half.xmin, half.dx, psi[1].copy(), t)


def l2_distance(a: WaveGrid, b: WaveGrid) -> float:
    """Phase-aligned L2 distance between two normalized grids.

    Both inputs are normalized to unit norm, then b is rotated by the
    global phase maximizing Re<a, b> before the trapezoid integral of
    |a - b|^2 is taken; a global phase difference therefore counts as
    zero distance, and a grid is exactly 0 from itself.
    """
    if not a.matches(b.xmin, b.dx, b.npoints):
        raise ValueError("grids disagree in window, spacing or size")
    return _l2(a.values, norm_squared(a), b.values, norm_squared(b), a.dx)


def _l2(a, na, b, nb, dx) -> float:
    """l2_distance of the values a and b, of norms^2 na and nb."""
    if na <= 0.0 or nb <= 0.0:
        raise ValueError("cannot normalize a zero grid")
    va = a / np.sqrt(na)
    vb = b / np.sqrt(nb)
    # <va, vb> from real products: numpy's complex product may fuse one of
    # them into its sum, and leave a rounding residual in Im <v, v>
    ar, ai, br, bi = va.real, va.imag, vb.real, vb.imag
    inner = complex(_trapezoid(ar * br + ai * bi, dx), _trapezoid(ar * bi - ai * br, dx))
    if abs(inner) > 0.0:
        vb = vb * (np.conj(inner) / abs(inner))
    return float(np.sqrt(_trapezoid(np.abs(va - vb) ** 2, dx)))


class ComparisonReport(NamedTuple):
    """Per-snapshot agreement between the series method and the oracle.

    d_mean_x is the <x> difference (series minus oracle); d_norm compares
    relative norm drift, i.e. norm2(t)/norm2(0) of the series
    reconstruction minus the same ratio for the (unitary) oracle.  error
    ended the rows (None when every snapshot was compared): one of
    SNAPSHOT_FAILURES, or, taking precedence, the stepper's own error.
    """

    times: np.ndarray
    l2: np.ndarray
    d_mean_x: np.ndarray
    d_norm: np.ndarray
    error: Exception | None = None


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


def compare_with_oracle(states: list, potential: PotentialModel, params: PhysicalParams,
                        cfg: OracleConfig, halved: bool = False):
    """(report, grid, coarse): the ComparisonReport of each of states on the
    oracle's step grid against the oracle's grid at its step, both sampled
    on the oracle's window; the last grid reached; and, when halved (see
    split_step_evolve), the final grid of the run of half the steps that
    marches alongside, else None.

    The first state is the start: the oracle starts from its grid, which is
    also its series grid, and norms are relative to it.  The oracle runs
    step by step as the comparison reaches each state, and the moments of a
    grid that states share are taken once.  A state off the step grid, such
    as the last healthy state of a stepper that stopped, is skipped.  One of
    SNAPSHOT_FAILURES ends the rows (a state that cannot be reconstructed or
    fails series_edge_guard, an oracle grid that leaks at its edges, or a
    potential the oracle cannot evaluate): the report keeps the rows before
    it and carries it as its error, and coarse is None.
    """
    t0 = states[0].time
    on_grid = [(j, s) for s in states if (j := _oracle_index(s.time, t0, cfg.dt)) is not None]
    start = state_on_oracle_grid(states[0], cfg)
    capture = {j for j, _ in on_grid}
    grids = split_step_evolve(start, potential, params, cfg, capture, halved=halved)
    window = Window(cfg.xmin, cfg.dx, cfg.points)
    guard = series_edge_guard(states[0], potential)
    rows = []
    p = grid = coarse = norm0 = error = None
    try:
        for j, state in on_grid:
            shared = p == j
            while p != j:
                p, grid = next(grids)
            if norm0 is None:  # the start, whose series grid is the oracle's
                values = window.observe(values=grid.values)[0]
            else:
                values = window.observe([state])[0]
            norm2_s, mean_x_s = window.row(0)
            guard(window.magnitude[0], state.time)
            if norm0 is None:
                norm0 = norm2_o = norm2_s
                mean_x_o = mean_x_s
            elif not shared:
                window.observe(values=grid.values)
                norm2_o, mean_x_o = window.row(0)
            l2 = _l2(grid.values, norm2_o, values, norm2_s, window.dx)
            rows.append((state.time, l2, mean_x_s - mean_x_o, norm2_s / norm0 - norm2_o / norm0))
        if halved:
            _, coarse = next(grids)
    except SNAPSHOT_FAILURES as exc:
        error = exc
    columns = np.array(rows, dtype=np.float64).reshape(-1, 4).T
    return ComparisonReport(*columns, error), grid, coarse


def compare_methods(
    initial: CoefficientState,
    potential: PotentialModel,
    params: PhysicalParams,
    stepper_cfg: StepperConfig,
    oracle_cfg: OracleConfig,
) -> ComparisonReport:
    """Propagate both methods over the same horizon and compare snapshots:
    check_alignment, propagate, then compare_with_oracle of the snapshots,
    whose error is the stepper's when the stepper stopped."""
    check_alignment(initial.time, stepper_cfg, oracle_cfg)
    trajectory = propagate(initial, potential, params, stepper_cfg)
    report = compare_with_oracle(trajectory.snapshots, potential, params, oracle_cfg)[0]
    return report._replace(error=trajectory.error or report.error)


def oracle_error_estimate(fine: WaveGrid, coarse: WaveGrid) -> float:
    """Estimated l2 error of fine, the final grid of an S-step oracle run,
    from coarse, the final grid of the S/2-step run over the same horizon:
    l2(fine, coarse) / 3, from the error ratio 4 of a second-order scheme
    under step halving."""
    return l2_distance(fine, coarse) / 3.0
