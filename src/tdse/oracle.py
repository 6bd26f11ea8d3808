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
from dataclasses import dataclass

import numpy as np

from .initialization import is_closed_system
from .integrators import BLOCK_VALUES, StepperConfig, Trajectory, propagate
from .potential import PotentialModel, eval_taylor_coefficients, taylor_rows
from .reconstruction import (
    ExponentOverflow,
    WaveGrid,
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
    "oracle_grid_xs",
    "state_on_oracle_grid",
    "split_step_evolve",
    "l2_distance",
    "check_alignment",
    "compare_trajectory",
    "compare_methods",
    "compare_levels",
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


@dataclass(frozen=True)
class OracleConfig:
    xmin: float
    xmax: float
    points: int
    dt: float
    steps: int

    def __post_init__(self):
        if not self.xmax > self.xmin:
            raise ValueError(f"xmax must exceed xmin, got [{self.xmin}, {self.xmax}]")
        if self.points < 256 or self.points & (self.points - 1):
            raise ValueError(f"points must be a power of two >= 256, got {self.points}")
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt!r}")
        if self.steps < 0:
            raise ValueError(f"steps must be nonnegative, got {self.steps}")

    @property
    def dx(self) -> float:
        return (self.xmax - self.xmin) / self.points


def oracle_grid_xs(cfg: OracleConfig) -> np.ndarray:
    """Periodic grid positions xmin + j*dx, j = 0..points-1 (xmax excluded)."""
    return cfg.xmin + cfg.dx * np.arange(cfg.points)


def state_on_oracle_grid(state: CoefficientState, cfg: OracleConfig) -> WaveGrid:
    """Reconstruct a coefficient state on the oracle's periodic grid."""
    return WaveGrid(cfg.xmin, cfg.dx, evaluate_at(state, oracle_grid_xs(cfg)), state.time)


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


def _half_phases(potential, params, cfg, xs, t0, steps):
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
) -> dict:
    """Propagate the grid wavefunction up to the last step index in capture
    (at most cfg.steps), returning {index: grid} in ascending index order.

    Each step runs in two preallocated buffers.  Raises EdgeLeakage if the
    wavefunction stops being negligible at the window edges at any
    captured step.
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
    out = {}
    if 0 in capture:
        _check_edges(psi, t0)
        out[0] = WaveGrid(cfg.xmin, cfg.dx, psi.copy(), t0)
    last = min(cfg.steps, max(capture, default=0))
    half_phases = _half_phases(potential, params, cfg, oracle_grid_xs(cfg), t0, last)
    for p, half_phase in enumerate(half_phases, start=1):
        np.multiply(half_phase, psi, out=psi)
        np.fft.fft(psi, out=spectrum)
        np.multiply(kinetic_phase, spectrum, out=spectrum)
        np.fft.ifft(spectrum, out=psi)
        np.multiply(half_phase, psi, out=psi)
        if p in capture:
            t = t0 + p * cfg.dt
            _check_edges(psi, t)
            out[p] = WaveGrid(cfg.xmin, cfg.dx, psi.copy(), t)
    return out


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
    na, nb = norm_squared(a), norm_squared(b)
    if na <= 0.0 or nb <= 0.0:
        raise GridMismatch("cannot normalize a zero grid")
    va = a.values / np.sqrt(na)
    vb = b.values / np.sqrt(nb)
    inner = complex(np.trapezoid(np.conj(va) * vb, dx=a.dx))
    if abs(inner) > 0.0:
        vb = vb * (np.conj(inner) / abs(inner))
    return float(np.sqrt(np.trapezoid(np.abs(va - vb) ** 2, dx=a.dx)))


@dataclass
class ComparisonReport:
    """Per-snapshot agreement between the series method and the oracle.

    d_mean_x is the <x> difference (series minus oracle); d_norm compares
    relative norm drift, i.e. norm2(t)/norm2(0) of the series
    reconstruction minus the same ratio for the (unitary) oracle.
    reconstruction_error is the ExponentOverflow, ZeroNorm or series
    EdgeLeakage raised at the first snapshot that could not be compared,
    which ends the rows, or None when every snapshot was compared.
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


def compare_trajectory(
    trajectory: Trajectory,
    potential: PotentialModel,
    params: PhysicalParams,
    oracle_cfg: OracleConfig,
    grids: dict,
) -> ComparisonReport:
    """Compare each snapshot of trajectory that lands on the oracle's step
    grid with grids, the oracle's {step index: grid} from the trajectory's
    initial state, which must hold every such index.

    A snapshot whose series or oracle grid cannot be reconstructed
    (ExponentOverflow or ZeroNorm), or whose series grid fails
    series_edge_guard, ends the rows: the report keeps the rows before it
    and carries the exception as reconstruction_error.
    """
    initial = trajectory.snapshots[0]
    guard = series_edge_guard(initial, potential)
    times, l2s, dxs, dnorms = [], [], [], []
    series_norm0 = oracle_norm0 = None
    reconstruction_error = None
    for snap in trajectory.snapshots:
        j = _oracle_index(snap.time, initial.time, oracle_cfg.dt)
        if j is None:
            continue
        oracle_grid = grids[j]
        try:
            series_grid = state_on_oracle_grid(snap, oracle_cfg)
            obs_s = observables(series_grid, params)
            obs_o = observables(oracle_grid, params)
            l2 = l2_distance(oracle_grid, series_grid)
            guard(series_grid.values, snap.time)
        except (ExponentOverflow, ZeroNorm, EdgeLeakage) as exc:
            reconstruction_error = exc
            break
        if series_norm0 is None:
            series_norm0, oracle_norm0 = obs_s.norm2, obs_o.norm2
        times.append(snap.time)
        l2s.append(l2)
        dxs.append(obs_s.mean_x - obs_o.mean_x)
        dnorms.append(obs_s.norm2 / series_norm0 - obs_o.norm2 / oracle_norm0)
    return ComparisonReport(
        np.array(times), np.array(l2s), np.array(dxs), np.array(dnorms),
        trajectory.status, reconstruction_error,
    )


def compare_methods(
    initial: CoefficientState,
    potential: PotentialModel,
    params: PhysicalParams,
    stepper_cfg: StepperConfig,
    oracle_cfg: OracleConfig,
) -> ComparisonReport:
    """Propagate both methods over the same horizon and compare snapshots:
    check_alignment, propagate, one oracle run up to the last snapshot that
    lands on its step grid, then compare_trajectory.

    When the series blows up, the last healthy state that propagate appends
    is compared only if it lands on the grid as well.
    """
    check_alignment(initial.time, stepper_cfg, oracle_cfg)
    trajectory = propagate(initial, potential, params, stepper_cfg)
    capture = {_oracle_index(s.time, initial.time, oracle_cfg.dt) for s in trajectory.snapshots}
    start = state_on_oracle_grid(initial, oracle_cfg)
    grids = split_step_evolve(start, potential, params, oracle_cfg, capture - {None})
    return compare_trajectory(trajectory, potential, params, oracle_cfg, grids)


def compare_levels(
    start: WaveGrid,
    trajectories: list,
    potential: PotentialModel,
    params: PhysicalParams,
    oracle_cfg: OracleConfig,
) -> tuple:
    """(final grid, final l2 of each trajectory) against one oracle run from
    start that captures steps 0 and oracle_cfg.steps; each trajectory is a
    completed run, over the oracle's horizon, from the state start was
    reconstructed from, and records only its first and last states.

    The levels share their t = 0 snapshot, so it is compared once, before
    their final ones; the first reconstruction_error is raised.
    """
    grids = split_step_evolve(start, potential, params, oracle_cfg, {0, oracle_cfg.steps})
    if not trajectories:
        return grids[oracle_cfg.steps], []
    initial = trajectories[0].snapshots[0]
    finals = Trajectory([initial] + [t.final for t in trajectories], "completed")
    report = compare_trajectory(finals, potential, params, oracle_cfg, grids)
    if report.reconstruction_error is not None:
        raise report.reconstruction_error
    return grids[oracle_cfg.steps], report.l2[1:].tolist()


def oracle_error_estimate(fine: WaveGrid, coarse: WaveGrid) -> float:
    """Estimated l2 error of fine, the final grid of an S-step oracle run,
    from coarse, the final grid of the S/2-step run over the same horizon:
    l2(fine, coarse) / 3, from the error ratio 4 of a second-order scheme
    under step halving."""
    return l2_distance(fine, coarse) / 3.0
