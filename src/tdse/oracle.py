"""Independent grid propagator used to validate the coefficient flow.

Strang splitting on a periodic uniform grid: half-step potential phase,
full spectral kinetic step, half-step potential phase, with both
potential phases sampled at the interval midpoint time.  The scheme is
unitary up to rounding and second-order in dt, and shares no machinery
with the series method (grid versus coefficient discretization), which
is what makes it a usable cross-check.

Periodic boundaries mean a packet reaching the window edge wraps around;
the EdgeLeakage guard turns that failure mode into an error instead of a
silent corruption.
"""

import math
from dataclasses import dataclass

import numpy as np

from .integrators import StepperConfig, propagate
from .potential import PotentialModel, eval_taylor_coefficients
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
    "compare_methods",
]

_EDGE_FRACTION = 1e-6


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
    snapshot_stride: int = 1

    def __post_init__(self):
        if not self.xmax > self.xmin:
            raise ValueError(f"xmax must exceed xmin, got [{self.xmin}, {self.xmax}]")
        if self.points < 256 or self.points & (self.points - 1):
            raise ValueError(f"points must be a power of two >= 256, got {self.points}")
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt!r}")
        if self.steps < 0:
            raise ValueError(f"steps must be nonnegative, got {self.steps}")
        if self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be at least 1")

    @property
    def dx(self) -> float:
        return (self.xmax - self.xmin) / self.points


def oracle_grid_xs(cfg: OracleConfig) -> np.ndarray:
    """Periodic grid positions xmin + j*dx, j = 0..points-1 (xmax excluded)."""
    return cfg.xmin + cfg.dx * np.arange(cfg.points)


def state_on_oracle_grid(state: CoefficientState, cfg: OracleConfig) -> WaveGrid:
    """Reconstruct a coefficient state on the oracle's periodic grid."""
    return WaveGrid(cfg.xmin, cfg.dx, evaluate_at(state, oracle_grid_xs(cfg)), state.time)


def _check_edges(values: np.ndarray, time: float):
    peak = float(np.max(np.abs(values)))
    edge = float(max(abs(values[0]), abs(values[-1])))
    if peak == 0.0 or edge > _EDGE_FRACTION * peak:
        raise EdgeLeakage(
            f"edge magnitude {edge:.3e} exceeds {_EDGE_FRACTION:.0e} of peak "
            f"{peak:.3e} at t = {time:.6g}"
        )


def _evolve_capturing(
    initial: WaveGrid,
    potential: PotentialModel,
    params: PhysicalParams,
    cfg: OracleConfig,
    capture: set,
) -> dict:
    """Run the split-step loop up to the last captured step index, returning
    {index: grid} in ascending index order."""
    if initial.npoints != cfg.points or not (
        math.isclose(initial.xmin, cfg.xmin, rel_tol=0.0, abs_tol=1e-12)
        and math.isclose(initial.dx, cfg.dx, rel_tol=1e-12)
    ):
        raise GridMismatch("initial grid does not match the oracle configuration")

    xs = oracle_grid_xs(cfg)
    k = 2.0 * np.pi * np.fft.fftfreq(cfg.points, d=cfg.dx)
    kinetic_phase = np.exp(-0.5j * params.hbar * k**2 * cfg.dt / params.mass)
    half_phase = None

    psi = initial.values.copy()
    t0 = initial.time
    out = {}
    if 0 in capture:
        _check_edges(psi, t0)
        out[0] = WaveGrid(cfg.xmin, cfg.dx, psi.copy(), t0)
    for p in range(1, min(cfg.steps, max(capture, default=0)) + 1):
        t_mid = t0 + (p - 0.5) * cfg.dt
        if half_phase is None or not potential.is_static:
            vn = eval_taylor_coefficients(potential, t_mid, potential.degree)
            v_grid = np.polynomial.polynomial.polyval(xs, vn)
            half_phase = np.exp(-0.5j * v_grid * cfg.dt / params.hbar)
        psi = half_phase * psi
        psi = np.fft.ifft(kinetic_phase * np.fft.fft(psi))
        psi = half_phase * psi
        if p in capture:
            t = t0 + p * cfg.dt
            _check_edges(psi, t)
            out[p] = WaveGrid(cfg.xmin, cfg.dx, psi.copy(), t)
    return out


def split_step_evolve(
    initial: WaveGrid,
    potential: PotentialModel,
    params: PhysicalParams,
    cfg: OracleConfig,
) -> list:
    """Propagate the grid wavefunction, returning snapshots by stride.

    Snapshots always include the initial and final grids.  Raises
    EdgeLeakage if the wavefunction stops being negligible at the window
    edges at any recorded snapshot.
    """
    capture = set(range(0, cfg.steps + 1, cfg.snapshot_stride))
    capture.update((0, cfg.steps))
    return list(_evolve_capturing(initial, potential, params, cfg, capture).values())


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
    reconstruction_error is the ExponentOverflow or ZeroNorm raised at the
    first snapshot that could not be compared, which ends the rows, or None
    when every snapshot was compared.
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


def compare_methods(
    initial: CoefficientState,
    potential: PotentialModel,
    params: PhysicalParams,
    stepper_cfg: StepperConfig,
    oracle_cfg: OracleConfig,
    *,
    memo: dict | None = None,
) -> ComparisonReport:
    """Propagate both methods over the same horizon and compare snapshots.

    The coefficient trajectory's recorded snapshot times must land on the
    oracle's step grid (the configurations choose compatible dt values);
    this is checked before any stepping.  When the series blows up, the
    last healthy state that propagate appends is compared only if it lands
    on the grid as well, and the oracle runs no further than the last
    compared snapshot.

    A snapshot whose series or oracle grid cannot be reconstructed
    (ExponentOverflow or ZeroNorm) ends the rows: the report keeps the rows
    before it and carries the exception as reconstruction_error.

    memo, a dict the caller owns, keeps the oracle grids of each run keyed
    by everything that determines them (initial state, potential, params,
    oracle_cfg and the captured step indices), so calls that differ only in
    the stepper reuse one oracle run.
    """
    horizon_s = stepper_cfg.dt * stepper_cfg.steps
    horizon_o = oracle_cfg.dt * oracle_cfg.steps
    if abs(horizon_s - horizon_o) > 1e-12 * max(1.0, abs(horizon_s)):
        raise ValueError(
            f"time horizons differ: stepper {horizon_s!r} vs oracle {horizon_o!r}"
        )
    t0 = initial.time
    recorded = set(range(0, stepper_cfg.steps + 1, stepper_cfg.snapshot_stride))
    recorded.add(stepper_cfg.steps)
    for p in sorted(recorded):
        # the same arithmetic as propagate's clock and the index lookup below
        time = t0 + p * stepper_cfg.dt
        if _oracle_index(time, t0, oracle_cfg.dt) is None:
            raise ValueError(f"snapshot time {time!r} does not land on the oracle step grid")

    trajectory = propagate(initial, potential, params, stepper_cfg)
    # every recorded snapshot is on the grid; only the unrecorded last
    # healthy state of an aborted run can miss it, and is left out
    compared = []
    for snap in trajectory.snapshots:
        j = _oracle_index(snap.time, t0, oracle_cfg.dt)
        if j is not None:
            compared.append((snap, j))

    capture = frozenset(j for _, j in compared)
    key = (initial.alphas.tobytes(), t0, repr(potential), params, oracle_cfg, capture)
    by_index = memo.get(key) if memo is not None else None
    if by_index is None:
        start = state_on_oracle_grid(initial, oracle_cfg)
        by_index = _evolve_capturing(start, potential, params, oracle_cfg, capture)
        if memo is not None:
            memo[key] = by_index

    times, l2s, dxs, dnorms = [], [], [], []
    series_norm0 = oracle_norm0 = None
    reconstruction_error = None
    for snap, j in compared:
        oracle_grid = by_index[j]
        try:
            series_grid = state_on_oracle_grid(snap, oracle_cfg)
            obs_s = observables(series_grid, params)
            obs_o = observables(oracle_grid, params)
            l2 = l2_distance(oracle_grid, series_grid)
        except (ExponentOverflow, ZeroNorm) as exc:
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
