"""Fixed-step time integration of the coefficient flow.

Two steppers share the same velocity field: forward Euler (the baseline
finite-difference iteration, potential sampled at the left endpoint of
each step) and classical fourth-order Runge-Kutta (potential sampled at
the stage times t, t + dt/2, t + dt).  No adaptive step-size control;
convergence studies are the accuracy control.

Both run on plain coefficient arrays through one velocity kernel built
per propagation; a static potential is evaluated once, a time-dependent
one once per distinct stage time, tabulated a block of steps ahead.

Explicit stepping of this quadratic flow can diverge for large dt, so
blow-up is reported as a trajectory status rather than an exception.
"""

from dataclasses import dataclass

import numpy as np

from .potential import PotentialModel, eval_taylor_coefficients, taylor_rows
from .state import CoefficientState, PhysicalParams, velocity_kernel
from .state import coefficient_velocity  # noqa: F401  (re-exported: the kernel for one state)

__all__ = ["StepperConfig", "Trajectory", "propagate"]

INTEGRATORS = ("euler", "rk4")

# a time-dependent potential is tabulated for this many complex values of
# forcing or phase at a time (128 KiB), per block of steps
BLOCK_VALUES = 8192


@dataclass(frozen=True)
class StepperConfig:
    dt: float
    steps: int
    integrator: str = "euler"
    blowup_threshold: float = 1e12
    snapshot_stride: int = 1

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt!r}")
        if self.steps < 1:
            raise ValueError(f"steps must be at least 1, got {self.steps!r}")
        if self.integrator not in INTEGRATORS:
            raise ValueError(
                f"integrator must be one of {INTEGRATORS}, got {self.integrator!r}"
            )
        if not (np.isfinite(self.blowup_threshold) and self.blowup_threshold > 0):
            raise ValueError("blowup_threshold must be positive and finite")
        if self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be at least 1")


@dataclass
class Trajectory:
    """Time-ordered snapshots; first snapshot is the initial state."""

    snapshots: list
    status: str  # 'completed' | 'aborted_blowup'

    @property
    def final(self) -> CoefficientState:
        return self.snapshots[-1]


def _stage_forcings(integrator, initial, potential, forcing, dt, steps):
    """Yield, for steps 1..steps in turn, the step's forcing rows
    (i/hbar) * V_n at its stage times: t, and for RK4 then t + dt/2 and
    t + dt, t being initial.time for the first step and t0 + p*dt after p
    steps.

    A static potential is evaluated once.  A time-dependent one is
    tabulated a block of steps at a time, with one taylor_rows call and one
    multiply; a block never reaches past the last step, and it ends before
    a step with a stage time whose evaluation fails, so the block that
    starts at that step raises its error after the steps before it have
    run.
    """
    order = initial.truncation_order
    stages = 1 if integrator == "euler" else 3
    t0 = initial.time
    if potential.is_static:
        held = forcing(eval_taylor_coefficients(potential, t0, order))
        table = np.broadcast_to(held, (stages, order + 1))
        for _ in range(steps):
            yield table
        return
    block = max(1, BLOCK_VALUES // (stages * (order + 1)))
    half = 0.5 * dt
    done = 0
    while done < steps:
        starts = [t0 + p * dt if p else t0 for p in range(done, min(done + block, steps))]
        times = starts if stages == 1 else [u for t in starts for u in (t, t + half, t + dt)]
        rows = taylor_rows(potential, times, order, group=stages)
        count = len(rows) // stages
        yield from forcing(rows).reshape(count, stages, order + 1)
        done += count


def _make_step(integrator: str, velocity, dt: float):
    """step(alphas, forced) -> the alphas one dt later, forced being the
    step's rows from _stage_forcings."""
    if integrator == "euler":

        def step(a, forced):
            # a + dt * velocity, computed in the velocity's own new array
            out = velocity(a, forced[0])
            out *= dt
            out += a
            return out

        return step

    half, sixth = 0.5 * dt, dt / 6.0

    def step(a, forced):
        start, mid, end = forced
        k1 = velocity(a, start)
        k2 = velocity(a + half * k1, mid)
        k3 = velocity(a + half * k2, mid)
        k4 = velocity(a + dt * k3, end)
        return a + sixth * (k1 + 2 * k2 + 2 * k3 + k4)

    return step


def _blown_up(alphas: np.ndarray, threshold: float) -> bool:
    # a NaN or infinite |alpha| fails the comparison as an oversized one
    # does; over a few entries, Python's loop is cheaper than numpy's max
    return not all(m <= threshold for m in np.abs(alphas).tolist())


def propagate(
    initial: CoefficientState,
    potential: PotentialModel,
    params: PhysicalParams,
    cfg: StepperConfig,
) -> Trajectory:
    """Apply the configured stepper cfg.steps times from the initial state.

    Every snapshot_stride-th state is recorded, plus the initial and final
    ones.  If a step trips the blow-up detector the diverging state is
    discarded, the last healthy state becomes the final snapshot, and the
    trajectory is returned with status 'aborted_blowup'.  Overflow on the
    way to a blow-up is that status, not a numpy warning.
    """
    t0, dt, stride, threshold = initial.time, cfg.dt, cfg.snapshot_stride, cfg.blowup_threshold
    snapshots = [initial]
    a, t, recorded = initial.alphas, t0, True
    forcing, velocity = velocity_kernel(initial.truncation_order, params)
    step = _make_step(cfg.integrator, velocity, dt)
    forcings = _stage_forcings(cfg.integrator, initial, potential, forcing, dt, cfg.steps)
    with np.errstate(over="ignore", invalid="ignore"):
        for p, forced in enumerate(forcings, start=1):
            new = step(a, forced)
            if _blown_up(new, threshold):
                if not recorded:
                    snapshots.append(CoefficientState(a, t))
                return Trajectory(snapshots, "aborted_blowup")
            # anchor the clock at t0 + p*dt: repeated `time += dt` accumulates a
            # rounding error per step, which pollutes left-endpoint potential
            # sampling and closed-form comparisons on long runs
            a, t = new, t0 + p * dt
            recorded = p == cfg.steps or p % stride == 0
            if recorded:
                snapshots.append(CoefficientState(a, t))
    return Trajectory(snapshots, "completed")
