"""Fixed-step time integration of the coefficient flow.

Two steppers share the same velocity field: forward Euler (the baseline
finite-difference iteration, potential sampled at the left endpoint of
each step) and classical fourth-order Runge-Kutta (potential sampled at
the stage times t, t + dt/2, t + dt).  No adaptive step-size control;
convergence studies are the accuracy control.

Both run on plain coefficient arrays through one velocity kernel built
per propagation; a static potential is evaluated once, a time-dependent
one once per distinct stage time.

Explicit stepping of this quadratic flow can diverge for large dt, so
blow-up is reported as a trajectory status rather than an exception.
"""

from dataclasses import dataclass

import numpy as np

from .potential import PotentialModel, eval_taylor_coefficients
from .state import CoefficientState, PhysicalParams, velocity_kernel
from .state import coefficient_velocity  # noqa: F401  (re-exported: the kernel for one state)

__all__ = ["StepperConfig", "Trajectory", "propagate"]

INTEGRATORS = ("euler", "rk4")


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


def _make_step(
    integrator: str,
    initial: CoefficientState,
    potential: PotentialModel,
    params: PhysicalParams,
    dt: float,
):
    """step(alphas, t) -> the alphas one dt later, for states shaped like
    initial."""
    order = initial.truncation_order
    forcing, velocity = velocity_kernel(order, params)
    if potential.is_static:
        held = forcing(eval_taylor_coefficients(potential, initial.time, order))

        def force(t):
            return held

    else:

        def force(t):
            return forcing(eval_taylor_coefficients(potential, t, order))

    if integrator == "euler":

        def step(a, t):
            return a + dt * velocity(a, force(t))

        return step

    half, sixth = 0.5 * dt, dt / 6.0

    def step(a, t):
        k1 = velocity(a, force(t))
        mid = force(t + 0.5 * dt)
        k2 = velocity(a + half * k1, mid)
        k3 = velocity(a + half * k2, mid)
        k4 = velocity(a + dt * k3, force(t + dt))
        return a + sixth * (k1 + 2 * k2 + 2 * k3 + k4)

    return step


def _blown_up(alphas: np.ndarray, threshold: float) -> bool:
    # the max of |alpha| is NaN when any entry is, and inf when any is
    # infinite, so one comparison covers non-finite and oversized entries
    return not np.abs(alphas).max() <= threshold


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
    with np.errstate(over="ignore", invalid="ignore"):
        step = _make_step(cfg.integrator, initial, potential, params, dt)
        for p in range(1, cfg.steps + 1):
            new = step(a, t)
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
