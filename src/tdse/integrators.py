"""Fixed-step time integration of the coefficient flow.

Two steppers share the same velocity field: forward Euler (the baseline
finite-difference iteration, potential sampled at the left endpoint of
each step) and classical fourth-order Runge-Kutta (potential sampled at
the stage times t, t + dt/2, t + dt).  No adaptive step-size control;
convergence studies are the accuracy control.

Each stepper is written once, over both forms of the state that
tdse.state's right-hand side takes, and N alone picks the form.  Above
quadratic closure (N > 2), the state is a coefficient array and the
velocity velocity_kernel's.  At N = 2, the closed regime, it is a list of
three Python complex numbers and the velocity closed_velocity_kernel's,
the same formulas in CPython's complex arithmetic: three numbers do not
pay for numpy's per-call overhead, and the result does not depend on the
FMA or BLAS kernels numpy picks by CPU.  A static potential is evaluated
once, a time-dependent one once per distinct stage time, tabulated a
block of steps ahead by tdse.potential.step_blocks.

Explicit stepping of this quadratic flow can diverge for large dt (BlowUp),
and a potential can fail to evaluate at a later time: either is returned
as the trajectory's error, with the rows before it, not raised.
"""

import math

import numpy as np

from .potential import EvaluationError, PotentialModel, eval_taylor_coefficients, step_blocks
from .records import Frozen, Record
from .state import CoefficientState, PhysicalParams, closed_velocity_kernel, velocity_kernel
# not called here: perfbench/tracing.py wraps it under tdse.integrators' name
from .state import coefficient_velocity  # noqa: F401

__all__ = ["BlowUp", "StepperConfig", "Trajectory", "propagate"]

INTEGRATORS = ("euler", "rk4")


class BlowUp(ArithmeticError):
    """A step left a coefficient above the blow-up threshold, or not finite."""


class StepperConfig(Frozen):
    __slots__ = ("dt", "steps", "integrator", "blowup_threshold", "snapshot_stride")

    def __init__(
        self, dt: float, steps: int, integrator: str = "euler",
        blowup_threshold: float = 1e12, snapshot_stride: int = 1,
    ):
        if not (np.isfinite(dt) and dt > 0):
            raise ValueError(f"dt must be positive and finite, got {dt!r}")
        if steps < 1:
            raise ValueError(f"steps must be at least 1, got {steps!r}")
        if integrator not in INTEGRATORS:
            raise ValueError(f"integrator must be one of {INTEGRATORS}, got {integrator!r}")
        if not (np.isfinite(blowup_threshold) and blowup_threshold > 0):
            raise ValueError("blowup_threshold must be positive and finite")
        if snapshot_stride < 1:
            raise ValueError("snapshot_stride must be at least 1")
        self._set(dt, steps, integrator, blowup_threshold, snapshot_stride)


class Trajectory(Record):
    """Time-ordered snapshots, the first the initial state; error is what
    ended the run before its last step, else None."""

    __slots__ = ("snapshots", "error")

    def __init__(self, snapshots: list, error: Exception | None = None):
        self._set(snapshots, error)

    @property
    def final(self) -> CoefficientState:
        return self.snapshots[-1]


def _stage_forcings(integrator, initial, potential, params, dt, steps, as_lists):
    """Yield, for steps 1..steps in turn, the step's forcing rows
    (i/hbar) * V_n at its stage times: t, and for RK4 then t + dt/2 and
    t + dt, t being initial.time for the first step and t0 + (p-1)*dt for
    step p.  The rows are arrays, or with as_lists lists of Python complex.

    A static potential is evaluated once.  A time-dependent one is
    tabulated by step_blocks, with one multiply (and one tolist) per block.
    """
    order = initial.truncation_order
    stages = 1 if integrator == "euler" else 3
    t0, scale = initial.time, 1j / params.hbar
    if potential.is_static:
        held = scale * eval_taylor_coefficients(potential, t0, order)
        table = np.broadcast_to(held, (stages, order + 1))
        if as_lists:
            table = table.tolist()
        for _ in range(steps):
            yield table
        return
    half = 0.5 * dt

    def times(p):
        t = t0 + (p - 1) * dt if p > 1 else t0  # t0 itself keeps a -0.0
        return (t,) if stages == 1 else (t, t + half, t + dt)

    for rows in step_blocks(potential, times, steps, stages * (order + 1), order):
        block = (scale * rows).reshape(-1, stages, order + 1)
        yield from block.tolist() if as_lists else block


def _make_step(integrator: str, velocity, dt: float, as_lists: bool):
    """step(alphas, forced) -> the alphas one dt later, forced being the
    step's rows from _stage_forcings and velocity one from tdse.state.

    The alphas are an array, or with as_lists a list of Python complex
    numbers; the two forms differ only in how they take x + s*k and RK4's
    weighted sum.  Every constant is complex, so each product is the full
    complex product in either form.
    """
    dt_c, half, sixth, two = complex(dt), complex(0.5 * dt), complex(dt / 6.0), complex(2)
    if as_lists:

        def axpy(x, s, k):
            return [xi + s * ki for xi, ki in zip(x, k)]

        def rk4_sum(a, k1, k2, k3, k4):
            return [x + sixth * (p + two * q + two * r + w) for x, p, q, r, w in zip(a, k1, k2, k3, k4)]

    else:

        def axpy(x, s, k):
            return x + s * k

        def rk4_sum(a, k1, k2, k3, k4):
            return a + sixth * (k1 + two * k2 + two * k3 + k4)

    if integrator == "euler":

        def step(a, forced):
            return axpy(a, dt_c, velocity(a, forced[0]))

        return step

    def step(a, forced):
        start, mid, end = forced
        k1 = velocity(a, start)
        k2 = velocity(axpy(a, half, k1), mid)
        k3 = velocity(axpy(a, half, k2), mid)
        k4 = velocity(axpy(a, dt_c, k3), end)
        return rk4_sum(a, k1, k2, k3, k4)

    return step


def _blown_up(alphas, threshold: float) -> bool:
    # a NaN or infinite |alpha| fails the comparison as an oversized one
    # does; over a few entries, Python's loop is cheaper than numpy's max.
    # math.hypot gives inf past the double range, where abs() of a Python
    # complex raises OverflowError
    if isinstance(alphas, np.ndarray):
        return not all(m <= threshold for m in np.abs(alphas).tolist())
    return not all(math.hypot(z.real, z.imag) <= threshold for z in alphas)


def propagate(
    initial: CoefficientState,
    potential: PotentialModel,
    params: PhysicalParams,
    cfg: StepperConfig,
) -> Trajectory:
    """Apply the configured stepper cfg.steps times from the initial state.

    Every snapshot_stride-th state is recorded, plus the initial and final
    ones.  A step that trips the blow-up detector (BlowUp) or whose potential
    fails (EvaluationError) ends the run: the last healthy state becomes the
    final snapshot, and the trajectory carries the exception as its error.
    Only an EvaluationError before the first step completes is raised.
    Overflow on the way to a blow-up is that BlowUp, not a numpy warning.
    """
    t0, dt, stride, threshold = initial.time, cfg.dt, cfg.snapshot_stride, cfg.blowup_threshold
    snapshots = [initial]
    t, recorded, p = t0, True, 0
    closed = initial.truncation_order == 2
    if closed:
        a, velocity = initial.alphas.tolist(), closed_velocity_kernel(params)
    else:
        a, velocity = initial.alphas, velocity_kernel(initial.truncation_order, params)
    step = _make_step(cfg.integrator, velocity, dt, closed)
    forcings = _stage_forcings(cfg.integrator, initial, potential, params, dt, cfg.steps, closed)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for p, forced in enumerate(forcings, start=1):
                new = step(a, forced)
                if _blown_up(new, threshold):
                    raise BlowUp(f"blow-up at step {p}, t = {t0 + p * dt}")
                # anchor the clock at t0 + p*dt: repeated `time += dt` accumulates a
                # rounding error per step, which pollutes left-endpoint potential
                # sampling and closed-form comparisons on long runs
                a, t = new, t0 + p * dt
                recorded = p == cfg.steps or p % stride == 0
                if recorded:
                    snapshots.append(CoefficientState(a, t))
    except (BlowUp, EvaluationError) as exc:
        if p == 0:  # the potential failed before step 1: no row to keep
            raise
        if not recorded:
            snapshots.append(CoefficientState(a, t))
        return Trajectory(snapshots, exc)
    return Trajectory(snapshots)
