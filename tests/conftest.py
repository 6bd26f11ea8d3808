"""Shared closed-form references and small helpers for the test suite.

These are the independent oracles the numerical paths are checked
against; they never call the code under test beyond plain data types.
"""

import cmath
import math

import numpy as np

from tdse import CoefficientState, EvaluationError
from tdse.potential import BinOp, Call, Const, Neg, Power, TimeVar

try:
    from hypothesis import HealthCheck, settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # the same examples on every run, and no example database on disk
    settings.register_profile(
        "tdse",
        derandomize=True,
        database=None,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    settings.load_profile("tdse")


def riccati_alpha2(a0: complex, t: float, hbar: float = 1.0, mass: float = 1.0) -> complex:
    """Exact alpha_2(t) for a constant potential: da/dt = (2i*hbar/m) a^2."""
    return a0 / (1.0 - (2j * hbar / mass) * a0 * t)


def coherent_state_exact(x0: float, t: float) -> CoefficientState:
    """Exact coefficients of the ground-width packet displaced by x0 in the
    unit harmonic well (hbar = m = omega = 1), evolved to time t.

    alpha_2 = -1/2 frozen, alpha_1 = x0 * exp(-i t), and alpha_0 integrates
    (i/2) * (2*alpha_2 + alpha_1^2) from its initial value -x0^2/2.
    """
    a1_0 = x0
    a1 = a1_0 * cmath.exp(-1j * t)
    a0 = -(x0**2) / 2.0 - 0.5j * t - (a1_0**2 / 4.0) * (cmath.exp(-2j * t) - 1.0)
    return CoefficientState([a0, a1, -0.5], time=t)


def brute_force_convolution(alphas, n: int) -> complex:
    """Direct double-checked sum for the quadratic interaction term."""
    total = 0j
    for k in range(n + 1):
        i, j = k + 1, n - k + 1
        ai = alphas[i] if i < len(alphas) else 0.0
        aj = alphas[j] if j < len(alphas) else 0.0
        total += (k + 1) * (n - k + 1) * ai * aj
    return total


def max_support_index(alphas, floor: float = 0.0) -> int:
    """Largest index with |alpha| above the floor, or -1 if none."""
    above = np.nonzero(np.abs(np.asarray(alphas)) > floor)[0]
    return int(above[-1]) if len(above) else -1


def write_config(path, body: str) -> str:
    path.write_text(body, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# textbook references for the compiled potential and the fused stepper


def tree_eval_profile(node, t: float) -> float:
    """Walk a TimeProfile tree at time t, one node at a time."""
    if isinstance(node, Const):
        return node.value
    if isinstance(node, TimeVar):
        return t
    if isinstance(node, Neg):
        return -tree_eval_profile(node.operand, t)
    if isinstance(node, BinOp):
        left = tree_eval_profile(node.left, t)
        right = tree_eval_profile(node.right, t)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if right == 0.0:
            raise EvaluationError(f"division by zero at t = {t}")
        return left / right
    if isinstance(node, Power):
        return tree_eval_profile(node.base, t) ** node.exponent
    if isinstance(node, Call):
        return getattr(math, node.fn)(tree_eval_profile(node.arg, t))
    raise TypeError(f"not a TimeProfile node: {node!r}")


def mentions_t(node) -> bool:
    if isinstance(node, TimeVar):
        return True
    if isinstance(node, Const):
        return False
    if isinstance(node, BinOp):
        return mentions_t(node.left) or mentions_t(node.right)
    child = {Neg: "operand", Power: "base", Call: "arg"}[type(node)]
    return mentions_t(getattr(node, child))


def _tree_taylor(model, t: float, order: int) -> np.ndarray:
    out = np.zeros(order + 1)
    for d, node in model.terms.items():
        if d <= order:
            out[d] = tree_eval_profile(node, t)
    return out


def _textbook_velocity(alphas, v, params) -> np.ndarray:
    """The coefficient ODE's right-hand side, built from scratch per call.

    The Cauchy square goes through np.convolve after trimming trailing
    zeros, as the package documents, so the result is bit-comparable."""
    n_max = len(alphas) - 1
    shifted = np.zeros(n_max + 1, dtype=np.complex128)
    shifted[: n_max - 1] = alphas[2:]
    n = np.arange(n_max + 1)
    kinetic = (n + 2) * (n + 1) * shifted
    c = np.arange(1, n_max + 1) * alphas[1:]
    nonzero = np.nonzero(c)[0]
    quad = np.zeros(n_max + 1, dtype=np.complex128)
    if len(nonzero):
        c = c[: nonzero[-1] + 1]
        full = np.convolve(c, c)
        m = min(len(full), n_max + 1)
        quad[:m] = full[:m]
    return (0.5j * params.hbar / params.mass) * (kinetic + quad) - (1j / params.hbar) * v


def reference_propagate(initial, model, params, cfg):
    """Per-stage Euler/RK4 over a tree-walking potential: a fresh
    CoefficientState and potential evaluation for every stage, every state
    kept.  Returns (snapshots, status) with propagate's snapshot rules."""

    def rhs(alphas, t):
        state = CoefficientState(alphas, t)
        return _textbook_velocity(state.alphas, _tree_taylor(model, t, len(alphas) - 1), params)

    def step(state, dt):
        t, a = state.time, state.alphas
        if cfg.integrator == "euler":
            return CoefficientState(a + dt * rhs(a, t), t + dt)
        k1 = rhs(a, t)
        k2 = rhs(a + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = rhs(a + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = rhs(a + dt * k3, t + dt)
        return CoefficientState(a + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4), t + dt)

    snapshots = [initial]
    state = initial
    with np.errstate(over="ignore", invalid="ignore"):
        for p in range(1, cfg.steps + 1):
            new = step(state, cfg.dt)
            new.time = initial.time + p * cfg.dt
            a = new.alphas
            if not np.all(np.isfinite(a)) or np.any(np.abs(a) > cfg.blowup_threshold):
                if snapshots[-1] is not state:
                    snapshots.append(state)
                return snapshots, "aborted_blowup"
            state = new
            if p == cfg.steps or p % cfg.snapshot_stride == 0:
                snapshots.append(state)
    return snapshots, "completed"
