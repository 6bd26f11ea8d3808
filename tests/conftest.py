"""Shared closed-form references and small helpers for the test suite.

These are the independent oracles the numerical paths are checked
against; they never call the code under test beyond plain data types
(reference_run loads the config and propagates with the package; what it
writes from the snapshots is its own).
"""

import cmath
import math

import numpy as np

from tdse import (
    CoefficientState,
    EvaluationError,
    ExponentOverflow,
    Observables,
    ZeroNorm,
    propagate,
)
from tdse.config import load_config
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


# ---------------------------------------------------------------------------
# textbook reconstruction, and `tdse run`'s outputs built from it


def reference_reconstruct(state, xmin, xmax, points, params):
    """evaluate_on_grid followed by observables, written the plain way:
    the window is rebuilt and checked on every call, |psi|^2 is computed
    once for the norm and again for the moments, and the quadrature and the
    derivative are np.trapezoid and np.gradient.  Returns (values, xs,
    Observables), xs being the positions xmin + j*dx of the moments."""
    if not xmax > xmin:
        raise ValueError(f"xmax must exceed xmin, got [{xmin}, {xmax}]")
    if points < 8:
        raise ValueError(f"points must be at least 8, got {points}")
    samples = np.linspace(xmin, xmax, points)
    s = np.full(samples.shape, state.alphas[-1], dtype=np.complex128)
    for coeff in state.alphas[-2::-1]:
        s = s * samples + coeff
    peak = float(np.max(s.real))
    if peak > 700.0:
        raise ExponentOverflow(f"Re S reaches {peak:.1f} > 700 on the requested window")
    values = np.exp(s)
    dx = (xmax - xmin) / (points - 1)
    if not (np.isfinite(dx) and dx > 0):
        raise ValueError(f"dx must be positive and finite, got {dx!r}")
    if not np.all(np.isfinite(values)):
        raise ValueError("grid values must be finite")

    def finite(name, *numbers):
        if not all(math.isfinite(v) for v in numbers):
            raise ExponentOverflow(
                f"{name} is not finite on this window: |psi|^2 or a moment of it "
                "passes the double range (Re S above about 354)"
            )

    with np.errstate(over="ignore", invalid="ignore"):
        n2 = float(np.trapezoid(np.abs(values) ** 2, dx=dx))
    finite("norm^2", n2)
    if n2 <= 1e-300:
        raise ZeroNorm("norm^2 vanishes on this window")
    xs = xmin + dx * np.arange(points)
    with np.errstate(over="ignore", invalid="ignore"):
        density = np.abs(values) ** 2
        mean_x = float(np.trapezoid(xs * density, dx=dx)) / n2
        mean_x2 = float(np.trapezoid(xs**2 * density, dx=dx)) / n2
        dpsi = np.gradient(values, dx)
        p_int = np.conj(values) * (-1j * params.hbar) * dpsi
        mean_p = complex(np.trapezoid(p_int, dx=dx)) / n2
    finite("an observable", mean_x, mean_x2, mean_p.real, mean_p.imag)
    return values, xs, Observables(n2, mean_x, mean_x2, mean_p.real, mean_p.imag)


def reference_run(config_path: str):
    """(exit code, {file name: bytes}) of `tdse run` on a config: the CSVs
    built as lists of rows of numpy scalars, with one reference_reconstruct
    call per snapshot, and a blow-up (3) taking precedence over a snapshot
    that cannot be reconstructed (2)."""
    cfg = load_config(config_path)
    trajectory = propagate(cfg.initial, cfg.potential, cfg.params, cfg.stepper)

    def csv(header, rows):
        text = header + "\n" + "".join(",".join(row) + "\n" for row in rows)
        return text.encode("utf-8")

    def fmt(value):
        return f"{value:.16e}"

    files = {
        "coefficients.csv": csv(
            "t,n,alpha_re,alpha_im",
            [
                (fmt(snap.time), str(n), fmt(alpha.real), fmt(alpha.imag))
                for snap in trajectory.snapshots
                for n, alpha in enumerate(snap.alphas)
            ],
        )
    }
    error, rows = None, []
    for snap in trajectory.snapshots:
        try:
            values, xs, obs = reference_reconstruct(
                snap, cfg.grid.xmin, cfg.grid.xmax, cfg.grid.points, cfg.params
            )
        except (ExponentOverflow, ZeroNorm) as exc:
            error = exc
            break
        rows.append(
            (fmt(snap.time), fmt(obs.norm2), fmt(obs.mean_x), fmt(obs.mean_x2),
             fmt(obs.mean_p_re), fmt(obs.mean_p_im))
        )
    files["observables.csv"] = csv("t,norm2,mean_x,mean_x2,mean_p_re,mean_p_im", rows)
    if error is None:
        files["wavefunction_final.csv"] = csv(
            "x,psi_re,psi_im,prob_density",
            [(fmt(x), fmt(v.real), fmt(v.imag), fmt(abs(v) ** 2)) for x, v in zip(xs, values)],
        )
    if trajectory.status != "completed":
        return 3, files
    return (2 if error is not None else 0), files
