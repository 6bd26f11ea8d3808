"""Shared closed-form references and small helpers for the test suite.

These are the independent oracles the numerical paths are checked
against; they never call the code under test beyond plain data types
(one_step is propagate over a single step; reference_run and
reference_compare load the config and propagate with the package, and
reference_compare also resolves its oracle config with the command's rules
and compares single grids with the package's textbook functions; what they
write from the snapshots is their own).
"""

import cmath
import math
import signal
from contextlib import contextmanager
from typing import NamedTuple

import numpy as np

from tdse.cli import _oracle_config
from tdse.config import load_config
from tdse.integrators import BlowUp, StepperConfig, propagate
from tdse.oracle import EdgeLeakage, l2_distance, state_on_oracle_grid
from tdse.potential import BinOp, Call, Const, EvaluationError, Neg, Power, TimeVar
from tdse.reconstruction import ExponentOverflow, WaveGrid, ZeroNorm, observables
from tdse.state import CoefficientState

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


def support_bound_after_step(A: int, D: int) -> int:
    """Largest coefficient index one Euler step can populate.

    From support contained in {0..A} under a degree-D potential, the
    velocity reaches index A-2 through the ladder term, 2A-2 through the
    quadratic term, and D through the forcing, so post-step support stays
    within {0..max(A, 2A-2, D)}.
    """
    if A < 0 or D < 0:
        raise ValueError("A and D must be nonnegative")
    return max(A, 2 * A - 2, D)


@contextmanager
def within_seconds(seconds: int):
    """Raise TimeoutError inside the block once it has run for seconds (by
    SIGALRM, so only in the main thread)."""

    def timeout(signum, frame):
        raise TimeoutError(f"did not end in {seconds} s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def write_config(path, body: str) -> str:
    path.write_text(body, encoding="utf-8")
    return str(path)


def one_step(state, potential, params, dt: float, integrator: str = "euler"):
    """The state one step of the given integrator later."""
    cfg = StepperConfig(dt=dt, steps=1, integrator=integrator)
    return propagate(state, potential, params, cfg).final


# ---------------------------------------------------------------------------
# textbook references for the compiled potential, the fused stepper and the
# blocked oracle


def tree_eval_profile(node, t: float) -> float:
    """Walk a time-profile tree at time t, one node at a time.  Any failure of
    the walk raises EvaluationError "<reason> at t = <t>", the reason being
    division by zero, overflow or math domain error."""
    try:
        return _walk(node, t)
    except ZeroDivisionError:
        reason = "division by zero"
    except OverflowError:
        reason = "overflow"
    except (ArithmeticError, ValueError):
        reason = "math domain error"
    raise EvaluationError(f"{reason} at t = {t}")


def _walk(node, t: float) -> float:
    if isinstance(node, Const):
        return node.value
    if isinstance(node, TimeVar):
        return t
    if isinstance(node, Neg):
        return -_walk(node.operand, t)
    if isinstance(node, BinOp):
        left = _walk(node.left, t)
        right = _walk(node.right, t)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if right == 0.0:
            raise ZeroDivisionError
        return left / right
    if isinstance(node, Power):
        return _walk(node.base, t) ** node.exponent
    if isinstance(node, Call):
        return getattr(math, node.fn)(_walk(node.arg, t))
    raise TypeError(f"not a time-profile node: {node!r}")


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


def reference_taylor_rows(model, times, max_degree: int) -> np.ndarray:
    """taylor_rows time by time, by the tree walk: each time's row in the
    model's order, the first failing time raising its EvaluationError, and a
    row that holds an inf or a nan raising overflow at its time."""
    rows = np.zeros((len(times), max_degree + 1))
    for i, t in enumerate(times):
        rows[i] = _tree_taylor(model, t, max_degree)
        if not np.isfinite(rows[i]).all():
            raise EvaluationError(f"overflow at t = {t}")
    return rows


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


def _closed_velocity(alphas, v, params) -> list:
    """The N = 2 right-hand side in Python complex arithmetic, built from
    scratch per call with _textbook_velocity's rules: the ladder term, the
    Cauchy square of c_j = (j+1) * alpha_{j+1} after trimming trailing
    zeros, and the forcing.  Every constant is complex, so every product is
    the full complex product numpy takes."""
    a = list(alphas) + [0j, 0j]  # alpha_n = 0 above the truncation order
    kinetic = [complex((n + 2) * (n + 1)) * a[n + 2] for n in range(3)]
    c = [complex(j + 1) * a[j + 1] for j in range(2)]
    while c and c[-1] == 0:
        c.pop()
    quad = []
    for n in range(3):
        terms = [c[k] * c[n - k] for k in range(n + 1) if max(k, n - k) < len(c)]
        quad.append(sum(terms[1:], terms[0]) if terms else 0j)
    scale, force = 0.5j * params.hbar / params.mass, 1j / params.hbar
    return [scale * (kinetic[n] + quad[n]) - force * complex(v[n]) for n in range(3)]


def reference_propagate(initial, model, params, cfg, numpy_stages=False):
    """Per-stage Euler/RK4 over a tree-walking potential: a fresh
    CoefficientState and potential evaluation for every stage, every state
    kept.  Returns (snapshots, error) with propagate's snapshot rules: a
    step that blows up, or whose potential fails after the first step,
    ends the run with the last healthy state kept and its BlowUp or
    EvaluationError as error, None when every step completes.

    At N = 2 the stages run in Python complex arithmetic, as the package's
    closed step does: the state is an object array, whose arithmetic is
    Python's, every constant is complex, and the velocity is
    _closed_velocity.  numpy_stages=True runs N = 2 on complex arrays with
    _textbook_velocity, as every larger N runs."""
    closed = initial.truncation_order == 2 and not numpy_stages
    const = complex if closed else float

    def rhs(alphas, t):
        state = CoefficientState(alphas, t)
        v = _tree_taylor(model, t, len(alphas) - 1)
        if closed:
            return np.array(_closed_velocity(state.alphas.tolist(), v, params), dtype=object)
        return _textbook_velocity(state.alphas, v, params)

    def step(state, dt):
        t, a = state.time, state.alphas
        if closed:
            a = np.array(a.tolist(), dtype=object)
        if cfg.integrator == "euler":
            return CoefficientState(a + const(dt) * rhs(a, t), t + dt)
        half, two = const(0.5 * dt), const(2)
        k1 = rhs(a, t)
        k2 = rhs(a + half * k1, t + 0.5 * dt)
        k3 = rhs(a + half * k2, t + 0.5 * dt)
        k4 = rhs(a + const(dt) * k3, t + dt)
        return CoefficientState(a + const(dt / 6.0) * (k1 + two * k2 + two * k3 + k4), t + dt)

    snapshots = [initial]
    state = initial
    with np.errstate(over="ignore", invalid="ignore"):
        for p in range(1, cfg.steps + 1):
            time = initial.time + p * cfg.dt
            try:
                new = step(state, cfg.dt)
            except EvaluationError as exc:
                if p == 1:  # no step completed: there is no row to keep
                    raise
                error = exc
            else:
                a = new.alphas
                healthy = np.all(np.isfinite(a)) and not np.any(np.abs(a) > cfg.blowup_threshold)
                error = None if healthy else BlowUp(f"blow-up at step {p}, t = {time}")
            if error is not None:
                if snapshots[-1] is not state:
                    snapshots.append(state)
                return snapshots, error
            new.time = time
            state = new
            if p == cfg.steps or p % cfg.snapshot_stride == 0:
                snapshots.append(state)
    return snapshots, None


def reference_split_step(initial, model, params, cfg, capture):
    """split_step_evolve as first written: the potential walked as a tree
    and summed with np.polynomial.polynomial.polyval at every step's
    midpoint time (once for a static potential), and every Strang step
    allocating its own arrays.  Returns {index: WaveGrid}, raising
    EdgeLeakage with the package's message at the first captured step that
    is not negligible at the window's edges."""
    xs = cfg.xmin + cfg.dx * np.arange(cfg.points)
    k = 2.0 * np.pi * np.fft.fftfreq(cfg.points, d=cfg.dx)
    kinetic_phase = np.exp(-0.5j * params.hbar * k**2 * cfg.dt / params.mass)
    static = not any(mentions_t(node) for node in model.terms.values())

    def checked(values, time):
        peak = float(np.max(np.abs(values)))
        edge = float(max(abs(values[0]), abs(values[-1])))
        if peak == 0.0 or edge > 1e-6 * peak:
            raise EdgeLeakage(
                f"edge magnitude {edge:.3e} exceeds 1e-06 of peak {peak:.3e} at t = {time:.6g}"
            )
        return WaveGrid(cfg.xmin, cfg.dx, values.copy(), time)

    psi = initial.values.copy()
    t0 = initial.time
    out = {}
    if 0 in capture:
        out[0] = checked(psi, t0)
    half_phase = None
    for p in range(1, min(cfg.steps, max(capture, default=0)) + 1):
        if half_phase is None or not static:
            vn = _tree_taylor(model, t0 + (p - 0.5) * cfg.dt, model.degree)
            v_grid = np.polynomial.polynomial.polyval(xs, vn)
            half_phase = np.exp(-0.5j * v_grid * cfg.dt / params.hbar)
        psi = half_phase * psi
        psi = np.fft.ifft(kinetic_phase * np.fft.fft(psi))
        psi = half_phase * psi
        if p in capture:
            out[p] = checked(psi, t0 + p * cfg.dt)
    return out


# ---------------------------------------------------------------------------
# textbook reconstruction, and `tdse run`'s outputs built from it


class RunObservables(NamedTuple):  # the columns of a `run` row after t
    norm2: float
    mean_x: float
    mean_x2: float
    mean_p_re: float
    mean_p_im: float


def reference_reconstruct(state, xmin, xmax, points, params):
    """evaluate_on_grid followed by the window's moments and <p>, written the
    plain way: the window is rebuilt and checked on every call, |psi|^2 is
    computed once for the norm and again for the moments, S and S' are
    Horner sums at the sample points, and the quadrature is np.trapezoid.
    <p> = -i*hbar * integral of S'|psi|^2 / norm^2, as psi' = S' psi; where
    |psi|^2 underflows to 0, S' counts as 0.  Returns (values, xs,
    RunObservables), xs being the positions xmin + j*dx of the moments."""
    if not xmax > xmin:
        raise ValueError(f"xmax must exceed xmin, got [{xmin}, {xmax}]")
    if points < 8:
        raise ValueError(f"points must be at least 8, got {points}")
    samples = np.linspace(xmin, xmax, points)

    def horner(coeffs):
        s = np.full(samples.shape, coeffs[-1], dtype=np.complex128)
        for coeff in coeffs[-2::-1]:
            s = s * samples + coeff
        return s

    s = horner(state.alphas)
    peak = float(np.max(s.real))
    if not peak <= 700.0:
        reach = "is not finite" if math.isnan(peak) else f"reaches {peak:.1f} > 700"
        raise ExponentOverflow(f"Re S {reach} on the requested window")
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
    finite("an observable", mean_x, mean_x2)
    with np.errstate(over="ignore", invalid="ignore"):
        ds = horner(np.arange(1, len(state.alphas)) * state.alphas[1:])
        ds = np.where(density > 0.0, ds, 0.0)
        mean_p_re = params.hbar * float(np.trapezoid(ds.imag * density, dx=dx)) / n2
        # an edge term that cancels exactly is +0.0, not -0.0
        mean_p_im = -params.hbar * float(np.trapezoid(ds.real * density, dx=dx)) / n2 + 0.0
    finite("an observable", mean_p_re, mean_p_im)
    return values, xs, RunObservables(n2, mean_x, mean_x2, mean_p_re, mean_p_im)


def reference_run(config_path: str):
    """(exit code, {file name: bytes}) of `tdse run` on a config: the CSVs
    built as lists of rows of numpy scalars, with one reference_reconstruct
    call per snapshot, and the stepper's error, a blow-up (3) or a potential
    that fails after the first step (4), taking precedence over a snapshot
    that cannot be reconstructed or is not negligible at the window's edges
    (2): |psi| there must be at most 1e-6 of its peak past quadratic
    closure, else at most 1e-5."""
    cfg = load_config(config_path)
    trajectory = propagate(cfg.initial, cfg.potential, cfg.params, cfg.stepper)
    closed = max_support_index(cfg.initial.alphas) <= 2 and cfg.potential.degree <= 2

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
        magnitude = np.abs(values)
        # past closure the series, else the window, fails at the edges
        if max(magnitude[0], magnitude[-1]) > (1e-5 if closed else 1e-6) * magnitude.max():
            error = "edge leakage"
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
    if trajectory.error is not None:
        return _STEPPER_EXIT_CODE[type(trajectory.error)], files
    return (2 if error is not None else 0), files


_STEPPER_EXIT_CODE = {BlowUp: 3, EvaluationError: 4}


def reference_compare(config_path: str):
    """(exit code, {file name: bytes}) of `tdse compare` on a config, one
    snapshot at a time: for each snapshot on the oracle's step grid,
    reference_split_step from the start to its step, state_on_oracle_grid,
    observables of both grids and l2_distance.  The first snapshot that
    cannot be compared ends the rows: a potential the oracle cannot evaluate
    (4), an oracle grid that leaks at the window's edges, then a series grid
    that cannot be reconstructed or, past quadratic closure, is not 1e-6 of
    its peak at the window's edges (2); the stepper's error, a blow-up (3)
    or a potential that fails after the first step (4), takes precedence."""
    cfg = load_config(config_path)
    oracle_cfg = _oracle_config(cfg)
    trajectory = propagate(cfg.initial, cfg.potential, cfg.params, cfg.stepper)
    closed = max_support_index(cfg.initial.alphas) <= 2 and cfg.potential.degree <= 2
    start = state_on_oracle_grid(cfg.initial, oracle_cfg)
    error, rows, norms0 = None, [], None
    for snap in trajectory.snapshots:
        j = (snap.time - cfg.initial.time) / oracle_cfg.dt
        if abs(j - round(j)) > 1e-6 * max(1.0, abs(j)):
            continue
        j = round(j)
        try:
            oracle = reference_split_step(start, cfg.potential, cfg.params, oracle_cfg, {j})[j]
            series = state_on_oracle_grid(snap, oracle_cfg)
            obs_s, obs_o = observables(series), observables(oracle)
            l2 = l2_distance(oracle, series)
        except (EdgeLeakage, ExponentOverflow, ZeroNorm, EvaluationError) as exc:
            error = exc
            break
        magnitude = np.abs(series.values)
        if not closed and max(magnitude[0], magnitude[-1]) > 1e-6 * magnitude.max():
            error = "series edge leakage"
            break
        norms0 = norms0 or (obs_s.norm2, obs_o.norm2)
        d_norm = obs_s.norm2 / norms0[0] - obs_o.norm2 / norms0[1]
        rows.append((snap.time, l2, obs_s.mean_x - obs_o.mean_x, d_norm))
    text = "t,l2_distance,d_mean_x,d_norm\n" + "".join(
        ",".join(f"{value:.16e}" for value in row) + "\n" for row in rows
    )
    files = {"compare.csv": text.encode("utf-8")}
    if trajectory.error is not None:
        return _STEPPER_EXIT_CODE[type(trajectory.error)], files
    if isinstance(error, EvaluationError):
        return 4, files
    return (2 if error is not None else 0), files
