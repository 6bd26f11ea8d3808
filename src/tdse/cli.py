"""Batch front-end: run / converge / compare / fit commands with
deterministic CSV artifacts.

Each command is straight-line code that raises on failure; `main` alone
maps an ending to an exit code, through one table, `_EXIT_CODES`, and one
line: `status=aborted_blowup` on stdout for a blow-up, else `error:` on
stderr.  Exit codes: 0 success; 2 a config or validation error, an output
that cannot be written, or a snapshot that cannot be reconstructed or
compared: an exponent overflow, a vanishing norm, or a grid not negligible
at its window's edges (a series past quadratic closure, compare's oracle,
or in run any packet, at 1e-5 of its peak when closed); 3 a blow-up; 4 a
potential-DSL error.  Every command keeps the rows before a blow-up or a
potential that fails after the first step, whose code wins over an earlier
failed snapshot's; run and compare keep those before a failed snapshot (in
compare also a potential its oracle cannot evaluate).  compare and converge
drive the oracle through tdse.oracle.compare_with_oracle, from the config
_oracle_config resolves.  All numbers are written with 17 significant digits
so identical inputs give byte-identical files; the only standard output is
one final status line.
"""

import argparse
import math
import os
import sys

from .config import ConfigError, RunConfig, load_config
from .initialization import fit_log_polynomial
from .integrators import BlowUp, StepperConfig, propagate
from .oracle import (
    ADAPTIVE_MAX_STEPS,
    ADAPTIVE_MIN_STEPS,
    ADAPTIVE_TOLERANCE,
    SNAPSHOT_FAILURES,
    EdgeLeakage,
    OracleConfig,
    check_alignment,
    compare_methods,
    compare_with_oracle,
    oracle_error_estimate,
    series_edge_guard,
)
from .potential import PotentialError
# evaluate_on_grid and observables are not called here, but perfbench/tracing.py
# wraps them under tdse.cli's names
from .reconstruction import (  # noqa: F401
    ExponentOverflow,
    Window,
    evaluate_on_grid,
    observables,
)
from .scenarios import detect_scenario, reference_error

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_DSL = 4

# the first row whose class matches wins: PotentialError is a ValueError
_EXIT_CODES = (
    (BlowUp, EXIT_BLOWUP),
    (PotentialError, EXIT_DSL),
    (ValueError, EXIT_CONFIG),
    (ExponentOverflow, EXIT_CONFIG),
    (EdgeLeakage, EXIT_CONFIG),
    (OSError, EXIT_CONFIG),
)


def _fmt(value: float) -> str:
    return f"{value:.16e}"


def _write_csv(path: str, header: str, lines) -> None:
    """header, then lines, each already formatted and ending in a newline."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(header + "\n")
        handle.writelines(lines)


def _resolve_out(args_out, cfg: RunConfig):
    out = args_out or cfg.output_dir
    if out is None:
        raise ConfigError("no output directory: pass --out or set [output] directory")
    return out


def _finish(error, report: str = "") -> int:
    """Once a command's rows are written, raise error, what ended them, for
    main; else print the completed status line, report appended."""
    if error is not None:
        raise error
    print(f"status=completed{report}")
    return EXIT_OK


def _next_pow2(n: int) -> int:
    power = 256
    while power < n:
        power *= 2
    return power


def _has_oracle_window(cfg: RunConfig) -> bool:
    """Whether [oracle] or else [grid] sets each of xmin, xmax and points."""
    opts = cfg.oracle
    return cfg.grid is not None or None not in (opts.xmin, opts.xmax, opts.points)


def _oracle_config(cfg: RunConfig, stepper: StepperConfig, default_steps=None) -> OracleConfig:
    """The oracle over the stepper's horizon.  Its window takes each of
    xmin, xmax and points from [oracle], else from [grid].  Its step count
    is [oracle] steps, else round(horizon / [oracle] dt), else default_steps
    (converge's fallback passes each count its oracle error estimate tries),
    else, when that is None too (compare), the stepper's own dt and steps.
    Its dt is [oracle] dt, else horizon / steps."""
    if not _has_oracle_window(cfg):
        raise ConfigError("the oracle needs a [grid] section (or [oracle] overrides)")
    horizon = stepper.dt * stepper.steps
    opts, grid = cfg.oracle, cfg.grid
    xmin = opts.xmin if opts.xmin is not None else grid.xmin
    xmax = opts.xmax if opts.xmax is not None else grid.xmax
    points = opts.points if opts.points is not None else _next_pow2(max(256, grid.points))
    if opts.steps is None and opts.dt is None and default_steps is None:
        dt, steps = stepper.dt, stepper.steps
    else:
        if opts.steps is not None:
            steps = opts.steps
        elif opts.dt is not None:
            steps = max(1, round(horizon / opts.dt))
        else:
            steps = default_steps
        dt = opts.dt if opts.dt is not None else horizon / steps
    return OracleConfig(xmin=xmin, xmax=xmax, points=points, dt=dt, steps=steps)


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    out_dir = _resolve_out(args.out, cfg)
    if cfg.grid is None:
        raise ConfigError("run needs a [grid] section for reconstruction output")
    trajectory = propagate(cfg.initial, cfg.potential, cfg.params, cfg.stepper)

    os.makedirs(out_dir, exist_ok=True)
    coeff_rows = (
        f"{snap.time:.16e},{n},{alpha.real:.16e},{alpha.imag:.16e}\n"
        for snap in trajectory.snapshots
        for n, alpha in enumerate(snap.alphas.tolist())
    )
    _write_csv(os.path.join(out_dir, "coefficients.csv"), "t,n,alpha_re,alpha_im", coeff_rows)

    # reconstruction can fail on non-normalizable states; keep whatever rows
    # were healthy
    window = Window.inclusive(cfg.grid.xmin, cfg.grid.xmax, cfg.grid.points)
    guard = series_edge_guard(cfg.initial, cfg.potential, window)
    reconstruction_error = None
    obs_rows = []
    for snap in trajectory.snapshots:
        try:
            values = window.sample(snap)
            obs = window.moments(values)
            p = window.mean_p(snap, cfg.params.hbar, obs.norm2)
            guard(window.magnitude, snap.time)
        except SNAPSHOT_FAILURES as exc:
            reconstruction_error = exc
            break
        obs_rows.append(
            f"{snap.time:.16e},{obs.norm2:.16e},{obs.mean_x:.16e},{obs.mean_x2:.16e},"
            f"{p.real:.16e},{p.imag:.16e}\n"
        )
    _write_csv(
        os.path.join(out_dir, "observables.csv"),
        "t,norm2,mean_x,mean_x2,mean_p_re,mean_p_im",
        obs_rows,
    )
    if reconstruction_error is None:
        # the loop above ended on the final snapshot: its values are the last
        # ones; Python's abs of a Python complex matches numpy's scalar abs,
        # which numpy's array abs does not in the last bit
        wf_rows = (
            f"{x:.16e},{v.real:.16e},{v.imag:.16e},{abs(v) ** 2:.16e}\n"
            for x, v in zip(window.xs.tolist(), values.tolist())
        )
        _write_csv(
            os.path.join(out_dir, "wavefunction_final.csv"),
            "x,psi_re,psi_im,prob_density",
            wf_rows,
        )
    return _finish(trajectory.error or reconstruction_error)


def _oracle_errors(cfg: RunConfig, finals: list, oracle_cfg: OracleConfig, adaptive: bool):
    """(errors, status report) of the completed levels' final states
    against the oracle.  When adaptive, its step count S doubles until its
    error estimate is within ADAPTIVE_TOLERANCE of the finest level's error.
    The first estimate's S/2-step run marches in the S-step run's FFT calls;
    each doubling adds one oracle run, as the S-step run's final grid is the
    coarse grid of the estimate at 2S."""

    def oracle_run(oracle_cfg, pair=None):
        """The oracle's final grid, the final grid of pair's run alongside it
        (None without pair), and the l2 of each of finals."""
        states = [cfg.initial, *finals]
        report, final, coarse = compare_with_oracle(
            states, cfg.potential, cfg.params, oracle_cfg, pair=pair
        )
        if report.error is not None:
            raise report.error
        return final, coarse, report.l2[1:].tolist()

    if not adaptive:
        return oracle_run(oracle_cfg)[2], ""
    steps = oracle_cfg.steps
    fine, coarse, errors = oracle_run(oracle_cfg, _oracle_config(cfg, cfg.stepper, steps // 2))
    best = math.inf
    while (estimate := oracle_error_estimate(fine, coarse)) > ADAPTIVE_TOLERANCE * errors[-1]:
        best = min(best, estimate)
        if steps >= ADAPTIVE_MAX_STEPS:
            raise ConfigError(
                f"the oracle's error estimate stays above {ADAPTIVE_TOLERANCE:.0%} of the "
                f"finest error {errors[-1]:.3e} up to {ADAPTIVE_MAX_STEPS} steps "
                f"(best {best:.3e}); set [oracle] steps to override"
            )
        steps *= 2
        coarse = fine
        fine, _, errors = oracle_run(_oracle_config(cfg, cfg.stepper, steps))
    return errors, f" oracle_steps={steps} oracle_error={_fmt(estimate)}"


def _cmd_converge(args) -> int:
    cfg = load_config(args.config)
    out_dir = _resolve_out(args.out, cfg)
    if args.halvings < 1:
        raise ConfigError("--halvings must be at least 1")
    detected = detect_scenario(cfg.potential, cfg.initial, cfg.params)
    requested = cfg.converge_scenario
    if requested == "auto":
        scenario = detected
        if scenario is None:
            if cfg.allow_oracle_fallback and _has_oracle_window(cfg):
                scenario = "oracle"
            else:
                raise ConfigError(
                    "no registered closed-form scenario matches this config "
                    "and the oracle fallback is disabled or lacks a [grid]"
                )
    elif requested == "oracle":
        scenario = "oracle"
    else:
        if requested != detected:
            raise ConfigError(
                f"config does not match the requested scenario '{requested}'"
                + (f" (detected: {detected})" if detected else "")
            )
        scenario = requested

    # with no [oracle] steps or dt, the oracle's step count S is sized by
    # its own error estimate, from ADAPTIVE_MIN_STEPS up; level k's horizon
    # (dt/2^k)*(steps*2^k) and final time are level 0's, bit for bit, so one
    # oracle config per S and one alignment check serve every level
    adaptive = scenario == "oracle" and cfg.oracle.steps is None and cfg.oracle.dt is None
    oracle_cfg = None
    if scenario == "oracle":
        oracle_cfg = _oracle_config(cfg, cfg.stepper, ADAPTIVE_MIN_STEPS if adaptive else None)
        level_0 = cfg.stepper.replace(snapshot_stride=cfg.stepper.steps)
        check_alignment(cfg.initial.time, level_0, oracle_cfg)
    trajectories = []
    for level in range(args.halvings + 1):
        factor = 2**level
        stepper = cfg.stepper.replace(
            dt=cfg.stepper.dt / factor,
            steps=cfg.stepper.steps * factor,
            snapshot_stride=cfg.stepper.steps * factor,
        )
        trajectory = propagate(cfg.initial, cfg.potential, cfg.params, stepper)
        if trajectory.error is not None:
            break  # a level that stopped is never compared
        trajectories.append(trajectory)

    errors, report = [], ""
    if oracle_cfg is None:
        errors = [
            reference_error(scenario, cfg.potential, cfg.initial, t.final, cfg.params)
            for t in trajectories
        ]
    elif trajectories:
        errors, report = _oracle_errors(cfg, [t.final for t in trajectories], oracle_cfg, adaptive)

    rows = []
    for i, err in enumerate(errors):
        # a ratio exists only against a nonzero error of a previous level
        ratio = _fmt(errors[i - 1] / err) if i > 0 and err != 0.0 else ""
        rows.append(f"{cfg.stepper.dt / 2**i:.16e},{err:.16e},{ratio}\n")
    os.makedirs(out_dir, exist_ok=True)
    _write_csv(os.path.join(out_dir, "convergence.csv"), "dt,error,ratio", rows)
    return _finish(trajectory.error, report)


def _cmd_compare(args) -> int:
    cfg = load_config(args.config)
    out_dir = _resolve_out(args.out, cfg)
    oracle_cfg = _oracle_config(cfg, cfg.stepper)
    report = compare_methods(cfg.initial, cfg.potential, cfg.params, cfg.stepper, oracle_cfg)

    os.makedirs(out_dir, exist_ok=True)
    rows = [
        f"{t:.16e},{l2:.16e},{dx:.16e},{dn:.16e}\n"
        for t, l2, dx, dn in zip(report.times, report.l2, report.d_mean_x, report.d_norm)
    ]
    _write_csv(os.path.join(out_dir, "compare.csv"), "t,l2_distance,d_mean_x,d_norm", rows)
    return _finish(report.error)


def _read_samples(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            lines = [line.strip() for line in handle if line.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read samples: {exc}") from None
    if not lines or lines[0] != "x,psi_re,psi_im":
        raise ConfigError("samples CSV must start with header 'x,psi_re,psi_im'")
    samples = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 3:
            raise ConfigError(f"samples line {lineno}: expected 3 fields, got {len(parts)}")
        try:
            x, re_part, im_part = (float(p) for p in parts)
        except ValueError:
            raise ConfigError(f"samples line {lineno}: non-numeric field") from None
        samples.append((x, complex(re_part, im_part)))
    return samples


def _cmd_fit(args) -> int:
    result = fit_log_polynomial(_read_samples(args.samples), args.degree)
    rows = [
        f"{n},{alpha.real:.16e},{alpha.imag:.16e}\n"
        for n, alpha in enumerate(result.state.alphas)
    ]
    parent = os.path.dirname(args.out)
    if parent:
        os.makedirs(parent, exist_ok=True)
    _write_csv(args.out, "n,alpha_re,alpha_im", rows)
    return _finish(None, f" residual={_fmt(result.residual)}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tdse",
        description="Coefficient-flow solver for the 1-D time-dependent "
        "Schrodinger equation, with a split-step grid oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="propagate and write coefficient/observable CSVs")
    run_p.add_argument("--config", required=True, help="path to the run config")
    run_p.add_argument("--out", help="output directory (default: [output] directory)")

    conv_p = sub.add_parser("converge", help="empirical order measurement under dt halving")
    conv_p.add_argument("--config", required=True)
    conv_p.add_argument("--halvings", type=int, required=True, help="number of dt halvings")
    conv_p.add_argument("--out", help="output directory")

    cmp_p = sub.add_parser("compare", help="cross-validate against the split-step oracle")
    cmp_p.add_argument("--config", required=True)
    cmp_p.add_argument("--out", help="output directory")

    fit_p = sub.add_parser("fit", help="fit coefficients to sampled wavefunction values")
    fit_p.add_argument("--samples", required=True, help="CSV with columns x,psi_re,psi_im")
    fit_p.add_argument("--degree", type=int, required=True)
    fit_p.add_argument("--out", required=True, help="output CSV path")
    return parser


_COMMANDS = {
    "run": _cmd_run,
    "converge": _cmd_converge,
    "compare": _cmd_compare,
    "fit": _cmd_fit,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except tuple(kind for kind, _ in _EXIT_CODES) as exc:
        if isinstance(exc, BlowUp):
            print("status=aborted_blowup")
        else:
            print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
