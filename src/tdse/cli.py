"""Batch front-end: run / converge / compare / fit commands with
deterministic CSV artifacts.

Exit codes: 0 success, 2 config or validation error, 3 propagation
aborted by blow-up detection (partial outputs are still written),
4 potential-DSL error.  All numbers are written with 17 significant
digits so identical inputs give byte-identical files; the only standard
output is one final status line.
"""

import argparse
import os
import sys
from dataclasses import replace

from .config import ConfigError, RunConfig, load_config
from .initialization import DegenerateSystem, SampleTooSmall, fit_log_polynomial
from .integrators import StepperConfig, propagate
from .oracle import EdgeLeakage, GridMismatch, OracleConfig, compare_methods
from .potential import PotentialError
from .reconstruction import ExponentOverflow, ZeroNorm, evaluate_on_grid, observables
from .scenarios import detect_scenario, reference_error

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_DSL = 4


def _fmt(value: float) -> str:
    return f"{value:.16e}"


def _error(message) -> None:
    print(f"error: {message}", file=sys.stderr)


def _write_csv(path: str, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(header + "\n")
        for row in rows:
            handle.write(",".join(row) + "\n")


def _load(path: str):
    """(config, 0) on success, (None, exit_code) with the message printed."""
    try:
        return load_config(path), EXIT_OK
    except PotentialError as exc:
        _error(exc)
        return None, EXIT_DSL
    except ConfigError as exc:
        _error(exc)
        return None, EXIT_CONFIG


def _resolve_out(args_out, cfg: RunConfig):
    out = args_out or cfg.output_dir
    if out is None:
        raise ConfigError("no output directory: pass --out or set [output] directory")
    return out


def _next_pow2(n: int) -> int:
    power = 256
    while power < n:
        power *= 2
    return power


def _oracle_config(cfg: RunConfig, stepper: StepperConfig, default_steps=None) -> OracleConfig:
    if cfg.grid is None:
        raise ConfigError("the oracle needs a [grid] section (or [oracle] overrides)")
    horizon = stepper.dt * stepper.steps
    xmin = cfg.oracle.xmin if cfg.oracle.xmin is not None else cfg.grid.xmin
    xmax = cfg.oracle.xmax if cfg.oracle.xmax is not None else cfg.grid.xmax
    points = cfg.oracle.points or _next_pow2(max(256, cfg.grid.points))
    if default_steps is not None:
        steps = cfg.oracle.steps or default_steps
        dt = horizon / steps
    elif cfg.oracle.steps is not None and cfg.oracle.dt is None:
        steps = cfg.oracle.steps
        dt = horizon / steps
    elif cfg.oracle.dt is not None and cfg.oracle.steps is None:
        dt = cfg.oracle.dt
        steps = max(1, round(horizon / dt))
    else:
        dt = cfg.oracle.dt if cfg.oracle.dt is not None else stepper.dt
        steps = cfg.oracle.steps if cfg.oracle.steps is not None else stepper.steps
    try:
        return OracleConfig(xmin=xmin, xmax=xmax, points=points, dt=dt, steps=steps)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _cmd_run(args) -> int:
    cfg, code = _load(args.config)
    if cfg is None:
        return code
    try:
        out_dir = _resolve_out(args.out, cfg)
        if cfg.grid is None:
            raise ConfigError("run needs a [grid] section for reconstruction output")
    except ConfigError as exc:
        _error(exc)
        return EXIT_CONFIG

    try:
        trajectory = propagate(cfg.initial, cfg.potential, cfg.params, cfg.stepper)
    except PotentialError as exc:
        _error(exc)
        return EXIT_DSL

    os.makedirs(out_dir, exist_ok=True)
    coeff_rows = []
    for snap in trajectory.snapshots:
        for n, alpha in enumerate(snap.alphas):
            coeff_rows.append((_fmt(snap.time), str(n), _fmt(alpha.real), _fmt(alpha.imag)))
    _write_csv(os.path.join(out_dir, "coefficients.csv"), "t,n,alpha_re,alpha_im", coeff_rows)

    # reconstruction can fail on non-normalizable states; keep whatever rows
    # were healthy, and let a blow-up abort (exit 3) take precedence over the
    # reconstruction failure (exit 2)
    reconstruction_error = None
    obs_rows = []
    for snap in trajectory.snapshots:
        try:
            grid = evaluate_on_grid(snap, cfg.grid.xmin, cfg.grid.xmax, cfg.grid.points)
            obs = observables(grid, cfg.params)
        except (ExponentOverflow, ZeroNorm) as exc:
            reconstruction_error = exc
            break
        obs_rows.append(
            (
                _fmt(snap.time),
                _fmt(obs.norm2),
                _fmt(obs.mean_x),
                _fmt(obs.mean_x2),
                _fmt(obs.mean_p_re),
                _fmt(obs.mean_p_im),
            )
        )
    _write_csv(
        os.path.join(out_dir, "observables.csv"),
        "t,norm2,mean_x,mean_x2,mean_p_re,mean_p_im",
        obs_rows,
    )
    if reconstruction_error is None:
        # the loop above ended on the final snapshot: its grid is the last one
        wf_rows = [
            (_fmt(x), _fmt(v.real), _fmt(v.imag), _fmt(abs(v) ** 2))
            for x, v in zip(grid.xs, grid.values)
        ]
        _write_csv(
            os.path.join(out_dir, "wavefunction_final.csv"),
            "x,psi_re,psi_im,prob_density",
            wf_rows,
        )

    if trajectory.status != "completed":
        print(f"status={trajectory.status}")
        return EXIT_BLOWUP
    if reconstruction_error is not None:
        _error(reconstruction_error)
        return EXIT_CONFIG
    print(f"status={trajectory.status}")
    return EXIT_OK


def _cmd_converge(args) -> int:
    cfg, code = _load(args.config)
    if cfg is None:
        return code
    try:
        out_dir = _resolve_out(args.out, cfg)
        if args.halvings < 1:
            raise ConfigError("--halvings must be at least 1")
        detected = detect_scenario(cfg.potential, cfg.initial, cfg.params)
        requested = cfg.converge_scenario
        if requested == "auto":
            scenario = detected
            if scenario is None:
                if cfg.allow_oracle_fallback and cfg.grid is not None:
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
    except ConfigError as exc:
        _error(exc)
        return EXIT_CONFIG

    dts, errors = [], []
    try:
        for level in range(args.halvings + 1):
            factor = 2**level
            stepper = replace(
                cfg.stepper,
                dt=cfg.stepper.dt / factor,
                steps=cfg.stepper.steps * factor,
                snapshot_stride=cfg.stepper.steps * factor,
            )
            if scenario == "oracle":
                oracle_cfg = _oracle_config(cfg, stepper, default_steps=2048)
                report = compare_methods(
                    cfg.initial, cfg.potential, cfg.params, stepper, oracle_cfg
                )
                err = float(report.l2[-1])
            else:
                trajectory = propagate(cfg.initial, cfg.potential, cfg.params, stepper)
                if trajectory.status != "completed":
                    err = float("nan")
                else:
                    err = reference_error(
                        scenario, cfg.potential, cfg.initial, trajectory.final, cfg.params
                    )
            dts.append(stepper.dt)
            errors.append(err)
    except PotentialError as exc:
        _error(exc)
        return EXIT_DSL
    except (ConfigError, GridMismatch, EdgeLeakage, ExponentOverflow, ZeroNorm, ValueError) as exc:
        _error(exc)
        return EXIT_CONFIG

    rows = []
    for i, (dt, err) in enumerate(zip(dts, errors)):
        if i == 0:
            ratio = ""
        else:
            ratio = _fmt(errors[i - 1] / err if err != 0.0 else float("inf"))
        rows.append((_fmt(dt), _fmt(err), ratio))
    os.makedirs(out_dir, exist_ok=True)
    _write_csv(os.path.join(out_dir, "convergence.csv"), "dt,error,ratio", rows)
    print("status=completed")
    return EXIT_OK


def _cmd_compare(args) -> int:
    cfg, code = _load(args.config)
    if cfg is None:
        return code
    try:
        out_dir = _resolve_out(args.out, cfg)
        oracle_cfg = _oracle_config(cfg, cfg.stepper)
    except ConfigError as exc:
        _error(exc)
        return EXIT_CONFIG

    try:
        report = compare_methods(
            cfg.initial, cfg.potential, cfg.params, cfg.stepper, oracle_cfg
        )
    except PotentialError as exc:
        _error(exc)
        return EXIT_DSL
    except (GridMismatch, EdgeLeakage, ExponentOverflow, ZeroNorm, ValueError) as exc:
        _error(exc)
        return EXIT_CONFIG

    os.makedirs(out_dir, exist_ok=True)
    rows = [
        (_fmt(t), _fmt(l2), _fmt(dx), _fmt(dn))
        for t, l2, dx, dn in zip(report.times, report.l2, report.d_mean_x, report.d_norm)
    ]
    _write_csv(os.path.join(out_dir, "compare.csv"), "t,l2_distance,d_mean_x,d_norm", rows)
    print(f"status={report.stepper_status}")
    return EXIT_OK if report.stepper_status == "completed" else EXIT_BLOWUP


def _read_samples(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            lines = [line.strip() for line in handle if line.strip()]
    except OSError as exc:
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
    try:
        samples = _read_samples(args.samples)
        result = fit_log_polynomial(samples, args.degree)
    except (ConfigError, SampleTooSmall, DegenerateSystem, ValueError) as exc:
        _error(exc)
        return EXIT_CONFIG
    rows = [
        (str(n), _fmt(alpha.real), _fmt(alpha.imag))
        for n, alpha in enumerate(result.state.alphas)
    ]
    parent = os.path.dirname(args.out)
    if parent:
        os.makedirs(parent, exist_ok=True)
    _write_csv(args.out, "n,alpha_re,alpha_im", rows)
    print(f"status=completed residual={_fmt(result.residual)}")
    return EXIT_OK


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
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
