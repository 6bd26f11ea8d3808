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
# evaluate_on_grid and observables are not called here, but perfbench/tracing.py
# wraps them under tdse.cli's names
from .reconstruction import (  # noqa: F401
    ExponentOverflow,
    ZeroNorm,
    evaluate_on_grid,
    observables,
    observables_kernel,
)
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


def _finish(status: str, reconstruction_error) -> int:
    """The status line and exit code of run and compare, which keep the rows
    before a failure: a blow-up abort (exit 3) takes precedence over a
    snapshot that could not be reconstructed (exit 2)."""
    if status != "completed":
        print(f"status={status}")
        return EXIT_BLOWUP
    if reconstruction_error is not None:
        _error(reconstruction_error)
        return EXIT_CONFIG
    print(f"status={status}")
    return EXIT_OK


def _next_pow2(n: int) -> int:
    power = 256
    while power < n:
        power *= 2
    return power


def _oracle_config(cfg: RunConfig, stepper: StepperConfig, default_steps=None) -> OracleConfig:
    """The oracle over the stepper's horizon.  Its step count is [oracle]
    steps, else round(horizon / [oracle] dt), else the command default:
    default_steps, or the stepper's own dt and steps when that is None.  Its
    dt is [oracle] dt, else horizon / steps."""
    if cfg.grid is None:
        raise ConfigError("the oracle needs a [grid] section (or [oracle] overrides)")
    horizon = stepper.dt * stepper.steps
    opts = cfg.oracle
    xmin = opts.xmin if opts.xmin is not None else cfg.grid.xmin
    xmax = opts.xmax if opts.xmax is not None else cfg.grid.xmax
    points = opts.points or _next_pow2(max(256, cfg.grid.points))
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
    coeff_rows = (
        (_fmt(snap.time), str(n), _fmt(alpha.real), _fmt(alpha.imag))
        for snap in trajectory.snapshots
        for n, alpha in enumerate(snap.alphas.tolist())
    )
    _write_csv(os.path.join(out_dir, "coefficients.csv"), "t,n,alpha_re,alpha_im", coeff_rows)

    # reconstruction can fail on non-normalizable states; keep whatever rows
    # were healthy
    xs, observe = observables_kernel(cfg.grid.xmin, cfg.grid.xmax, cfg.grid.points, cfg.params)
    reconstruction_error = None
    obs_rows = []
    for snap in trajectory.snapshots:
        try:
            values, obs = observe(snap)
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
        # the loop above ended on the final snapshot: its values are the last
        # ones; Python's abs of a Python complex matches numpy's scalar abs,
        # which numpy's array abs does not in the last bit
        wf_rows = (
            (_fmt(x), _fmt(v.real), _fmt(v.imag), _fmt(abs(v) ** 2))
            for x, v in zip(xs.tolist(), values.tolist())
        )
        _write_csv(
            os.path.join(out_dir, "wavefunction_final.csv"),
            "x,psi_re,psi_im,prob_density",
            wf_rows,
        )
    return _finish(trajectory.status, reconstruction_error)


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

    # one oracle run serves every level: the horizon, and so the oracle
    # config and its captured steps, is the same float at every level
    oracle_memo = {}
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
                    cfg.initial, cfg.potential, cfg.params, stepper, oracle_cfg,
                    memo=oracle_memo,
                )
                if report.reconstruction_error is not None:
                    raise report.reconstruction_error
                status = report.stepper_status
                if status == "completed":
                    err = float(report.l2[-1])
            else:
                trajectory = propagate(cfg.initial, cfg.potential, cfg.params, stepper)
                status = trajectory.status
                if status == "completed":
                    err = reference_error(
                        scenario, cfg.potential, cfg.initial, trajectory.final, cfg.params
                    )
            if status != "completed":
                break
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
        # a ratio exists only against a nonzero error of a previous level
        ratio = _fmt(errors[i - 1] / err) if i > 0 and err != 0.0 else ""
        rows.append((_fmt(dt), _fmt(err), ratio))
    os.makedirs(out_dir, exist_ok=True)
    _write_csv(os.path.join(out_dir, "convergence.csv"), "dt,error,ratio", rows)
    print(f"status={status}")
    return EXIT_OK if status == "completed" else EXIT_BLOWUP


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
    return _finish(report.stepper_status, report.reconstruction_error)


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
