"""Batch front-end: run / converge / compare / fit commands with
deterministic CSV artifacts.

Each command is straight-line code that raises on failure; `main` alone maps
an ending to an exit code, through one table, `_EXIT_CODES`, and one line:
`status=aborted_blowup` on stdout for a blow-up, else `error:` on stderr.
Exit codes: 0 success; 3 a blow-up (BlowUp); 4 a potential-DSL error
(PotentialError); 2 an output that cannot be written (OSError) and every
other failure, each a ValueError: a command-line usage error, a config or
validation error, or a snapshot that cannot be reconstructed or compared, an
exponent overflow, a vanishing norm, or a grid not negligible at its
window's edges (a series past quadratic closure, compare's oracle, or in run
any packet, at 1e-5 of its peak when closed).  Every command keeps the rows
before a blow-up or a potential that fails after the first step (converge:
after level 0's), whose code wins over an earlier failed snapshot's; run and
compare keep those before a failed snapshot (compare also those before a
potential its oracle cannot evaluate).  run reconstructs its snapshots
_BLOCK at a time and checks them in order.  compare and converge drive the
oracle through tdse.oracle.compare_with_oracle, from the config
_oracle_config resolves on [grid]'s window.  run, converge and compare write
into the directory --out names, fit to the file it names; --out is required.
Numbers are written with 17 significant digits, a file by one %-format call,
so identical inputs give byte-identical files; the only standard output is
one final status line.
"""

import argparse
import math
import os
import sys

from .config import RunConfig, load_config
from .initialization import fit_log_polynomial
from .integrators import BlowUp, Trajectory, propagate
from .oracle import (
    ADAPTIVE_MAX_STEPS,
    ADAPTIVE_MIN_STEPS,
    ADAPTIVE_TOLERANCE,
    SNAPSHOT_FAILURES,
    OracleConfig,
    check_alignment,
    compare_methods,
    compare_with_oracle,
    oracle_error_estimate,
    series_edge_guard,
)
from .potential import EvaluationError, PotentialError
# evaluate_on_grid and observables are not called here, but perfbench/tracing.py
# wraps them under tdse.cli's names
from .reconstruction import Window, evaluate_on_grid, observables  # noqa: F401
from .scenarios import detect_scenario

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_DSL = 4

# the first row whose class matches wins: PotentialError is a ValueError
_EXIT_CODES = (
    (BlowUp, EXIT_BLOWUP),
    (PotentialError, EXIT_DSL),
    (ValueError, EXIT_CONFIG),
    (OSError, EXIT_CONFIG),
)

# run reconstructs its snapshots this many at a time
_BLOCK = 4


def _fmt(value: float) -> str:
    return f"{value:.16e}"


def _write_csv(path: str, header: str, row_format: str, fields: list) -> None:
    """header, then one row_format line for each row of fields, the rows'
    fields in order, filled in by one %-format call."""
    rows = len(fields) // row_format.count("%")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(header + "\n" + (row_format * rows) % tuple(fields))


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


def _oracle_config(cfg: RunConfig, default_steps=None) -> OracleConfig:
    """The oracle over the horizon of cfg's stepper, on [grid]'s window, at
    [oracle] points, else [grid] points rounded up to a power of two (at
    least 256).  Its step count is [oracle] steps, else default_steps
    (converge passes each count its oracle error estimate tries), and its dt
    horizon / steps; when both are None (compare), it takes the stepper's
    own dt and steps."""
    if cfg.grid is None:
        raise ValueError("the oracle needs a [grid] section")
    stepper, opts, grid = cfg.stepper, cfg.oracle, cfg.grid
    points = opts.points if opts.points is not None else _next_pow2(grid.points)
    steps = opts.steps or default_steps
    if steps is None:
        dt, steps = stepper.dt, stepper.steps
    else:
        dt = stepper.dt * stepper.steps / steps
    return OracleConfig(xmin=grid.xmin, xmax=grid.xmax, points=points, dt=dt, steps=steps)


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    if cfg.grid is None:
        raise ValueError("run needs a [grid] section for reconstruction output")
    trajectory = propagate(cfg.initial, cfg.potential, cfg.params, cfg.stepper)
    snapshots = trajectory.snapshots

    os.makedirs(args.out, exist_ok=True)
    coefficients = []
    for snap in snapshots:
        for n, alpha in enumerate(snap.alphas.tolist()):
            coefficients += (snap.time, n, alpha.real, alpha.imag)
    _write_csv(os.path.join(args.out, "coefficients.csv"), "t,n,alpha_re,alpha_im",
               "%.16e,%d,%.16e,%.16e\n", coefficients)

    # reconstruction can fail on non-normalizable states: the first snapshot
    # that fails, checked in order after its block, ends the healthy rows
    window = Window.inclusive(cfg.grid.xmin, cfg.grid.xmax, cfg.grid.points, _BLOCK)
    guard = series_edge_guard(cfg.initial, cfg.potential, window)
    reconstruction_error, observed = None, []
    try:
        for i, snap in enumerate(snapshots):
            b = i % _BLOCK
            if b == 0:
                window.observe(snapshots[i : i + _BLOCK], count=5)
            row = window.row(b, cfg.params.hbar)
            guard(window.magnitude[b], snap.time)
            observed += (snap.time, *row)
    except SNAPSHOT_FAILURES as exc:
        reconstruction_error = exc
    _write_csv(os.path.join(args.out, "observables.csv"),
               "t,norm2,mean_x,mean_x2,mean_p_re,mean_p_im", "%.16e," * 5 + "%.16e\n", observed)
    if reconstruction_error is None:
        # the loop above ended on the final snapshot, row b; Python's abs of a
        # Python complex matches numpy's scalar abs, which numpy's array abs
        # does not in the last bit
        wavefunction = []
        for x, v in zip(window.xs.tolist(), window.values[b].tolist()):
            wavefunction += (x, v.real, v.imag, abs(v) ** 2)
        _write_csv(os.path.join(args.out, "wavefunction_final.csv"),
                   "x,psi_re,psi_im,prob_density", "%.16e,%.16e,%.16e,%.16e\n", wavefunction)
    return _finish(trajectory.error or reconstruction_error)


def _oracle_errors(cfg: RunConfig, finals: list, oracle_cfg: OracleConfig):
    """(errors, status report) of the completed levels' final states
    against the oracle.  With no [oracle] steps, its step count S doubles
    until its error estimate is within ADAPTIVE_TOLERANCE of the finest
    level's error.  The first estimate's S/2-step run marches in the
    S-step run's FFT calls; each doubling adds one oracle run, as the S-step
    run's final grid is the coarse grid of the estimate at 2S."""

    def oracle_run(oracle_cfg, halved=False):
        """The oracle's final grid, the final grid of its run of half the
        steps alongside it (None unless halved), and the l2 of each of finals."""
        states = [cfg.initial, *finals]
        report, final, coarse = compare_with_oracle(
            states, cfg.potential, cfg.params, oracle_cfg, halved=halved
        )
        if report.error is not None:
            raise report.error
        return final, coarse, report.l2[1:].tolist()

    if cfg.oracle.steps is not None:
        return oracle_run(oracle_cfg)[2], ""
    steps = oracle_cfg.steps
    fine, coarse, errors = oracle_run(oracle_cfg, halved=True)
    best = math.inf
    while (estimate := oracle_error_estimate(fine, coarse)) > ADAPTIVE_TOLERANCE * errors[-1]:
        best = min(best, estimate)
        if steps >= ADAPTIVE_MAX_STEPS:
            raise ValueError(
                f"the oracle's error estimate stays above {ADAPTIVE_TOLERANCE:.0%} of the "
                f"finest error {errors[-1]:.3e} up to {ADAPTIVE_MAX_STEPS} steps "
                f"(best {best:.3e}); set [oracle] steps to override"
            )
        steps *= 2
        coarse = fine
        fine, _, errors = oracle_run(_oracle_config(cfg, steps))
    return errors, f" oracle_steps={steps} oracle_error={_fmt(estimate)}"


def _cmd_converge(args) -> int:
    cfg = load_config(args.config)
    if args.halvings < 1:
        raise ValueError("--halvings must be at least 1")
    # the closed form's error function, or None for the oracle
    reference = detect_scenario(cfg.potential, cfg.initial, cfg.params)
    if cfg.converge_scenario == "oracle":
        reference = None
    elif reference is None and cfg.converge_scenario == "closed":
        raise ValueError("no registered closed-form scenario matches this config")
    elif reference is None and cfg.grid is None:
        raise ValueError(
            "no registered closed-form scenario matches this config and the oracle lacks a [grid]"
        )

    # with no [oracle] steps, the oracle's step count S is sized by its own
    # error estimate, from ADAPTIVE_MIN_STEPS up; level k's horizon
    # (dt/2^k)*(steps*2^k) and final time are level 0's, bit for bit, so one
    # oracle config per S and one alignment check serve every level
    if reference is None:
        oracle_cfg = _oracle_config(cfg, ADAPTIVE_MIN_STEPS)
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
        try:
            trajectory = propagate(cfg.initial, cfg.potential, cfg.params, stepper)
        except EvaluationError as exc:  # before a finer level's first step ends
            if level == 0:
                raise
            trajectory = Trajectory([], exc)
        if trajectory.error is not None:
            break  # a level that stopped is never compared
        trajectories.append(trajectory)

    errors, report = [], ""
    if reference is not None:
        errors = [reference(t.final) for t in trajectories]
    elif trajectories:
        errors, report = _oracle_errors(cfg, [t.final for t in trajectories], oracle_cfg)

    rows = []
    for i, err in enumerate(errors):
        # a ratio exists only against a nonzero error of a previous level
        ratio = _fmt(errors[i - 1] / err) if i > 0 and err != 0.0 else ""
        rows += (cfg.stepper.dt / 2**i, err, ratio)
    os.makedirs(args.out, exist_ok=True)
    _write_csv(os.path.join(args.out, "convergence.csv"), "dt,error,ratio",
               "%.16e,%.16e,%s\n", rows)
    return _finish(trajectory.error, report)


def _cmd_compare(args) -> int:
    cfg = load_config(args.config)
    oracle_cfg = _oracle_config(cfg)
    report = compare_methods(cfg.initial, cfg.potential, cfg.params, cfg.stepper, oracle_cfg)

    os.makedirs(args.out, exist_ok=True)
    columns = (report.times, report.l2, report.d_mean_x, report.d_norm)
    rows = [value for row in zip(*columns) for value in row]
    _write_csv(os.path.join(args.out, "compare.csv"), "t,l2_distance,d_mean_x,d_norm",
               "%.16e,%.16e,%.16e,%.16e\n", rows)
    return _finish(report.error)


def _read_samples(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            lines = [line.strip() for line in handle if line.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read samples: {exc}") from None
    if not lines or lines[0] != "x,psi_re,psi_im":
        raise ValueError("samples CSV must start with header 'x,psi_re,psi_im'")
    samples = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 3:
            raise ValueError(f"samples line {lineno}: expected 3 fields, got {len(parts)}")
        try:
            x, re_part, im_part = (float(p) for p in parts)
        except ValueError:
            raise ValueError(f"samples line {lineno}: non-numeric field") from None
        samples.append((x, complex(re_part, im_part)))
    return samples


def _cmd_fit(args) -> int:
    result = fit_log_polynomial(_read_samples(args.samples), args.degree)
    rows = []
    for n, alpha in enumerate(result.state.alphas.tolist()):
        rows += (n, alpha.real, alpha.imag)
    parent = os.path.dirname(args.out)
    if parent:
        os.makedirs(parent, exist_ok=True)
    _write_csv(args.out, "n,alpha_re,alpha_im", "%d,%.16e,%.16e\n", rows)
    return _finish(None, f" residual={_fmt(result.residual)}")


class _Parser(argparse.ArgumentParser):
    """Raises a usage error for main to report, where argparse would print
    its usage and exit; subcommand parsers are of the same class."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tdse",
        description="Coefficient-flow solver for the 1-D time-dependent "
        "Schrodinger equation, with a split-step grid oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="propagate and write coefficient/observable CSVs")
    run_p.add_argument("--config", required=True, help="path to the run config")
    run_p.add_argument("--out", required=True, help="output directory")

    conv_p = sub.add_parser("converge", help="empirical order measurement under dt halving")
    conv_p.add_argument("--config", required=True)
    conv_p.add_argument("--halvings", type=int, required=True, help="number of dt halvings")
    conv_p.add_argument("--out", required=True, help="output directory")

    cmp_p = sub.add_parser("compare", help="cross-validate against the split-step oracle")
    cmp_p.add_argument("--config", required=True)
    cmp_p.add_argument("--out", required=True, help="output directory")

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
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except tuple(kind for kind, _ in _EXIT_CODES) as exc:
        if isinstance(exc, BlowUp):
            print("status=aborted_blowup")
        else:
            print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
