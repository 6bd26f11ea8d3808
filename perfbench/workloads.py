"""The benchmark's workloads: seeded config generation, the tdse CLI calls
that make up one operation, and the correctness checks on their outputs.

Each workload draws a few packet variants (x0, sigma, k0) from the seed
and writes one config file per variant; the program sees only those files
(and, for dense_run, a samples CSV cut from its own output).  Operations
cycle through the variants, so every variant runs several times and the
CSV bytes of each repeat can be compared with the first.
"""

import contextlib
import io
import math
import os
import random
import time
from dataclasses import dataclass
from typing import Callable

VARIANTS = 8


class CheckFailed(Exception):
    """An operation's output failed a correctness check."""


@dataclass(frozen=True)
class Packet:
    x0: float
    sigma: float
    k0: float


@dataclass(frozen=True)
class Workload:
    name: str
    x0: tuple
    sigma: tuple
    k0: tuple
    config: str  # template with {x0}, {sigma}, {k0}
    operate: Callable  # (cli, config path, work dir, packet) -> error_final


def _cfg(template: str) -> str:
    return "\n".join(line.strip() for line in template.strip().splitlines()) + "\n"


class Cli:
    """Calls a tdse.cli.main-like function in-process and accumulates the
    wall and process CPU time spent inside it."""

    def __init__(self, main):
        self.main = main
        self.wall = 0.0
        self.cpu = 0.0

    def __call__(self, *argv: str) -> None:
        out, err = io.StringIO(), io.StringIO()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.main(list(argv))
        self.cpu += time.process_time() - cpu0
        self.wall += time.perf_counter() - wall0
        status = out.getvalue().strip()
        if code != 0 or not status.startswith("status=completed"):
            raise CheckFailed(
                f"tdse {argv[0]}: exit {code}, stdout {status!r}, stderr {err.getvalue().strip()!r}"
            )


def read_csv(path: str) -> tuple:
    """(header fields, rows of floats); empty fields read as None.  Raises
    CheckFailed on a missing file or a non-finite or non-numeric field."""
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise CheckFailed(f"cannot read {os.path.basename(path)}: {exc}") from None
    if not lines:
        raise CheckFailed(f"{os.path.basename(path)} is empty")
    header = lines[0].split(",")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != len(header):
            raise CheckFailed(f"{os.path.basename(path)}:{lineno}: {len(fields)} fields")
        row = []
        for field in fields:
            if field == "":
                row.append(None)
                continue
            try:
                value = float(field)
            except ValueError:
                raise CheckFailed(f"{os.path.basename(path)}:{lineno}: {field!r}") from None
            if not math.isfinite(value):
                raise CheckFailed(f"{os.path.basename(path)}:{lineno}: non-finite {field}")
            row.append(value)
        rows.append(row)
    return header, rows


def check_outputs_finite(out_dir: str) -> None:
    for name in sorted(os.listdir(out_dir)):
        read_csv(os.path.join(out_dir, name))


def _quartic_compare(cli: Cli, cfg: str, work: str, packet: Packet) -> float:
    out = os.path.join(work, "out")
    cli("compare", "--config", cfg, "--out", out)
    _, rows = read_csv(os.path.join(out, "compare.csv"))
    l2 = rows[-1][1]
    if not l2 <= 1e-2:
        raise CheckFailed(f"final l2 distance {l2:.3e} exceeds 1e-2")
    return l2


DRIVEN_HALVINGS = 2


def _driven_converge(cli: Cli, cfg: str, work: str, packet: Packet) -> float:
    out = os.path.join(work, "out")
    cli("converge", "--config", cfg, "--halvings", str(DRIVEN_HALVINGS), "--out", out)
    _, rows = read_csv(os.path.join(out, "convergence.csv"))
    if len(rows) != DRIVEN_HALVINGS + 1:
        raise CheckFailed(f"convergence.csv has {len(rows)} levels")
    for row in rows[1:]:
        # forward Euler is first order: halving dt halves the error
        if not 1.8 <= row[2] <= 2.2:
            raise CheckFailed(f"error ratio {row[2]:.4f} is not first order")
    return rows[-1][1]


def _dense_run(cli: Cli, cfg: str, work: str, packet: Packet) -> float:
    out = os.path.join(work, "out")
    cli("run", "--config", cfg, "--out", out)

    # cut the packet core out of the program's own output, keeping the
    # printed digits so the fit sees exactly what was written
    with open(os.path.join(out, "wavefunction_final.csv"), encoding="utf-8") as handle:
        lines = handle.read().splitlines()[1:]
    fields = [line.split(",") for line in lines]
    peak = max(float(f[3]) for f in fields)
    core = [f[:3] for f in fields if float(f[3]) >= 1e-6 * peak]
    samples = os.path.join(work, "samples.csv")
    with open(samples, "w", encoding="utf-8") as handle:
        handle.write("x,psi_re,psi_im\n")
        handle.writelines(",".join(f) + "\n" for f in core)
    cli("fit", "--samples", samples, "--degree", "2", "--out", os.path.join(out, "fit.csv"))

    _, coeff_rows = read_csv(os.path.join(out, "coefficients.csv"))
    t_final = coeff_rows[-1][0]
    final = {int(r[1]): complex(r[2], r[3]) for r in coeff_rows if r[0] == t_final}
    _, fit_rows = read_csv(os.path.join(out, "fit.csv"))
    for n, re_part, im_part in fit_rows:
        diff = complex(re_part, im_part) - final[int(n)]
        if n == 0:  # the fitted phase is unwrapped from (-pi, pi]
            diff = complex(diff.real, math.remainder(diff.imag, 2.0 * math.pi))
        if abs(diff) > 1e-6:
            raise CheckFailed(f"fit misses alpha_{int(n)} by {abs(diff):.3e}")

    _, obs_rows = read_csv(os.path.join(out, "observables.csv"))
    # hbar = 1: the free packet keeps <p> = k0 exactly
    return max(abs(r[4] - packet.k0) for r in obs_rows)


# Past quadratic closure: the N = 16 Cauchy product in state and the
# per-stage RK4 overhead in integrators dominate; the oracle is static.
# 512 oracle steps keep the oracle's share small; the final l2 distance is
# set by the series, not the oracle (it moves 0.1% from 512 to 4096 steps).
# sigma stays near 1 because the final l2 distance, set by the series
# truncation at the window edges, changes ~15% per 1% of sigma.
QUARTIC_COMPARE = Workload(
    name="quartic_compare",
    x0=(-0.1, 0.1),
    sigma=(0.995, 1.005),
    k0=(-0.1, 0.1),
    operate=_quartic_compare,
    config=_cfg(
        """
        [potential]
        expression = x^2/2 + 0.01*x^4
        [initial]
        kind = gaussian
        x0 = {x0}
        sigma = {sigma}
        k0 = {k0}
        truncation_order = 16
        [stepper]
        integrator = rk4
        dt = 4e-4
        steps = 1250
        snapshot_stride = 625
        [grid]
        xmin = -8.0
        xmax = 8.0
        points = 1024
        [oracle]
        points = 1024
        steps = 512
        """
    ),
)

# Quadratic closure is exact, so the error is pure dt error.  The only
# time-dependent potential: evaluated every stage and every oracle step, on
# the non-static oracle path, and every converge level reruns an identical
# oracle (same horizon, default 2048 steps), so oracle reuse would show here.
DRIVEN_CONVERGE = Workload(
    name="driven_converge",
    x0=(-0.1, 0.1),
    sigma=(0.98, 1.02),
    k0=(-0.1, 0.1),
    operate=_driven_converge,
    config=_cfg(
        """
        [potential]
        expression = x^2/2 + 0.5*sin(2*t)*x + 0.1*cos(t)^2*x^2
        [initial]
        kind = gaussian
        x0 = {x0}
        sigma = {sigma}
        k0 = {k0}
        truncation_order = 2
        [stepper]
        integrator = euler
        dt = 1e-2
        steps = 100
        [grid]
        xmin = -10.0
        xmax = 10.0
        points = 256
        [oracle]
        points = 256
        """
    ),
)

# A snapshot every step on a wide grid: reconstruction and CSV writing
# dominate, no oracle, trivial potential.  It uses the trajectory the
# opposite way to quartic_compare (dense versus sparse snapshots).
DENSE_RUN = Workload(
    name="dense_run",
    x0=(-0.5, 0.5),
    sigma=(0.95, 1.05),
    k0=(1.98, 2.02),
    operate=_dense_run,
    config=_cfg(
        """
        [potential]
        expression = 0
        [initial]
        kind = gaussian
        x0 = {x0}
        sigma = {sigma}
        k0 = {k0}
        truncation_order = 2
        [stepper]
        integrator = rk4
        dt = 5e-3
        steps = 400
        snapshot_stride = 1
        [grid]
        xmin = -20.0
        xmax = 20.0
        points = 2001
        """
    ),
)

WORKLOADS = {w.name: w for w in (QUARTIC_COMPARE, DRIVEN_CONVERGE, DENSE_RUN)}


def make_packets(workload: Workload, seed: int, count: int = VARIANTS) -> list:
    """The packet variants for one seed; a string seed hashes the same in
    every interpreter, so the same seed always gives the same packets."""
    rng = random.Random(f"{workload.name}:{seed}")
    return [
        Packet(rng.uniform(*workload.x0), rng.uniform(*workload.sigma), rng.uniform(*workload.k0))
        for _ in range(count)
    ]


def config_text(workload: Workload, packet: Packet) -> str:
    return workload.config.format(x0=repr(packet.x0), sigma=repr(packet.sigma), k0=repr(packet.k0))


def run_operation(workload: Workload, cli: Cli, cfg: str, work: str, packet: Packet) -> float:
    """Run one operation in an empty work directory and check it; returns
    the workload's error against its reference.  Raises CheckFailed."""
    error = workload.operate(cli, cfg, work, packet)
    check_outputs_finite(os.path.join(work, "out"))
    return error


def output_bytes(work: str) -> dict:
    out = os.path.join(work, "out")
    result = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as handle:
            result[name] = handle.read()
    return result
