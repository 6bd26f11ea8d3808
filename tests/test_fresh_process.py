"""The command line in fresh interpreters, one per row, as a user starts it.

The other tests import tdse once, in pytest's process, and turn numpy
warnings into errors; a child process shows what a user sees instead: a
failure at import time, or a warning printed on a success path.  Each child
compiles tdse from src without writing bytecode there, and writes its output
under the test's tmp_path.  Run one row with
`pytest tests/test_fresh_process.py -k <id>`.

The last rows run a command twice, under the kernels numpy and OpenBLAS
pick for this CPU and under their baseline ones, to show which files do not
depend on that choice.
"""

import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from test_cli import (
    CLOSED_FORM,
    CLOSED_FORM_BYTES,
    CONFIGS,
    CONVERGE_POLE_AT_A_FIRST_STEP,
    DRIVEN_FALLBACK,
    FIT_SAMPLES,
    HARMONIC_GAUSSIAN,
    ORACLE_LEAK,
    ORACLE_OVERFLOW,
    POLE_AFTER_50_STEPS,
)

SRC = Path(__file__).resolve().parents[1] / "src"
HARMONIC = (CONFIGS / "harmonic_coherent.cfg").read_text(encoding="utf-8")
FREE = (CONFIGS / "free_packet.cfg").read_text(encoding="utf-8")
IO = " --config {tmp}/input --out {tmp}/out"
RUN, COMPARE = "run" + IO, "compare" + IO
FIT = "fit --samples {tmp}/input --degree 2 --out {tmp}/fit.csv"


class Row(NamedTuple):
    argv: str  # after `python -m tdse.cli`; {tmp} is the test's tmp_path
    input: str | bytes  # written to {tmp}/input
    code: int
    stdout: str = ""  # the start of a success's one line; a failure prints none
    files: dict = {}  # path under {tmp}: its number of lines, or None if absent
    cells: dict = {}  # (path, line, column): the text of that CSV field


ROWS = {
    "run-harmonic": Row(RUN, HARMONIC, 0, "status=completed"),
    "compare-harmonic": Row(COMPARE, HARMONIC, 0, "status=completed"),
    "converge-harmonic": Row("converge --halvings 1" + IO, HARMONIC, 0, "status=completed"),
    "run-free": Row(RUN, FREE, 0, "status=completed"),
    # the oracle fallback on a driven well: its 256-step oracle run and the
    # 128-step run of its error estimate march together
    "converge-driven": Row("converge --halvings 2" + IO, DRIVEN_FALLBACK, 0,
                           "status=completed oracle_steps=256 oracle_error=",
                           {"out/convergence.csv": 4}),
    # the oracle grid leaks at the window's edge at t = 0.3: the rows of
    # t = 0, 0.1 and 0.2 are kept
    "compare-oracle-leak": Row(COMPARE, ORACLE_LEAK, 2, files={"out/compare.csv": 4}),
    # the packet passes 1e-5 of its peak at the window's edge at t = 0.3.  At
    # t = 0, S' = alpha_1 + 2 alpha_2 x has imaginary part k0 = 8 on the whole
    # window, so Re <p> reads 8 to the bit; the packet is even about the
    # window's centre, so the edge term of Im <p> cancels to +0.0, never -0.0
    "run-window-leak": Row(RUN, ORACLE_LEAK, 2, files={"out/observables.csv": 4},
                           cells={("out/observables.csv", 1, 4): "8.0000000000000000e+00",
                                  ("out/observables.csv", 1, 5): "0.0000000000000000e+00"}),
    # configparser's text for a line without `=` spans two lines
    "line-without-equals": Row(RUN, ORACLE_LEAK.replace("points = 256", "points"), 2,
                               files={"out": None}),
    "xmax-inf": Row(RUN, HARMONIC_GAUSSIAN.replace("xmax = 12.0", "xmax = inf"), 2,
                    files={"out": None}),
    # overflows at t = 0: the error names t, not a traceback
    "potential-overflow": Row(RUN, HARMONIC_GAUSSIAN.replace("x^2/2", "exp(800)*x^2"), 4,
                              files={"out": None}),
    # a pole at t = 0.5, after 50 healthy Euler steps: the rows of t = 0 to
    # 0.5 are kept, 3 coefficients each, and the last healthy state's grid
    "run-pole-after-50-steps": Row(RUN, POLE_AFTER_50_STEPS, 4,
                                   files={"out/coefficients.csv": 1 + 51 * 3,
                                          "out/observables.csv": 52,
                                          "out/wavefunction_final.csv": 257}),
    # level 1 meets a pole at t = 0.0025 in its first step: level 0's row is kept
    "converge-pole-at-a-finer-first-step": Row("converge --halvings 2" + IO,
                                               CONVERGE_POLE_AT_A_FIRST_STEP, 4,
                                               files={"out/convergence.csv": 2}),
    # no numpy warning or LAPACK message
    "fit-nan": Row(FIT, FIT_SAMPLES % b"0,nan,0", 2, files={"fit.csv": None}),
    "fit-x-overflows": Row(FIT, FIT_SAMPLES % b"1e200,1,0", 2, files={"fit.csv": None}),
    # V passes the double range on the oracle's window: no numpy warning, one
    # line naming the midpoint t, and the row of t = 0
    "compare-oracle-overflow": Row(COMPARE, ORACLE_OVERFLOW, 4, files={"out/compare.csv": 2}),
    # argparse's usage errors, reported by main as one error: line
    "run-without-out": Row("run --config {tmp}/input", HARMONIC, 2, files={"out": None}),
    "converge-halvings-not-an-int": Row("converge --halvings x" + IO, HARMONIC, 2,
                                        files={"out": None}),
    # rejected before a 4 x 10^6 fit matrix is built
    "fit-huge-degree": Row(FIT.replace("--degree 2", "--degree 1000000"), FIT_SAMPLES % b"0,1,0",
                           2, files={"fit.csv": None}),
}


def _tdse(tmp_path, argv: str, kernels: dict = {}):
    """`python -m tdse.cli argv` in a child started in tmp_path, with the
    kernel settings of KERNEL_SETTINGS given in kernels and no other."""
    env = {k: v for k, v in os.environ.items() if k not in KERNEL_SETTINGS}
    env.update(kernels, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "tdse.cli", *[arg.format(tmp=tmp_path) for arg in argv.split()]],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )


@pytest.mark.parametrize("row", ROWS.values(), ids=ROWS.keys())
def test_a_command_in_a_fresh_interpreter(tmp_path, row):
    data = row.input.encode("utf-8") if isinstance(row.input, str) else row.input
    (tmp_path / "input").write_bytes(data)
    result = _tdse(tmp_path, row.argv)
    assert result.returncode == row.code, result.stderr
    if row.code == 0:
        assert result.stderr == ""
        assert result.stdout.startswith(row.stdout) and result.stdout.count("\n") == 1
    else:
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), result.stderr
    for path, count in row.files.items():
        if count is None:
            assert not (tmp_path / path).exists()
        else:
            assert len((tmp_path / path).read_text().splitlines()) == count
    for (path, line, column), text in row.cells.items():
        assert (tmp_path / path).read_text().splitlines()[line].split(",")[column] == text


# the environment variables that pick numpy's SIMD loops and OpenBLAS's core
KERNEL_SETTINGS = ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")


def _baseline_kernels() -> tuple:
    """(a name for the ids, the settings) that turn off every SIMD extension
    this numpy build dispatches to and, on an OpenBLAS build, pin its
    oldest x86-64 core, whose complex dot has no FMA.

    The extensions are those found on this CPU and those not found: the
    build lists no "found" key when none is (on an older CPU, or under an
    outer NPY_DISABLE_CPU_FEATURES), and turning off one the CPU lacks
    changes nothing."""
    build = np.show_config(mode="dicts")
    simd = build["SIMD Extensions"]
    dispatched = simd.get("found", []) + simd.get("not found", [])
    settings = {"NPY_DISABLE_CPU_FEATURES": " ".join(dispatched)}
    if "openblas" not in build["Build Dependencies"]["blas"]["name"].lower():
        return "numpy-baseline-only-no-openblas", settings
    return "numpy-baseline-openblas-nehalem", {**settings, "OPENBLAS_CORETYPE": "Nehalem"}


BASELINE_NAME, BASELINE_KERNELS = _baseline_kernels()

# dense_run's seed-1 first packet: an N = 2 RK4 moving free packet.  Before
# the N = 2 step left numpy, its coefficients.csv differed between the two
# kernel settings
DENSE_FREE_PACKET = """\
[potential]
expression = 0
[initial]
kind = gaussian
x0 = -0.23588945844378484
sigma = 0.9640896428594216
k0 = 2.017993624386147
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
KERNEL_ROWS = {"dense-free-packet": DENSE_FREE_PACKET, "harmonic-coherent": HARMONIC}
# the observables' moments are sums over the grid in numpy's SIMD loops; the
# largest difference measured was 4.0e-16 of the largest field in its row
OBSERVABLES_BOUND = 1e-13


def _under_both_kernels(tmp_path, config: str, command: str) -> tuple:
    """The output directories of `tdse command` on config under the default
    and under the baseline kernels."""
    (tmp_path / "input").write_text(config, encoding="utf-8")
    outs = []
    for name, kernels in (("out_default", {}), ("out_baseline", BASELINE_KERNELS)):
        result = _tdse(tmp_path, f"{command} --config {{tmp}}/input --out {{tmp}}/{name}", kernels)
        assert (result.returncode, result.stderr) == (0, ""), result.stderr
        outs.append(tmp_path / name)
    return tuple(outs)


@pytest.mark.parametrize("config", KERNEL_ROWS.values(),
                         ids=[f"{name}-{BASELINE_NAME}" for name in KERNEL_ROWS])
def test_n2_coefficients_do_not_depend_on_the_kernels(tmp_path, config):
    # N = 2 steps in Python complex arithmetic, which no kernel setting reaches
    default, baseline = _under_both_kernels(tmp_path, config, "run")
    assert (default / "coefficients.csv").read_bytes() == (baseline / "coefficients.csv").read_bytes()
    got, want = (np.loadtxt(out / "observables.csv", delimiter=",", skiprows=1)
                 for out in (default, baseline))
    assert got.shape == want.shape
    scale = np.max(np.abs(want), axis=1, keepdims=True)
    assert np.all(np.abs(got - want) <= OBSERVABLES_BOUND * scale)


# every file these write was byte-equal under both settings: converge's
# closed-form references, on both configs and on the closed-form pins of
# test_cli that no config covers, and run's grids of the free packet, whose
# sums happen to round alike
PORTABLE_ROWS = {
    "run-free": (FREE, "run"),
    "converge-free": (FREE, "converge --halvings 3"),
    "converge-harmonic": (HARMONIC, "converge --halvings 3"),
    **{f"converge-{name}": (CLOSED_FORM.format(**CLOSED_FORM_BYTES[name][0]),
                            "converge --halvings 3")
       for name in ("linear-constant", "linear-cos", "harmonic-ground")},
}


@pytest.mark.parametrize("config, command", PORTABLE_ROWS.values(),
                         ids=[f"{name}-{BASELINE_NAME}" for name in PORTABLE_ROWS])
def test_closed_outputs_do_not_depend_on_the_kernels(tmp_path, config, command):
    default, baseline = _under_both_kernels(tmp_path, config, command)
    names = sorted(path.name for path in default.iterdir())
    assert names and names == sorted(path.name for path in baseline.iterdir())
    for name in names:
        assert (default / name).read_bytes() == (baseline / name).read_bytes(), name


# a series past quadratic closure, N = 16, against its oracle
QUARTIC = """\
[potential]
expression = x^2/2 + 0.01*x^4
[initial]
kind = gaussian
x0 = -0.07
sigma = 0.996
k0 = 0.08
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
# l2 distances, moments and the oracle's steps sum in numpy's SIMD loops and
# BLAS; each field agrees to ORACLE_BOUND of the largest field in its row.
# The largest difference measured was 1.2e-13 of its row (a ratio of the
# driven well's errors), and 3.6e-15 in the quartic's compare.csv
ORACLE_ROWS = {
    "compare-quartic": (QUARTIC, "compare", "compare.csv"),
    "converge-driven": (DRIVEN_FALLBACK, "converge --halvings 3", "convergence.csv"),
}
ORACLE_BOUND = 1e-12


@pytest.mark.parametrize("config, command, name", ORACLE_ROWS.values(),
                         ids=[f"{row}-{BASELINE_NAME}" for row in ORACLE_ROWS])
def test_oracle_outputs_agree_under_the_kernels_to_a_relative_bound(tmp_path, config, command,
                                                                     name):
    default, baseline = _under_both_kernels(tmp_path, config, command)
    # an empty ratio reads as nan
    got, want = (np.genfromtxt(out / name, delimiter=",", skip_header=1)
                 for out in (default, baseline))
    assert got.shape == want.shape and len(want) > 1
    assert np.array_equal(np.isnan(got), np.isnan(want))
    scale = np.nanmax(np.abs(want), axis=1, keepdims=True)
    assert np.all(np.nan_to_num(np.abs(got - want)) <= ORACLE_BOUND * scale)
