"""The command line in fresh interpreters, one per row, as a user starts it.

The other tests import tdse once, in pytest's process, and turn numpy
warnings into errors; a child process shows what a user sees instead: a
failure at import time, or a warning printed on a success path.  Each child
compiles tdse from src without writing bytecode there, and writes its output
under the test's tmp_path.  Run one row with
`pytest tests/test_fresh_process.py -k <id>`.
"""

import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

from test_cli import (
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
    # rejected before a 4 x 10^6 fit matrix is built
    "fit-huge-degree": Row(FIT.replace("--degree 2", "--degree 1000000"), FIT_SAMPLES % b"0,1,0",
                           2, files={"fit.csv": None}),
}


@pytest.mark.parametrize("row", ROWS.values(), ids=ROWS.keys())
def test_a_command_in_a_fresh_interpreter(tmp_path, row):
    data = row.input.encode("utf-8") if isinstance(row.input, str) else row.input
    (tmp_path / "input").write_bytes(data)
    argv = [arg.format(tmp=tmp_path) for arg in row.argv.split()]
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    result = subprocess.run(
        [sys.executable, "-m", "tdse.cli", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
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
