"""End-to-end tests of the command-line interface and its exit codes."""

import math
from pathlib import Path

import numpy as np
import pytest

from conftest import reference_compare, reference_reconstruct, reference_run, write_config
from tdse.cli import _oracle_config, main
from tdse.config import load_config
from tdse.integrators import BlowUp, propagate
from tdse.oracle import EdgeLeakage

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

HARMONIC_GAUSSIAN = """
[physical]
hbar = 1.0
mass = 1.0

[potential]
expression = x^2/2

[initial]
kind = gaussian
x0 = 0.0
sigma = 1.0
k0 = 0.0

[stepper]
integrator = euler
dt = 1e-3
steps = 200
snapshot_stride = 50

[grid]
xmin = -12.0
xmax = 12.0
points = 1201
"""


def run_cli(*argv):
    return main(list(argv))


def test_run_writes_csvs_with_exact_headers(tmp_path, capsys):
    config = write_config(tmp_path / "run.cfg", HARMONIC_GAUSSIAN)
    out = tmp_path / "out"
    assert run_cli("run", "--config", config, "--out", str(out)) == 0
    assert capsys.readouterr().out == "status=completed\n"
    coeff = (out / "coefficients.csv").read_text().splitlines()
    assert coeff[0] == "t,n,alpha_re,alpha_im"
    assert len(coeff) == 1 + 5 * 3  # 5 snapshots x 3 coefficients
    obs = (out / "observables.csv").read_text().splitlines()
    assert obs[0] == "t,norm2,mean_x,mean_x2,mean_p_re,mean_p_im"
    assert len(obs) == 1 + 5
    wave = (out / "wavefunction_final.csv").read_text().splitlines()
    assert wave[0] == "x,psi_re,psi_im,prob_density"
    assert len(wave) == 1 + 1201


def test_run_byte_determinism(tmp_path):
    config = write_config(tmp_path / "run.cfg", HARMONIC_GAUSSIAN)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli("run", "--config", config, "--out", str(out1)) == 0
    assert run_cli("run", "--config", config, "--out", str(out2)) == 0
    for name in ("coefficients.csv", "observables.csv", "wavefunction_final.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_run_rejects_negative_dt(tmp_path, capsys):
    config = write_config(
        tmp_path / "bad.cfg", HARMONIC_GAUSSIAN.replace("dt = 1e-3", "dt = -1")
    )
    assert run_cli("run", "--config", config, "--out", str(tmp_path / "o")) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "dt" in captured.err


def test_run_rejects_unknown_key(tmp_path):
    config = write_config(
        tmp_path / "bad.cfg", HARMONIC_GAUSSIAN + "\n[stepper2]\nfoo = 1\n"
    )
    assert run_cli("run", "--config", config, "--out", str(tmp_path / "o")) == 2


def test_run_rejects_bad_packet_width(tmp_path, capsys):
    config = write_config(
        tmp_path / "bad.cfg", HARMONIC_GAUSSIAN.replace("sigma = 1.0", "sigma = -1.0")
    )
    assert run_cli("run", "--config", config, "--out", str(tmp_path / "o")) == 2
    assert "width" in capsys.readouterr().err


def test_run_non_normalizable_initial_state(tmp_path, capsys):
    config = write_config(
        tmp_path / "bad.cfg",
        """
[potential]
expression = 0

[initial]
kind = coefficients
alpha_re = 0, 0, 1

[stepper]
dt = 1e-3
steps = 10

[grid]
xmin = -40.0
xmax = 40.0
points = 801
""",
    )
    code = run_cli("run", "--config", config, "--out", str(tmp_path / "o"))
    assert code in (2, 3)
    assert code == 2  # surfaced at the reconstruction/validation stage here
    assert "Re S" in capsys.readouterr().err


def test_run_blowup_exits_3_with_partial_outputs(tmp_path, capsys):
    config = write_config(
        tmp_path / "blow.cfg",
        """
[potential]
expression = 0

[initial]
kind = coefficients
alpha_re = 0, 0, -1

[stepper]
dt = 5.0
steps = 50

[grid]
xmin = -10.0
xmax = 10.0
points = 401
""",
    )
    out = tmp_path / "o"
    assert run_cli("run", "--config", config, "--out", str(out)) == 3
    assert capsys.readouterr().out == "status=aborted_blowup\n"
    coeff = (out / "coefficients.csv").read_text().splitlines()
    assert coeff[0] == "t,n,alpha_re,alpha_im"
    assert len(coeff) > 1


def test_run_dsl_parse_error_exits_4(tmp_path, capsys):
    config = write_config(
        tmp_path / "dsl.cfg", HARMONIC_GAUSSIAN.replace("x^2/2", "exp(x)")
    )
    assert run_cli("run", "--config", config, "--out", str(tmp_path / "o")) == 4
    assert "exp" in capsys.readouterr().err


def test_run_dsl_evaluation_error_exits_4(tmp_path):
    # dt = 0.1 lands exactly on the pole of the profile at t = 0.1
    body = HARMONIC_GAUSSIAN.replace(
        "expression = x^2/2", "expression = x/(t - 0.1)"
    ).replace("dt = 1e-3", "dt = 0.1")
    config = write_config(tmp_path / "dsl.cfg", body)
    assert run_cli("run", "--config", config, "--out", str(tmp_path / "o")) == 4


@pytest.mark.parametrize("command", ["run", "compare", "converge"])
def test_each_command_requires_out(tmp_path, capsys, monkeypatch, command):
    config = write_config(tmp_path / "run.cfg", HARMONIC_GAUSSIAN)
    monkeypatch.chdir(tmp_path)
    argv = [command, "--config", config]
    if command == "converge":
        argv += ["--halvings", "1"]
    assert run_cli(*argv) == 2
    assert capsys.readouterr() == (
        "", f"error: tdse {command}: the following arguments are required: --out\n"
    )
    assert sorted(path.name for path in tmp_path.iterdir()) == ["run.cfg"]


FREE_CONVERGE = """
[potential]
expression = 0

[initial]
kind = gaussian
sigma = 1.0

[stepper]
integrator = {integrator}
dt = 1e-2
steps = 100
"""


@pytest.mark.parametrize("integrator,band", [("euler", (1.8, 2.2)), ("rk4", (12.0, 20.0))])
def test_converge_free_scenario(tmp_path, capsys, integrator, band):
    config = write_config(
        tmp_path / "conv.cfg", FREE_CONVERGE.format(integrator=integrator)
    )
    out = tmp_path / "out"
    assert run_cli("converge", "--config", config, "--halvings", "3", "--out", str(out)) == 0
    capsys.readouterr()
    lines = (out / "convergence.csv").read_text().splitlines()
    assert lines[0] == "dt,error,ratio"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[2] == ""
    for line in lines[2:]:
        ratio = float(line.split(",")[2])
        assert band[0] <= ratio <= band[1]


# one config for each closed form, with no [grid], so that the oracle cannot
# stand in: each level's error is the closed form's, pinned to the bit
CLOSED_FORM = """
[physical]
hbar = {hbar}
mass = {mass}

[potential]
expression = {expression}

[initial]
kind = coefficients
alpha_re = {alpha_re}
alpha_im = {alpha_im}

[stepper]
integrator = euler
dt = 1e-2
steps = 100
"""

CLOSED_FORM_BYTES = {
    "free": (
        dict(hbar=0.7, mass=1.3, expression="0", alpha_re="0, 0, -0.25", alpha_im="0, 1, 0"),
        "1.6675231287173410e-04,",
        "8.3314750837099725e-05,2.0014740630716736e+00",
        "4.1641975853036077e-05,2.0007396174268068e+00",
    ),
    "linear-constant": (
        dict(hbar=1.0, mass=1.0, expression="0.3*x + 0.1", alpha_re="-0.5, 0.2", alpha_im="0, 0"),
        "2.2204460492503131e-16,",
        "2.2204460492503131e-16,1.0000000000000000e+00",
        "1.6098233857064770e-15,1.3793103448275862e-01",
    ),
    "linear-cos": (
        dict(hbar=0.7, mass=1.3, expression="cos(t)*x", alpha_re="0, 0.5", alpha_im="0, 0"),
        "3.2735374296650743e-03,",
        "1.6392731000673955e-03,1.9969445173781533e+00",
        "8.2026264497381263e-04,1.9984734281295111e+00",
    ),
    "harmonic-ground": (
        dict(hbar=1.0, mass=1.0, expression="x^2/2", alpha_re="0, 0, -0.5", alpha_im="0, 0, 0"),
        "3.3306690738754696e-16,",
        "3.3306690738754696e-16,1.0000000000000000e+00",
        "5.1625370645069779e-15,6.4516129032258063e-02",
    ),
    "harmonic-coherent": (
        dict(hbar=1.0, mass=2.0, expression="x^2/2", alpha_re="-0.125, 0.5, -0.7071067811865476",
             alpha_im="0, 0, 0"),
        "1.2515463814127153e-03,",
        "6.2538861388646678e-04,2.0012298811054485e+00",
        "3.1259740509456549e-04,2.0006199785864416e+00",
    ),
}


@pytest.mark.parametrize("scenario", ["auto", "closed"])
@pytest.mark.parametrize("fields,level_0,level_1,level_2", CLOSED_FORM_BYTES.values(),
                         ids=CLOSED_FORM_BYTES.keys())
def test_converge_writes_the_bytes_of_each_closed_form(
    tmp_path, capsys, fields, level_0, level_1, level_2, scenario
):
    body = CLOSED_FORM.format(**fields) + f"\n[converge]\nscenario = {scenario}\n"
    config = write_config(tmp_path / "conv.cfg", body)
    out = tmp_path / "out"
    assert run_cli("converge", "--config", config, "--halvings", "2", "--out", str(out)) == 0
    assert capsys.readouterr() == ("status=completed\n", "")
    assert (out / "convergence.csv").read_text() == (
        "dt,error,ratio\n"
        f"1.0000000000000000e-02,{level_0}\n"
        f"5.0000000000000001e-03,{level_1}\n"
        f"2.5000000000000001e-03,{level_2}\n"
    )


CUBIC_FALLBACK = """
[potential]
expression = 0.05*x^3

[initial]
kind = gaussian
truncation_order = 8

[stepper]
dt = 1e-2
steps = 30

[grid]
xmin = -14.0
xmax = 14.0
points = 1024
"""

# time-dependent: every oracle step evaluates the potential
DRIVEN_FALLBACK = """
[potential]
expression = x^2/2 + 0.5*sin(2*t)*x + 0.1*cos(t)^2*x^2

[initial]
kind = gaussian
truncation_order = 2

[stepper]
dt = 1e-2
steps = 100

[grid]
xmin = -10.0
xmax = 10.0
points = 256
"""


def test_converge_oracle_fallback(tmp_path, capsys):
    config = write_config(tmp_path / "conv.cfg", CUBIC_FALLBACK)
    out = tmp_path / "out"
    assert run_cli("converge", "--config", config, "--halvings", "2", "--out", str(out)) == 0
    capsys.readouterr()
    lines = (out / "convergence.csv").read_text().splitlines()
    errors = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(e > 0 for e in errors)
    assert errors[0] > errors[-1]


@pytest.mark.parametrize("body", [CUBIC_FALLBACK.split("[grid]")[0], CUBIC_FALLBACK],
                         ids=["no-grid", "grid"])
def test_converge_closed_without_a_closed_form_exits_2(tmp_path, capsys, body):
    # where auto would fall back on the oracle, closed refuses
    config = write_config(tmp_path / "conv.cfg", body + "\n[converge]\nscenario = closed\n")
    out = tmp_path / "out"
    assert run_cli("converge", "--config", config, "--halvings", "2", "--out", str(out)) == 2
    assert_one_error_line(capsys, "no registered closed-form scenario matches this config")
    assert not out.exists()


def _count_oracle_runs(monkeypatch):
    """The oracle configs of the split-step runs, in order: compare and
    converge both run the oracle through tdse.oracle.  A halved run, which
    marches the run of half the steps alongside, counts as both, in that
    order."""
    import tdse.oracle

    runs = []
    real = tdse.oracle.split_step_evolve

    def counted(*a, halved=False):
        cfg = a[3]
        runs.extend([cfg, cfg.replace(dt=2 * cfg.dt, steps=cfg.steps // 2)][: 1 + halved])
        return real(*a, halved=halved)

    monkeypatch.setattr("tdse.oracle.split_step_evolve", counted)
    return runs


def test_converge_runs_the_oracle_once_per_invocation(tmp_path, capsys, monkeypatch):
    import tdse.cli

    runs = _count_oracle_runs(monkeypatch)
    checks = []
    real = tdse.cli.check_alignment
    monkeypatch.setattr("tdse.cli.check_alignment", lambda *a: checks.append(a) or real(*a))
    config = write_config(tmp_path / "conv.cfg", DRIVEN_FALLBACK)
    argv = ("converge", "--config", config, "--halvings", "3", "--out", str(tmp_path / "out"))
    assert run_cli(*argv) == 0
    assert [cfg.steps for cfg in runs] == [128, 64]
    assert len(checks) == 1  # every level's horizon and final time are level 0's
    assert run_cli(*argv) == 0  # nothing is kept from one invocation to the next
    assert [cfg.steps for cfg in runs[2:]] == [128, 64]
    capsys.readouterr()


@pytest.mark.parametrize("body", [CUBIC_FALLBACK, DRIVEN_FALLBACK], ids=["static", "driven"])
def test_converge_reused_oracle_writes_the_bytes_of_independent_runs(
    tmp_path, capsys, monkeypatch, body
):
    from tdse.oracle import OracleConfig, compare_methods
    from tdse.config import load_config

    config = write_config(tmp_path / "conv.cfg", body)
    shared = tmp_path / "shared"
    assert run_cli("converge", "--config", config, "--halvings", "3", "--out", str(shared)) == 0
    assert "oracle_steps=128 " in capsys.readouterr().out
    # each level compared on its own against its own 128-step oracle run
    cfg = load_config(config)
    grid, stepper = cfg.grid, cfg.stepper
    oracle = OracleConfig(
        grid.xmin, grid.xmax, max(256, grid.points), stepper.dt * stepper.steps / 128, 128
    )
    runs = _count_oracle_runs(monkeypatch)
    rows, errors = [], []
    for level in range(4):
        dt, steps = stepper.dt / 2**level, stepper.steps * 2**level
        level_stepper = stepper.replace(dt=dt, steps=steps, snapshot_stride=steps)
        report = compare_methods(cfg.initial, cfg.potential, cfg.params, level_stepper, oracle)
        errors.append(float(report.l2[-1]))
        ratio = f"{errors[-2] / errors[-1]:.16e}" if level else ""
        rows.append(f"{dt:.16e},{errors[-1]:.16e},{ratio}\n")
    assert [cfg.steps for cfg in runs] == [128] * 4
    assert (shared / "convergence.csv").read_text() == "dt,error,ratio\n" + "".join(rows)


@pytest.mark.parametrize("oracle,steps,dt", [("", 128, 1.0 / 128), ("steps = 64\n", 64, 1.0 / 64)])
def test_converge_oracle_steps_come_from_steps_then_the_default(
    tmp_path, capsys, monkeypatch, oracle, steps, dt
):
    runs = _count_oracle_runs(monkeypatch)
    config = write_config(tmp_path / "conv.cfg", DRIVEN_FALLBACK + "\n[oracle]\n" + oracle)
    assert run_cli("converge", "--config", config, "--halvings", "1", "--out", str(tmp_path)) == 0
    # the default is checked by an estimate that reruns the oracle at half the steps
    expected = [(steps, dt)] if oracle else [(128, 1.0 / 128), (64, 1.0 / 64)]
    assert [(cfg.steps, cfg.dt) for cfg in runs] == expected
    status = capsys.readouterr().out
    if oracle:  # a configured oracle reports nothing about itself
        assert status == "status=completed\n"
    else:
        assert status.startswith("status=completed oracle_steps=128 oracle_error=")


@pytest.mark.parametrize(
    "halvings,steps", [(3, [128, 64]), (6, [128, 64, 256, 512])], ids=["128", "512"]
)
def test_converge_sizes_the_oracle_by_its_error_estimate(
    tmp_path, capsys, monkeypatch, halvings, steps
):
    # the estimate at 128 steps, 5.9e-6, is under 1% of the finest error at
    # 3 halvings (8.8e-4) but not at 6 (1.1e-4), nor is 256's (1.5e-6);
    # 512's (3.7e-7) is.  Each doubling adds one run of the oracle and none
    # of the series
    import tdse.cli

    runs = _count_oracle_runs(monkeypatch)
    propagated = []
    real = tdse.cli.propagate
    monkeypatch.setattr(
        "tdse.cli.propagate", lambda *a: propagated.append(a[3].steps) or real(*a)
    )
    config = write_config(tmp_path / "conv.cfg", DRIVEN_FALLBACK)
    out = tmp_path / "out"
    argv = ("converge", "--config", config, "--halvings", str(halvings), "--out", str(out))
    assert run_cli(*argv) == 0
    assert [cfg.steps for cfg in runs] == steps
    assert propagated == [100 * 2**level for level in range(halvings + 1)]
    status = capsys.readouterr().out.splitlines()
    assert len(status) == 1
    fields = dict(field.split("=") for field in status[0].split())
    assert fields["status"] == "completed" and int(fields["oracle_steps"]) == max(steps)
    estimate = float(fields["oracle_error"])
    assert fields["oracle_error"] == f"{estimate:.16e}"  # 17 significant digits
    lines = (out / "convergence.csv").read_text().splitlines()[1:]
    assert len(lines) == halvings + 1
    assert estimate <= 0.01 * float(lines[-1].split(",")[1])


# a linear kick at the midpoints of the 64-step estimate run's steps, which
# the 128-step run's midpoints miss (cos vanishes there): only the estimate
# run's packet swings out to the window's edge
HALF_RUN_LEAK = (
    DRIVEN_FALLBACK.replace(
        "0.5*sin(2*t)*x + 0.1*cos(t)^2*x^2", f"10*cos({128 * math.pi!r}*t)^2*x"
    )
    .replace("truncation_order = 2", "sigma = 0.7071067811865476\ntruncation_order = 2")
    .replace("-10.0", "-8.0")
    .replace("= 10.0", "= 8.0")
)


def test_a_leak_in_the_estimate_run_alone_is_its_own_error(tmp_path, capsys):
    from tdse.config import load_config
    from tdse.oracle import OracleConfig, split_step_evolve, state_on_oracle_grid

    config = write_config(tmp_path / "conv.cfg", HALF_RUN_LEAK)
    argv = ("converge", "--config", config, "--halvings", "1", "--out", str(tmp_path / "out"))
    assert run_cli(*argv) == 2
    # the message of the 64-step run made on its own
    cfg = load_config(config)
    half = OracleConfig(-8.0, 8.0, 256, 1.0 / 64, 64)
    start = state_on_oracle_grid(cfg.initial, half)
    with pytest.raises(EdgeLeakage) as leak:
        dict(split_step_evolve(start, cfg.potential, cfg.params, half, {64}))
    assert str(leak.value).endswith("at t = 1")
    assert capsys.readouterr() == ("", f"error: {leak.value}\n")
    # the 128-step run alone stays inside its window
    full = OracleConfig(-8.0, 8.0, 256, 1.0 / 128, 128)
    dict(split_step_evolve(start, cfg.potential, cfg.params, full, {0, 128}))


# RK4 at dt = 1e-2 is far more accurate than any oracle up to 8192 steps:
# every error would measure the oracle
COHERENT_RK4_ORACLE = """
[potential]
expression = x^2/2

[initial]
kind = coefficients
alpha_re = -0.125, 0.5, -0.5

[stepper]
integrator = rk4
dt = 1e-2
steps = 100

[grid]
xmin = -12.0
xmax = 12.0
points = 256

[converge]
scenario = oracle
"""


def test_converge_exits_2_when_no_oracle_up_to_the_cap_resolves_the_error(tmp_path, capsys):
    config = write_config(tmp_path / "conv.cfg", COHERENT_RK4_ORACLE)
    out = tmp_path / "out"
    assert run_cli("converge", "--config", config, "--halvings", "1", "--out", str(out)) == 2
    assert_one_error_line(capsys, "up to 8192 steps")
    assert not (out / "convergence.csv").exists()


# x^2/2 + 0.5*x^4 blows up under RK4 at dt = 0.2 within a few steps; the
# last healthy state (t = 0.8) misses the default 2048-step oracle grid
QUARTIC_BLOWUP = """
[potential]
expression = x^2/2 + 0.5*x^4

[initial]
kind = gaussian
sigma = 0.5
truncation_order = 8

[stepper]
integrator = rk4
dt = 0.2
steps = 400
snapshot_stride = 3
blowup_threshold = 1e8

[grid]
xmin = -5.0
xmax = 5.0
points = 256
"""

# forward Euler on the harmonic well grows |alpha_1| by sqrt(1 + dt^2) a step
COHERENT_EULER_BLOWUP = """
[potential]
expression = x^2/2

[initial]
kind = coefficients
alpha_re = -0.125, 0.5, -0.5

[stepper]
integrator = euler
dt = 0.5
steps = 400
blowup_threshold = 1e6
"""


# over 256 steps the last healthy state lands on the 256-step oracle grid,
# where it cannot be reconstructed (Re S reaches about 5e6 on the window)
QUARTIC_BLOWUP_ON_GRID = QUARTIC_BLOWUP.replace("steps = 400", "steps = 256")


@pytest.mark.parametrize("command", ["run", "compare", "converge"])
def test_a_blowup_exits_3_although_its_last_healthy_state_cannot_be_reconstructed(
    tmp_path, capsys, command
):
    config = write_config(tmp_path / "blowup.cfg", QUARTIC_BLOWUP_ON_GRID)
    out = tmp_path / "out"
    argv = [command, "--config", config, "--out", str(out)]
    if command == "converge":
        argv[3:3] = ["--halvings", "2"]
    assert run_cli(*argv) == 3
    assert capsys.readouterr() == ("status=aborted_blowup\n", "")
    if command == "converge":  # the level that blew up is never compared
        assert (out / "convergence.csv").read_text() == "dt,error,ratio\n"


@pytest.mark.parametrize(
    "body", [QUARTIC_BLOWUP, COHERENT_EULER_BLOWUP], ids=["oracle", "harmonic_coherent"]
)
def test_converge_blowup_exits_3_without_rows_for_aborted_levels(tmp_path, capsys, body):
    config = write_config(tmp_path / "conv.cfg", body)
    out = tmp_path / "out"
    assert run_cli("converge", "--config", config, "--halvings", "3", "--out", str(out)) == 3
    assert capsys.readouterr().out == "status=aborted_blowup\n"
    # the coarsest level aborts, so no level completes
    assert (out / "convergence.csv").read_text() == "dt,error,ratio\n"


def test_converge_keeps_the_levels_before_an_abort(tmp_path, capsys, monkeypatch):
    import tdse.cli

    real = tdse.cli.propagate

    def abort_at_the_third_level(initial, potential, params, cfg):
        trajectory = real(initial, potential, params, cfg)
        if cfg.steps == 400:
            trajectory.error = BlowUp("blow-up at step 400, t = 1.0")
        return trajectory

    monkeypatch.setattr("tdse.cli.propagate", abort_at_the_third_level)
    config = write_config(tmp_path / "conv.cfg", FREE_CONVERGE.format(integrator="euler"))
    out = tmp_path / "out"
    assert run_cli("converge", "--config", config, "--halvings", "3", "--out", str(out)) == 3
    assert capsys.readouterr().out == "status=aborted_blowup\n"
    lines = (out / "convergence.csv").read_text().splitlines()
    assert [float(line.split(",")[0]) for line in lines[1:]] == [1e-2, 5e-3]


def test_converge_leaves_the_ratio_of_a_zero_error_empty(tmp_path, capsys):
    # Euler is exact for a linear potential at dt = 1/4: every error is 0.0
    config = write_config(
        tmp_path / "conv.cfg",
        """
[potential]
expression = 0.5*x

[initial]
kind = coefficients
alpha_re = -0.125, 0.5

[stepper]
integrator = euler
dt = 0.25
steps = 4
""",
    )
    out = tmp_path / "out"
    assert run_cli("converge", "--config", config, "--halvings", "2", "--out", str(out)) == 0
    capsys.readouterr()
    rows = [line.split(",") for line in (out / "convergence.csv").read_text().splitlines()[1:]]
    assert [(float(error), ratio) for _, error, ratio in rows] == [(0.0, "")] * 3


@pytest.mark.parametrize("name", ["free", "linear", "harmonic_ground", "harmonic_coherent"])
def test_converge_rejects_the_name_of_a_closed_form_as_a_scenario(tmp_path, capsys, name):
    # closed picks whichever closed form matches; a name is not a value, not even the matching one
    config = write_config(
        tmp_path / "conv.cfg",
        FREE_CONVERGE.format(integrator="euler") + f"\n[converge]\nscenario = {name}\n",
    )
    out = tmp_path / "out"
    assert run_cli("converge", "--config", config, "--halvings", "2", "--out", str(out)) == 2
    assert capsys.readouterr() == (
        "", f"error: converge.scenario must be one of auto, closed, oracle, got '{name}'\n"
    )
    assert not out.exists()


def test_compare_with_oracle_overrides(tmp_path, capsys):
    config = write_config(
        tmp_path / "cmp.cfg",
        """
[potential]
expression = x^2/2

[initial]
kind = coefficients
alpha_re = -0.125, 0.5, -0.5

[stepper]
integrator = rk4
dt = 1e-3
steps = 1000
snapshot_stride = 250

[grid]
xmin = -12.0
xmax = 12.0
points = 1201

[oracle]
points = 2048
steps = 2000
""",
    )
    out = tmp_path / "out"
    assert run_cli("compare", "--config", config, "--out", str(out)) == 0
    capsys.readouterr()
    lines = (out / "compare.csv").read_text().splitlines()
    assert len(lines) == 1 + 5
    assert float(lines[-1].split(",")[1]) <= 1e-4


@pytest.mark.parametrize("command", ["compare", "converge"])
def test_a_zero_oracle_step_count_exits_2(tmp_path, capsys, command):
    # the oracle divides its horizon by it: a ZeroDivisionError traceback
    # before the config checked it
    body = HARMONIC_GAUSSIAN.replace("dt = 1e-3", "dt = 1e-2").replace("steps = 200", "steps = 10")
    config = write_config(tmp_path / "zero.cfg", body + "\n[oracle]\nsteps = 0\n")
    argv = [command, "--config", config, "--out", str(tmp_path / "out")]
    if command == "converge":
        argv[1:1] = ["--halvings", "1"]
    assert run_cli(*argv) == 2
    assert_one_error_line(capsys, "oracle.steps must be at least 1, got 0")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["compare", "converge"])
def test_zero_oracle_points_exits_2(tmp_path, capsys, command):
    # 0 is a value set in the config, so the oracle's own check rejects it
    config = write_config(tmp_path / "zero.cfg", DRIVEN_FALLBACK + "\n[oracle]\npoints = 0\n")
    argv = [command, "--config", config, "--out", str(tmp_path / "out")]
    if command == "converge":
        argv[1:1] = ["--halvings", "1"]
    assert run_cli(*argv) == 2
    assert_one_error_line(capsys, "points must be a power of two >= 256, got 0")
    assert not (tmp_path / "out").exists()


def test_compare_command(tmp_path, capsys):
    config = write_config(
        tmp_path / "cmp.cfg",
        """
[potential]
expression = x^2/2

[initial]
kind = coefficients
alpha_re = -0.125, 0.5, -0.5

[stepper]
integrator = rk4
dt = 1e-3
steps = 1000
snapshot_stride = 250

[grid]
xmin = -12.0
xmax = 12.0
points = 1024
""",
    )
    out = tmp_path / "out"
    assert run_cli("compare", "--config", config, "--out", str(out)) == 0
    assert capsys.readouterr().out == "status=completed\n"
    lines = (out / "compare.csv").read_text().splitlines()
    assert lines[0] == "t,l2_distance,d_mean_x,d_norm"
    assert len(lines) == 1 + 5
    final = lines[-1].split(",")
    assert float(final[1]) <= 1e-4


# Re S of the N = 16 quartic series passes ~354 at the +-9 window edges by
# t = 0.5, so |psi|^2 overflows although exp(S) itself stays finite
QUARTIC_WIDE_WINDOW = """
[potential]
expression = x^2/2 + 0.01*x^4

[initial]
kind = gaussian
x0 = -0.2
sigma = 0.95
k0 = -0.3
truncation_order = 16

[stepper]
integrator = rk4
dt = 4e-4
steps = 1250
snapshot_stride = 625

[grid]
xmin = -9.0
xmax = 9.0
points = 1024

[oracle]
points = 1024
steps = 512
"""


@pytest.mark.parametrize("command", ["compare", "run"])
def test_density_overflow_exits_2_and_writes_no_non_finite_field(tmp_path, capsys, command):
    config = write_config(tmp_path / "wide.cfg", QUARTIC_WIDE_WINDOW)
    out = tmp_path / "out"
    assert run_cli(command, "--config", config, "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not finite" in captured.err
    written = sorted(out.glob("*.csv")) if out.exists() else []
    for path in written:
        for line in path.read_text().splitlines()[1:]:
            assert all(np.isfinite(float(field)) for field in line.split(","))
    # the healthy snapshots (t = 0 and 0.25) are kept
    if command == "run":
        assert [p.name for p in written] == ["coefficients.csv", "observables.csv"]
    else:
        assert [p.name for p in written] == ["compare.csv"]
    kept = (out / ("observables.csv" if command == "run" else "compare.csv")).read_text()
    assert [float(line.split(",")[0]) for line in kept.splitlines()[1:]] == [0.0, 0.25]


# the N = 16 quartic of QUARTIC_WIDE_WINDOW at N = 24, on [-8, 8]: |psi|^2
# overflows at t = 0.5 as well
QUARTIC_N24 = (
    QUARTIC_WIDE_WINDOW.replace("truncation_order = 16", "truncation_order = 24")
    .replace("x0 = -0.2", "x0 = 0.0")
    .replace("sigma = 0.95", "sigma = 1.0")
    .replace("k0 = -0.3", "k0 = 0.0")
    .replace("xmin = -9.0", "xmin = -8.0")
    .replace("xmax = 9.0", "xmax = 8.0")
)

# the same at N = 20: every value stays finite, but by t = 0.5 the series
# has broken down and |psi| grows to about 4.5e100 at the window's edges
QUARTIC_N20 = QUARTIC_N24.replace("truncation_order = 24", "truncation_order = 20")


@pytest.mark.parametrize("command", ["compare", "run"])
def test_series_edge_leakage_exits_2_and_keeps_the_rows_before_it(tmp_path, capsys, command):
    config = write_config(tmp_path / "n20.cfg", QUARTIC_N20)
    out = tmp_path / "out"
    assert run_cli(command, "--config", config, "--out", str(out)) == 2
    assert_one_error_line(capsys, "series edge magnitude")
    kept = (out / ("observables.csv" if command == "run" else "compare.csv")).read_text()
    assert [float(line.split(",")[0]) for line in kept.splitlines()[1:]] == [0.0, 0.25]


def test_converge_writes_no_rows_when_a_completed_level_cannot_be_reconstructed(
    tmp_path, capsys
):
    # no level blows up, but the series of the first breaks down by t = 0.5
    config = write_config(tmp_path / "n20.cfg", QUARTIC_N20)
    out = tmp_path / "out"
    assert run_cli("converge", "--config", config, "--halvings", "1", "--out", str(out)) == 2
    assert_one_error_line(capsys, "series edge magnitude")
    assert not (out / "convergence.csv").exists()


# QUARTIC_BLOWUP over 399 steps, with an oracle grid (dt = 0.06) that holds
# every snapshot time: the t = 0.6 snapshot overflows Re S on [-5, 5] before
# the series blows up
QUARTIC_OVERFLOW_THEN_BLOWUP = (
    QUARTIC_BLOWUP.replace("steps = 400", "steps = 399") + "\n[oracle]\nsteps = 1330\n"
)


def test_compare_keeps_rows_before_an_overflow_and_the_blowup_wins(tmp_path, capsys):
    config = write_config(tmp_path / "cmp.cfg", QUARTIC_OVERFLOW_THEN_BLOWUP)
    out = tmp_path / "out"
    assert run_cli("compare", "--config", config, "--out", str(out)) == 3
    assert capsys.readouterr() == ("status=aborted_blowup\n", "")
    lines = (out / "compare.csv").read_text().splitlines()
    assert lines[0] == "t,l2_distance,d_mean_x,d_norm"
    assert [float(line.split(",")[0]) for line in lines[1:]] == [0.0]


# the last linspace point is xmax, one bit away from xmin + 1000*dx
TWO_GRIDS = (
    HARMONIC_GAUSSIAN.replace("xmin = -12.0", "xmin = -7.3")
    .replace("xmax = 12.0", "xmax = 9.1")
    .replace("points = 1201", "points = 1001")
)


def test_the_two_grids_window_has_two_grids():
    xmin, xmax, points = -7.3, 9.1, 1001
    dx = (xmax - xmin) / (points - 1)
    assert np.any(np.linspace(xmin, xmax, points) != xmin + dx * np.arange(points))


# dense_run's packet: a free packet with k0 = 2, a snapshot at each of 400
# RK4 steps, on 2001 points: 401 = 4*100 + 1 snapshots, so run's last block
# of 4 holds one
DENSE_FREE = """
[potential]
expression = 0

[initial]
kind = gaussian
k0 = 2.0

[stepper]
integrator = rk4
dt = 5e-3
steps = 400

[grid]
xmin = -20.0
xmax = 20.0
points = 2001
"""

# the same packet leaks past 1e-5 of its peak at the window's right edge at
# snapshot 0, 21, 30, 39 and 168: in run's blocks of 4, at each position
DENSE_LEAKS = {
    f"dense_leak_at_{index}": DENSE_FREE.replace("xmax = 20.0", f"xmax = {xmax}")
    for index, xmax in ((0, 6.5), (21, 7.0), (30, 7.1), (39, 7.2), (168, 9.03))
}

@pytest.mark.parametrize(
    "name,code",
    [
        ("free_packet", 0),
        ("harmonic_coherent", 0),
        ("two_grids", 0),
        ("quartic_n24", 2),
        ("quartic_n20", 2),
        ("oracle_leak", 2),
        ("pole_after_50_steps", 4),
        ("dense_free", 0),
        *((name, 2) for name in DENSE_LEAKS),
    ],
)
def test_run_writes_the_bytes_of_the_per_snapshot_reference(tmp_path, capsys, name, code):
    bodies = {
        "two_grids": TWO_GRIDS,
        "oracle_leak": ORACLE_LEAK,
        "quartic_n24": QUARTIC_N24,
        "quartic_n20": QUARTIC_N20,
        "pole_after_50_steps": POLE_AFTER_50_STEPS,
        "dense_free": DENSE_FREE,
        **DENSE_LEAKS,
    }
    body = bodies.get(name) or (CONFIGS / f"{name}.cfg").read_text(encoding="utf-8")
    config = write_config(tmp_path / "run.cfg", body)
    expected_code, expected = reference_run(config)
    assert expected_code == code
    out = tmp_path / "out"
    assert run_cli("run", "--config", config, "--out", str(out)) == code
    err = capsys.readouterr().err
    assert {path.name: path.read_bytes() for path in out.iterdir()} == expected
    if name in DENSE_LEAKS:
        # the guard read the |psi| of the first snapshot the reference dropped
        index = int(name.rsplit("_", 1)[1])
        assert expected["observables.csv"].count(b"\n") == 1 + index
        cfg = load_config(config)
        snap = propagate(cfg.initial, cfg.potential, cfg.params, cfg.stepper).snapshots[index]
        values = reference_reconstruct(snap, -20.0, cfg.grid.xmax, 2001, cfg.params)[0]
        magnitude = np.abs(values)
        edge, peak = max(magnitude[0], magnitude[-1]), magnitude.max()
        assert err == (
            f"error: window edge magnitude {edge:.3e} exceeds 1e-05 of peak {peak:.3e} "
            f"at t = {snap.time:.6g}\n"
        )


def test_run_builds_the_observables_kernel_once(tmp_path, capsys, monkeypatch):
    from tdse.reconstruction import Window

    builds = []
    real = Window.__init__
    monkeypatch.setattr(Window, "__init__", lambda *a: builds.append(a) or real(*a))
    config = write_config(tmp_path / "run.cfg", HARMONIC_GAUSSIAN)
    assert run_cli("run", "--config", config, "--out", str(tmp_path / "out")) == 0
    capsys.readouterr()
    assert len(builds) == 1  # for 5 snapshots


def test_fit_command_round_trip(tmp_path, capsys):
    xs = np.linspace(-2, 2, 41)
    values = np.exp(-(xs**2))
    samples = tmp_path / "samples.csv"
    lines = ["x,psi_re,psi_im"] + [f"{x},{v},0.0" for x, v in zip(xs, values)]
    samples.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "fit.csv"
    assert run_cli("fit", "--samples", str(samples), "--degree", "2", "--out", str(out)) == 0
    assert capsys.readouterr().out.startswith("status=completed residual=")
    rows = out.read_text().splitlines()
    assert rows[0] == "n,alpha_re,alpha_im"
    coeffs = [complex(float(r.split(",")[1]), float(r.split(",")[2])) for r in rows[1:]]
    assert coeffs == pytest.approx([0.0, 0.0, -1.0], abs=1e-10)


def test_fit_command_zero_sample(tmp_path, capsys):
    samples = tmp_path / "samples.csv"
    samples.write_text("x,psi_re,psi_im\n-1.0,0.5,0\n0.0,0.0,0\n1.0,0.5,0\n", encoding="utf-8")
    assert run_cli("fit", "--samples", str(samples), "--degree", "2", "--out", str(tmp_path / "f.csv")) == 2
    assert "floor" in capsys.readouterr().err


def test_fit_command_bad_header(tmp_path):
    samples = tmp_path / "samples.csv"
    samples.write_text("x,re,im\n0,1,0\n", encoding="utf-8")
    assert run_cli("fit", "--samples", str(samples), "--degree", "2", "--out", str(tmp_path / "f.csv")) == 2


# one row, put in with %, among three finite ones
FIT_SAMPLES = b"x,psi_re,psi_im\n-1,0.6,0\n%s\n1,0.6,0\n2,0.1,0\n"


@pytest.mark.parametrize(
    "row, fragment",
    [
        (b"0,nan,0", "psi = (nan+0j) is not finite"),
        (b"0,inf,0", "psi = (inf+0j) is not finite"),
        (b"nan,1,0", "x = nan, psi = (1+0j) is not finite"),
        (b"1e200,1,0", "x^2 overflows at |x| = 1e+200"),
        (b"0,1e-13,0", "|psi| = 1.000e-13 at x = 0.0 is under the floor 1.000e-12"),
        (b"1e100,1,0", "rank 1 < 3; the x are distinct but too badly scaled; rescale x"),
        (b"0,\xff,0", "cannot read samples: 'utf-8' codec can't decode byte 0xff in position 27"),
    ],
    ids=["nan-psi", "inf-psi", "nan-x", "x-overflows", "psi-under-the-floor", "x-badly-scaled",
         "not-utf-8"],
)
def test_fit_rejects_a_sample_it_cannot_fit(tmp_path, capsys, row, fragment):
    # one bad row: no nan coefficients, no numpy warning, no LAPACK failure
    # and no codec message alone, but one error line and no output file
    samples = tmp_path / "samples.csv"
    samples.write_bytes(FIT_SAMPLES % row)
    out = tmp_path / "fit.csv"
    assert run_cli("fit", "--samples", str(samples), "--degree", "2", "--out", str(out)) == 2
    assert_one_error_line(capsys, fragment)
    assert not out.exists()


def test_missing_config_file(tmp_path):
    assert run_cli("run", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)) == 2


def test_help_exits_cleanly(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run_cli("--help")
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.startswith("usage: tdse ")
    # a usage error is reported by main, but --help still exits through argparse
    with pytest.raises(SystemExit) as excinfo:
        run_cli("run", "--help")
    assert excinfo.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: tdse run ") and "--out OUT" in captured.out
    assert captured.err == ""


def assert_one_error_line(capsys, fragment):
    """Nothing on stdout, and on stderr one `error:` line holding fragment."""
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and fragment in lines[0]


def test_every_tdse_exception_has_an_exit_code():
    import importlib
    import pkgutil

    import tdse
    from tdse.cli import _EXIT_CODES

    defined = [
        cls
        for info in pkgutil.iter_modules(tdse.__path__)
        for cls in vars(importlib.import_module(f"tdse.{info.name}")).values()
        if isinstance(cls, type)
        and issubclass(cls, BaseException)
        and cls.__module__ == f"tdse.{info.name}"
    ]
    # the endings something tells apart; every other failure is a ValueError
    assert sorted(cls.__name__ for cls in defined) == [
        "BlowUp", "EdgeLeakage", "EvaluationError", "ExponentOverflow",
        "PotentialError", "PotentialSyntaxError", "ZeroNorm",
    ]
    assert len(_EXIT_CODES) == 4
    for cls in defined:
        assert any(issubclass(cls, kind) for kind, _ in _EXIT_CODES), cls


@pytest.mark.parametrize("command", ["run", "converge", "compare"])
def test_an_output_directory_that_is_a_file_exits_2(tmp_path, capsys, command):
    config = write_config(tmp_path / "run.cfg", HARMONIC_GAUSSIAN)
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n", encoding="utf-8")
    argv = [command, "--config", config, "--out", str(taken)]
    if command == "converge":
        argv[3:3] = ["--halvings", "1"]
    assert run_cli(*argv) == 2
    assert_one_error_line(capsys, "File exists")
    assert taken.read_text(encoding="utf-8") == "not a directory\n"


def test_fit_output_that_is_a_directory_exits_2(tmp_path, capsys):
    samples = tmp_path / "samples.csv"
    lines = ["x,psi_re,psi_im"] + [f"{x},{np.exp(-x * x)},0.0" for x in np.linspace(-2, 2, 41)]
    samples.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run_cli("fit", "--samples", str(samples), "--degree", "2", "--out", str(tmp_path)) == 2
    assert_one_error_line(capsys, "Is a directory")


# the Horner sum of S overflows into NaN at the window edges (x = 1e110)
NAN_HORNER = """
[potential]
expression = 0

[initial]
kind = coefficients
alpha_re = 0, 0, -0.25, 0, -1e-10

[stepper]
dt = 1e-6
steps = 1

[grid]
xmin = -1e110
xmax = 1e110
points = 1201

[oracle]
points = 256
"""


@pytest.mark.parametrize("command", ["run", "compare"])
def test_a_nan_horner_sum_exits_2_without_warnings(tmp_path, capsys, command):
    config = write_config(tmp_path / "nan.cfg", NAN_HORNER)
    out = tmp_path / "out"
    assert run_cli(command, "--config", config, "--out", str(out)) == 2
    assert_one_error_line(capsys, "Re S is not finite")
    # the snapshot at t = 0 is finite; the one after the step is not, and
    # only its row and the rows after it are missing
    name = "observables.csv" if command == "run" else "compare.csv"
    written = sorted(p.name for p in out.iterdir())
    assert written == (["coefficients.csv", name] if command == "run" else [name])
    rows = (out / name).read_text().splitlines()[1:]
    assert [float(row.split(",")[0]) for row in rows] == [0.0]


POLE = """
[potential]
expression = x^2/(t-0.05)

[initial]
kind = gaussian
sigma = 1.0

[stepper]
dt = 1e-2
steps = 10

[grid]
xmin = -10.0
xmax = 10.0
points = 256
"""


@pytest.mark.parametrize("command", ["run", "converge", "compare"])
def test_a_pole_in_the_potential_exits_4(tmp_path, capsys, command):
    config = write_config(tmp_path / "pole.cfg", POLE)
    argv = [command, "--config", config, "--out", str(tmp_path / "out")]
    if command == "converge":
        argv[3:3] = ["--halvings", "1"]
    assert run_cli(*argv) == 4
    assert_one_error_line(capsys, "division by zero at t = 0.05")


@pytest.mark.parametrize(
    "expression, message",
    [
        ("exp(800)*x^2", "overflow at t = 0.0"),
        ("x^2/2 + 10^400", "overflow at t = 0.0"),
        # 1e308*10 is kept unfolded, as inf is not a value a potential takes
        ("x^2/2 + cos(1e308*10)*x", "math domain error at t = 0.0"),
        ("1e308*10*x^2", "overflow at t = 0.0"),
        # a factor that fails at every t is not cancelled by a zero factor
        ("x^2/2 + (1/0)*0*x", "division by zero at t = 0.0"),
        ("x^2/2 + 0*exp(800)", "overflow at t = 0.0"),
        # a literal past the double range does not parse
        ("x^2/2 + 1e400*x^2", "number '1e400' overflows the double range (position 9)"),
        # exp(800 t) passes the double range past t = 0.887; stage time 0.89
        ("x^2/2 + exp(800*t)*1e-300*x", "overflow at t = 0.89"),
    ],
)
@pytest.mark.parametrize("command", ["run", "compare", "converge"])
def test_a_potential_that_cannot_be_evaluated_exits_4(
    tmp_path, capsys, command, expression, message
):
    body = POLE.replace("x^2/(t-0.05)", expression).replace("steps = 10", "steps = 100")
    config = write_config(tmp_path / "fail.cfg", body)
    argv = [command, "--config", config, "--out", str(tmp_path / "out")]
    if command == "converge":
        argv[3:3] = ["--halvings", "1"]
    assert run_cli(*argv) == 4
    captured = capsys.readouterr()
    assert captured == ("", f"error: {message}\n")


# the pole at t = 0.5 is the stage time of Euler's 51st step: the 50 steps
# before it are healthy, so the rows of t = 0 to 0.5 are kept
POLE_AFTER_50_STEPS = POLE.replace("x^2/(t-0.05)", "x^2/2 + 1/(t-0.5)*x").replace(
    "steps = 10", "steps = 100"
)


@pytest.mark.parametrize(
    "command, name, rows",
    [("run", "observables.csv", 51), ("compare", "compare.csv", 51),
     ("converge", "convergence.csv", 0)],
)
def test_a_pole_after_the_first_step_exits_4_with_the_rows_before_it(
    tmp_path, capsys, command, name, rows
):
    config = write_config(tmp_path / "pole.cfg", POLE_AFTER_50_STEPS)
    out = tmp_path / "out"
    argv = [command, "--config", config, "--out", str(out)]
    if command == "converge":  # its only level stops, as a level that blows up
        argv[3:3] = ["--halvings", "2"]
    assert run_cli(*argv) == 4
    assert_one_error_line(capsys, "division by zero at t = 0.5")
    lines = (out / name).read_text().splitlines()[1:]
    assert [float(line.split(",")[0]) for line in lines] == [p * 0.01 for p in range(rows)]
    if command == "run":
        assert len((out / "coefficients.csv").read_text().splitlines()) == 1 + 51 * 3


# a pole at t = 0.005, half of level 0's dt: level 1 reaches it at its
# second step, so converge writes level 0's row
def test_converge_keeps_the_levels_before_a_pole(tmp_path, capsys):
    body = POLE.replace("x^2/(t-0.05)", "x^2/2 + 0.01*x/(t - 0.005)")
    config = write_config(tmp_path / "pole.cfg", body + "\n[oracle]\nsteps = 1000\n")
    out = tmp_path / "out"
    assert run_cli("converge", "--config", config, "--halvings", "2", "--out", str(out)) == 4
    assert_one_error_line(capsys, "division by zero at t = 0.005")
    lines = (out / "convergence.csv").read_text().splitlines()
    assert [float(line.split(",")[0]) for line in lines[1:]] == [1e-2]


# a pole at t = 0.0025: no RK4 stage of level 0 (0, 0.005, 0.01, ...) reaches
# it, but level 1's first step takes its midpoint there, so propagate raises
# before that level has a row
CONVERGE_POLE_AT_A_FIRST_STEP = (
    POLE.replace("x^2/(t-0.05)", "x^2/2 + 0.01*x/(t - 0.0025)").replace(
        "dt = 1e-2", "integrator = rk4\ndt = 1e-2"
    )
    + "\n[oracle]\nsteps = 1000\n"
)


@pytest.mark.parametrize("halvings", ["1", "2"])
def test_converge_keeps_the_levels_before_a_pole_at_a_finer_level_first_step(
    tmp_path, capsys, halvings
):
    config = write_config(tmp_path / "pole.cfg", CONVERGE_POLE_AT_A_FIRST_STEP)
    out = tmp_path / "out"
    assert run_cli("converge", "--config", config, "--halvings", halvings, "--out", str(out)) == 4
    assert_one_error_line(capsys, "division by zero at t = 0.0025")
    lines = (out / "convergence.csv").read_text().splitlines()
    assert [float(line.split(",")[0]) for line in lines[1:]] == [1e-2]


# a pole at the midpoint of the oracle's 8th step, 7.5 dt, which no Euler
# stage time p dt reaches: only the oracle fails; [oracle] steps gives
# converge's oracle the steps of compare's, so both reach it
ORACLE_POLE = (
    POLE.replace("x^2/(t-0.05)", f"x^2/2 + 0.01*x/(t - {7.5 * 0.01!r})")
    .replace("steps = 10", "steps = 20")
    + "\n[oracle]\nsteps = 20\n"
)


@pytest.mark.parametrize("command", ["compare", "converge"])
def test_a_pole_only_the_oracle_reaches_ends_compare_rows_and_fails_converge(
    tmp_path, capsys, command
):
    config = write_config(tmp_path / "pole.cfg", ORACLE_POLE)
    out = tmp_path / "out"
    argv = [command, "--config", config, "--out", str(out)]
    if command == "converge":
        argv[3:3] = ["--halvings", "1"]
    assert run_cli(*argv) == 4
    assert_one_error_line(capsys, f"division by zero at t = {7.5 * 0.01!r}")
    if command == "compare":  # as an oracle edge leak, the rows before it stay
        lines = (out / "compare.csv").read_text().splitlines()[1:]
        assert [float(line.split(",")[0]) for line in lines] == [p * 0.01 for p in range(8)]
    else:
        assert not (out / "convergence.csv").exists()


# V is finite at every stage of the N = 4 series, whose x^400 term it never
# reaches, but passes the double range on the oracle's window: the oracle
# fails at its first step's midpoint
ORACLE_OVERFLOW = """
[potential]
expression = x^2/2 + 1e-40*x^400

[initial]
kind = gaussian
truncation_order = 4

[stepper]
integrator = rk4
dt = 1e-2
steps = 10

[grid]
xmin = -8.0
xmax = 8.0
points = 256
"""


@pytest.mark.parametrize("command", ["compare", "converge"])
def test_a_potential_overflowing_on_the_oracle_grid_exits_4(tmp_path, capsys, command):
    config = write_config(tmp_path / "overflow.cfg", ORACLE_OVERFLOW)
    out = tmp_path / "out"
    argv = [command, "--config", config, "--out", str(out)]
    if command == "converge":
        argv[3:3] = ["--halvings", "1"]
    assert run_cli(*argv) == 4
    # compare's oracle takes the stepper's dt; converge's takes 128 steps
    midpoint = 0.5 * 1e-2 if command == "compare" else 0.5 * (1e-2 * 10 / 128)
    assert_one_error_line(capsys, f"overflow at t = {midpoint!r}")
    if command == "compare":  # the row of the start stays
        lines = (out / "compare.csv").read_text().splitlines()
        assert len(lines) == 2 and lines[1].startswith("0.0000000000000000e+00,")
    else:
        assert not (out / "convergence.csv").exists()


# the pole at t = 0.2 is two steps past the horizon: no stage or oracle
# midpoint reaches it, so no tabulated block may evaluate it
POLE_PAST_THE_HORIZON = (
    POLE.replace("x^2/(t-0.05)", "x/(t - 0.2)")
    .replace("dt = 1e-2", "dt = 0.1")
    .replace("steps = 10", "steps = 1")
)


@pytest.mark.parametrize("command", ["run", "compare", "converge"])
def test_a_pole_past_the_horizon_is_never_evaluated(tmp_path, capsys, command):
    config = write_config(tmp_path / "pole.cfg", POLE_PAST_THE_HORIZON)
    argv = [command, "--config", config, "--out", str(tmp_path / "out")]
    if command == "converge":
        argv[3:3] = ["--halvings", "3"]
    assert run_cli(*argv) == 0
    out, err = capsys.readouterr()
    assert out.startswith("status=completed") and err == ""


# Euler on the harmonic well blows up at step 75 (t = 37.5); the pole at
# t = 100, step 200, lies in the same tabulated block of steps
BLOWUP_BEFORE_A_POLE = COHERENT_EULER_BLOWUP.replace(
    "expression = x^2/2", "expression = x^2/2 + x/(t - 100)"
) + "\n[grid]\nxmin = -10.0\nxmax = 10.0\npoints = 256\n"


# The rows kept: run's coefficients up to the last healthy state, t = 37;
# compare's up to t = 21, after which the series cannot be reconstructed;
# none from converge, whose only level blew up
@pytest.mark.parametrize(
    "command, name, rows, last",
    [
        ("run", "coefficients.csv", 3 * 75, 37.0),
        ("compare", "compare.csv", 43, 21.0),
        ("converge", "convergence.csv", 0, None),
    ],
)
def test_a_blowup_before_a_pole_in_the_same_block_exits_3_with_its_rows(
    tmp_path, capsys, command, name, rows, last
):
    config = write_config(tmp_path / "blowup.cfg", BLOWUP_BEFORE_A_POLE)
    out = tmp_path / "out"
    argv = [command, "--config", config, "--out", str(out)]
    if command == "converge":
        argv[3:3] = ["--halvings", "2"]
    assert run_cli(*argv) == 3
    assert capsys.readouterr() == ("status=aborted_blowup\n", "")
    lines = (out / name).read_text().splitlines()
    assert len(lines) == 1 + rows
    if rows:
        assert float(lines[-1].split(",")[0]) == last


# a start state whose |psi|^2 leaves the double range on the oracle's window,
# above (Re S up to 400) or below (up to -400): |psi| itself is in range
OUT_OF_RANGE_START = """
[potential]
expression = x^2/2
[initial]
kind = coefficients
alpha_re = {alpha0}, 0, -0.5
[stepper]
dt = 0.01
steps = 10
[grid]
xmin = -8.0
xmax = 8.0
points = 256
"""


@pytest.mark.parametrize("alpha0, fragment", [(400, "norm^2 is not finite"), (-400, "norm^2 vanishes")])
def test_compare_reports_a_start_grid_out_of_the_double_range_once(
    tmp_path, capsys, alpha0, fragment
):
    # the oracle's edge test reads |psi|, so it neither overflows nor takes
    # an underflowed |psi|^2 for a leak; the start's moments report the state
    config = write_config(tmp_path / "run.cfg", OUT_OF_RANGE_START.format(alpha0=alpha0))
    assert run_cli("compare", "--config", config, "--out", str(tmp_path / "out")) == 2
    assert_one_error_line(capsys, fragment)


# a closed free packet running into the edge of [-6, 6]: the oracle's grid
# leaks past 1e-6 of its peak at t = 0.3
ORACLE_LEAK = """
[potential]
expression = 0

[initial]
kind = gaussian
sigma = 0.5
k0 = 8.0

[stepper]
integrator = rk4
dt = 0.01
steps = 100
snapshot_stride = 10

[grid]
xmin = -6.0
xmax = 6.0
points = 256
"""

# the same packet blows up between t = 0.5 and 0.6, where |alpha_0| passes 12
ORACLE_LEAK_THEN_BLOWUP = ORACLE_LEAK.replace(
    "snapshot_stride = 10", "snapshot_stride = 10\nblowup_threshold = 12"
)


@pytest.mark.parametrize(
    "body, code", [(ORACLE_LEAK, 2), (ORACLE_LEAK_THEN_BLOWUP, 3)], ids=["leak", "blowup"]
)
def test_compare_keeps_the_rows_before_an_oracle_edge_leakage(tmp_path, capsys, body, code):
    config = write_config(tmp_path / "leak.cfg", body)
    out = tmp_path / "out"
    assert run_cli("compare", "--config", config, "--out", str(out)) == code
    if code == 3:
        assert capsys.readouterr() == ("status=aborted_blowup\n", "")
    else:
        assert_one_error_line(capsys, "edge magnitude 8.612e-05 exceeds 1e-06 of peak 9.259e-01 at t = 0.3")
    lines = (out / "compare.csv").read_text().splitlines()
    assert [float(line.split(",")[0]) for line in lines[1:]] == [0.0, 0.1, 0.2]


# after ORACLE_LEAK's failed snapshot at t = 0.3 (exit 2 alone), the stepper
# blows up, or reaches a pole in a term constant in x, which leaves |psi| as it is
@pytest.mark.parametrize(
    "body, code, captured",
    [
        (ORACLE_LEAK_THEN_BLOWUP, 3, ("status=aborted_blowup\n", "")),
        (ORACLE_LEAK.replace("expression = 0", "expression = 1/(t - 0.6)"), 4,
         ("", "error: division by zero at t = 0.6\n")),
    ],
    ids=["blowup", "pole"],
)
@pytest.mark.parametrize("command", ["run", "compare"])
def test_the_stepper_error_decides_over_an_earlier_failed_snapshot(
    tmp_path, capsys, command, body, code, captured
):
    config = write_config(tmp_path / "late.cfg", body)
    out = tmp_path / "out"
    assert run_cli(command, "--config", config, "--out", str(out)) == code
    assert capsys.readouterr() == captured
    name = "observables.csv" if command == "run" else "compare.csv"
    lines = (out / name).read_text().splitlines()
    assert [float(line.split(",")[0]) for line in lines[1:]] == [0.0, 0.1, 0.2]


def test_run_stops_where_a_closed_packet_leaves_its_window(tmp_path, capsys):
    # its series is exact, so only the window's edges can fail it
    config = write_config(tmp_path / "leak.cfg", ORACLE_LEAK)
    out = tmp_path / "out"
    assert run_cli("run", "--config", config, "--out", str(out)) == 2
    assert_one_error_line(
        capsys, "window edge magnitude 6.730e-05 exceeds 1e-05 of peak 9.256e-01 at t = 0.3"
    )
    lines = (out / "observables.csv").read_text().splitlines()
    assert [float(line.split(",")[0]) for line in lines[1:]] == [0.0, 0.1, 0.2]
    assert not (out / "wavefunction_final.csv").exists()


@pytest.mark.parametrize(
    "name, code",
    [
        ("free_packet", 0),
        ("harmonic_coherent", 0),
        ("driven", 0),
        ("blowup", 3),
        ("quartic_n20", 2),
        ("oracle_leak", 2),
        ("oracle_leak_then_blowup", 3),
        ("pole_after_50_steps", 4),
        ("oracle_pole", 4),
    ],
)
def test_compare_writes_the_bytes_of_the_per_snapshot_reference(tmp_path, capsys, name, code):
    bodies = {
        "driven": DRIVEN_FALLBACK,
        "blowup": BLOWUP_BEFORE_A_POLE,
        "quartic_n20": QUARTIC_N20,
        "oracle_leak": ORACLE_LEAK,
        "oracle_leak_then_blowup": ORACLE_LEAK_THEN_BLOWUP,
        "pole_after_50_steps": POLE_AFTER_50_STEPS,
        "oracle_pole": ORACLE_POLE,
    }
    body = bodies.get(name) or (CONFIGS / f"{name}.cfg").read_text(encoding="utf-8")
    config = write_config(tmp_path / "cmp.cfg", body)
    expected_code, expected = reference_compare(config)
    assert expected_code == code
    out = tmp_path / "out"
    assert run_cli("compare", "--config", config, "--out", str(out)) == code
    capsys.readouterr()
    assert {path.name: path.read_bytes() for path in out.iterdir()} == expected


def test_compare_edge_leakage_exits_2(tmp_path, capsys):
    # a sigma = 1 packet is far from negligible at the edges of [-3, 3]
    body = (
        POLE.replace("x^2/(t-0.05)", "x^2/2")
        .replace("xmin = -10.0", "xmin = -3.0")
        .replace("xmax = 10.0", "xmax = 3.0")
    )
    config = write_config(tmp_path / "edge.cfg", body)
    assert run_cli("compare", "--config", config, "--out", str(tmp_path / "out")) == 2
    assert_one_error_line(capsys, "edge magnitude")


# every config error, one per case: the sections of a valid config, edited by
# "section.key=value" (set), "-section.key" (delete), "-section" (drop the
# section), "+section" (add it empty) or lines appended as they are
_VALID = {
    "physical": {"hbar": "1.0", "mass": "1.0"},
    "potential": {"expression": "x^2/2"},
    "initial": {"kind": "gaussian", "x0": "0.0", "sigma": "1.0", "k0": "0.0"},
    "stepper": {"integrator": "euler", "dt": "1e-2", "steps": "10", "snapshot_stride": "5"},
    "grid": {"xmin": "-10.0", "xmax": "10.0", "points": "256"},
}
_COEFFICIENTS = ("-initial", "+initial", "initial.kind=coefficients",
                 "initial.alpha_re=-0.125, 0.5, -0.5")


def _edited_config(edits) -> str:
    sections = {name: dict(keys) for name, keys in _VALID.items()}
    appended = "".join(edit for edit in edits if "\n" in edit)
    for edit in (edit for edit in edits if "\n" not in edit):
        if edit[0] in "+-" and "." not in edit:
            if edit[0] == "+":
                sections[edit[1:]] = {}
            else:
                del sections[edit[1:]]
            continue
        name, _, rest = edit.lstrip("-").partition(".")
        key, _, value = rest.partition("=")
        if edit[0] == "-":
            del sections[name][key]
        else:
            sections.setdefault(name, {})[key] = value
    return "".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
        for name, keys in sections.items()
    ) + appended


def _expected(section, key, word):
    return f"{section}.{key}: expected {word}, got 'x'"


_NOT_A_VALUE = [
    ((f"{section}.{key}=x",), 2, _expected(section, key, word))
    for section, key, word in [
        ("physical", "hbar", "a number"),
        ("physical", "mass", "a number"),
        ("initial", "x0", "a number"),
        ("initial", "sigma", "a number"),
        ("initial", "k0", "a number"),
        ("initial", "truncation_order", "an integer"),
        ("stepper", "dt", "a number"),
        ("stepper", "steps", "an integer"),
        ("stepper", "blowup_threshold", "a number"),
        ("stepper", "snapshot_stride", "an integer"),
        ("grid", "xmin", "a number"),
        ("grid", "xmax", "a number"),
        ("grid", "points", "an integer"),
        ("oracle", "points", "an integer"),
        ("oracle", "steps", "an integer"),
    ]
] + [
    ((*_COEFFICIENTS, f"initial.{key}=x"), 2, _expected("initial", key, word))
    for key, word in [
        ("alpha_re", "comma-separated numbers"),
        ("alpha_im", "comma-separated numbers"),
        ("truncation_order", "an integer"),
    ]
]

# (edits, exit code, the error line after "error: "; a tuple of fragments
# for configparser's own text)
_CONFIG_ERRORS = _NOT_A_VALUE + [
    (("+extra",), 2, "unknown section 'extra'"),
    (("initial.width=1",), 2, "unknown key 'width' in section 'initial'"),
    (("oracle.dt=0.25",), 2, "unknown key 'dt' in section 'oracle'"),
    # the oracle samples [grid]'s window
    (("oracle.xmin=x",), 2, "unknown key 'xmin' in section 'oracle'"),
    (("oracle.xmax=x",), 2, "unknown key 'xmax' in section 'oracle'"),
    (("output.directory=out",), 2, "unknown section 'output'"),
    (("converge.allow_oracle_fallback=false",), 2,
     "unknown key 'allow_oracle_fallback' in section 'converge'"),
    (("+DEFAULT", "DEFAULT.hbar=1"), 2, "unknown section 'DEFAULT'"),
    (("[grid]\n",), 2, ("config parse error:", "section 'grid' already exists")),
    (("points = 128\n",), 2,
     ("config parse error:", "option 'points' in section 'grid' already exists")),
    (("points\n",), 2, "config parse error: Source contains parsing errors: '<string>' "
     "[line 20]: 'points\\n'"),
    (("-potential",), 2, "missing required section [potential]"),
    (("-initial",), 2, "missing required section [initial]"),
    (("-stepper",), 2, "missing required section [stepper]"),
    (("-potential.expression",), 2, "missing required key potential.expression"),
    (("-initial.kind",), 2, "missing required key initial.kind"),
    ((*_COEFFICIENTS, "-initial.alpha_re"), 2, "missing required key initial.alpha_re"),
    (("-stepper.dt",), 2, "missing required key stepper.dt"),
    (("-stepper.steps",), 2, "missing required key stepper.steps"),
    (("-grid.xmin",), 2, "missing required key grid.xmin"),
    (("-grid.xmax",), 2, "missing required key grid.xmax"),
    (("-grid.points",), 2, "missing required key grid.points"),
    (("initial.alpha_re=1",), 2, "initial.alpha_re is only valid with kind = coefficients"),
    (("initial.alpha_im=1",), 2, "initial.alpha_im is only valid with kind = coefficients"),
    ((*_COEFFICIENTS, "initial.x0=0"), 2, "initial.x0 is only valid with kind = gaussian"),
    ((*_COEFFICIENTS, "initial.sigma=1"), 2, "initial.sigma is only valid with kind = gaussian"),
    ((*_COEFFICIENTS, "initial.k0=0"), 2, "initial.k0 is only valid with kind = gaussian"),
    ((*_COEFFICIENTS, "initial.alpha_im=0, 0"), 2,
     "initial.alpha_re and initial.alpha_im differ in length"),
    ((*_COEFFICIENTS, "initial.alpha_re=nan, 0.5, -0.5"), 2, "initial coefficients must be finite"),
    # a gaussian packet whose coefficients pass the double range
    (("initial.x0=1e160",), 2, "initial coefficients must be finite"),
    (("initial.sigma=1e200",), 2, "initial coefficients must be finite"),
    (("initial.sigma=1e-171",), 2, "initial coefficients must be finite"),
    (("initial.sigma=1e-160",), 2, "initial coefficients must be finite"),
    ((*_COEFFICIENTS, "initial.truncation_order=1"), 2,
     "initial.truncation_order = 1 cannot hold 3 coefficients"),
    # a coefficients state takes the minimum order of a gaussian one
    ((*_COEFFICIENTS, "initial.alpha_re=-0.5", "initial.truncation_order=0"), 2,
     "truncation_order must be at least 2"),
    ((*_COEFFICIENTS, "initial.alpha_re=-0.5, 0.0", "initial.truncation_order=1"), 2,
     "truncation_order must be at least 2"),
    (("initial.truncation_order=1",), 2, "truncation_order must be at least 2"),
    (("initial.kind=plane",), 2, "initial.kind must be 'gaussian' or 'coefficients', got 'plane'"),
    (("converge.scenario=bogus",), 2,
     "converge.scenario must be one of auto, closed, oracle, got 'bogus'"),
    (("oracle.steps=0",), 2, "oracle.steps must be at least 1, got 0"),
    (("potential.expression=1/x",), 4, "x may not appear in a denominator (position 2)"),
    (("potential.expression=x^1.5",), 4,
     "exponent must be a nonnegative integer literal, found '1.5' (position 3)"),
    # several errors: the first one checked is reported
    (("stepper.dt=x", "-stepper.steps"), 2, "missing required key stepper.steps"),
    (("potential.expression=x^^2", "-initial"), 4,
     "exponent must be a nonnegative integer literal, found '^' (position 3)"),
    (("physical.hbar=-1", "stepper.dt=x"), 2, "hbar must be positive and finite, got -1.0"),
    (("-potential", "stepper.dt=x"), 2, "missing required section [potential]"),
    (("physical.hbar=-1", "physical.mass=x"), 2, _expected("physical", "mass", "a number")),
    (("initial.sigma=-1", "initial.truncation_order=x"), 2,
     "width must be positive and finite, got -1.0"),
    (("initial.alpha_re=x",), 2, "initial.alpha_re is only valid with kind = coefficients"),
    (("initial.kind=plane", "initial.x0=x"), 2,
     "initial.kind must be 'gaussian' or 'coefficients', got 'plane'"),
    ((*_COEFFICIENTS, "initial.alpha_re=x", "initial.truncation_order=x"), 2,
     _expected("initial", "alpha_re", "comma-separated numbers")),
    (("stepper.dt=-1", "stepper.steps=x"), 2, _expected("stepper", "steps", "an integer")),
    (("stepper.dt=-1", "grid.points=x"), 2, "dt must be positive and finite, got -1.0"),
    (("grid.xmin=x", "-grid.points"), 2, "missing required key grid.points"),
    (("grid.points=4", "oracle.steps=x"), 2, "grid points must be at least 8, got 4"),
    (("oracle.steps=0", "oracle.xmin=x"), 2, "unknown key 'xmin' in section 'oracle'"),
    (("oracle.steps=0", "converge.scenario=bogus"), 2, "oracle.steps must be at least 1, got 0"),
    (("oracle.steps=x", "converge.allow_oracle_fallback=false"), 2,
     "unknown key 'allow_oracle_fallback' in section 'converge'"),
]


@pytest.mark.parametrize(
    "edits,code,expected",
    _CONFIG_ERRORS,
    ids=[" ".join(edit.strip() for edit in edits) for edits, _, _ in _CONFIG_ERRORS],
)
def test_each_config_error_exits_with_its_code_and_one_error_line(
    tmp_path, capsys, edits, code, expected
):
    config = write_config(tmp_path / "bad.cfg", _edited_config(edits))
    out = tmp_path / "out"
    assert run_cli("run", "--config", config, "--out", str(out)) == code
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    [line] = captured.err.splitlines()
    if isinstance(expected, tuple):
        assert line.startswith("error: ") and all(part in line for part in expected)
    else:
        assert line == f"error: {expected}"


def test_an_unreadable_config_exits_2_with_one_error_line(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("run", "--config", str(tmp_path / "absent.cfg"), "--out", str(out)) == 2
    assert_one_error_line(capsys, "cannot read config:")
    assert not out.exists()


@pytest.mark.parametrize(
    "content,expected",
    [
        (b"[potential]\n# \xff\nexpression = 0\n",
         "cannot read config: 'utf-8' codec can't decode byte 0xff in position 14: "
         "invalid start byte"),
        (b"expression = 0\n[potential]\n",
         "config parse error: File contains no section headers. file: '<string>', line: 1 "
         "'expression = 0\\n'"),
    ],
    ids=["not utf-8", "no section header"],
)
def test_an_unreadable_config_text_exits_2_with_one_error_line(tmp_path, capsys, content, expected):
    config = tmp_path / "bad.cfg"
    config.write_bytes(content)
    out = tmp_path / "out"
    assert run_cli("run", "--config", str(config), "--out", str(out)) == 2
    assert capsys.readouterr() == ("", f"error: {expected}\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "bounds",
    [("-10.0", "inf"), ("-inf", "10.0"), ("-1e308", "1e308"), ("0.0", "1e200")],
    ids=["inf", "-inf", "overflowing span", "overflowing squares"],
)
@pytest.mark.parametrize(
    "command,section", [("run", "grid"), ("compare", "grid"), ("converge", "grid")]
)
def test_a_non_finite_window_exits_2_and_writes_nothing(tmp_path, capsys, command, section, bounds):
    edits = (f"{section}.xmin={bounds[0]}", f"{section}.xmax={bounds[1]}")
    config = write_config(tmp_path / "window.cfg", _edited_config(edits))
    out = tmp_path / "out"
    argv = [command, "--config", config, "--out", str(out)]
    if command == "converge":
        argv[1:1] = ["--halvings", "1"]
    assert run_cli(*argv) == 2
    xmin, xmax = (float(bound) for bound in bounds)
    rule = "must have finite squares" if xmax == 1e200 else "and their span must be finite"
    assert_one_error_line(capsys, f"bounds {rule}, got [{xmin}, {xmax}]")
    assert not out.exists()


@pytest.mark.parametrize("command", ["compare", "converge"])
def test_an_oracle_without_a_grid_exits_2(tmp_path, capsys, command):
    # [oracle] sets no window; CUBIC_FALLBACK has no closed form, so converge needs the oracle
    config = write_config(
        tmp_path / "no_grid.cfg", CUBIC_FALLBACK.split("[grid]")[0] + "[oracle]\npoints = 1024\n"
    )
    argv = [command, "--config", config, "--out", str(tmp_path / "out")]
    if command == "converge":
        argv[1:1] = ["--halvings", "1"]
    assert run_cli(*argv) == 2
    fragment = "the oracle needs a [grid] section" if command == "compare" else "lacks a [grid]"
    assert_one_error_line(capsys, fragment)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "edits,points",
    [(("grid.points=8",), 256), (("grid.points=256",), 256), (("grid.points=257",), 512),
     (("grid.points=1201",), 2048), (("grid.points=1201", "oracle.points=1024"), 1024)],
    ids=["8", "256", "257", "1201", "1201-oracle-1024"],
)
def test_the_oracle_samples_the_grid_window_at_a_power_of_two_or_its_own_points(
    tmp_path, edits, points
):
    # [grid] points rounded up to a power of two, at least 256
    cfg = load_config(write_config(tmp_path / "grid.cfg", _edited_config(edits)))
    oracle_cfg = _oracle_config(cfg)
    assert (oracle_cfg.xmin, oracle_cfg.xmax, oracle_cfg.points) == (-10.0, 10.0, points)
