"""End-to-end tests of the command-line interface and its exit codes."""

import numpy as np
import pytest

from conftest import write_config
from tdse.cli import main

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


def test_run_requires_out_dir(tmp_path, capsys):
    config = write_config(tmp_path / "run.cfg", HARMONIC_GAUSSIAN)
    assert run_cli("run", "--config", config) == 2
    assert "--out" in capsys.readouterr().err


def test_run_out_dir_from_config(tmp_path, capsys):
    body = HARMONIC_GAUSSIAN + f"\n[output]\ndirectory = {tmp_path / 'from_cfg'}\n"
    config = write_config(tmp_path / "run.cfg", body)
    assert run_cli("run", "--config", config) == 0
    capsys.readouterr()
    assert (tmp_path / "from_cfg" / "coefficients.csv").exists()


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


def test_converge_unknown_scenario_without_fallback(tmp_path, capsys):
    config = write_config(
        tmp_path / "conv.cfg",
        """
[potential]
expression = 0.05*x^3

[initial]
kind = gaussian
truncation_order = 8

[stepper]
dt = 1e-2
steps = 30

[converge]
allow_oracle_fallback = false
""",
    )
    assert run_cli("converge", "--config", config, "--halvings", "2", "--out", str(tmp_path)) == 2
    assert "scenario" in capsys.readouterr().err


def test_converge_oracle_fallback(tmp_path, capsys):
    config = write_config(
        tmp_path / "conv.cfg",
        """
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
""",
    )
    out = tmp_path / "out"
    assert run_cli("converge", "--config", config, "--halvings", "2", "--out", str(out)) == 0
    capsys.readouterr()
    lines = (out / "convergence.csv").read_text().splitlines()
    errors = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(e > 0 for e in errors)
    assert errors[0] > errors[-1]


def test_converge_named_scenario_mismatch(tmp_path, capsys):
    config = write_config(
        tmp_path / "conv.cfg",
        FREE_CONVERGE.format(integrator="euler") + "\n[converge]\nscenario = harmonic_ground\n",
    )
    assert run_cli("converge", "--config", config, "--halvings", "2", "--out", str(tmp_path)) == 2
    assert "scenario" in capsys.readouterr().err


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
    if command == "run":  # the healthy snapshots are kept
        assert [p.name for p in written] == ["coefficients.csv", "observables.csv"]


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


def test_missing_config_file(tmp_path):
    assert run_cli("run", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)) == 2


def test_help_exits_cleanly():
    with pytest.raises(SystemExit) as excinfo:
        run_cli("--help")
    assert excinfo.value.code == 0
    with pytest.raises(SystemExit) as excinfo:
        run_cli("run", "--help")
    assert excinfo.value.code == 0
