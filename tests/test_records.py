"""The value types: equality, hashing, immutability and validation, which
the dataclasses they replace had; an import of the CLI that leaves the
dataclasses module unloaded; and the README's library example and config
block."""

import math
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tdse.config import _SCHEMA, GridSpec, OracleOptions, RunConfig, load_config
from tdse.initialization import FitResult, GaussianPacket
from tdse.integrators import BlowUp, StepperConfig, Trajectory
from tdse.oracle import ComparisonReport, OracleConfig
from tdse.potential import (
    BinOp,
    Call,
    Const,
    Neg,
    PotentialModel,
    Power,
    TimeVar,
    _Token,
    parse_potential,
)
from tdse.reconstruction import Observables, WaveGrid
from tdse.state import CoefficientState, PhysicalParams

ROOT = Path(__file__).resolve().parents[1]

# one instance of each formerly frozen type, built from fresh values each time
FROZEN = {
    "PhysicalParams": lambda: PhysicalParams(hbar=1.0, mass=2.0),
    "StepperConfig": lambda: StepperConfig(
        dt=1e-3, steps=10, integrator="rk4", blowup_threshold=1e9, snapshot_stride=2
    ),
    "OracleConfig": lambda: OracleConfig(xmin=-8.0, xmax=8.0, points=256, dt=0.01, steps=100),
    "GaussianPacket": lambda: GaussianPacket(center=0.5, width=2.0, wavenumber=1.0),
    "GridSpec": lambda: GridSpec(xmin=-1.0, xmax=1.0, points=8),
    "OracleOptions": lambda: OracleOptions(points=512, steps=64),
    "Observables": lambda: Observables(1.0, 0.1, 0.2),
    "Const": lambda: Const(1.5),
    "TimeVar": lambda: TimeVar(),
    "Neg": lambda: Neg(TimeVar()),
    "BinOp": lambda: BinOp("+", Const(1.0), TimeVar()),
    "Power": lambda: Power(TimeVar(), 3),
    "Call": lambda: Call("sin", TimeVar()),
    "_Token": lambda: _Token("number", "2", 1),
}

_STATE = CoefficientState([0.0, 0.5, -0.5])
_GRID = WaveGrid(-1.0, 0.25, np.ones(9, dtype=complex))


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_equal_values_compare_and_hash_equal(name):
    a, b = FROZEN[name](), FROZEN[name]()
    assert a is not b and a == b and hash(a) == hash(b)
    assert pickle.loads(pickle.dumps(a)) == a


def test_values_that_differ_compare_unequal():
    assert PhysicalParams(mass=2.0) != PhysicalParams()
    assert StepperConfig(1e-3, 10) != StepperConfig(1e-3, 10, "rk4")
    assert Const(1.0) != Const(2.0) and Neg(Const(1.0)) != Const(1.0)
    # a type that holds the same values is still another type
    assert GaussianPacket(0.5, 2.0, 1.0) != Observables(0.5, 2.0, 1.0)


def test_records_holding_an_unhashable_field_compare_equal_but_do_not_hash():
    model = parse_potential("x^2/2 + sin(t)*x")
    assert FitResult(_STATE, 0.25) == FitResult(_STATE, 0.25)
    assert model == parse_potential("x^2/2 + sin(t)*x")
    assert model != parse_potential("x^2/2")
    for record in (FitResult(_STATE, 0.25), model):
        with pytest.raises(TypeError):
            hash(record)


def test_mutable_records_compare_by_field_and_do_not_hash():
    # field by field: records that share their array fields compare equal
    assert _STATE == _STATE and _STATE != PhysicalParams()
    blowup = BlowUp("blow-up at step 1, t = 1.0")
    assert Trajectory([_STATE]) == Trajectory([_STATE], None)
    assert Trajectory([_STATE], blowup) == Trajectory([_STATE], blowup)
    assert Trajectory([_STATE]) != Trajectory([_STATE], blowup)
    cfg = load_config(str(ROOT / "configs" / "free_packet.cfg"))
    assert isinstance(cfg, RunConfig) and cfg == cfg and cfg.params == PhysicalParams()
    for record in (_STATE, _GRID, Trajectory([_STATE]), cfg):
        with pytest.raises(TypeError):
            hash(record)


def test_records_holding_equal_but_distinct_arrays_compare_equal():
    def state(alpha_2=-0.5):
        return CoefficientState([0.0, 0.5, alpha_2])

    def grid(value=1.0):
        return WaveGrid(-1.0, 0.25, np.full(9, value, dtype=complex))

    assert state() == state() and state() != state(-0.25)
    # arrays of another length, as of another truncation order, differ
    assert state() != CoefficientState([0.0, 0.5, -0.5, 0.0])
    assert grid() == grid() and grid() != grid(2.0)
    assert Trajectory([state()]) == Trajectory([state()])
    assert Trajectory([state()]) != Trajectory([state(-0.25)])
    assert FitResult(state(), 0.25) == FitResult(state(), 0.25)
    assert FitResult(state(), 0.25) != FitResult(state(-0.25), 0.25)
    path = str(ROOT / "configs" / "harmonic_coherent.cfg")
    assert load_config(path) == load_config(path)


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_a_formerly_frozen_type_rejects_assignment(name):
    record = FROZEN[name]()
    for field in (*record._asdict(), "unknown"):
        with pytest.raises(AttributeError):
            setattr(record, field, 0.0)


def test_frozen_records_reject_assignment_and_deletion():
    model = parse_potential("x^2/2")
    for record, field in ((PhysicalParams(), "hbar"), (model, "terms"), (model, "is_static")):
        with pytest.raises(AttributeError):
            setattr(record, field, 2.0)
        with pytest.raises(AttributeError):
            delattr(record, field)
    fit = FitResult(_STATE, 0.25)
    with pytest.raises(AttributeError):
        fit.residual = 0.0


def test_mutable_records_stay_mutable():
    state = CoefficientState([0.0, 0.5, -0.5])
    state.time = 2.0
    trajectory = Trajectory([state])
    blowup = trajectory.error = BlowUp("blow-up at step 1, t = 1.0")
    grid = WaveGrid(-1.0, 0.25, np.ones(9, dtype=complex))
    grid.time = 1.0
    report = ComparisonReport(*(np.zeros(1),) * 4)
    assert (state.time, trajectory.error, grid.time) == (2.0, blowup, 1.0)
    assert report.error is None


# (record, changes, message): each change is invalid on its own
INVALID = [
    (PhysicalParams(), {"hbar": 0.0}, "hbar must be positive and finite, got 0.0"),
    (PhysicalParams(), {"mass": math.inf}, "mass must be positive and finite, got inf"),
    (StepperConfig(1e-3, 10), {"dt": -1.0}, "dt must be positive and finite, got -1.0"),
    (StepperConfig(1e-3, 10), {"steps": 0}, "steps must be at least 1, got 0"),
    (StepperConfig(1e-3, 10), {"integrator": "midpoint"}, "integrator must be one of"),
    (StepperConfig(1e-3, 10), {"blowup_threshold": math.nan}, "blowup_threshold must be"),
    (StepperConfig(1e-3, 10), {"snapshot_stride": 0}, "snapshot_stride must be at least 1"),
    (OracleConfig(-8.0, 8.0, 256, 0.01, 100), {"xmax": -8.0}, "xmax must exceed xmin"),
    (OracleConfig(-8.0, 8.0, 256, 0.01, 100), {"points": 384}, "points must be a power of two"),
    (OracleConfig(-8.0, 8.0, 256, 0.01, 100), {"dt": 0.0}, "dt must be positive and finite"),
    (OracleConfig(-8.0, 8.0, 256, 0.01, 100), {"steps": -1}, "steps must be nonnegative"),
    (OracleConfig(-8.0, 8.0, 256, 0.01, 100), {"xmin": -math.inf},
     "bounds and their span must be finite, got [-inf, 8.0]"),
    (OracleConfig(-8.0, 8.0, 256, 0.01, 100), {"xmin": -1e308, "xmax": 1e308},
     "bounds and their span must be finite, got [-1e+308, 1e+308]"),
    (GaussianPacket(), {"width": 0.0}, "width must be positive and finite, got 0.0"),
    (GaussianPacket(), {"center": math.nan}, "center and wavenumber must be finite"),
    (GridSpec(-1.0, 1.0, 8), {"xmin": 1.0}, "grid xmax must exceed xmin, got [1.0, 1.0]"),
    (GridSpec(-1.0, 1.0, 8), {"points": 4}, "grid points must be at least 8, got 4"),
    (GridSpec(-1.0, 1.0, 8), {"xmax": math.inf},
     "grid bounds and their span must be finite, got [-1.0, inf]"),
    (GridSpec(-1.0, 1.0, 8), {"xmin": -1e308, "xmax": 1e308},
     "grid bounds and their span must be finite, got [-1e+308, 1e+308]"),
    (_STATE, {"alphas": [[0.0, 1.0, 2.0]]}, "alphas must be a one-dimensional sequence"),
    (_STATE, {"alphas": [0.0, 1.0]}, "truncation_order must be at least 2"),
    (_GRID, {"values": np.ones(7)}, "values must be a 1-D sequence of at least 8 samples"),
    (_GRID, {"dx": 0.0}, "dx must be positive and finite, got 0.0"),
    (_GRID, {"values": np.full(9, np.nan)}, "grid values must be finite"),
    (parse_potential("x^2"), {"terms": {-1: Const(1.0)}}, "term degrees must be nonnegative"),
    (OracleConfig(-8.0, 8.0, 256, 0.01, 100), {"xmin": -1e155},
     "bounds must have finite squares, got [-1e+155, 8.0]"),
    (GridSpec(-1.0, 1.0, 8), {"xmax": 1e200},
     "grid bounds must have finite squares, got [-1.0, 1e+200]"),
]


@pytest.mark.parametrize("record,changes,message", INVALID)
def test_invalid_values_raise_at_construction_and_through_replace(record, changes, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        type(record)(**{**record._asdict(), **changes})
    with pytest.raises(ValueError, match=re.escape(message)):
        record.replace(**changes)


def test_replace_copies_the_other_fields_and_rejects_unknown_ones():
    cfg = StepperConfig(1e-3, 10, "rk4", 1e9, 5)
    assert cfg.replace(dt=5e-4, steps=20) == StepperConfig(5e-4, 20, "rk4", 1e9, 5)
    assert cfg == StepperConfig(1e-3, 10, "rk4", 1e9, 5)
    state = _STATE.replace(time=1.0)
    assert state.time == 1.0 and state.alphas.tolist() == _STATE.alphas.tolist()
    with pytest.raises(TypeError):
        cfg.replace(order=4)


def test_reprs_name_the_fields_as_a_dataclass_did():
    assert repr(PhysicalParams()) == "PhysicalParams(hbar=1.0, mass=1.0)"
    assert repr(Power(TimeVar(), 2)) == "Power(base=TimeVar(), exponent=2)"
    assert repr(OracleConfig(-8.0, 8.0, 256, 0.01, 100)) == (
        "OracleConfig(xmin=-8.0, xmax=8.0, points=256, dt=0.01, steps=100)"
    )


def test_two_parses_give_equal_potential_reprs():
    text = "x^2/2 + sin(2*t)*x - exp(-t)/(1 + t^2)"
    first, second = parse_potential(text), parse_potential(text)
    assert repr(first) == repr(second)
    assert repr(first).startswith("PotentialModel(terms={") and " at 0x" not in repr(first)
    restored = pickle.loads(pickle.dumps(first))
    assert repr(restored) == repr(first) and restored == first and not restored.is_static
    assert isinstance(first, PotentialModel)


def test_importing_the_cli_leaves_dataclasses_unloaded():
    # if numpy itself loads dataclasses on this interpreter, tdse cannot avoid it
    probe = (
        "import sys, numpy\n"
        "by_numpy = 'dataclasses' in sys.modules\n"
        "import tdse.cli\n"
        "print(by_numpy, 'dataclasses' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    by_numpy, after_cli = done.stdout.split()
    assert after_cli == by_numpy


def test_the_readme_library_example_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})
    mean_x, mean_p = map(float, capsys.readouterr().out.split())
    assert mean_x == pytest.approx(0.5 * math.cos(1.0), abs=1e-9)
    assert mean_p == pytest.approx(-0.5 * math.sin(1.0), abs=1e-9)


def test_the_readme_config_block_loads_and_shows_every_section(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    [block] = re.findall(r"```ini\n(.*?)```", readme, re.DOTALL)
    path = tmp_path / "readme.cfg"
    path.write_text(block, encoding="utf-8")
    assert isinstance(load_config(str(path)), RunConfig)
    assert re.findall(r"^\[(\w+)\]", block, re.MULTILINE) == list(_SCHEMA)
