"""Run configuration: '[section]' headers with 'key = value' pairs.

UTF-8 text, '#' starts a comment, whitespace around keys and values is
ignored, unknown sections and keys are rejected.  Example:

    [physical]
    hbar = 1.0
    mass = 1.0

    [potential]
    expression = x^2/2

    [initial]
    kind = gaussian          # or 'coefficients'
    x0 = 0.0
    sigma = 1.0
    k0 = 0.0
    truncation_order = 2

    [stepper]
    integrator = euler       # or 'rk4'
    dt = 1e-3
    steps = 1000
    snapshot_stride = 100
    blowup_threshold = 1e12

    [grid]
    xmin = -12.0
    xmax = 12.0
    points = 1201

    [output]
    directory = out

The optional [oracle] section (xmin, xmax, points, dt, steps) overrides
the grid solver used by 'compare' and by oracle-fallback convergence
studies; the optional [converge] section holds 'scenario' (auto, free,
linear, harmonic_ground, harmonic_coherent, oracle) and
'allow_oracle_fallback' (true/false).
"""

import configparser
import math
from typing import NamedTuple

import numpy as np

from .initialization import GaussianPacket, gaussian_coefficients
from .integrators import StepperConfig
from .potential import PotentialModel, parse_potential
from .records import Frozen, Record
from .scenarios import SCENARIOS
from .state import CoefficientState, PhysicalParams

__all__ = ["ConfigError", "GridSpec", "OracleOptions", "RunConfig", "load_config"]


class ConfigError(ValueError):
    """Invalid or incomplete run configuration."""


class GridSpec(Frozen):
    __slots__ = ("xmin", "xmax", "points")

    def __init__(self, xmin: float, xmax: float, points: int):
        if not xmax > xmin:
            raise ValueError(f"grid xmax must exceed xmin, got [{xmin}, {xmax}]")
        if points < 8:
            raise ValueError(f"grid points must be at least 8, got {points}")
        self._set(xmin, xmax, points)


class OracleOptions(NamedTuple):
    """Raw [oracle] overrides; unset fields fall back to command defaults."""

    xmin: float | None = None
    xmax: float | None = None
    points: int | None = None
    dt: float | None = None
    steps: int | None = None


class RunConfig(Record):
    __slots__ = ("params", "potential", "initial", "stepper", "grid", "output_dir", "oracle",
                 "converge_scenario", "allow_oracle_fallback")

    def __init__(
        self, params: PhysicalParams, potential: PotentialModel, initial: CoefficientState,
        stepper: StepperConfig, grid: GridSpec | None, output_dir: str | None,
        oracle: OracleOptions, converge_scenario: str, allow_oracle_fallback: bool,
    ):
        self._set(params, potential, initial, stepper, grid, output_dir, oracle,
                  converge_scenario, allow_oracle_fallback)


_SCHEMA = {
    "physical": {"hbar", "mass"},
    "potential": {"expression"},
    "initial": {"kind", "x0", "sigma", "k0", "alpha_re", "alpha_im", "truncation_order"},
    "stepper": {"integrator", "dt", "steps", "snapshot_stride", "blowup_threshold"},
    "grid": {"xmin", "xmax", "points"},
    "output": {"directory"},
    "oracle": {"xmin", "xmax", "points", "dt", "steps"},
    "converge": {"scenario", "allow_oracle_fallback"},
}

_SCENARIO_NAMES = ("auto", *SCENARIOS, "oracle")


class _Section:
    def __init__(self, name: str, values: dict):
        self.name = name
        self.values = values

    def get(self, key: str, default=None):
        return self.values.get(key, default)

    def _convert(self, key, conv, kind, default):
        raw = self.values.get(key)
        if raw is None:
            return default
        try:
            return conv(raw)
        except ValueError:
            raise ConfigError(f"{self.name}.{key}: expected {kind}, got {raw!r}") from None

    def getfloat(self, key, default=None):
        return self._convert(key, float, "a number", default)

    def getint(self, key, default=None):
        return self._convert(key, int, "an integer", default)

    def getbool(self, key, default=None):
        raw = self.values.get(key)
        if raw is None:
            return default
        lowered = raw.strip().lower()
        if lowered in ("true", "yes", "on", "1"):
            return True
        if lowered in ("false", "no", "off", "0"):
            return False
        raise ConfigError(f"{self.name}.{key}: expected true/false, got {raw!r}")

    def getfloatlist(self, key, default=None):
        raw = self.values.get(key)
        if raw is None:
            return default
        try:
            return [float(part) for part in raw.split(",")]
        except ValueError:
            raise ConfigError(
                f"{self.name}.{key}: expected comma-separated numbers, got {raw!r}"
            ) from None

    def require(self, key: str) -> str:
        raw = self.values.get(key)
        if raw is None:
            raise ConfigError(f"missing required key {self.name}.{key}")
        return raw


def _read_sections(text: str) -> dict:
    cp = configparser.ConfigParser(
        delimiters=("=",),
        comment_prefixes=("#",),
        inline_comment_prefixes=("#",),
        strict=True,
        interpolation=None,
    )
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from None
    if cp.defaults():
        raise ConfigError("unknown section 'DEFAULT'")
    sections = {}
    for name in cp.sections():
        if name not in _SCHEMA:
            raise ConfigError(f"unknown section '{name}'")
        for key in cp[name]:
            if key not in _SCHEMA[name]:
                raise ConfigError(f"unknown key '{key}' in section '{name}'")
        sections[name] = _Section(name, dict(cp[name]))
    return sections


def _build_initial(section: _Section) -> CoefficientState:
    kind = section.require("kind").strip().lower()
    if kind == "gaussian":
        for key in ("alpha_re", "alpha_im"):
            if section.get(key) is not None:
                raise ConfigError(f"initial.{key} is only valid with kind = coefficients")
        packet = GaussianPacket(
            center=section.getfloat("x0", 0.0),
            width=section.getfloat("sigma", 1.0),
            wavenumber=section.getfloat("k0", 0.0),
        )
        return gaussian_coefficients(packet, section.getint("truncation_order", 2))
    if kind == "coefficients":
        for key in ("x0", "sigma", "k0"):
            if section.get(key) is not None:
                raise ConfigError(f"initial.{key} is only valid with kind = gaussian")
        re_part = section.getfloatlist("alpha_re")
        if re_part is None:
            raise ConfigError("missing required key initial.alpha_re")
        im_part = section.getfloatlist("alpha_im", [0.0] * len(re_part))
        if len(im_part) != len(re_part):
            raise ConfigError("initial.alpha_re and initial.alpha_im differ in length")
        alphas = np.array(re_part, dtype=np.complex128) + 1j * np.array(im_part)
        if not np.all(np.isfinite(alphas)):
            raise ConfigError("initial coefficients must be finite")
        order = section.getint("truncation_order", max(len(alphas) - 1, 2))
        if order < len(alphas) - 1:
            raise ConfigError(
                f"initial.truncation_order = {order} cannot hold "
                f"{len(alphas)} coefficients"
            )
        padded = np.zeros(max(order, 2) + 1, dtype=np.complex128)
        padded[: len(alphas)] = alphas
        return CoefficientState(padded, time=0.0)
    raise ConfigError(f"initial.kind must be 'gaussian' or 'coefficients', got {kind!r}")


def load_config(path: str) -> RunConfig:
    """Parse and validate a config file.

    Raises ConfigError for a malformed or incomplete file, the ValueError of
    the first value the objects it builds reject, and PotentialError for
    the potential DSL; the CLI maps each to its own exit code.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    sections = _read_sections(text)

    def section(name):
        return sections.get(name, _Section(name, {}))

    physical = section("physical")
    params = PhysicalParams(
        hbar=physical.getfloat("hbar", 1.0), mass=physical.getfloat("mass", 1.0)
    )

    if "potential" not in sections:
        raise ConfigError("missing required section [potential]")
    potential = parse_potential(sections["potential"].require("expression").strip())

    if "initial" not in sections:
        raise ConfigError("missing required section [initial]")
    initial = _build_initial(sections["initial"])

    if "stepper" not in sections:
        raise ConfigError("missing required section [stepper]")
    stepper_sec = sections["stepper"]
    stepper_sec.require("dt")
    stepper_sec.require("steps")
    stepper = StepperConfig(
        dt=stepper_sec.getfloat("dt"),
        steps=stepper_sec.getint("steps"),
        integrator=stepper_sec.get("integrator", "euler").strip().lower(),
        blowup_threshold=stepper_sec.getfloat("blowup_threshold", 1e12),
        snapshot_stride=stepper_sec.getint("snapshot_stride", 1),
    )

    grid = None
    if "grid" in sections:
        grid_sec = sections["grid"]
        for key in ("xmin", "xmax", "points"):
            grid_sec.require(key)
        grid = GridSpec(
            xmin=grid_sec.getfloat("xmin"),
            xmax=grid_sec.getfloat("xmax"),
            points=grid_sec.getint("points"),
        )

    oracle_sec = section("oracle")
    oracle = OracleOptions(
        xmin=oracle_sec.getfloat("xmin"),
        xmax=oracle_sec.getfloat("xmax"),
        points=oracle_sec.getint("points"),
        dt=oracle_sec.getfloat("dt"),
        steps=oracle_sec.getint("steps"),
    )
    # the oracle divides its horizon by either
    if oracle.steps is not None and oracle.steps < 1:
        raise ConfigError(f"oracle.steps must be at least 1, got {oracle.steps}")
    if oracle.dt is not None and not (math.isfinite(oracle.dt) and oracle.dt > 0):
        raise ConfigError(f"oracle.dt must be positive and finite, got {oracle.dt!r}")

    converge_sec = section("converge")
    scenario = converge_sec.get("scenario", "auto").strip().lower()
    if scenario not in _SCENARIO_NAMES:
        raise ConfigError(
            f"converge.scenario must be one of {', '.join(_SCENARIO_NAMES)}, got {scenario!r}"
        )
    allow_fallback = converge_sec.getbool("allow_oracle_fallback", True)

    output_dir = section("output").get("directory")

    if not math.isfinite(initial.time):
        raise ConfigError("initial time must be finite")

    return RunConfig(
        params=params,
        potential=potential,
        initial=initial,
        stepper=stepper,
        grid=grid,
        output_dir=output_dir,
        oracle=oracle,
        converge_scenario=scenario,
        allow_oracle_fallback=allow_fallback,
    )
