"""Run configuration: '[section]' headers with 'key = value' pairs.

UTF-8 text, '#' starts a comment, whitespace around keys and values is
ignored, unknown sections and keys are rejected.  README.md shows every
section.  _SCHEMA is the one table of the keys: each is read by its kind (a
number, an integer, true/false, comma-separated numbers or text), and a
value it cannot read is an error naming the key.

[potential], [initial] and [stepper] are required; [grid] is required by
'run' and, when present, needs all of xmin, xmax and points.  A key left
out of [physical] or [stepper] takes the default of PhysicalParams or
StepperConfig; those of [initial] (x0 = 0, sigma = 1, k0 = 0, and
truncation_order = 2 or the number of coefficients less one) are stated in
_build_initial; [converge] defaults to scenario = auto and
allow_oracle_fallback = true.  The oracle of 'compare' and 'converge' takes
each of xmin, xmax and points from [oracle] when set there, else from
[grid] (points rounded up to a power of two, at least 256).
"""

import configparser
import functools
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
        if not math.isfinite(xmax - xmin):
            raise ValueError(f"grid bounds and their span must be finite, got [{xmin}, {xmax}]")
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


def _switch(raw: str) -> bool:
    lowered = raw.lower()
    if lowered not in ("true", "yes", "on", "1", "false", "no", "off", "0"):
        raise ValueError(raw)
    return lowered in ("true", "yes", "on", "1")


# a key's kind: how its text is converted, and what an error says it expects;
# a word is matched case-insensitively
_NUMBER = (float, "a number")
_INTEGER = (int, "an integer")
_SWITCH = (_switch, "true/false")
_NUMBERS = (lambda raw: [float(part) for part in raw.split(",")], "comma-separated numbers")
_TEXT = (str, "text")
_WORD = (str.lower, "text")

# every section, and each of its keys in the order load_config converts them
_SCHEMA = {
    "physical": {"hbar": _NUMBER, "mass": _NUMBER},
    "potential": {"expression": _TEXT},
    "initial": {
        "kind": _WORD, "x0": _NUMBER, "sigma": _NUMBER, "k0": _NUMBER,
        "alpha_re": _NUMBERS, "alpha_im": _NUMBERS, "truncation_order": _INTEGER,
    },
    "stepper": {
        "dt": _NUMBER, "steps": _INTEGER, "integrator": _WORD,
        "blowup_threshold": _NUMBER, "snapshot_stride": _INTEGER,
    },
    "grid": {"xmin": _NUMBER, "xmax": _NUMBER, "points": _INTEGER},
    "output": {"directory": _TEXT},
    "oracle": {
        "xmin": _NUMBER, "xmax": _NUMBER, "points": _INTEGER, "dt": _NUMBER, "steps": _INTEGER,
    },
    "converge": {"scenario": _WORD, "allow_oracle_fallback": _SWITCH},
}

_SCENARIO_NAMES = ("auto", *SCENARIOS, "oracle")

_REQUIRED = object()


def _value(sections: dict, name: str, key: str, default=None):
    """The value of key in section name, converted by its kind in _SCHEMA;
    default when the file does not set it, which _REQUIRED makes an error."""
    raw = sections.get(name, {}).get(key)
    if raw is None:
        if default is _REQUIRED:
            raise ConfigError(f"missing required key {name}.{key}")
        return default
    convert, expected = _SCHEMA[name][key]
    try:
        return convert(raw)
    except ValueError:
        raise ConfigError(f"{name}.{key}: expected {expected}, got {raw!r}") from None


def _given(sections: dict, name: str, required=()) -> dict:
    """The keys of section name that the file sets, converted in _SCHEMA's
    order once each key of required is known to be set: keyword arguments
    for a constructor that holds the defaults of the others."""
    raw = sections.get(name, {})
    for key in required:
        if key not in raw:
            _value(sections, name, key, _REQUIRED)  # reports it missing
    return {key: _value(sections, name, key) for key in _SCHEMA[name] if key in raw}


def _read_sections(text: str) -> dict:
    """{section: {key: raw text}} of a config file's text."""
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
        # configparser's text can span several lines; the error is one
        message = " ".join(line.strip() for line in str(exc).splitlines())
        raise ConfigError(f"config parse error: {message}") from None
    if cp.defaults():
        raise ConfigError("unknown section 'DEFAULT'")
    sections = {}
    for name in cp.sections():
        if name not in _SCHEMA:
            raise ConfigError(f"unknown section '{name}'")
        for key in cp[name]:
            if key not in _SCHEMA[name]:
                raise ConfigError(f"unknown key '{key}' in section '{name}'")
        sections[name] = dict(cp[name])
    return sections


def _build_initial(sections: dict) -> CoefficientState:
    raw = sections["initial"]
    value = functools.partial(_value, sections, "initial")
    kind = value("kind", _REQUIRED)
    if kind == "gaussian":
        for key in ("alpha_re", "alpha_im"):
            if key in raw:
                raise ConfigError(f"initial.{key} is only valid with kind = coefficients")
        packet = GaussianPacket(
            center=value("x0", 0.0), width=value("sigma", 1.0), wavenumber=value("k0", 0.0)
        )
        return gaussian_coefficients(packet, value("truncation_order", 2))
    if kind == "coefficients":
        for key in ("x0", "sigma", "k0"):
            if key in raw:
                raise ConfigError(f"initial.{key} is only valid with kind = gaussian")
        re_part = value("alpha_re", _REQUIRED)
        im_part = value("alpha_im", [0.0] * len(re_part))
        if len(im_part) != len(re_part):
            raise ConfigError("initial.alpha_re and initial.alpha_im differ in length")
        alphas = np.array(re_part, dtype=np.complex128) + 1j * np.array(im_part)
        if not np.all(np.isfinite(alphas)):
            raise ConfigError("initial coefficients must be finite")
        order = value("truncation_order", max(len(alphas) - 1, 2))
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
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    sections = _read_sections(text)
    params = PhysicalParams(**_given(sections, "physical"))

    if "potential" not in sections:
        raise ConfigError("missing required section [potential]")
    potential = parse_potential(_value(sections, "potential", "expression", _REQUIRED))

    if "initial" not in sections:
        raise ConfigError("missing required section [initial]")
    initial = _build_initial(sections)

    if "stepper" not in sections:
        raise ConfigError("missing required section [stepper]")
    stepper = StepperConfig(**_given(sections, "stepper", required=("dt", "steps")))

    grid = None
    if "grid" in sections:
        grid = GridSpec(**_given(sections, "grid", required=("xmin", "xmax", "points")))

    oracle = OracleOptions(**_given(sections, "oracle"))
    # the oracle divides its horizon by either
    if oracle.steps is not None and oracle.steps < 1:
        raise ConfigError(f"oracle.steps must be at least 1, got {oracle.steps}")
    if oracle.dt is not None and not (math.isfinite(oracle.dt) and oracle.dt > 0):
        raise ConfigError(f"oracle.dt must be positive and finite, got {oracle.dt!r}")

    scenario = _value(sections, "converge", "scenario", "auto")
    if scenario not in _SCENARIO_NAMES:
        raise ConfigError(
            f"converge.scenario must be one of {', '.join(_SCENARIO_NAMES)}, got {scenario!r}"
        )
    return RunConfig(
        params=params,
        potential=potential,
        initial=initial,
        stepper=stepper,
        grid=grid,
        output_dir=_value(sections, "output", "directory"),
        oracle=oracle,
        converge_scenario=scenario,
        allow_oracle_fallback=_value(sections, "converge", "allow_oracle_fallback", True),
    )
