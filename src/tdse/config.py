"""Run configuration: '[section]' headers with 'key = value' pairs.

UTF-8 text, '#' starts a comment, whitespace around keys and values is
ignored, unknown sections and keys are rejected.  README.md shows every
section.  _SCHEMA is the one table of the keys: each is read by its kind (a
number, an integer, comma-separated numbers or text), and a value it cannot
read is an error naming the key.  Every error is a ValueError.

[potential], [initial] and [stepper] are required; [grid] is required by
'run' and, when present, needs all of xmin, xmax and points.  A key left
out of [physical] or [stepper] takes the default of PhysicalParams or
StepperConfig; those of [initial] (x0 = 0, sigma = 1, k0 = 0, and
truncation_order = 2 or the number of coefficients less one) are stated in
_build_initial, where either kind's coefficients must be finite;
[converge] scenario defaults to auto (a closed form, else the oracle;
closed is a closed form or an error).  The oracle of 'compare' and
'converge' samples [grid]'s window, at [oracle] points when set, else
at [grid] points rounded up to a power of two, at least 256, and takes its
step count from [oracle] steps, else from the command.
"""

import configparser
import functools
from typing import NamedTuple

import numpy as np

from .initialization import GaussianPacket, gaussian_coefficients
from .integrators import StepperConfig
from .potential import PotentialModel, parse_potential
from .reconstruction import check_bounds
from .records import Frozen, Record
from .state import CoefficientState, PhysicalParams

__all__ = ["GridSpec", "OracleOptions", "RunConfig", "load_config"]


class GridSpec(Frozen):
    __slots__ = ("xmin", "xmax", "points")

    def __init__(self, xmin: float, xmax: float, points: int):
        check_bounds(xmin, xmax, "grid ")
        if points < 8:
            raise ValueError(f"grid points must be at least 8, got {points}")
        self._set(xmin, xmax, points)


class OracleOptions(NamedTuple):
    """Raw [oracle] overrides; unset fields fall back to command defaults."""

    points: int | None = None
    steps: int | None = None


class RunConfig(Record):
    __slots__ = ("params", "potential", "initial", "stepper", "grid", "oracle", "converge_scenario")

    def __init__(
        self, params: PhysicalParams, potential: PotentialModel, initial: CoefficientState,
        stepper: StepperConfig, grid: GridSpec | None, oracle: OracleOptions,
        converge_scenario: str,
    ):
        self._set(params, potential, initial, stepper, grid, oracle, converge_scenario)


# a key's kind: how its text is converted, and what an error says it expects;
# a word is matched case-insensitively
_NUMBER = (float, "a number")
_INTEGER = (int, "an integer")
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
    "oracle": {"points": _INTEGER, "steps": _INTEGER},
    "converge": {"scenario": _WORD},
}

_SCENARIO_NAMES = ("auto", "closed", "oracle")

_REQUIRED = object()


def _value(sections: dict, name: str, key: str, default=None):
    """The value of key in section name, converted by its kind in _SCHEMA;
    default when the file does not set it, which _REQUIRED makes an error."""
    raw = sections.get(name, {}).get(key)
    if raw is None:
        if default is _REQUIRED:
            raise ValueError(f"missing required key {name}.{key}")
        return default
    convert, expected = _SCHEMA[name][key]
    try:
        return convert(raw)
    except ValueError:
        raise ValueError(f"{name}.{key}: expected {expected}, got {raw!r}") from None


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
        raise ValueError(f"config parse error: {message}") from None
    if cp.defaults():
        raise ValueError("unknown section 'DEFAULT'")
    sections = {}
    for name in cp.sections():
        if name not in _SCHEMA:
            raise ValueError(f"unknown section '{name}'")
        for key in cp[name]:
            if key not in _SCHEMA[name]:
                raise ValueError(f"unknown key '{key}' in section '{name}'")
        sections[name] = dict(cp[name])
    return sections


def _build_initial(sections: dict) -> CoefficientState:
    raw = sections["initial"]
    value = functools.partial(_value, sections, "initial")
    kind = value("kind", _REQUIRED)
    if kind == "gaussian":
        for key in ("alpha_re", "alpha_im"):
            if key in raw:
                raise ValueError(f"initial.{key} is only valid with kind = coefficients")
        packet = GaussianPacket(
            center=value("x0", 0.0), width=value("sigma", 1.0), wavenumber=value("k0", 0.0)
        )
        return gaussian_coefficients(packet, value("truncation_order", 2))
    if kind == "coefficients":
        for key in ("x0", "sigma", "k0"):
            if key in raw:
                raise ValueError(f"initial.{key} is only valid with kind = gaussian")
        re_part = value("alpha_re", _REQUIRED)
        im_part = value("alpha_im", [0.0] * len(re_part))
        if len(im_part) != len(re_part):
            raise ValueError("initial.alpha_re and initial.alpha_im differ in length")
        alphas = np.array(re_part, dtype=np.complex128) + 1j * np.array(im_part)
        if not np.all(np.isfinite(alphas)):
            raise ValueError("initial coefficients must be finite")
        order = value("truncation_order", max(len(alphas) - 1, 2))
        if order < len(alphas) - 1:
            raise ValueError(
                f"initial.truncation_order = {order} cannot hold "
                f"{len(alphas)} coefficients"
            )
        padded = np.zeros(order + 1, dtype=np.complex128)
        padded[: len(alphas)] = alphas
        return CoefficientState(padded, time=0.0)
    raise ValueError(f"initial.kind must be 'gaussian' or 'coefficients', got {kind!r}")


def load_config(path: str) -> RunConfig:
    """Parse and validate a config file.

    Raises ValueError for a malformed or incomplete file or the first value
    the objects it builds reject, and PotentialError (a ValueError) for the
    potential DSL; the CLI maps the two to their own exit codes.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read config: {exc}") from None
    sections = _read_sections(text)
    params = PhysicalParams(**_given(sections, "physical"))

    if "potential" not in sections:
        raise ValueError("missing required section [potential]")
    potential = parse_potential(_value(sections, "potential", "expression", _REQUIRED))

    if "initial" not in sections:
        raise ValueError("missing required section [initial]")
    initial = _build_initial(sections)

    if "stepper" not in sections:
        raise ValueError("missing required section [stepper]")
    stepper = StepperConfig(**_given(sections, "stepper", required=("dt", "steps")))

    grid = None
    if "grid" in sections:
        grid = GridSpec(**_given(sections, "grid", required=("xmin", "xmax", "points")))

    oracle = OracleOptions(**_given(sections, "oracle"))
    # the oracle divides its horizon by it
    if oracle.steps is not None and oracle.steps < 1:
        raise ValueError(f"oracle.steps must be at least 1, got {oracle.steps}")

    scenario = _value(sections, "converge", "scenario", "auto")
    if scenario not in _SCENARIO_NAMES:
        raise ValueError(
            f"converge.scenario must be one of {', '.join(_SCENARIO_NAMES)}, got {scenario!r}"
        )
    return RunConfig(
        params=params,
        potential=potential,
        initial=initial,
        stepper=stepper,
        grid=grid,
        oracle=oracle,
        converge_scenario=scenario,
    )
