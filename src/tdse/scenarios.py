"""Closed-form references for convergence studies.

SCENARIOS maps each name to its match(potential, initial, params): the
error(final) of a propagated final state against the scenario's exact
solution when the config is that scenario, else None.  Everything here is
exact coefficient dynamics:

  free              constant potential, support within {0,1,2}:
                    alpha_2(t) = a/(1 - (2i*hbar/m)*a*t) with a = alpha_2(0)
  linear            degree-1 potential with cos(t) or constant slope,
                    support within {0,1}:
                    alpha_1(t) = alpha_1(0) - (i/hbar) * integral of V_1
  harmonic_ground   V = v2*x^2 with alpha_2 at the stationary value
                    -sqrt(m*v2/2)/hbar and alpha_1 = 0: alpha_2 frozen,
                    alpha_0 advances linearly at rate (i*hbar/m)*alpha_2
  harmonic_coherent same well with alpha_1 != 0:
                    alpha_1(t) = alpha_1(0) * exp(-i*omega*t),
                    omega = sqrt(2*v2/m)
"""

import cmath
import math

import numpy as np

from .potential import Call, Const, PotentialModel, TimeVar
from .state import CoefficientState, PhysicalParams

__all__ = ["SCENARIOS", "detect_scenario"]

_SUPPORT_FLOOR = 1e-12
_MATCH_TOL = 1e-9


def _support(state: CoefficientState) -> set:
    return set(np.nonzero(np.abs(state.alphas) > _SUPPORT_FLOOR)[0].tolist())


def _free(potential, initial, params):
    if potential.degree != 0 or not _support(initial) <= {0, 1, 2}:
        return None
    a = complex(initial.alphas[2])

    def error(final):
        exact = a / (1.0 - (2j * params.hbar / params.mass) * a * (final.time - initial.time))
        return abs(complex(final.alphas[2]) - exact)

    return error


def _linear(potential, initial, params):
    if set(potential.terms) - {0, 1} or 1 not in potential.terms:
        return None
    slope = potential.terms[1]
    constant = isinstance(slope, Const)
    if not (constant or slope == Call("cos", TimeVar())) or not _support(initial) <= {0, 1}:
        return None

    def error(final):
        if constant:
            accumulated = slope.value * (final.time - initial.time)
        else:  # cos(t)
            accumulated = math.sin(final.time) - math.sin(initial.time)
        exact = complex(initial.alphas[1]) - (1j / params.hbar) * accumulated
        return abs(complex(final.alphas[1]) - exact)

    return error


def _ground_well(potential, initial, params, displaced: bool):
    """The v2 of a pure v2*x^2 model with constant positive v2, when the
    initial state has the ground state's alpha_2 and is displaced (alpha_1
    not 0) or not as asked, else None."""
    node = potential.terms.get(2)
    if set(potential.terms) != {2} or not (isinstance(node, Const) and node.value > 0):
        return None
    ground = -math.sqrt(params.mass * node.value / 2.0) / params.hbar
    if not _support(initial) <= {0, 1, 2} or abs(complex(initial.alphas[2]) - ground) > _MATCH_TOL:
        return None
    return node.value if (abs(initial.alphas[1]) > _SUPPORT_FLOOR) == displaced else None


def _harmonic_ground(potential, initial, params):
    if _ground_well(potential, initial, params, displaced=False) is None:
        return None
    a2 = complex(initial.alphas[2])

    def error(final):
        elapsed = final.time - initial.time
        exact0 = complex(initial.alphas[0]) + (1j * params.hbar / params.mass) * a2 * elapsed
        return max(abs(complex(final.alphas[2]) - a2), abs(complex(final.alphas[0]) - exact0))

    return error


def _harmonic_coherent(potential, initial, params):
    v2 = _ground_well(potential, initial, params, displaced=True)
    if v2 is None:
        return None
    omega = math.sqrt(2.0 * v2 / params.mass)

    def error(final):
        exact = complex(initial.alphas[1]) * cmath.exp(-1j * omega * (final.time - initial.time))
        return abs(complex(final.alphas[1]) - exact)

    return error


# matched in this order; config's list of converge.scenario names follows it
SCENARIOS = {
    "free": _free,
    "linear": _linear,
    "harmonic_ground": _harmonic_ground,
    "harmonic_coherent": _harmonic_coherent,
}


def detect_scenario(
    potential: PotentialModel, initial: CoefficientState, params: PhysicalParams
):
    """(name, error) of the first scenario that matches, else (None, None);
    error(final) is the absolute error of a propagated final state against
    the closed form."""
    for name, match in SCENARIOS.items():
        error = match(potential, initial, params)
        if error is not None:
            return name, error
    return None, None
