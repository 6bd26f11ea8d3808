"""Log-polynomial coefficient-flow solver for the 1-D time-dependent
Schrodinger equation, with a split-step Fourier grid oracle for
validation.  The names below are the library's entry points; every other
name is imported from the module that defines it."""

from .config import load_config
from .initialization import GaussianPacket, fit_log_polynomial, gaussian_coefficients
from .integrators import StepperConfig, propagate
from .oracle import OracleConfig, compare_with_oracle
from .potential import parse_potential
from .reconstruction import Window
from .state import CoefficientState, PhysicalParams

__version__ = "0.1.0"
