"""Exact Wronskian/Casoratian identities and multi-step Darboux pipelines.

Three determinant families over exact Gaussian-rational arithmetic
(differential, imaginary-shift, real-shift), an executable checker suite for
their structural identities, and deformation pipelines for three system
types: a continuous harmonic model (exact), an imaginary-shift algebra in
radical-tracked form (exact), and a Meixner lattice model (big-float).
"""

__version__ = "0.1.0"

from .determinants import (
    casoratian_imag,
    casoratian_real,
    casoratian_real_grid,
    cofactor_det,
    fraction_free_det,
    wronskian,
)
from .gridfn import GridFn
from .poly import ExpPoly, ExpRatio, Poly, RationalFn, rational_reduce
from .report import CheckReport
from .sampling import SamplerConfig
from .scalars import GaussianRational, rational, working_precision
from .seeds import krein_adler_check, sign_factor

__all__ = [
    "__version__",
    "Poly", "RationalFn", "ExpPoly", "ExpRatio", "GridFn",
    "GaussianRational", "rational", "rational_reduce", "working_precision",
    "fraction_free_det", "cofactor_det",
    "wronskian", "casoratian_imag",
    "casoratian_real", "casoratian_real_grid",
    "CheckReport", "SamplerConfig",
    "krein_adler_check", "sign_factor",
]
