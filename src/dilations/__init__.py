"""Finite-dimensional verification toolkit for semigroup interpolation of
commuting contraction tuples, unitary dilations, and von Neumann
inequality certification on the discretised torus."""

from .dilation import (
    DilationCandidate,
    MultiPolynomial,
    VnReport,
    egervary_dilation,
    eval_poly,
    parrott_tuple,
    power_dilation_verify,
    torus_sup,
    vn_check,
    vn_search,
)
from .interpolation import (
    ContractionTuple,
    DiscretizedSemigroup,
    approx_error_sweep,
    compress_discretized,
    eval_discretized,
    multilinear_compress,
    scaled_blend,
    semigroup_suite,
)
from .linalg import (
    InputError,
    NumericalError,
    kron,
    matrix_exp,
    matrix_from_json,
    matrix_to_json,
    op_norm,
    psd_sqrt,
)
from .structure import (
    StructureReport,
    preservation_suite,
    structure_report,
)
from .torus import GridTime, bscr_check, bscr_trace

__version__ = "0.1.0"
