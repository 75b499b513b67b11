"""Exact graded characters for doubles of bosonized Nichols algebras.

The package computes, entirely in exact arithmetic, the weight
combinatorics of the Drinfeld double of a finite group, graded
characters of standard, costandard, induced and projective modules
attached to a finite-dimensional graded braided algebra over that
group, and the reciprocity data connecting them.  A rank-one family
over cyclic groups doubles as a built-in correctness oracle: every
computed decomposition is checked against explicit module matrices.
"""

from .bgg import (
    BGGReport,
    MLMatrixData,
    NON_SIMPLE,
    SIMPLE_PROJECTIVE,
    bgg_matrices,
    decompose_into_simples,
    ind_into_projectives,
    tensor_projectives,
    ungraded_bgg,
)
from .chartable import CharacterTable
from .cyclotomic import Cyclotomic, zeta
from .errors import (
    DoubleCharError,
    InconsistencyError,
    InputError,
    OracleError,
    SpanError,
)
from .graded import GradedChar, KElement, gc_dual, gc_mul
from .groups import FiniteGroup
from .laurent import LaurentInt
from .nichols import (
    NicholsProfile,
    SimpleTable,
    coverma_char,
    ind_char,
    verify_duality_identities,
    verma_char,
)
from .taft import (
    TaftParams,
    VermaMatrices,
    build_profile_and_table,
    head_length,
    raising_coeffs,
    simple_char,
)
from .weights import Weight, WeightSystem

__version__ = "0.1.0"

__all__ = [
    "BGGReport",
    "CharacterTable",
    "Cyclotomic",
    "DoubleCharError",
    "FiniteGroup",
    "GradedChar",
    "InconsistencyError",
    "InputError",
    "KElement",
    "LaurentInt",
    "MLMatrixData",
    "NON_SIMPLE",
    "NicholsProfile",
    "OracleError",
    "SIMPLE_PROJECTIVE",
    "SimpleTable",
    "SpanError",
    "TaftParams",
    "VermaMatrices",
    "Weight",
    "WeightSystem",
    "bgg_matrices",
    "build_profile_and_table",
    "coverma_char",
    "decompose_into_simples",
    "gc_dual",
    "gc_mul",
    "head_length",
    "ind_char",
    "ind_into_projectives",
    "raising_coeffs",
    "simple_char",
    "tensor_projectives",
    "ungraded_bgg",
    "verify_duality_identities",
    "verma_char",
    "zeta",
    "__version__",
]
