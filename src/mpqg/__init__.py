"""Exact symbolic computation with multi-parameter quantum groups realized
inside cotensor Hopf algebras.

The layers, bottom to top: exact scalar kernels (multivariate Laurent
rational functions, cyclotomic fields), Cartan data and parameter matrices,
graded groups and bicharacters, the cotensor word machinery with its Hopf
structure, the presented-generator realization with defining-relation
checks and ideal reduction, the skew pairing between the two Borel halves,
cocycle twisting with the comparison map, and integrable highest-weight
modules with their root-of-unity variant.
"""

from .cartan import (CartanDatum, LatticeVector, ParamMatrix, coweight_pairing,
                     kostant_count, marks, positive_roots, rho, simple_root,
                     weyl_dim)
from .cotensor import CotensorAlgebra, Word, word_key
from .grouplike import Bicharacter, Character, GradingGroup, build_bicharacter
from .linalg import Matrix
from .modules import (ClosureError, FiniteTypeError, HighestWeightModule,
                      alcove_check, build_module, root_of_unity_module)
from .pairing import SkewPairing, weights_of_height
from .realization import (FreeExpr, IdealReducer, NormalFormTable, Realization,
                          e, f, w, wp)
from .scalars import Scalar, q_binomial, q_factorial, q_int, specialize
from .twist import TwistContext, build_twist

__all__ = [
    "Bicharacter",
    "CartanDatum",
    "Character",
    "ClosureError",
    "CotensorAlgebra",
    "FiniteTypeError",
    "FreeExpr",
    "GradingGroup",
    "HighestWeightModule",
    "IdealReducer",
    "LatticeVector",
    "Matrix",
    "NormalFormTable",
    "ParamMatrix",
    "Realization",
    "Scalar",
    "SkewPairing",
    "TwistContext",
    "Word",
    "alcove_check",
    "build_bicharacter",
    "build_module",
    "build_twist",
    "coweight_pairing",
    "e",
    "f",
    "kostant_count",
    "marks",
    "positive_roots",
    "q_binomial",
    "q_factorial",
    "q_int",
    "rho",
    "root_of_unity_module",
    "simple_root",
    "specialize",
    "w",
    "weights_of_height",
    "weyl_dim",
    "word_key",
    "wp",
]
