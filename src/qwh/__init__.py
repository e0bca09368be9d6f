"""qwh: exact verification toolkit for a deformed oscillator quantum space,
its seven- and nine-generator invariance quantum groups, the associated
deformation matrix, and the invariant differential calculus.

Everything is computed over an exact multivariate rational function field;
no floating point enters any check.
"""

from .coaction import (
    ConstraintSystem,
    MixedAlgebra,
    ansatz_check,
    ansatz_solve,
    comodule_check,
    constraint_span_check,
    derive_group_constraints,
    pin_free_coefficients,
)
from .diffcalc import (
    WZ_DEGREES,
    apply_derivative,
    classical_derivative,
    twisted_leibniz_check,
    wz_confluence,
    wz_relations,
    wz_system,
)
from .exprparse import ParseError, SourceSpan, parse_poly_text, parse_scalar_text
from .freealg import AlgebraMap, GenTable, NCPoly, deglex_key
from .linalg import (
    Matrix,
    eigenspace_identification,
    generic_q_not_eigenspace,
    involution_check,
    kernel_basis,
    kron,
    pair_to_lin,
    rhat_builtin,
    row_space,
    rref,
    ybe_check,
)
from .presentations import (
    BUILTIN_NAMES,
    Presentation,
    TensorAlgebra,
    builtin,
    parse_presentation,
    transcribed_T_constraints,
)
from .quantumgroup import (
    HopfData,
    adjugate,
    det_commutation_derive,
    determinant,
    group_presentation,
    group_system,
    hopf_check,
    hopf_data,
    intertwiner_check,
    inverse_check,
    rtt7_span_check,
    rtt9_completion_check,
    rtt_relations,
    subalgebra_check,
)
from .report import ERROR, FAIL, PASS, TOOLKIT_VERSION, CheckItem, CheckReport
from .rewrite import (
    RewriteSystem,
    build_rules,
    complete,
    diamond_check,
    interreduce_relations,
)
from .scalar import Scalar

__version__ = TOOLKIT_VERSION
