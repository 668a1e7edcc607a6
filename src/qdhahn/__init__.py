"""Associated continuous dual q-Hahn polynomials and their limit
families: recurrence solutions, continued fractions, spectral weights,
explicit polynomial formulas, and a verification harness.

The flagship four-parameter family lives in :mod:`qdhahn.cdqhahn`; the
eleven limit families in :mod:`qdhahn.limits`; the closed-form layer all
twelve share, with the spectral geometry of the four that have a cut, in
:mod:`qdhahn.family`; generic three-term
recurrence machinery in :mod:`qdhahn.recurrence`; q-Pochhammer symbols
and basic hypergeometric series in :mod:`qdhahn.qseries`; seeded
identity checks in :mod:`qdhahn.verify`.  The ``qdh`` console script
fronts evaluation, tabulation, zero-finding, and the check suite.
"""

from .cdqhahn import (
    CDQHParams,
    SpectralPoint,
    birth_death_rates,
    cf_stieltjes,
    dual_qhahn_reduction,
    explicit_poly,
    explicit_poly_ir,
    genfun_coeffs,
    solution,
    spectral_point,
    weight,
    weight_reduced,
)
from .errors import QdhError
from .family import solution_sequence
from .limits import (
    FAMILIES,
    ZeroList,
    family_from_id,
    find_zeros,
    interlaces,
    limit_cf,
    limit_convergence,
    limit_poly,
    limit_solution,
    limit_weight,
)
from .qseries import (
    DEFAULT_POLICY,
    SeriesSpec,
    TruncationPolicy,
    phi,
    phi32,
    qpoch,
    qpoch_multi,
    transform_check,
    transform_ids,
)
from .recurrence import (
    SolutionSequence,
    casoratian,
    cf_adaptive,
    cf_truncated,
    coeffs,
    forward_eval,
    minimality_ratio,
    relative_residual,
    residual,
)

__all__ = [
    "CDQHParams",
    "DEFAULT_POLICY",
    "FAMILIES",
    "QdhError",
    "SeriesSpec",
    "SolutionSequence",
    "SpectralPoint",
    "TruncationPolicy",
    "ZeroList",
    "birth_death_rates",
    "casoratian",
    "cf_adaptive",
    "cf_stieltjes",
    "cf_truncated",
    "coeffs",
    "dual_qhahn_reduction",
    "explicit_poly",
    "explicit_poly_ir",
    "family_from_id",
    "find_zeros",
    "forward_eval",
    "genfun_coeffs",
    "interlaces",
    "limit_cf",
    "limit_convergence",
    "limit_poly",
    "limit_solution",
    "limit_weight",
    "minimality_ratio",
    "phi",
    "phi32",
    "qpoch",
    "qpoch_multi",
    "relative_residual",
    "residual",
    "solution",
    "solution_sequence",
    "spectral_point",
    "transform_check",
    "transform_ids",
    "weight",
    "weight_reduced",
]

__version__ = "0.1.0"
