"""Exact arithmetic for modules over the Iwasawa algebra Z_p[[T]].

Finitely presented modules are analyzed through their finite-level
coinvariants (Smith normal form over the p-adic coefficient ring), classified
up to pseudo-isomorphism into free, cyclotomic, p-power and residual parts,
and Mordell-Weil rank-growth tables are converted into predicted
characteristic ideals for the standard tower settings.
"""

from .errors import (
    BadDivisorError,
    ClassificationError,
    FinemwError,
    HypothesisError,
    InvalidRankTableError,
    NonUnitError,
    ResourceLimitError,
    SettingError,
    UncertifiedError,
    ValidationError,
)
from .padics import CoefficientRing, RingElem, ZERO_AT_PRECISION, ring_arith, valuation
from .polynomials import (
    CharIdealRendering,
    IwasawaPoly,
    char_ideal_render,
    cyclotomic,
    default_max_level,
    degree_budget,
    omega,
    phi_degree,
    weierstrass_divide,
)
from .presentations import (
    CoinvariantStructure,
    FinLevelModule,
    ModulePresentation,
    coinvariants,
    cyclic_module,
    direct_sum,
    expand_to_level,
    free_module,
    phi_component_ranks,
    presentation_from_json,
    presentation_to_json,
    quotient_structure,
    transition_check,
)
from .snf import SmithResult, smith_normal_form
from .structure import (
    ElementaryType,
    GFunctorReport,
    TowerSpec,
    analyze,
    classify_elementary,
    g_functor_vanishes,
    generator_change_invariance,
    verify_finite_quotients,
    verify_rank_identity,
)
from .oracle import (
    ConstructionRecipe,
    build_elementary,
    obfuscate,
    roundtrip_suite,
    run_instance,
    sample_recipe,
)
from .predictors import (
    GrowthSequence,
    PredictedCharIdeal,
    RankTable,
    SettingTag,
    anticyclotomic_parity_check,
    bdp_order_lower_bound,
    growth_sequence,
    local_mw_prediction,
    mw_tate_prediction,
    predict,
    question_report,
    ranks_over_O_from_Z,
    resolve_setting,
)

__version__ = "0.1.0"
