"""Reference-dependent choice analysis.

Axiom checkers, representation fitters, and simulators for choice
datasets whose behavior is organized by an endogenous reference order:
generic menus, lotteries (reference = safest option), dated payments
(reference = earliest payday), and income splits (reference = most
balanced division attainable).
"""

from .choices import (
    Alternative,
    ChoiceDataset,
    FiniteProperty,
    LotteryPayload,
    PaymentPayload,
    SplitPayload,
    ViolationWitness,
    WARP,
    conjoin,
    validate_dataset,
    warp_over,
)
from .engine import (
    IDENTITY_PSI,
    PsiMap,
    ReferenceOrder,
    candidate_references,
    check_reference_dependence,
)
from .feasibility import (
    Feasible,
    Infeasible,
    LinearFeasibilityProblem,
    solve_linear_feasibility,
)
from .ordu import (
    OrduParams,
    build_ordu,
    union_anchor_condition,
    simulate_ordu,
    verify_ordu,
)
from .risk import (
    AreuParams,
    Fanning,
    LEAST_RISKY_PSI,
    check_avoidable_risk,
    check_risk_reference_dependence,
    extreme_spread,
    fanning_classify,
    fit_areu,
    fosd,
    independence_over,
    least_risky,
    linkage_report_risk,
    mps,
    rho_vector,
    simulate_areu,
    triangle_rows,
    verify_areu,
)
from .rivals import (
    FIXTURES,
    fixture_names,
    load_fixture,
    pe_rationalizable,
    rsm_rationalizable,
    separation_suite,
)
from .social import (
    FspuParams,
    check_equality_reference_dependence,
    check_fairness,
    check_social_monotonicity,
    fit_fspu,
    gini,
    linkage_report_social,
    most_balanced,
    quasilinearity_over,
    simulate_fspu,
    verify_fspu,
)
from .timepref import (
    PbduParams,
    check_outcome_monotonicity_impatience,
    check_present_bias,
    check_time_reference_dependence,
    earliest_payments,
    fit_pbdu,
    pairwise_anchored_equivalence,
    linkage_report_time,
    simulate_pbdu,
    single_switching_check,
    stationarity_over,
    verify_pbdu,
)

__version__ = "0.1.0"
