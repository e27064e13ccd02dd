"""normwalk: empirics for norm processes of transient lattice random walks.

Subpackages cover the integer-valued polytope norms and their sphere
censuses, reproducible walk simulation with local-time extraction, Green
function estimation (DP, Monte Carlo, asymptotic), symbolic and empirical
summability criteria, sphere-measure weak convergence, and the stable
subordinator counterexample lab.
"""

from .errors import NormwalkError, ResourceError, UsageError, VerificationError
from .norms import NormSpec, make_norm, sphere_points, validate_unimodular
from .census import (
    SphereCensus,
    asymptotic_constant,
    census_for,
    check_a4,
    count_bruteforce,
    count_max_closed,
    gf_residual_l1,
    growth_bounds,
)
from .walk import (
    LocalTimeRecord,
    StepDistribution,
    WalkRun,
    check_a0,
    geometric_tail_report,
    hitting_probability,
    make_lazy_walk,
    make_simple_walk,
    replica_rng,
    simulate,
    site_visit_samples,
)
from .green import (
    GreenEstimate,
    GreenField,
    green_dp,
    green_mc,
    green_vs_hitting,
    spitzer_asymptotic,
    spitzer_constant_isotropic,
)
from .summability import (
    CriterionVerdict,
    ParityMasked,
    PowerLaw,
    PowerLog,
    TableFunction,
    Verdict,
    decide_even_v,
    decide_iv,
    decide_v,
    even_only,
    expectation_vs_criterion,
    odd_only,
    zero_one_experiment,
)
from .measures import (
    distributional_cauchy,
    invariance_surrogate,
    ks_statistic,
    mu_surface_integral_max,
    scaled_samples,
    sphere_measure,
    weak_convergence_report,
)
from .jeulin import (
    bernoulli_non_unifiable,
    laplace_check,
    limit_jeulin_harness,
    route_a_scenario,
    sample_stable,
    shiga3_run,
    shiga3_scenario,
    shiga5_run,
)

__version__ = "0.1.0"
