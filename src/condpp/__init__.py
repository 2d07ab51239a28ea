"""Conditional Poisson point processes: simulation, couplings, and bounds.

Toolkit for the Poisson point process conditioned on a minimum number of
points: exact samplers, the conditional immigration-death chain, coupled
chains for estimating differences of the Stein equation solution, the
closed-form Stein-factor bounds those estimates are checked against, the
matching distances d-bar-1 / d-bar-2, and a conditional Bernoulli process
approximation experiment.
"""

# metrics comes first so that scipy.optimize, which it pulls in through
# transport, is imported two package levels deep.  On CPython 3.11 with
# scipy 1.17 that import is sensitive to call-stack depth: three levels deep
# it costs about 12k extra page faults, about 0.1 s per process.
from .metrics import D2Estimate, d1_bar, d1_bar_bruteforce, d2_bar_empirical
from .bounds import (
    SteinBounds,
    compute_stein_bounds,
    first_diff_bound,
    first_diff_bound_nonuniform,
    k1,
    k2,
    l1,
    l2,
    poisson_pmf,
    poisson_tail,
    second_diff_bound,
    second_diff_bound_nonuniform,
)
from .bernoulli_app import (
    BernoulliReport,
    bernoulli_bound,
    run_experiment,
    self_distance_calibration,
)
from .coupling import (
    CoupledRun,
    CoupledState,
    CountTestFunction,
    MatchingDistanceTestFunction,
    TestFunction,
    estimate_delta2_h,
    estimate_delta_h,
    estimate_h,
    estimate_p_survival,
    p_survival_analytic,
    reference_test_functions,
    run_coupled_chains,
    simulate_coupled_pair,
    simulate_domination_triple,
    stein_residual,
)
from .estimates import MCEstimate
from .groundspace import (
    Configuration,
    GroundSpace,
    RandomStream,
    configuration_from_locations,
    derive_stream,
    empty_configuration,
    unit_cube,
    unit_interval,
)
from .simulate import (
    BudgetError,
    CountPMF,
    Trajectory,
    conditional_count_pmf,
    conditional_poisson_count_pmf,
    count_tv_distance,
    sample_bernoulli_process,
    sample_binomial_process,
    sample_conditional_poisson,
    sample_poisson_process,
    simulate_cid_chain,
)
from .transport import Matching, solve_assignment, solve_balanced_transport

__version__ = "0.1.0"
