"""proxcert: accelerated proximal gradient solvers with numerical certificates.

Solves composite problems min f(x) + g(x) with ista / apm / mapm / known-mu
variants of one step rule and verifies, iteration by iteration, the energy
decrement bounds, the prox descent inequality, the inertial iterate identity,
and the linear and sublinear rate envelopes on concrete traces.
"""

from .certificates import (
    CertificateReport,
    CertificateTable,
    EnergyContext,
    certify_blocks,
    certify_trace,
    descent_lemma_sides,
    energy,
    inertial_residual,
    k_alpha,
    phi,
    prop1_rhs,
    prop2_rhs,
    rho_lower_bound,
    theorem1_envelope,
    theorem2_envelope,
    theta,
)
from .errors import (
    ConfigurationError,
    DataCorruptionError,
    FitUnavailableError,
    ProxCertError,
    ReferenceUnavailableError,
    RejectedInputError,
)
from .harness import (
    RateFit,
    ReferenceSolution,
    SolverComparison,
    attach_reference,
    compare_solvers,
    fit_linear_rate,
    generate_suite,
    random_box_quadratic,
    random_lasso,
    random_quadratic,
    reference_solution,
)
from .problems import (
    CompositeProblem,
    ProxOracle,
    SmoothOracle,
    box_quadratic_problem,
    box_regularizer,
    l1_regularizer,
    lasso_problem,
    prox_box,
    prox_l1,
    prox_zero,
    quadratic_problem,
    zero_regularizer,
)
from .solvers import (
    IterationRecord,
    SolverConfig,
    Trace,
    constant_momentum,
    momentum,
    run,
)
from .traceio import (
    TraceMeta,
    read_report,
    read_trace,
    write_report,
    write_trace,
)

__version__ = "0.1.0"
