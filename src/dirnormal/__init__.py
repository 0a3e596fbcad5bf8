"""Testing engine for hypotheses on the mean vector and covariance (or
concentration) matrix of multivariate normal data.

The directional test measures departure from the null along the line
through the null expectation of the sufficient statistic and the observed
data point; its p-value is exactly uniform under the null whenever every
group satisfies ``n >= p + 2``.  Classical references (likelihood ratio,
bootstrap Bartlett correction, large-deviation modifications) and a
reproducible Monte Carlo harness for size/power studies ship alongside.
"""

from .classical import (
    ClassicalReport,
    bartlett_rescale,
    chisq_upper_tail,
    classical_report,
    skovgaard_log_gamma,
    skovgaard_stats,
)
from .core import (
    SampleSummary,
    check_estimate_exists,
    sample_mvn,
    summarize,
)
from .directional import (
    DirectionalDiagnostics,
    DirectionalEvaluator,
    directional_pvalue,
    integration_interval,
)
from .exceptions import (
    DegenerateNullError,
    DimensionError,
    DirnormalError,
    InvalidScenarioError,
    NoConvergenceError,
    NonFiniteError,
    NotPositiveDefiniteError,
    ParseError,
    SettingError,
)
from .hypotheses import (
    HYPOTHESES,
    BlockIndependence,
    CompleteIndependence,
    ConstrainedFit,
    EqualCovariances,
    EqualDistributions,
    ProportionalIdentity,
    SpecifiedMeanCov,
    ZeroPattern,
    constrained_mle,
    fit_hypothesis,
    fit_zero_pattern,
)
from .linalg import eig_pencil
from .simulation import (
    Extreme,
    Local,
    Null,
    ScenarioSpec,
    Setting1,
    StudyResult,
    bartlett_bootstrap,
    corrected_cutoff,
    generate_scenario,
    ks_uniformity,
    run_study,
)

__version__ = "0.1.0"
