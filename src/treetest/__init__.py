"""Sequential multiple hypothesis testing on rooted trees.

The core procedure tests a family of nested null hypotheses arranged as a
complete rooted tree: starting at the root it keeps testing down each branch
while nulls are rejected and stops a branch at the first acceptance.  When
every internal vertex's children's test levels sum to at most the vertex's
own level, the probability of any false rejection is bounded by the root
level, regardless of how the test statistics depend on each other.

Submodules: ``trees`` (structures and level budgets), ``procedures`` (the
descent and flat baselines), ``gaussian`` (the two-sided z-test kernels
and their score cuts), ``exact`` (exhaustive audits of the level-sum
bound), ``simulate`` (Monte Carlo verification), ``wavelet`` (coefficient
thresholding), ``localize`` (time-interval localization), ``cli``.
Every name exported here is used by the command line, the demos, the
benchmark or the acceptance tests, except the scalar flat baselines and
``allocation_doc``.
"""

from .exact import (
    AlphaSumAudit,
    BudgetError,
    SubtreeAudit,
    audit_alpha_sums,
    audit_subtree_sums,
)
from .gaussian import (
    critical_z,
    std_normal_cdf,
    std_normal_quantile,
    two_sided_pvalue,
)
from .localize import (
    IntervalNode,
    IntervalTree,
    LocalizeResult,
    TrialMatrix,
    build_interval_tree,
    interval_pvalues,
    localize,
)
from .procedures import (
    ErrorReport,
    TreeRejections,
    benjamini_hochberg,
    bonferroni,
    descend,
    descend_batch,
    descend_local,
    error_report,
    holm,
)
from .simulate import (
    PROCEDURES,
    SimConfig,
    SimReport,
    compare_procedures,
    format_comparison,
    monte_carlo_bound,
    simulate,
)
from .trees import (
    LEVEL_SUM_TOL,
    AlphaAllocation,
    TestTree,
    allocation_doc,
    allocation_from_doc,
    ancestors,
    build_complete_tree,
    first_true_vertices,
    level_budget_violations,
    uniform_levels,
    weighted_levels,
)
from .wavelet import (
    DenoiseResult,
    WaveletTree,
    denoise,
    estimate_sigma,
    haar_forward,
    haar_inverse,
    keep_mask,
    level_thresholds,
)

__version__ = "0.1.0"
