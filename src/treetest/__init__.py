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
Each submodule's ``__all__`` is its export list, republished here by a
wildcard import (``cli`` is not imported).  Every exported name is used by
the command line, the demos, the benchmark or the acceptance tests, except
the scalar flat baselines and ``allocation_doc``.
"""

from .exact import *
from .gaussian import *
from .localize import *
from .procedures import *
from .simulate import *
from .trees import *
from .wavelet import *

__version__ = "0.1.0"
