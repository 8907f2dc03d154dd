"""
Exhaustive verification of the level-sum bound
==============================================

The descent's familywise guarantee reduces to a deterministic combinatorial
fact: for every truth assignment, the levels attached to the vertices whose
null is true first (walking down from the root) sum to at most the root
level.  This script checks that fact exhaustively on every small tree shape,
and the per-subtree version on random instances.
"""

import numpy as np

from treetest import (
    audit_alpha_sums,
    audit_subtree_sums,
    build_complete_tree,
    uniform_levels,
    weighted_levels,
)

# Every complete tree of depth <= 3 with per-layer branching 2 or 3, every
# truth assignment, uniform plus ten random-weighted allocations.  The
# first-true sets are the tree's antichains, so the worst sum below a vertex
# is the larger of its own level and its children's worst sums added up: one
# bottom-up pass covers all 2^|V| assignments exactly, and small shapes are
# re-checked assignment by assignment.
audit = audit_alpha_sums(max_depth=3, branchings=(2, 3), alpha=0.05, n_weighted=10, seed=0)
print(audit.summary())
print("passed:", audit.passed)

# The same bound holds inside every subtree, with the subtree root's level
# on the right-hand side.
rng = np.random.default_rng(4)
tree = build_complete_tree([3, 2, 2])
for name, alloc in [
    ("uniform", uniform_levels(tree, 0.05)),
    ("weighted", weighted_levels(tree, 0.05, rng.uniform(0.2, 2.0, tree.n_vertices))),
]:
    worst = 0.0
    for _ in range(200):
        truth = rng.integers(0, 2, tree.n_vertices)
        sub = audit_subtree_sums(tree, alloc, truth)
        assert sub.passed
        worst = max(worst, sub.max_sum)
    print(f"{name}: 200 random truths on {tree.n_vertices} vertices, "
          f"max subtree sum {worst:.6f}, all within budget")
