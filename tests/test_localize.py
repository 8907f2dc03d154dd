"""Interval subdivision trees and mean-shift localization."""

import tracemalloc

import numpy as np
import pytest

from treetest import (
    IntervalNode,
    TrialMatrix,
    build_interval_tree,
    interval_pvalues,
    localize,
    monte_carlo_bound,
)

from helpers import children_from_parents, reference_interval_pvalue, reference_interval_spans


@pytest.fixture
def node_counter(monkeypatch):
    """Counts every ``IntervalNode`` constructed while the fixture is active."""
    built = []
    original = IntervalNode.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(IntervalNode, "__init__", counting_init)
    return built


def spans(itree, depth=None):
    """``(start, end)`` per vertex in id order, or of the vertices at ``depth``."""
    pairs = zip(itree.starts.tolist(), itree.ends.tolist(), itree.tree.depth_of.tolist())
    return [(a, b) for a, b, d in pairs if depth is None or d == depth]


class TestBuildIntervalTree:
    def test_exact_dyadic(self):
        assert spans(build_interval_tree(8, 3, 2), 3) == [(i, i + 1) for i in range(8)]

    def test_even_split(self):
        assert spans(build_interval_tree(10, 1, 2))[1:] == [(0, 5), (5, 10)]

    def test_remainder_goes_left(self):
        assert spans(build_interval_tree(10, 1, 3))[1:] == [(0, 4), (4, 7), (7, 10)]

    def test_partition_at_every_depth(self):
        itree = build_interval_tree(37, 3, 3)
        for depth in range(4):
            layer = sorted(spans(itree, depth))
            assert layer[0][0] == 0 and layer[-1][1] == 37
            assert all(a[1] == b[0] for a, b in zip(layer, layer[1:]))
            widths = [b - a for a, b in layer]
            assert max(widths) - min(widths) <= 1

    @pytest.mark.parametrize("n_times, depth, arity, message", [
        (0, 1, 2, "n_times must be positive"),
        (8, -1, 2, "depth must be >= 0"),
        (8, 1, 0, "arity must be >= 1"),
    ])
    def test_bad_shape_refused(self, n_times, depth, arity, message):
        with pytest.raises(ValueError, match=message):
            build_interval_tree(n_times, depth, arity)

    @pytest.mark.parametrize("args, where", [
        ((8.5, 2), "n_times"),  # once spanned 8 samples
        ((8, True), "depth"),  # once ran at depth 1
        ((8, 2, "2"), "arity"),
    ])
    def test_counts_read_by_the_number_rule(self, args, where):
        with pytest.raises(TypeError, match=f"^{where}: expected an? (number|integer), got "):
            build_interval_tree(*args)

    def test_integral_counts_read_as_ints(self):
        itree = build_interval_tree(8.0, np.int64(2), 2.0)
        assert spans(itree) == spans(build_interval_tree(8, 2))

    def test_too_deep(self):
        with pytest.raises(ValueError, match="fit"):
            build_interval_tree(8, 4, 2)

    def test_degenerate_arity_one(self):
        assert spans(build_interval_tree(10, 3, 1)) == [(0, 10)] * 4

    def test_arity_one_depth_up_to_n_times(self):
        assert build_interval_tree(10, 10, 1).tree.n_vertices == 11
        with pytest.raises(ValueError, match="depth 11 exceeds the 10 samples"):
            build_interval_tree(10, 11, 1)

    @pytest.mark.parametrize("arity", [1, 2])
    def test_huge_depth_refused_before_allocating(self, arity):
        trials = TrialMatrix(np.zeros((2, 10)))
        tracemalloc.start()
        try:
            for call in (
                lambda: build_interval_tree(10, 10**12, arity),
                lambda: localize(trials, 0.05, 10**12, arity),
            ):
                with pytest.raises(ValueError, match="exceeds the 10 samples"):
                    call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "n_times, depth, arity",
        [(1000, 4, 3), (1000, 9, 2), (1003, 3, 5), (999, 2, 7), (37, 3, 3), (10, 1, 3), (8, 3, 2), (5, 0, 2)],
    )
    def test_spans_match_recursive_reference(self, n_times, depth, arity):
        itree = build_interval_tree(n_times, depth, arity)
        want = reference_interval_spans(n_times, depth, arity)
        assert spans(itree) == want
        assert not itree.starts.flags.writeable and not itree.ends.flags.writeable

    def test_builds_no_nodes(self, node_counter):
        itree = build_interval_tree(1 << 17, 16)
        assert itree.tree.n_vertices == (1 << 17) - 1
        assert node_counter == []


class TestTrialMatrix:
    def test_requires_rows(self):
        with pytest.raises(ValueError, match="non-empty"):
            TrialMatrix(np.empty((0, 5)))

    def test_requires_finite(self):
        data = np.zeros((2, 4))
        data[1, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            TrialMatrix(data)

    def test_sigma_positive(self):
        with pytest.raises(ValueError, match="sigma"):
            TrialMatrix(np.zeros((2, 4)), sigma=0.0)

    @pytest.mark.parametrize("sigma", [np.inf, np.nan])
    def test_sigma_finite(self, sigma):
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            TrialMatrix(np.zeros((2, 4)), sigma=sigma)


class TestIntervalPvalue:
    def test_all_zero_samples(self):
        trials = TrialMatrix(np.zeros((3, 8)))
        itree = build_interval_tree(8, 1, 2)
        assert interval_pvalues(trials, itree).tolist() == [1.0, 1.0, 1.0]

    def test_reference_shift(self):
        R, width = 4, 8
        mean = 1.959964 / np.sqrt(R * width)
        data = np.full((R, 16), 0.0)
        data[:, :width] = mean
        trials = TrialMatrix(data, sigma=1.0)
        p = interval_pvalues(trials, build_interval_tree(16, 1, 2))
        assert p[1] == pytest.approx(0.05, abs=1e-6)

    def test_uniform_under_noise(self):
        rng = np.random.default_rng(0)
        itree = build_interval_tree(32, 2, 2)
        p = np.array(
            [
                interval_pvalues(TrialMatrix(rng.standard_normal((5, 32))), itree)[3]
                for _ in range(3000)
            ]
        )
        p.sort()
        grid = np.arange(1, p.size + 1) / p.size
        ks = max(np.max(np.abs(grid - p)), np.max(np.abs(p - (grid - 1.0 / p.size))))
        assert ks <= 0.04

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(1)
        trials = TrialMatrix(rng.standard_normal((6, 27)))
        itree = build_interval_tree(27, 2, 3)
        vec = interval_pvalues(trials, itree)
        for v, (start, end) in enumerate(spans(itree)):
            want = reference_interval_pvalue(trials.data, trials.sigma, start, end)
            assert vec[v] == pytest.approx(want, abs=1e-12)


@pytest.mark.filterwarnings("error")
class TestIntervalSumOverflow:
    """Finite trials whose sums pass float64: refused, or given the limit
    p-value, never a NaN and never a warning."""

    def test_overflowing_column_sums_refused(self):
        with pytest.raises(ValueError, match="^trial sums overflow float64$"):
            localize(TrialMatrix(np.full((3, 8), 1e308)), 0.05, 2)

    # prefixes 0, P, P, 0, -P, 0, 0, 0, 0: the interval [2, 4) totals -2P
    P = 1e308
    DIVERGENT = np.array([[P, 0.0, -P, -P, P, 0.0, 0.0, 0.0]])

    def test_total_past_float64_has_pvalue_zero(self):
        itree = build_interval_tree(8, 2, 2)
        p = interval_pvalues(TrialMatrix(self.DIVERGENT), itree)
        assert p[spans(itree).index((2, 4))] == 0.0 and np.isfinite(p).all()

    def test_scale_past_float64_has_pvalue_one(self):
        p = interval_pvalues(TrialMatrix(np.ones((3, 8)), sigma=1.7e308), build_interval_tree(8, 2, 2))
        assert p.tolist() == [1.0] * 7

    def test_total_and_scale_past_float64_refused(self):
        with pytest.raises(ValueError, match="both overflow float64$"):
            interval_pvalues(TrialMatrix(self.DIVERGENT, sigma=1.7e308), build_interval_tree(8, 2, 2))


class TestLocalize:
    def test_planted_leaf_found(self):
        rng = np.random.default_rng(2)
        R, T = 50, 256
        shift = 10.0 / np.sqrt(R)
        hits = 0
        for _ in range(50):
            data = rng.standard_normal((R, T))
            data[:, 16:24] += shift
            res = localize(TrialMatrix(data), 0.05, 5, 2)
            hits += any((nd.start, nd.end) == (16, 24) for nd in res.rejected)
        assert hits >= 48

    def test_pure_noise_rarely_flags(self):
        rng = np.random.default_rng(3)
        reps = 800
        flagged = 0
        for _ in range(reps):
            res = localize(TrialMatrix(rng.standard_normal((10, 64))), 0.05, 3, 2)
            flagged += bool(res.rejected)
        assert flagged / reps <= monte_carlo_bound(0.05, reps)

    def test_pure_noise_family_error_is_exact(self):
        # two-sided: any rejection needs the root, whose p-value is uniform
        # under the null, so the familywise error is alpha itself
        rng = np.random.default_rng(5)
        alpha, reps = 0.05, 10_000
        itree = build_interval_tree(256, 6, 2)
        flagged = 0
        for _ in range(reps):
            trials = TrialMatrix(rng.standard_normal((10, 256)))
            flagged += bool(localize(trials, alpha, 6, itree=itree).rejected)
        assert abs(flagged / reps - alpha) <= 4 * np.sqrt(alpha * (1 - alpha) / reps)

    def test_rejections_are_nested(self):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((20, 64))
        data[:, :32] += 1.0
        res = localize(TrialMatrix(data), 0.1, 3, 2)
        rejected = {nd.vertex for nd in res.rejected}
        tree = build_interval_tree(64, 3, 2).tree
        for v in rejected:
            assert v == 0 or int(tree.parent[v]) in rejected
        for nd in res.maximal:
            assert all(int(c) not in rejected for c in tree.children(nd.vertex))

    def test_arity_one_tests_same_interval_at_constant_level(self):
        # the degenerate chain re-tests [0, T) at the full level each layer,
        # so the outcome is all-or-nothing depending on one p-value
        rng = np.random.default_rng(5)
        for _ in range(20):
            trials = TrialMatrix(rng.standard_normal((4, 12)))
            res = localize(trials, 0.05, 3, 1)
            assert len(res.rejected) in (0, 4)

    def test_maximal_is_deepest_per_path(self):
        rng = np.random.default_rng(6)
        data = rng.standard_normal((40, 128)) * 0.1
        data[:, 96:] += 5.0
        res = localize(TrialMatrix(data), 0.05, 2, 2)
        assert [(nd.start, nd.end) for nd in res.maximal] == [(96, 128)]

    def test_builds_only_reported_nodes(self, node_counter):
        rng = np.random.default_rng(8)
        data = rng.standard_normal((30, 512))
        data[:, 100:140] += 1.0
        itree = build_interval_tree(512, 6)
        assert node_counter == []
        res = localize(TrialMatrix(data), 0.05, 6, itree=itree)
        assert len(res.maximal) >= 1
        assert len(node_counter) == len(res.rejected) + len(res.frontier) + len(res.maximal)

    def test_maximal_and_tested_match_definition(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            data = rng.standard_normal((20, 243))
            lo = int(rng.integers(0, 200))
            data[:, lo : lo + 40] += rng.uniform(0.0, 1.5)
            res = localize(TrialMatrix(data), 0.1, 4, 3)
            kids = children_from_parents(build_interval_tree(243, 4, 3).tree.parent.tolist())
            rejected = {nd.vertex for nd in res.rejected}
            want = sorted(v for v in rejected if not rejected.intersection(kids[v]))
            assert [nd.vertex for nd in res.maximal] == want
            assert res.tested == len(res.rejected) + len(res.frontier)

    def test_document_round_trip(self):
        rng = np.random.default_rng(7)
        data = rng.standard_normal((10, 32))
        data[:, :16] += 3.0
        res = localize(TrialMatrix(data), 0.05, 2, 2)
        doc = res.to_doc()
        assert set(doc) == {"intervals", "rejected", "maximal", "frontier", "tested"}
        for row in doc["rejected"]:
            assert row["end"] > row["start"] and 0.0 <= row["p_value"] <= 1.0
        # every tested interval carries an explicit decision
        assert all(row["decision"] in ("rejected", "accepted") for row in doc["intervals"])
        assert len(doc["intervals"]) == len(doc["rejected"]) + len(doc["frontier"])
        assert doc["tested"] == res.tested == len(doc["intervals"])

    @pytest.mark.parametrize("args, where", [
        ((True,), "depth"),  # once ran at depth 1
        ((1.5,), "depth"),
        ((2, 2.5), "arity"),
    ])
    def test_counts_read_by_the_number_rule(self, args, where):
        with pytest.raises(TypeError, match=f"^{where}: expected an? (number|integer), got "):
            localize(TrialMatrix(np.zeros((2, 8))), 0.05, *args)

    def test_integral_counts_read_as_ints(self):
        # a depth of 2.0 once failed in list repetition, an arity of 2.0 in an IndexError
        trials = TrialMatrix(np.random.default_rng(5).standard_normal((3, 8)))
        assert localize(trials, 0.05, 2.0, 2.0).to_doc() == localize(trials, 0.05, 2).to_doc()


class TestLocalizePrebuilt:
    """``localize`` with and without a prebuilt ``itree`` agree."""

    KEYS = [(64, 3, 2, 0.05), (81, 4, 3, 0.1), (64, 3, 2, 0.2), (12, 3, 1, 0.05), (64, 2, 4, 0.05)]

    def test_equal_to_prebuilt_across_interleaved_keys(self):
        rng = np.random.default_rng(31)
        for n_times, depth, arity, alpha in self.KEYS * 3 + self.KEYS[::-1]:
            data = rng.standard_normal((8, n_times))
            data[:, : n_times // 3] += rng.uniform(0.0, 2.0)
            trials = TrialMatrix(data)
            got = localize(trials, alpha, depth, arity)
            itree = build_interval_tree(n_times, depth, arity)
            want = localize(trials, alpha, depth, arity, itree=itree)
            assert got.to_doc() == want.to_doc()
            assert got.rejected == want.rejected and got.frontier == want.frontier
            assert np.array_equal(got.pvalues, want.pvalues)
            assert np.array_equal(got.levels, want.levels)

    @pytest.mark.parametrize("span", [12, 4, 8])
    def test_prebuilt_span_must_match_the_trials(self, span):
        # a longer tree would index past the samples and a shorter one test
        # only the first ones: both are refused, naming the two lengths
        trials = TrialMatrix(np.ones((2, 8)))
        itree = build_interval_tree(span, 2)
        if span == trials.n_times:
            want = localize(trials, 0.05, 2).to_doc()
            assert localize(trials, 0.05, 2, itree=itree).to_doc() == want
            return
        message = f"interval tree spans {span} samples, trials have 8"
        with pytest.raises(ValueError, match=message):
            localize(trials, 0.05, 2, itree=itree)
        with pytest.raises(ValueError, match=message):
            interval_pvalues(trials, itree)

    @pytest.mark.parametrize(
        "depth, arity, built", [(2, 4, (5, 2)), (3, 2, (2, 2)), (2, 2, (2, 4)), (0, 2, (0, 5))]
    )
    def test_prebuilt_shape_must_match_the_request(self, depth, arity, built):
        # a mismatched tree would run in place of the requested one; a
        # depth-0 tree is the one interval [0, T) whatever its arity
        trials = TrialMatrix(np.ones((2, 64)))
        itree = build_interval_tree(64, *built)
        if built[0] == depth == 0:
            want = localize(trials, 0.05, depth, arity).to_doc()
            assert localize(trials, 0.05, depth, arity, itree=itree).to_doc() == want
            return
        message = (f"interval tree has depth {built[0]} and arity {built[1]}, "
                   f"asked for depth {depth} and arity {arity}")
        with pytest.raises(ValueError, match=message):
            localize(trials, 0.05, depth, arity, itree=itree)
