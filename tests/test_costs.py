import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ascoding.capacity import make_cost
from ascoding.core import Correspondence, Dataset
from ascoding.costs import JointCost, KMeansCost, PairwiseCost, erm_search
from ascoding.datagen import dissimilarity_from_vectors
from ascoding.errors import BudgetError
from ascoding.exact import enumerate_costs
from ascoding.rng import derive_seed


def vecs(*rows):
    return Dataset.from_vectors(np.array(rows, dtype=float))


def brute_kmeans(labels, x):
    """Independent oracle: per-cluster cost minimized over a centroid grid."""
    total = 0.0
    for v in set(labels):
        pts = x[np.array(labels) == v]
        if len(pts) == 0:
            continue
        grid = np.linspace(pts.min() - 1, pts.max() + 1, 20001)
        total += min(((pts[:, 0, None] - grid) ** 2).sum(axis=0).min(), np.inf)
    return total


class TestKMeans:
    def test_singletons_cost_zero(self):
        assert KMeansCost(vecs([0.0], [2.0]), 2).evaluate(np.array([1, 2])) == 0.0

    def test_symmetric_pair(self):
        assert KMeansCost(vecs([0.0], [2.0]), 1).evaluate(np.array([1, 1])) == pytest.approx(2.0)

    def test_three_points(self):
        data = vecs([0.0], [1.0], [4.0])
        got = KMeansCost(data, 2).evaluate(np.array([1, 1, 2]))
        assert got == pytest.approx(0.5, abs=1e-12)
        assert got == pytest.approx(brute_kmeans([1, 1, 2], data.vectors), abs=1e-6)

    def test_requires_vectors(self):
        d = Dataset.from_dissimilarities([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="vector"):
            KMeansCost(d, 2)

    def test_translation_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(10, 3))
        labels = rng.integers(1, 4, 10)
        before = KMeansCost(Dataset.from_vectors(x), 3).evaluate(labels)
        after = KMeansCost(Dataset.from_vectors(x + np.array([5.0, -2.0, 9.0])), 3).evaluate(labels)
        assert after == pytest.approx(before, rel=1e-9, abs=1e-9)


class TestPairwise:
    def test_singletons_zero(self):
        d = Dataset.from_dissimilarities([[0.0, 4.0], [4.0, 0.0]])
        assert PairwiseCost(d, 2).evaluate(np.array([1, 2])) == 0.0

    def test_two_point_cluster(self):
        d = Dataset.from_dissimilarities([[0.0, 4.0], [4.0, 0.0]])
        assert PairwiseCost(d, 2).evaluate(np.array([1, 1])) == pytest.approx(2.0)

    def test_three_point_cluster(self):
        d = Dataset.from_dissimilarities(np.full((3, 3), 2.0) - 2.0 * np.eye(3))
        assert PairwiseCost(d, 1).evaluate(np.array([1, 1, 1])) == pytest.approx(2.0)

    def test_requires_dissimilarities(self):
        with pytest.raises(ValueError, match="dissimilarity"):
            PairwiseCost(vecs([0.0], [1.0]), 2)

    def test_equals_kmeans_on_squared_euclidean(self):
        # classic identity: sum_{ij in v} ||xi-xj||^2 / (2 n_v) = within-scatter
        rng = np.random.default_rng(5)
        x = Dataset.from_vectors(rng.normal(size=(9, 2)))
        labels = rng.integers(1, 4, 9)
        km = KMeansCost(x, 3).evaluate(labels)
        pw = PairwiseCost(dissimilarity_from_vectors(x), 3).evaluate(labels)
        assert pw == pytest.approx(km, rel=1e-9)


def random_instances():
    rng = np.random.default_rng(17)
    out = []
    for _ in range(4):
        x = Dataset.from_vectors(rng.normal(size=(7, 2)) * 3)
        out.append(KMeansCost(x, 3))
        d = rng.uniform(0, 5, size=(7, 7))
        d = np.triu(d, 1)
        out.append(PairwiseCost(Dataset.from_dissimilarities(d + d.T), 3))
    return out


def deltas_of(cost, labels, j, groups=None):
    """deltas(j) of a one-replica state of 1..k `labels`."""
    rows = np.asarray(labels)[None, :] - 1
    state = cost.replica_state(rows) if groups is None else cost.replica_state(rows, groups)
    return state.deltas(j)[0]


class TestSingleSiteDelta:
    def test_noop_is_zero(self):
        cost = KMeansCost(vecs([0.0], [2.0]), 2)
        assert deltas_of(cost, [1, 1], 0)[0] == 0.0

    def test_kmeans_example(self):
        cost = KMeansCost(vecs([0.0], [2.0]), 2)
        got = deltas_of(cost, [1, 1], 1)[1]
        assert got == pytest.approx(-2.0, abs=1e-12)

    def test_pairwise_merge_example(self):
        d = Dataset.from_dissimilarities([[0.0, 4.0], [4.0, 0.0]])
        cost = PairwiseCost(d, 2)
        got = deltas_of(cost, [1, 2], 1)[0]
        assert got == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("cost", random_instances())
    def test_matches_full_evaluation(self, cost):
        rng = np.random.default_rng(23)
        for _ in range(30):
            labels = rng.integers(1, cost.k + 1, cost.n)
            i = int(rng.integers(cost.n))
            b = int(rng.integers(1, cost.k + 1))
            base = cost.evaluate(labels)
            flipped = labels.copy()
            flipped[i] = b
            ref = cost.evaluate(flipped) - base
            got = deltas_of(cost, labels, i)[b - 1]
            assert got == pytest.approx(ref, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("cost", random_instances()[:2])
    def test_group_moves_match_full_evaluation(self, cost):
        # unit 0 is every object labeled like object 0; the rest are single
        rng = np.random.default_rng(29)
        for _ in range(20):
            labels = rng.integers(1, cost.k + 1, cost.n)
            members = labels == labels[0]
            rest = np.flatnonzero(~members)
            groups = np.zeros((1 + rest.size, cost.n))
            groups[0, members] = 1.0
            groups[1 + np.arange(rest.size), rest] = 1.0
            unit_labels = np.concatenate([[labels[0]], labels[rest]])
            d = deltas_of(cost, unit_labels, 0, groups)
            for b in range(1, cost.k + 1):
                moved = labels.copy()
                moved[members] = b
                ref = cost.evaluate(moved) - cost.evaluate(labels)
                assert d[b - 1] == pytest.approx(ref, rel=1e-9, abs=1e-9)


def delta_cases():
    """Costs with duplicate points, k > n, and labelings with empty clusters."""
    rng = np.random.default_rng(37)
    out = []
    for n, k in ((1, 3), (3, 5), (5, 2), (6, 3), (7, 4)):
        x1 = rng.normal(size=(n, 2)) * 2
        x1[n // 2] = x1[0]  # a duplicate point (the point itself when n is 1)
        x2 = np.round(rng.normal(size=(n, 2)), 1)
        d1, d2 = Dataset.from_vectors(x1), Dataset.from_vectors(x2)
        nu = rng.integers(0, n, n)  # fan-in, and training sites nothing maps to
        corr = Correspondence(nu, n)
        km = (KMeansCost(d1, k), KMeansCost(d2, k))
        pw = (PairwiseCost(dissimilarity_from_vectors(d1), k),
              PairwiseCost(dissimilarity_from_vectors(d2), k))
        out += [km[0], pw[0], JointCost(*km, corr), JointCost(*pw, corr)]
    return out


@pytest.mark.parametrize("cost", delta_cases(), ids=lambda c: f"{c.name}-n{c.n}-k{c.k}")
def test_batched_deltas_equal_evaluate_differences(cost):
    """Every replica's deltas(j)[r, b] is the evaluate() difference of giving
    site j cluster b, for every site and cluster, along a Gibbs run that
    keeps the statistics updated by batched moves."""
    rng = np.random.default_rng(41)
    replicas = 4
    labels = rng.integers(0, cost.k, size=(replicas, cost.n))
    labels[0] = 0  # every other cluster empty
    state = cost.replica_state(labels)
    for _ in range(4):
        for r in range(replicas):
            assert state.cost[r] == pytest.approx(cost.evaluate(state.labels[r] + 1),
                                                  rel=1e-9, abs=1e-9)
        for j in range(cost.n):
            d = state.deltas(j)
            for r in range(replicas):
                base = cost.evaluate(state.labels[r] + 1)
                for b in range(cost.k):
                    moved = state.labels[r] + 1
                    moved[j] = b + 1
                    assert d[r, b] == pytest.approx(cost.evaluate(moved) - base,
                                                    rel=1e-9, abs=1e-9)
        state.sweep(np.full(replicas, 0.3), rng.random((replicas, cost.n)))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_relabeling_symmetry(seed):
    rng = np.random.default_rng(seed)
    n, k = 7, 3
    x = Dataset.from_vectors(rng.normal(size=(n, 2)))
    labels = rng.integers(1, k + 1, n)
    perm = rng.permutation(k) + 1
    relabeled = perm[labels - 1]
    for cost in (KMeansCost(x, k), PairwiseCost(dissimilarity_from_vectors(x), k)):
        assert cost.evaluate(relabeled) == pytest.approx(cost.evaluate(labels), rel=1e-9, abs=1e-12)


REFERENCE_R_MIN = {
    0: (66.05341087933701, 66.05341087933698),
    1: (64.30708397531973, 64.30708397531974),
    2: (63.51807137760473, 63.51807137760473),
    3: (71.6058925344079, 71.60589253440786),
    4: (63.12234517845393, 63.12234517845387),
}


class TestErmSearch:
    """The exact engine's table argmin is the global minimizer; the multistart
    descent approximates it where k^n is out of reach."""

    def test_separated_points_reach_zero(self):
        assert enumerate_costs(KMeansCost(vecs([0.0], [100.0]), 2)).r_min == 0.0

    def test_three_points_brute_force(self):
        data = vecs([0.0], [1.0], [4.0])
        cost = KMeansCost(data, 2)
        table = enumerate_costs(cost)
        # independent enumeration over all 8 label vectors
        oracle = min(cost.evaluate(np.array(c)) for c in itertools.product((1, 2), repeat=3))
        assert table.r_min == pytest.approx(oracle) == pytest.approx(0.5)
        # [1,1,2] ties; the lowest index (object 0 least significant) wins
        assert np.array_equal(table.minimizer_labels(), [2, 2, 1])

    def test_k1_returns_total_scatter(self):
        cost = KMeansCost(vecs([0.0], [1.0], [4.0]), 1)
        table = enumerate_costs(cost)
        assert np.array_equal(table.minimizer_labels(), [1, 1, 1])
        assert table.r_min == pytest.approx(cost.evaluate(np.array([1, 1, 1])))

    def test_budget_error_mentions_multistart(self):
        # the exact engine's error names the budget; the sampled engine's
        # multistart search is what runs past it (engine="auto")
        cost = KMeansCost(vecs(*[[float(i)] for i in range(12)]), 2)
        with pytest.raises(BudgetError, match="budget"):
            enumerate_costs(cost, budget=100)

    def test_exhaustive_no_worse_than_multistart(self):
        rng = np.random.default_rng(31)
        for seed in range(5):
            x = Dataset.from_vectors(rng.normal(size=(7, 2)) * 2)
            cost = KMeansCost(x, 3)
            _, ms = erm_search(cost, restarts=20, seed=seed)
            assert enumerate_costs(cost).r_min <= ms + 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_multistart_reaches_reference_minima(self, seed):
        # the benchmark's sampled-select inputs (3 groups of 8, d=3) with the
        # per-candidate seeds select_model derives; r_min of the best of 50
        # single-chain greedy descents from the same starts
        rng = np.random.default_rng([2, seed])
        centers = np.eye(3) * 6.0 / math.sqrt(2.0)
        z = centers[np.repeat(np.arange(3), 8)]
        train = Dataset.from_vectors(z + rng.standard_normal((24, 3)))
        for ci, family in enumerate(("kmeans", "pairwise")):
            _, r_min = erm_search(make_cost(family, train, 3), restarts=50,
                                  seed=derive_seed(seed, ci))
            assert r_min == pytest.approx(REFERENCE_R_MIN[seed][ci], rel=1e-12)

    def test_multistart_deterministic(self):
        x = Dataset.from_vectors(np.random.default_rng(4).normal(size=(10, 2)))
        cost = KMeansCost(x, 3)
        a = erm_search(cost, restarts=10, seed=7)
        b = erm_search(cost, restarts=10, seed=7)
        assert a[1] == b[1] and np.array_equal(a[0].labels, b[0].labels)


class TestJointCost:
    def test_deltas_track_pushforward_fanin(self):
        rng = np.random.default_rng(11)
        x1 = Dataset.from_vectors(rng.normal(size=(6, 2)))
        x2 = Dataset.from_vectors(rng.normal(size=(6, 2)))
        corr = Correspondence(np.array([0, 0, 2, 2, 2, 5]), 6)  # heavy fan-in
        jc = JointCost(KMeansCost(x1, 2), KMeansCost(x2, 2), corr)
        for _ in range(15):
            labels = rng.integers(1, 3, 6)
            base = jc.evaluate(labels)
            for i in range(6):
                d = deltas_of(jc, labels, i)
                for b in (1, 2):
                    moved = labels.copy()
                    moved[i] = b
                    assert d[b - 1] == pytest.approx(jc.evaluate(moved) - base, rel=1e-9, abs=1e-9)

    def test_evaluate_is_sum_of_parts(self):
        rng = np.random.default_rng(13)
        x1 = Dataset.from_vectors(rng.normal(size=(5, 2)))
        x2 = Dataset.from_vectors(rng.normal(size=(5, 2)))
        corr = Correspondence(np.array([1, 1, 3, 0, 4]), 5)
        c1, c2 = KMeansCost(x1, 2), KMeansCost(x2, 2)
        jc = JointCost(c1, c2, corr)
        labels = np.array([1, 2, 2, 1, 2])
        assert jc.evaluate(labels) == pytest.approx(
            c1.evaluate(labels) + c2.evaluate(labels[corr.nu])
        )
