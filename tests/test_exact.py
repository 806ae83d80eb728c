import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ascoding.capacity import exact_points
from ascoding.core import (
    Assignment,
    Correspondence,
    Dataset,
    build_correspondence,
    log_type_class_size,
    type_distribution,
)
from ascoding import exact as ex
from ascoding.costs import COST_RESOLUTION, KMeansCost, PairwiseCost
from ascoding.datagen import MixtureSpec, dissimilarity_from_vectors, draw_paired_samples
from ascoding.errors import BudgetError
from ascoding.exact import (
    GAMMA_SLACK,
    CostTable,
    ExactTables,
    calibrate_betas,
    decode_indices,
    enumerate_costs,
    joint_cost_table,
    stacked_log_partition,
    stacked_moments,
)
from ascoding.rng import derive_seed
from conftest import decoded_intersection, log_partition, minimizer_labels, moments


def vecs(*rows):
    return Dataset.from_vectors(np.array(rows, dtype=float))


def encode(labels, k):
    """m x n label matrix -> table indices, object 0 least significant."""
    return (labels - 1) @ k ** np.arange(labels.shape[1])


def index_of(labels, k):
    """The table index of one label vector."""
    return int(encode(np.asarray(labels)[None], k)[0])


def set_size(table, gamma):
    """|C_gamma|: k per slice member."""
    return table.k * int((table.costs <= table.threshold(gamma)).sum())


def mean_cost(table, beta):
    """Boltzmann average of the cost at beta."""
    return table.r_min + moments(table, beta)[1]


def joint_log_partition(table1, cost2, corr, beta):
    """log dZ(beta) of the joint table of table1 and cost2's table."""
    (joint,) = joint_cost_table([table1], enumerate_costs(cost2), [corr])
    return log_partition(joint, beta)


def all_assignments(n, k):
    """Independent enumeration in the table's encoding order (object 0 is the
    least significant digit)."""
    for idx in range(k**n):
        labels, rest = [], idx
        for _ in range(n):
            labels.append(rest % k + 1)
            rest //= k
        yield np.array(labels)


@pytest.fixture(scope="module")
def three_point_table():
    return enumerate_costs(KMeansCost(vecs([0.0], [1.0], [4.0]), 2))[0]


@pytest.fixture(scope="module")
def gaussian_pair():
    spec = MixtureSpec(n=6, d=2, k_true=2, noise_sigma=0.8, separation=5.0, seed=2, balanced=True)
    x1, x2, _ = draw_paired_samples(spec)
    return x1, x2


class TestEnumerate:
    def test_shapes(self):
        cost = KMeansCost(vecs([0.0]), 2)
        (table,) = enumerate_costs(cost)
        assert np.array_equal(table.costs, reference_table(cost).costs[::2])

    def test_three_points(self, three_point_table):
        assert three_point_table.costs.size == 4
        assert three_point_table.r_min == pytest.approx(0.5)

    def test_matches_independent_evaluation(self, three_point_table):
        # the slice holds every k-th encoding index: object 0 in cluster 1
        cost = KMeansCost(vecs([0.0], [1.0], [4.0]), 2)
        full = [cost.evaluate(labels) for labels in all_assignments(3, 2)]
        assert three_point_table.costs.tolist() == pytest.approx(full[::2])

    def test_constant_zero_cost(self):
        (table,) = enumerate_costs(KMeansCost(vecs([1.0], [1.0], [1.0]), 2))
        assert np.all(table.costs == 0.0) and table.r_min == 0.0

    def test_budget(self):
        with pytest.raises(BudgetError):
            enumerate_costs(KMeansCost(vecs(*[[float(i)] for i in range(10)]), 2), budget=100)

    def test_codec_roundtrip(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(1, 4, size=(50, 5))
        assert np.array_equal(decode_indices(encode(labels, 3), 5, 3), labels)


class TestApproxSetSize:
    def test_gamma_zero_counts_minimizers(self, three_point_table):
        assert set_size(three_point_table, 0.0) == 2  # optimum and its label swap

    def test_gamma_inf_is_whole_class(self, three_point_table):
        assert set_size(three_point_table, np.inf) == 8

    def test_unique_minimizer(self):
        # one minimizing partition of three points: the slice keeps one of
        # its two labelings
        cost = KMeansCost(vecs([0.0], [1.0], [5.0]), 2)
        ref = reference_table(cost)
        table = CostTable.from_costs(ref.costs[::2], n=3, k=2)
        assert (table.costs == table.r_min).sum() == 1
        assert set_size(table, 0.0) == reference_size(ref, 0.0) == 2

    def test_nondecreasing_in_gamma(self, three_point_table):
        sizes = [set_size(three_point_table, g) for g in np.linspace(0, 20, 40)]
        assert all(a <= b for a, b in zip(sizes, sizes[1:]))
        assert sizes[-1] == 8

    def test_negative_gamma_rejected(self, three_point_table):
        with pytest.raises(ValueError):
            set_size(three_point_table, -0.1)
        with pytest.raises(ValueError):
            three_point_table.threshold(float("nan"))

    def test_members_keep_the_slack_boundary(self):
        table = CostTable.from_costs(np.array([1.0, 2.0, 2.0 + 0.5 * GAMMA_SLACK, 4.0]), n=3, k=2)
        assert (table.costs <= table.threshold(1.0)).tolist() == [True, True, True, False]
        assert (table.costs <= table.threshold(1.0 - 2 * GAMMA_SLACK)).tolist() == \
            [True, False, False, False]
        assert set_size(table, 1.0) == 6


class TestLogPartition:
    def test_beta_zero_exact(self, three_point_table):
        assert log_partition(three_point_table, 0.0) == 3 * math.log(2)

    def test_large_beta_ground_state_degeneracy(self, three_point_table):
        got = log_partition(three_point_table, 50.0) + 50.0 * 0.5
        assert got == pytest.approx(math.log(2), abs=1e-6)

    def test_direct_summation(self, three_point_table):
        beta = 1.3
        full = reference_table(KMeansCost(vecs([0.0], [1.0], [4.0]), 2)).costs
        assert np.array_equal(three_point_table.costs, full[::2])
        direct = math.log(sum(math.exp(-beta * c) for c in full))
        assert log_partition(three_point_table, beta) == pytest.approx(direct, rel=1e-12)

    def test_constant_zero(self):
        (table,) = enumerate_costs(KMeansCost(vecs([1.0], [1.0], [1.0]), 2))
        for beta in (0.0, 1.0, 100.0):
            assert log_partition(table, beta) == pytest.approx(3 * math.log(2))

    def test_convex_nonincreasing(self, three_point_table):
        betas = np.linspace(0, 5, 30)
        vals = [log_partition(three_point_table, b) for b in betas]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        second = np.diff(vals, 2)
        assert np.all(second >= -1e-9)  # convex in beta


class TestMeanCost:
    def test_beta_zero_is_arithmetic_mean(self, three_point_table):
        assert mean_cost(three_point_table, 0.0) == pytest.approx(
            three_point_table.costs.mean()
        )

    def test_ground_state_limit(self, three_point_table):
        assert mean_cost(three_point_table, 1e4) == pytest.approx(0.5)

    def test_direct_summation(self, three_point_table):
        beta = 1.0
        w = [math.exp(-beta * c) for c in three_point_table.costs]
        direct = sum(c * wi for c, wi in zip(three_point_table.costs, w)) / sum(w)
        assert mean_cost(three_point_table, beta) == pytest.approx(direct, rel=1e-12)

    def test_nonincreasing_in_beta(self, three_point_table):
        betas = np.linspace(0, 8, 50)
        vals = [mean_cost(three_point_table, b) for b in betas]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_derivative_of_log_partition(self, three_point_table):
        # d logZ / d beta = -<R>_beta by finite differences
        for beta in (0.5, 1.0, 2.0):
            h = 1e-5
            fd = (
                log_partition(three_point_table, beta + h)
                - log_partition(three_point_table, beta - h)
            ) / (2 * h)
            assert fd == pytest.approx(-mean_cost(three_point_table, beta), rel=1e-4)


class TestJointPartition:
    def test_identical_sample_collapse(self, three_point_table):
        data = vecs([0.0], [1.0], [4.0])
        cost = KMeansCost(data, 2)
        corr = Correspondence(nu=np.arange(3), n=3)
        for beta in (0.3, 1.0, 2.5):
            got = joint_log_partition(three_point_table, cost, corr, beta)
            assert got == pytest.approx(log_partition(three_point_table, 2 * beta), rel=1e-12)

    def test_beta_zero(self, three_point_table):
        cost = KMeansCost(vecs([0.0], [1.0], [4.0]), 2)
        got = joint_log_partition(three_point_table, cost, Correspondence(nu=np.arange(3), n=3), 0.0)
        assert got == 3 * math.log(2)

    def test_two_sample_oracle(self, gaussian_pair):
        x1, x2 = gaussian_pair
        c1, c2 = KMeansCost(x1, 2), KMeansCost(x2, 2)
        corr = build_correspondence(x1, x2)
        (table1,) = enumerate_costs(c1)
        beta = 0.7
        # independent double-evaluation summation over all 2^6 assignments
        direct = math.log(sum(
            math.exp(-beta * c1.evaluate(c)) * math.exp(-beta * c2.evaluate(c[corr.nu]))
            for c in all_assignments(6, 2)
        ))
        got = joint_log_partition(table1, c2, corr, beta)
        assert got == pytest.approx(direct, rel=1e-10)

    def test_bounded_by_single_sample(self, gaussian_pair):
        x1, x2 = gaussian_pair
        c1, c2 = KMeansCost(x1, 2), KMeansCost(x2, 2)
        corr = build_correspondence(x1, x2)
        (table1,) = enumerate_costs(c1)
        for beta in (0.1, 0.6, 2.0, 5.0):
            assert (
                joint_log_partition(table1, c2, corr, beta)
                <= log_partition(table1, beta) + 1e-12
            )


class TestSetIntersection:
    def test_identical_full_overlap(self, three_point_table):
        corr = Correspondence(nu=np.arange(3), n=3)
        for g in (0.0, 1.0, 5.0):
            assert decoded_intersection(three_point_table, three_point_table, corr, g) == \
                set_size(three_point_table, g)

    def test_unstable_minimizer_misses(self):
        train, test = vecs([0.0], [10.0]), vecs([4.9], [5.0])
        (t1,) = enumerate_costs(KMeansCost(train, 2))
        (t2,) = enumerate_costs(KMeansCost(test, 2))
        corr = build_correspondence(train, test)
        assert decoded_intersection(t1, t2, corr, 0.0) == 0

    def test_two_sample_oracle(self, gaussian_pair):
        x1, x2 = gaussian_pair
        c1, c2 = KMeansCost(x1, 2), KMeansCost(x2, 2)
        corr = build_correspondence(x1, x2)
        t1, t2 = enumerate_costs(c1, c2)
        for gamma in (0.0, 0.5, 2.0, 8.0):
            direct = sum(
                1
                for c in all_assignments(6, 2)
                if c1.evaluate(c) <= t1.r_min + gamma + 1e-12
                and c2.evaluate(c[corr.nu]) <= t2.r_min + gamma + 1e-12
            )
            assert decoded_intersection(t1, t2, corr, gamma) == direct

    def test_bounded_by_training_set_size(self, gaussian_pair):
        x1, x2 = gaussian_pair
        (t1,) = enumerate_costs(KMeansCost(x1, 2))
        (t2,) = enumerate_costs(KMeansCost(x2, 2))
        corr = build_correspondence(x1, x2)
        for gamma in np.linspace(0, 10, 15):
            assert decoded_intersection(t1, t2, corr, gamma) <= set_size(t1, gamma)


# ---------------------------------------------------------------------------
# split-half tables against the decode-and-evaluate reference
# ---------------------------------------------------------------------------

def reference_table(cost):
    """The full k^n table: every label vector decoded and scored by
    evaluate_batch; argmin_index is the lowest index among exact ties, and
    minimizer its labels."""
    labels = decode_indices(np.arange(cost.k**cost.n), cost.n, cost.k)
    costs = cost.evaluate_batch(labels)
    arg = int(np.argmin(costs))
    return SimpleNamespace(costs=costs, n=cost.n, k=cost.k, r_min=float(costs[arg]),
                           argmin_index=arg, minimizer=labels[arg])


def reference_size(ref, gamma):
    return int((ref.costs <= ref.r_min + gamma + GAMMA_SLACK).sum())


def full_pushed(indices, nu, n, k):
    """Encoding indices of the push-forwards of encoding indices."""
    return encode(decode_indices(indices, n, k)[:, nu], k)


def slice_pushed(entries, nu, n, k):
    """Slice entries of the push-forwards of slice entries: decoded, carried
    through nu, relabeled so that object 0 is in cluster 1, encoded."""
    labels = decode_indices(np.asarray(entries) * k, n, k)[:, nu]
    return encode((labels - labels[:, :1]) % k + 1, k) // k


def reference_joint(table1, table2, nu):
    """Joint costs over slice tables, in table1's order."""
    idx = np.arange(table1.costs.size)
    return table1.costs + table2.costs[slice_pushed(idx, nu, table1.n, table1.k)]


def reference_full_joint(ref1, ref2, nu):
    idx = np.arange(ref1.costs.size)
    return ref1.costs + ref2.costs[full_pushed(idx, nu, ref1.n, ref1.k)]


def reference_intersection(table1, table2, nu, gamma):
    """Intersection count over slice tables: k per slice member."""
    sel = np.flatnonzero(table1.costs <= table1.r_min + gamma + GAMMA_SLACK)
    pushed = slice_pushed(sel, nu, table1.n, table1.k)
    return table1.k * int((table2.costs[pushed] <= table2.r_min + gamma + GAMMA_SLACK).sum())


def reference_full_intersection(ref1, ref2, nu, gamma):
    sel = np.flatnonzero(ref1.costs <= ref1.r_min + gamma + GAMMA_SLACK)
    pushed = full_pushed(sel, nu, ref1.n, ref1.k)
    return int((ref2.costs[pushed] <= ref2.r_min + gamma + GAMMA_SLACK).sum())


@st.composite
def instances(draw):
    """(cost1, cost2, nu, integral, scale) for n = 1..9 and k = 1..4, with k^n
    small enough for the reference. Integral data make every cost exact in
    both paths, so ties (duplicate points, relabelings) are exact too."""
    n = draw(st.integers(1, 9))
    k = draw(st.integers(1, 4))
    assume(k**n <= 20_000)
    integral = draw(st.booleans())
    family = draw(st.sampled_from(["kmeans", "pairwise"]))
    if integral:
        value = st.integers(-3, 3).map(float)
    else:
        value = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)

    def sample():
        if family == "kmeans":
            d = draw(st.integers(1, 3))
            x = np.array(draw(st.lists(st.lists(value, min_size=d, max_size=d),
                                       min_size=n, max_size=n)))
            return KMeansCost(Dataset.from_vectors(x), k), float((x**2).sum())
        upper = np.triu(np.abs(np.array(draw(st.lists(
            st.lists(value, min_size=n, max_size=n), min_size=n, max_size=n)))), 1)
        dis = upper + upper.T
        return PairwiseCost(Dataset.from_dissimilarities(dis), k), float(dis.sum())

    (cost1, s1), (cost2, s2) = sample(), sample()
    nu = np.array(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
    return cost1, cost2, nu, integral, 1.0 + s1 + s2


class TestSplitHalfAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(inst=instances())
    def test_tables_match_reference(self, inst):
        cost1, cost2, nu, integral, scale = inst
        for cost in (cost1, cost2):
            new, ref = enumerate_costs(cost)[0], reference_table(cost)
            k = cost.k
            assert np.abs(new.costs - ref.costs[::k]).max() <= 1e-12 * scale
            argmin = index_of(minimizer_labels(new), k)
            assert ref.costs[argmin] <= ref.r_min + 2e-12 * scale
            if integral:
                # exact arithmetic: the slice is every k-th entry
                assert np.array_equal(new.costs, ref.costs[::k])
                if k <= 2:  # at k >= 3 relabelings sum their clusters in other orders
                    assert argmin == ref.argmin_index
                for gap in np.unique(ref.costs - ref.r_min):
                    assert set_size(new, gap) == reference_size(ref, gap)

    @settings(max_examples=150, deadline=None)
    @given(inst=instances())
    def test_joint_and_intersection_match_decoded_pushforward(self, inst):
        cost1, cost2, nu, _, _ = inst
        t1, t2 = enumerate_costs(cost1, cost2)
        corr = Correspondence(nu=nu, n=cost1.n)
        joint = joint_cost_table([t1], [t2], [corr])[0]
        assert np.array_equal(joint.costs, reference_joint(t1, t2, nu))
        assert joint.r_min == joint.costs.min()
        # gamma exactly at cost gaps puts members on the GAMMA_SLACK boundary
        gaps = np.unique(np.concatenate([t1.costs - t1.r_min, t2.costs - t2.r_min]))
        for gamma in (*gaps[:6], *gaps[-2:]):
            assert decoded_intersection(t1, t2, corr, gamma) == \
                reference_intersection(t1, t2, nu, gamma)

    def test_k_above_n_and_single_object(self):
        for n, k in ((1, 1), (1, 3), (2, 4), (3, 4)):
            x = vecs(*[[float(i)] for i in range(n)])
            cost = KMeansCost(x, k)
            assert np.array_equal(enumerate_costs(cost)[0].costs, reference_table(cost).costs[::k])

    def test_blocks_tile_large_halves(self, monkeypatch):
        # halves wider than one block exercise the tiling along both axes
        import ascoding.exact as ex

        monkeypatch.setattr(ex, "_BLOCK", 8)
        monkeypatch.setattr(ex, "_TILE", 8)
        x1, x2, _ = draw_paired_samples(MixtureSpec(n=9, d=2, k_true=2, noise_sigma=1.0,
                                                    separation=3.0, seed=5))
        for cost in (KMeansCost(x1, 3), PairwiseCost(dissimilarity_from_vectors(x1), 2)):
            ref = reference_table(cost).costs[:: cost.k]
            assert np.abs(enumerate_costs(cost)[0].costs - ref).max() < 1e-9
        t1, t2 = enumerate_costs(KMeansCost(x1, 2), KMeansCost(x2, 2))
        corr = build_correspondence(x1, x2)
        assert np.array_equal(joint_cost_table([t1], [t2], [corr])[0].costs,
                              reference_joint(t1, t2, corr.nu))
        assert decoded_intersection(t1, t2, corr, 3.0) == \
            reference_intersection(t1, t2, corr.nu, 3.0)
        for beta in (0.0, 0.7):
            assert mean_cost(t1, beta) == pytest.approx(
                float((t1.costs * np.exp(-beta * t1.costs)).sum()
                      / np.exp(-beta * t1.costs).sum()), rel=1e-12)


# ---------------------------------------------------------------------------
# slice tables (object 0 in cluster 1) against the full-table reference
# ---------------------------------------------------------------------------

def reference_moments(costs, beta):
    """(log Z, mean excess, variance) by direct summation over a full table."""
    r_min = costs.min()
    w = np.exp(-beta * (costs - r_min))
    z = w.sum()
    gamma = float((w * (costs - r_min)).sum() / z)
    return float(-beta * r_min + np.log(z)), gamma, float((w * (costs - r_min - gamma) ** 2).sum() / z)


class TestCanonicalSliceAgainstFull:
    @settings(max_examples=150, deadline=None)
    @given(inst=instances(), beta_unit=st.sampled_from([0.0, 0.05, 0.4, 3.0]))
    def test_engine_matches_full_tables(self, inst, beta_unit):
        cost1, cost2, nu, integral, scale = inst
        n, k = cost1.n, cost1.k
        eng = ExactTables.enumerate(cost1, cost2, Correspondence(nu=nu, n=n))
        ref1, ref2 = reference_table(cost1), reference_table(cost2)
        joint = reference_full_joint(ref1, ref2, nu)
        assert eng.table1.costs.size == eng.joint.costs.size == k ** (n - 1)
        assert np.abs(eng.joint.costs - joint[::k]).max() <= 1e-12 * scale
        if integral:  # same arithmetic: the slice is every k-th entry
            assert np.array_equal(eng.table1.costs, ref1.costs[::k])
        argmin = index_of(eng.minimizer.labels, k)
        assert ref1.costs[argmin] <= ref1.r_min + 2e-12 * scale
        beta = beta_unit * 10.0 / scale
        lz1, gamma, var = reference_moments(ref1.costs, beta)
        (pt,) = exact_points([eng], [beta], "multinomial")
        if integral:
            ref_type = type_distribution(Assignment(ref1.minimizer, k))
            assert pt.log_nsigma == log_type_class_size(ref_type)
            if k <= 2:  # at k >= 3 relabelings sum their clusters in other orders
                assert argmin == ref1.argmin_index
        # costs agree to 1e-12 * scale, which moves log Z by beta times that
        for got, want in ((pt.log_z1, lz1), (pt.log_z2, reference_moments(ref2.costs, beta)[0]),
                          (pt.log_dz, reference_moments(joint, beta)[0])):
            assert abs(got - want) <= 1e-12 * (abs(want) + beta * scale)
        assert abs(pt.gamma - gamma) <= 1e-12 * scale
        assert abs(moments(eng.table1, beta)[2] - var) <= 1e-12 * scale**2

    @settings(max_examples=100, deadline=None)
    @given(inst=instances())
    def test_counts_on_the_slice_match_full_tables(self, inst):
        cost1, cost2, nu, integral, _ = inst
        assume(integral)
        corr = Correspondence(nu=nu, n=cost1.n)
        full1, full2 = reference_table(cost1), reference_table(cost2)
        can1, can2 = enumerate_costs(cost1, cost2)
        gaps = np.unique(np.concatenate([full1.costs - full1.r_min, full2.costs - full2.r_min]))
        for gamma in (*gaps[:6], *gaps[-2:]):
            assert set_size(can1, gamma) == reference_size(full1, gamma)
            assert decoded_intersection(can1, can2, corr, gamma) == \
                reference_full_intersection(full1, full2, nu, gamma)

    @pytest.mark.parametrize("n, k", [(1, 1), (1, 3), (2, 4), (3, 4), (4, 2)])
    def test_k_above_n_and_tied_partitions(self, n, k):
        # every point at 0 ties all partitions: the slice keeps the lowest
        # full index, the all-ones labeling
        for x in (vecs(*[[float(i)] for i in range(n)]), vecs(*[[0.0]] * n)):
            full = reference_table(KMeansCost(x, k))
            (can,) = enumerate_costs(KMeansCost(x, k))
            assert np.array_equal(can.costs, full.costs[::k])
            assert index_of(minimizer_labels(can), k) == full.argmin_index
            assert can.k * can.costs.size == full.costs.size


# ---------------------------------------------------------------------------
# stacked passes and lock-step calibration against one table's loop
# ---------------------------------------------------------------------------

def one_table_sums(table, beta, order):
    """[sum_c w(c) x(c)^j for j = 0..order] by one table's loop: 1-D chunks
    of _BLOCK entries, each chunk's sums added to a running total."""
    sums = [0.0] * (order + 1)
    for start in range(0, table.costs.size, ex._BLOCK):
        x = table.costs[start : start + ex._BLOCK] - table.r_min
        w = np.exp(x * -beta)
        sums[0] += w.sum()
        for j in range(1, order + 1):
            w = w * x
            sums[j] += w.sum()
    return sums


def one_table_moments(table, beta):
    """(log Z, mean excess, variance) from one_table_sums; log Z is exactly
    n log k at beta = 0."""
    z, m1, m2 = one_table_sums(table, beta, 2)
    excess = float(m1 / z)
    log_z = (table.n * float(np.log(table.k)) if beta == 0.0
             else float(-beta * table.r_min + np.log(z)) + float(np.log(table.k)))
    return log_z, excess, float(m2 / z) - excess * excess


def one_table_beta(table, target):
    """The beta calibration as one table's sequential loop: double or halve
    beta from 1 until the mean excess crosses the target, then safeguarded
    Newton steps in log beta, bisecting when a step leaves the bracket or
    does not halve, and stretching a converged step from below."""
    span = one_table_moments(table, 0.0)[1]
    target = max(target, COST_RESOLUTION * (abs(table.r_min) + span))
    if target >= span:
        return 0.0
    tol = ex._NEWTON_TOL
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        beta = prev = 1.0
        _, gamma, var = one_table_moments(table, beta)
        above = gamma > target
        while (gamma > target) == above:
            prev, beta = beta, beta * (2.0 if above else 0.5)
            _, gamma, var = one_table_moments(table, beta)
        lo, hi = sorted((prev, beta))
        step = step_old = hi - lo
        stretch = tol
        while True:
            newton = beta * float(np.exp(np.divide(gamma - target, beta * var)))
            if abs(newton - beta) < tol * beta:
                if gamma <= target:
                    return beta
                newton, stretch = beta * (1.0 + stretch), 2.0 * stretch
            elif not (lo < newton < hi and abs(newton - beta) <= 0.5 * abs(step_old)):
                newton = 0.5 * (lo + hi)
            if not lo < newton < hi:
                return hi
            step_old, step = step, newton - beta
            beta = newton
            _, gamma, var = one_table_moments(table, beta)
            if gamma > target:
                lo = beta
            else:
                hi = beta


def random_tables(rng, n, k, count):
    return [CostTable.from_costs(rng.normal(5.0, 2.0, k ** (n - 1)), n, k)
            for _ in range(count)]


def pair_tables(family, k, n, sigma, seeds, sep=6.0, k_true=2, d=2):
    """ExactTables of the paired draws of simulate's trials `seeds`."""
    out = []
    for seed in seeds:
        spec = MixtureSpec(n=n, d=d, k_true=k_true, noise_sigma=sigma, separation=sep,
                           seed=seed, balanced=n % k_true == 0)
        x1, x2, _ = draw_paired_samples(spec)
        cost = KMeansCost if family == "kmeans" else (
            lambda x, k: PairwiseCost(dissimilarity_from_vectors(x), k))
        out.append(ExactTables.enumerate(cost(x1, k), cost(x2, k), build_correspondence(x1, x2)))
    return out


class TestStackedPasses:
    @pytest.mark.parametrize("n, k, block", [
        (1, 2, None), (3, 2, None), (8, 2, None), (6, 3, None), (3, 4, None),
        (14, 2, None), (16, 2, None),  # 4 rows and 1 row per call
        (8, 2, 48), (6, 2, 48),  # rows longer than a block; a part-filled last group
    ])
    def test_rows_equal_one_table_passes(self, monkeypatch, n, k, block):
        if block is not None:
            monkeypatch.setattr(ex, "_BLOCK", block)
        rng = np.random.default_rng(n * 10 + k)
        tables = random_tables(rng, n, k, 3)
        tables[1] = CostTable.from_costs(np.full(k ** (n - 1), 2.5), n, k)  # flat
        betas = [0.0, 1e-3, 0.4, 3.0, 1e3]
        stack = [t for t in tables for _ in betas] + tables[:1]
        beta_of = betas * len(tables) + [0.7]
        log_z, excess, var = stacked_moments(stack, beta_of)
        log_z0 = stacked_log_partition(stack, beta_of)
        for i, (t, beta) in enumerate(zip(stack, beta_of)):
            want = one_table_moments(t, beta)
            assert (log_z[i], excess[i], var[i]) == want
            assert log_z0[i] == want[0]
            assert moments(t, beta) == want
            assert log_partition(t, beta) == want[0]

    @pytest.mark.parametrize("bad", [math.nan, -1.0, math.inf])
    def test_bad_beta_in_a_stack_rejected_before_any_pass(self, monkeypatch, bad):
        tables = random_tables(np.random.default_rng(0), 6, 2, 5)
        betas = [0.5, 1.0, bad, 2.0, 0.0]

        def no_pass(*args, **kwargs):
            raise AssertionError("a pass ran")

        monkeypatch.setattr(np, "exp", no_pass)
        for evaluate in (stacked_moments, stacked_log_partition):
            with pytest.raises(ValueError, match="beta"):
                evaluate(tables, betas)


class TestLockStepCalibration:
    @staticmethod
    def targets(tables):
        """Per ExactTables: gamma = 0 and a target below the resolution
        floor, targets inside the span, the span itself, past it, and inf."""
        out = []
        for t in tables:
            span = one_table_moments(t.table1, 0.0)[1]
            out.append([0.0, 1e-20, 1e-3 * span, 0.3 * span, 0.9 * span, span, 2 * span,
                        math.inf])
        return out

    @pytest.mark.parametrize("case", ["kmeans", "duplicates-and-flat", "k-above-n",
                                      "pairwise-k3"])
    def test_lock_step_equals_each_target_alone(self, case):
        if case == "kmeans":
            tables = pair_tables("kmeans", 2, 8, 1.0, [derive_seed(0, t, 0) for t in range(4)])
        elif case == "duplicates-and-flat":
            # sigma = 0: duplicate points, so costs tie; sep = 0 as well: a
            # flat table, span 0 and beta 0 at every target
            tables = pair_tables("kmeans", 2, 8, 0.0, [1, 2])
            tables += pair_tables("kmeans", 2, 8, 0.0, [3], sep=0.0)
            assert np.ptp(tables[-1].table1.costs) == 0.0
        elif case == "k-above-n":
            tables = pair_tables("kmeans", 4, 3, 1.0, [1, 2, 3], k_true=1)
        else:  # tied minima and rounding-level near-ties at k = 3
            tables = pair_tables("pairwise", 3, 6, 1.0, [derive_seed(4, 4, 0)])
            tables += pair_tables("pairwise", 3, 6, 1.0, [derive_seed(0, t, 0) for t in (1, 2)])
        targets = self.targets(tables)
        # repeated ExactTables stack once; the same targets recur
        stack = [t for t, ts in zip(tables, targets) for _ in ts] + tables[:1]
        wanted = [g for ts in targets for g in ts] + targets[0][:1]
        got = calibrate_betas(stack, wanted)
        assert got == [one_table_beta(t.table1, g) for t, g in zip(stack, wanted)]
        assert got == [calibrate_betas([t], [g])[0] for t, g in zip(stack, wanted)]
        assert [t.span for t in tables] == [one_table_moments(t.table1, 0.0)[1] for t in tables]
        if case == "duplicates-and-flat":
            assert tables[-1].span == 0.0 and set(got[-len(targets[-1]) - 1 : -1]) == {0.0}
        spans = np.array([t.span for t in stack])
        assert all(b == 0.0 for b, g, s in zip(got, wanted, spans) if g >= s)

    def test_auto_grid_calibrates_its_ends_together(self):
        (tables,) = pair_tables("kmeans", 2, 8, 1.0, [7])
        span = one_table_moments(tables.table1, 0.0)[1]
        grid = tables.auto_grid(5)
        assert grid == (0.0, *np.geomspace(one_table_beta(tables.table1, 0.9 * span),
                                           one_table_beta(tables.table1, 1e-3 * span), 4))

    def test_no_finite_beta_names_the_data_scale(self):
        # subnormal costs: beta doubles to inf before the mean excess leaves
        # the span, and the search says so before inf reaches a pass
        table = CostTable.from_costs(np.array([0.0, 1e-310, 3e-310, 4e-310]), 3, 2)
        (tables,) = ExactTables.stack([table], [table], [Correspondence(nu=np.arange(3), n=3)])
        with pytest.raises(ValueError, match="data's scale underflows"):
            calibrate_betas([tables], [0.5 * tables.span])

    def test_bad_target_rejected_before_any_pass(self, monkeypatch):
        tables = pair_tables("kmeans", 2, 6, 1.0, [1, 2])

        def no_pass(*args, **kwargs):
            raise AssertionError("a pass ran")

        monkeypatch.setattr(ex, "_boltzmann_sums", no_pass)
        for bad in (math.nan, -0.5):
            with pytest.raises(ValueError, match="gamma"):
                calibrate_betas(tables * 2, [1.0, 0.5, bad, 2.0])


# ---------------------------------------------------------------------------
# stacked set-up: enumeration, joint tables and minimizers against a loop
# over single tables
# ---------------------------------------------------------------------------

def trial_costs(family, k, n, trials, sigma=1.0, sep=6.0, d=2, k_true=2):
    """Training and test costs of simulate's paired draws for `trials`."""
    out = []
    for t in trials:
        spec = MixtureSpec(n=n, d=d, k_true=k_true, noise_sigma=sigma, separation=sep,
                           seed=derive_seed(0, t, 0), balanced=n % k_true == 0)
        x1, x2, _ = draw_paired_samples(spec)
        if family == "pairwise":
            x1, x2 = dissimilarity_from_vectors(x1), dissimilarity_from_vectors(x2)
        cost = KMeansCost if family == "kmeans" else PairwiseCost
        out.append((cost(x1, k), cost(x2, k)))
    return out


def tie_stack(family, k, n):
    """Costs whose tables tie: random draws, duplicate points (sigma = 0)
    and a flat table (sigma = 0 and sep = 0, every point equal)."""
    costs = [c for pair in trial_costs(family, k, n, range(3)) for c in pair]
    costs += [c for pair in trial_costs(family, k, n, [3], sigma=0.0) for c in pair]
    costs += [trial_costs(family, k, n, [4], sigma=0.0, sep=0.0)[0][0]]
    return costs


class TestStackedSetUp:
    @pytest.mark.parametrize("family", ["kmeans", "pairwise"])
    @pytest.mark.parametrize("k, n, tile", [
        (2, 8, None), (3, 6, None),
        (2, 8, 512),  # four 128-entry tables per numpy call: a stack over three calls
        (3, 6, 64),  # 243-entry tables, each built alone in tiles
    ])
    def test_enumeration_equals_each_cost_alone(self, monkeypatch, family, k, n, tile):
        if tile is not None:
            monkeypatch.setattr(ex, "_TILE", tile)
        costs = tie_stack(family, k, n)
        stacked = enumerate_costs(*costs)
        assert np.ptp(stacked[-1].costs) == 0.0  # the flat table
        for cost, table in zip(costs, stacked):
            (alone,) = enumerate_costs(cost)
            assert np.array_equal(table.costs, alone.costs)
            assert table.r_min == alone.r_min
            assert np.abs(alone.costs - reference_table(cost).costs[::k]).max() < 1e-9

    def test_enumeration_stacks_each_data_shape_apart(self):
        # costs of two families and two dimensions in one call: each family
        # and shape stacks on its own, and the tables keep the call's order
        x3 = draw_paired_samples(MixtureSpec(n=6, d=3, k_true=2, noise_sigma=1.0,
                                             separation=6.0, seed=1))[0]
        costs = [*trial_costs("kmeans", 2, 6, [0])[0], KMeansCost(x3, 2),
                 *trial_costs("pairwise", 2, 6, [1])[0]]
        for cost, table in zip(costs, enumerate_costs(*costs)):
            assert np.array_equal(table.costs, enumerate_costs(cost)[0].costs)

    @pytest.mark.parametrize("k, n, tile", [(2, 8, None), (3, 6, None), (2, 9, None),
                                            (2, 8, 32), (3, 6, 16)])
    def test_joint_tables_equal_each_pair_alone(self, monkeypatch, k, n, tile):
        # random correspondences put the anchor nu[0] in either half
        if tile is not None:
            monkeypatch.setattr(ex, "_TILE", tile)
        pairs = trial_costs("kmeans", k, n, range(6))
        tables = enumerate_costs(*(c for pair in pairs for c in pair))
        tables1, tables2 = tables[::2], tables[1::2]
        rng = np.random.default_rng(n * 10 + k)
        corrs = [Correspondence(nu=rng.integers(0, n, n), n=n) for _ in pairs]
        corrs[0] = Correspondence(nu=np.r_[n - 1, rng.integers(0, n, n - 1)], n=n)
        corrs[1] = Correspondence(nu=np.r_[0, rng.integers(0, n, n - 1)], n=n)
        assert {int(c.nu[0]) < n // 2 for c in corrs} == {True, False}
        joints = joint_cost_table(tables1, tables2, corrs)
        for t1, t2, corr, joint in zip(tables1, tables2, corrs, joints):
            (alone,) = joint_cost_table([t1], [t2], [corr])
            assert np.array_equal(joint.costs, alone.costs) and joint.r_min == alone.r_min
            assert np.array_equal(joint.costs, reference_joint(t1, t2, corr.nu))

    @pytest.mark.parametrize("family, k, n", [("kmeans", 2, 8), ("pairwise", 2, 8),
                                              ("kmeans", 3, 6), ("pairwise", 3, 6)])
    @pytest.mark.parametrize("block", [None, 8])  # the group's ties in several chunks
    def test_minimizers_equal_each_table_alone(self, monkeypatch, family, k, n, block):
        if block is not None:
            monkeypatch.setattr(ex, "_BLOCK", block)
        costs = tie_stack(family, k, n)
        calls = []
        orbits = ex._lowest_in_orbit

        def counted(indices, *args):
            calls.append(indices.size)
            return orbits(indices, *args)

        monkeypatch.setattr(ex, "_lowest_in_orbit", counted)
        tables = enumerate_costs(*costs)
        corrs = [Correspondence(nu=np.arange(n), n=n)] * len(tables)
        sets = ExactTables.stack(tables, tables[::-1], corrs)
        ties = [int((t.costs == t.r_min).sum()) for t in tables]
        assert max(ties) > 1  # tied minima beyond the relabelings the slice removes
        assert calls == ([sum(ties)] if block is None else
                         [min(block, sum(ties) - i) for i in range(0, sum(ties), block)])
        for cost, table2, tables_ in zip(costs, tables[::-1], sets):
            (alone,) = enumerate_costs(cost)  # a fresh table, its set built alone
            (one,) = ExactTables.stack([alone], [table2], corrs[:1])
            tied = np.flatnonzero(alone.costs == alone.r_min) * k
            lowest = int(min(orbits(tied[i : i + 8], n, k).min() for i in range(0, tied.size, 8)))
            assert index_of(tables_.minimizer.labels, k) == index_of(one.minimizer.labels, k) \
                == lowest
            assert tables_.span == one.span
        assert ExactTables.stack([], [], []) == []
        with pytest.raises(dataclasses.FrozenInstanceError):
            sets[0].span = 0.0

    def test_budget_error_before_any_stacked_work(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("stacked work ran")

        monkeypatch.setattr(KMeansCost, "_halves", no_work)
        monkeypatch.setattr(ex, "_half_labels", no_work)
        costs = [c for pair in trial_costs("kmeans", 2, 8, range(3)) for c in pair]
        with pytest.raises(BudgetError):
            enumerate_costs(*costs, budget=2**8 - 1)
        with pytest.raises(ValueError, match="share n and k"):
            enumerate_costs(*costs, KMeansCost(vecs([0.0], [1.0]), 2))
