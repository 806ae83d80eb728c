import math
from decimal import Context, Decimal

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ascoding.core import (
    Assignment,
    Correspondence,
    CorrespondenceRequiredError,
    Dataset,
    TypeDistribution,
    build_correspondence,
    log_type_class_size,
    type_distribution,
    type_entropy,
)
from ascoding.exact import pushforward_weights


def vecs(*rows):
    return Dataset.from_vectors(np.array(rows, dtype=float))


class TestDataset:
    def test_vector_roundtrip(self):
        d = vecs([0.0, 1.0], [2.0, 3.0])
        assert d.n == 2 and d.d == 2

    def test_dissim_validation(self):
        with pytest.raises(ValueError, match="symmetric"):
            Dataset.from_dissimilarities([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="diagonal"):
            Dataset.from_dissimilarities([[1.0, 2.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="nonnegative"):
            Dataset.from_dissimilarities([[0.0, -1.0], [-1.0, 0.0]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            vecs([0.0, 1.0], [bad, 3.0])
        # a NaN is not equal to itself, so without the finiteness check it
        # would be reported as an asymmetry
        with pytest.raises(ValueError, match="finite"):
            Dataset.from_dissimilarities([[0.0, bad], [bad, 0.0]])

    def test_immutable(self):
        d = vecs([0.0], [1.0])
        with pytest.raises(ValueError):
            d.vectors[0, 0] = 5.0


class TestCorrespondence:
    def test_identity_for_identical_distinct_vectors(self):
        d = vecs([0.0], [3.0], [7.0])
        corr = build_correspondence(d, d)
        assert np.array_equal(corr.nu, [0, 1, 2])

    def test_nearest_neighbor(self):
        train = vecs([0.0], [10.0])
        test = vecs([9.0], [1.0])
        assert np.array_equal(build_correspondence(train, test).nu, [1, 0])

    def test_tie_breaks_to_lowest_index(self):
        train = vecs([1.0], [1.0], [5.0])  # duplicate training points
        test = vecs([1.0], [1.0], [5.0])
        assert np.array_equal(build_correspondence(train, test).nu, [0, 0, 2])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            build_correspondence(vecs([0.0, 0.0]), vecs([0.0]))

    def test_dissim_requires_explicit_correspondence(self):
        d = Dataset.from_dissimilarities([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(CorrespondenceRequiredError, match="correspondence required"):
            build_correspondence(d, d)

    def test_invalid_indices_rejected(self):
        with pytest.raises(ValueError):
            Correspondence(nu=np.array([0, 5]), n=2)


def pushed_index(labels, nu, k):
    """Table index of the push-forward of `labels`, from exact's weights."""
    return (labels - 1) @ pushforward_weights(nu, k)


def encode(labels, k):
    return (labels - 1) @ k ** np.arange(len(labels))


class TestPushforward:
    """Test object i inherits the label of training object nu[i]."""

    def test_identity(self):
        c = np.array([1, 2, 2])
        assert pushed_index(c, np.arange(3), 2) == encode(c, 2)

    def test_swap(self):
        c = np.array([1, 2])
        assert pushed_index(c, np.array([1, 0]), 2) == encode(np.array([2, 1]), 2)

    def test_non_injective(self):
        c = np.array([1, 2])
        assert pushed_index(c, np.array([0, 0]), 2) == encode(np.array([1, 1]), 2)

    @given(st.integers(2, 6), st.data())
    def test_functorial_composition(self, n, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
        c = rng.integers(1, 4, n)
        nu1 = rng.integers(0, n, n)
        nu2 = rng.integers(0, n, n)
        assert pushed_index(c, nu1[nu2], 3) == pushed_index(c[nu1], nu2, 3) == encode(c[nu1][nu2], 3)


class TestTypes:
    @pytest.mark.parametrize("labels,k,p", [
        ([1, 2, 1, 2], 2, [0.5, 0.5]),
        ([1, 1, 1], 2, [1.0, 0.0]),
        ([1, 2, 2, 2], 2, [0.25, 0.75]),
    ])
    def test_type_distribution(self, labels, k, p):
        t = type_distribution(Assignment(np.array(labels), k))
        assert np.allclose(t.p, p)
        assert t.counts.sum() == len(labels)

    @pytest.mark.parametrize("p,h", [
        ([0.5, 0.5], math.log(2)),
        ([1.0, 0.0], 0.0),
        ([0.25, 0.75], 0.5623351446188083),
    ])
    def test_type_entropy(self, p, h):
        counts = (np.array(p) * 4).astype(int)
        t = TypeDistribution(counts=counts, p=np.array(p))
        assert type_entropy(t) == pytest.approx(h, abs=1e-12)

    @given(st.lists(st.integers(0, 50), min_size=2, max_size=6).filter(lambda c: sum(c) > 0))
    def test_entropy_bounded_by_log_k(self, counts):
        counts = np.array(counts)
        t = TypeDistribution(counts=counts, p=counts / counts.sum())
        h = type_entropy(t)
        assert -1e-12 <= h <= math.log(len(counts)) + 1e-12

    def test_entropy_max_iff_uniform(self):
        t = TypeDistribution(counts=np.array([5, 5, 5]), p=np.full(3, 1 / 3))
        assert type_entropy(t) == pytest.approx(math.log(3), abs=1e-12)

    @pytest.mark.parametrize("counts,expected", [
        ([4, 0], 0.0),                       # single type
        ([2, 2], math.log(6)),               # C(4, 2)
        ([3, 3, 3], math.log(1680)),         # 9! / (3!)^3
    ])
    def test_log_type_class_size(self, counts, expected):
        counts = np.array(counts)
        t = TypeDistribution(counts=counts, p=counts / counts.sum())
        assert log_type_class_size(t) == pytest.approx(expected, abs=1e-9)

    @given(st.integers(1, 400), st.lists(st.integers(0, 400), max_size=4))
    def test_log_type_class_size_within_one_ulp(self, n, cuts):
        # k <= 5 counts summing to n, against a 40-digit log of the exact
        # multinomial coefficient
        edges = [0, *sorted(min(c, n) for c in cuts), n]
        counts = [b - a for a, b in zip(edges, edges[1:])]
        multinomial = math.factorial(n)
        for n_v in counts:
            multinomial //= math.factorial(n_v)
        reference = float(Decimal(multinomial).ln(Context(prec=40)))
        counts = np.array(counts)
        t = TypeDistribution(counts=counts, p=counts / n)
        assert abs(log_type_class_size(t) - reference) <= math.ulp(reference)

    def test_asymptotic_option_is_n_times_entropy(self):
        t = TypeDistribution(counts=np.array([2, 6]), p=np.array([0.25, 0.75]))
        assert log_type_class_size(t, asymptotic=True) == pytest.approx(
            8 * type_entropy(t), abs=1e-12
        )

    def test_multinomial_converges_to_entropy_rate(self):
        # balanced k=2 at n=200: (1/n) log multinomial within 5% of log 2
        t = TypeDistribution(counts=np.array([100, 100]), p=np.array([0.5, 0.5]))
        rate = log_type_class_size(t) / 200
        assert abs(rate - math.log(2)) / math.log(2) < 0.05

    def test_multinomial_never_exceeds_asymptotic(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            counts = rng.integers(0, 30, size=rng.integers(2, 5))
            if counts.sum() == 0:
                continue
            t = TypeDistribution(counts=counts, p=counts / counts.sum())
            assert log_type_class_size(t) <= log_type_class_size(t, asymptotic=True) + 1e-9
