import math

import numpy as np
import pytest

from ascoding.core import Dataset, Kind
from ascoding.datagen import (
    MixtureSpec,
    dissimilarity_from_vectors,
    draw_independent_samples,
    draw_paired_samples,
    load_dataset_csv,
    save_dataset_csv,
    save_labels_csv,
    simplex_centers,
)
from ascoding.errors import ParseError


def spec(**kw):
    base = dict(n=12, d=3, k_true=3, noise_sigma=0.5, separation=6.0, seed=0)
    base.update(kw)
    return MixtureSpec(**base)


class TestMixtureSpec:
    def test_simplex_centers_pairwise_distance(self):
        c = simplex_centers(4, 5, 3.5)
        for i in range(4):
            for j in range(i + 1, 4):
                assert np.linalg.norm(c[i] - c[j]) == pytest.approx(3.5, rel=1e-12)

    def test_simplex_needs_enough_dimensions(self):
        with pytest.raises(ValueError, match="d >= k_true"):
            simplex_centers(3, 2, 1.0)

    def test_equal_specs_compare_and_hash_equal(self):
        # the centers derive from the other fields and take no part in ==
        assert spec() == spec() and hash(spec()) == hash(spec())
        assert spec() != spec(seed=1)

    def test_balanced_requires_divisibility(self):
        with pytest.raises(ValueError, match="divide"):
            spec(n=10, balanced=True)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            spec(noise_sigma=-1.0)


class TestPairedSamples:
    def test_zero_noise_identical_samples(self):
        x1, x2, _ = draw_paired_samples(spec(noise_sigma=0.0))
        assert np.array_equal(x1.vectors, x2.vectors)

    def test_single_component(self):
        x1, _, labels = draw_paired_samples(spec(k_true=1, separation=None))
        assert set(labels.labels.tolist()) == {1}

    def test_deterministic(self):
        a = draw_paired_samples(spec())
        b = draw_paired_samples(spec())
        assert np.array_equal(a[0].vectors, b[0].vectors)
        assert np.array_equal(a[1].vectors, b[1].vectors)
        assert np.array_equal(a[2].labels, b[2].labels)

    def test_balanced_occupancy(self):
        _, _, labels = draw_paired_samples(spec(balanced=True))
        assert np.bincount(labels.labels)[1:].tolist() == [4, 4, 4]

    def test_pairing_distance_scales_with_noise(self):
        # E||X1_i - X2_i|| is the mean of a chi distribution scaled by
        # sigma * sqrt(2); check within 10% over 1e4 objects
        s = spec(n=10_000, d=3, noise_sigma=0.7)
        x1, x2, _ = draw_paired_samples(s)
        observed = np.linalg.norm(x1.vectors - x2.vectors, axis=1).mean()
        expected = 0.7 * np.sqrt(2.0) * 2 * math.sqrt(2 / math.pi)  # chi(3) mean
        assert abs(observed - expected) / expected < 0.10


class TestIndependentSamples:
    def test_first_sample_matches_paired_mode(self):
        s = spec()
        paired_x1 = draw_paired_samples(s)[0]
        indep_x1, indep_x2, _, _ = draw_independent_samples(s)
        assert np.array_equal(paired_x1.vectors, indep_x1.vectors)
        assert not np.array_equal(indep_x1.vectors, indep_x2.vectors)

    def test_zero_noise_single_component_degenerate(self):
        s = spec(k_true=1, separation=None, noise_sigma=0.0)
        x1, x2, _, _ = draw_independent_samples(s)
        assert np.array_equal(x1.vectors, x2.vectors)

    def test_sample_means_agree(self):
        s = spec(n=4000, noise_sigma=1.0)
        x1, x2, _, _ = draw_independent_samples(s)
        per_coord_sigma = x1.vectors.std(axis=0)
        gap = np.abs(x1.vectors.mean(axis=0) - x2.vectors.mean(axis=0))
        assert np.all(gap <= 4 * per_coord_sigma * np.sqrt(2.0 / 4000))


class TestDissimilarity:
    def test_single_point(self):
        d = dissimilarity_from_vectors(Dataset.from_vectors([[3.0]]))
        assert d.kind is Kind.DISSIMILARITIES and d.dissim[0, 0] == 0.0

    def test_two_points(self):
        d = dissimilarity_from_vectors(Dataset.from_vectors([[0.0], [2.0]]))
        assert d.dissim[0, 1] == 4.0

    def test_rotation_invariance(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(10, 4))
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        d1 = dissimilarity_from_vectors(Dataset.from_vectors(x)).dissim
        d2 = dissimilarity_from_vectors(Dataset.from_vectors(x @ q)).dissim
        assert np.allclose(d1, d2, atol=1e-9)

    def test_symmetry_and_zero_diagonal(self):
        x = Dataset.from_vectors(np.random.default_rng(9).normal(size=(7, 2)))
        d = dissimilarity_from_vectors(x).dissim
        assert np.array_equal(d, d.T)
        assert np.all(np.diagonal(d) == 0.0)


class TestCsvRoundTrips:
    def test_vectors(self, tmp_path):
        x1, _, _ = draw_paired_samples(spec())
        path = tmp_path / "data.csv"
        save_dataset_csv(x1, path)
        loaded = load_dataset_csv(path)
        assert loaded.kind is Kind.VECTORS
        assert np.array_equal(loaded.vectors, x1.vectors)

    def test_dissimilarities(self, tmp_path):
        d = dissimilarity_from_vectors(draw_paired_samples(spec())[0])
        path = tmp_path / "dissim.csv"
        save_dataset_csv(d, path)
        loaded = load_dataset_csv(path)
        assert loaded.kind is Kind.DISSIMILARITIES
        assert np.array_equal(loaded.dissim, d.dissim)

    def test_labels(self, tmp_path):
        _, _, labels = draw_paired_samples(spec())
        path = tmp_path / "labels.csv"
        save_labels_csv(labels, path)
        header, *rows = path.read_text().splitlines()
        assert header == f"{labels.n},labels,{labels.k}"
        assert np.array_equal([int(v) for v in rows], labels.labels)

    def test_parse_errors_carry_line_numbers(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("2,1\n0.5\nnot-a-number\n")
        with pytest.raises(ParseError) as e:
            load_dataset_csv(bad)
        assert e.value.line == 3

    @pytest.mark.parametrize("text", ["3,2\n0.5,1\n1,nan\n2,2\n", "3,dissim\n0,1,1\n1,0,inf\n1,inf,0\n"])
    def test_non_finite_field_carries_line_number(self, tmp_path, text):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        with pytest.raises(ParseError, match="non-finite") as e:
            load_dataset_csv(bad)
        assert e.value.line == 3

    def test_row_count_mismatch(self, tmp_path):
        bad = tmp_path / "short.csv"
        bad.write_text("3,1\n0.5\n")
        with pytest.raises(ParseError, match="data rows"):
            load_dataset_csv(bad)
