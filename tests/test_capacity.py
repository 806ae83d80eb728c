import dataclasses
import math

import numpy as np
import pytest

from ascoding.capacity import (
    _sampled_warnings,
    CandidateScore,
    CapacityConfig,
    CapacityCurve,
    CapacityPoint,
    capacity_curve,
    exact_points,
    make_cost,
    optimal_gamma,
    select_model,
)
from ascoding.core import (
    Assignment,
    CorrespondenceRequiredError,
    Dataset,
    build_correspondence,
    type_distribution,
    type_entropy,
)
from ascoding.costs import KMeansCost
from ascoding.datagen import MixtureSpec, dissimilarity_from_vectors, draw_paired_samples
from ascoding.errors import BudgetError
from ascoding.exact import ExactTables, enumerate_costs, exact_moments
from ascoding.rng import derive_seed
from ascoding.thermo import FreeEnergyCurve


def vecs(*rows):
    return Dataset.from_vectors(np.array(rows, dtype=float))


@pytest.fixture(scope="module")
def pair_n8():
    spec = MixtureSpec(n=8, d=2, k_true=2, noise_sigma=0.8, separation=5.0, seed=1, balanced=True)
    x1, x2, _ = draw_paired_samples(spec)
    return x1, x2


@pytest.fixture(scope="module")
def exact_curve_n8(pair_n8):
    x1, x2 = pair_n8
    return capacity_curve(x1, x2, "kmeans", 2, engine="exact", cfg=CapacityConfig(grid_points=16))


class TestMakeCost:
    def test_kmeans_needs_vectors(self):
        d = Dataset.from_dissimilarities([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            make_cost("kmeans", d, 2)

    def test_pairwise_derives_dissimilarities(self):
        cost = make_cost("pairwise", vecs([0.0], [2.0]), 2)
        assert cost.name == "pairwise"
        assert cost.data.dissim[0, 1] == 4.0

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="cost family"):
            make_cost("linkage", vecs([0.0]), 1)


class TestBetaZeroIdentity:
    def test_asymptotic_info_is_entropy_minus_log_k(self, pair_n8):
        x1, x2 = pair_n8
        curve = capacity_curve(x1, x2, "kmeans", 2, engine="exact",
                               cfg=CapacityConfig(nsigma="asymptotic", beta_grid=(0.0,)))
        minimizer = enumerate_costs(KMeansCost(x1, 2)).minimizer_labels()
        h = type_entropy(type_distribution(Assignment(minimizer, 2)))
        assert curve.points[0].info == pytest.approx(h - math.log(2), abs=1e-9)

    def test_balanced_type_gives_zero(self, pair_n8):
        x1, x2 = pair_n8  # balanced blobs, well separated: minimizer type (4,4)
        curve = capacity_curve(x1, x2, "kmeans", 2, engine="exact",
                               cfg=CapacityConfig(nsigma="asymptotic", beta_grid=(0.0,)))
        assert curve.points[0].info == pytest.approx(0.0, abs=1e-9)

    def test_multinomial_no_larger_than_asymptotic(self, pair_n8):
        x1, x2 = pair_n8
        kw = dict(engine="exact", corr=None)
        a = capacity_curve(x1, x2, "kmeans", 2,
                           cfg=CapacityConfig(nsigma="asymptotic", beta_grid=(0.0, 0.5)), **kw)
        m = capacity_curve(x1, x2, "kmeans", 2,
                           cfg=CapacityConfig(nsigma="multinomial", beta_grid=(0.0, 0.5)), **kw)
        for pa, pm in zip(a.points, m.points):
            assert pm.info <= pa.info + 1e-12


class TestCurveProperties:
    def test_gamma_nonincreasing(self, exact_curve_n8):
        gammas = [p.gamma for p in exact_curve_n8.points]
        assert all(b <= a + 1e-9 for a, b in zip(gammas, gammas[1:]))

    def test_point_component_consistency(self, exact_curve_n8):
        for p in exact_curve_n8.points:
            assert p.info == pytest.approx(
                (p.log_nsigma + p.log_dz - p.log_z1 - p.log_z2) / p.n, abs=1e-9
            )

    def test_identical_samples_info_nondecreasing(self):
        spec = MixtureSpec(n=8, d=2, k_true=2, noise_sigma=0.7, separation=6.0,
                           seed=3, balanced=True)
        x1, _, _ = draw_paired_samples(spec)
        curve = capacity_curve(x1, x1, "kmeans", 2, engine="exact", cfg=CapacityConfig())
        infos = [p.info for p in curve.points]
        assert all(b >= a - 1e-12 for a, b in zip(infos, infos[1:]))

    def test_joint_bounded_by_single_sample(self, exact_curve_n8):
        for p in exact_curve_n8.points:
            assert p.log_dz <= p.log_z1 + 1e-12

    def test_info_ceiling_when_test_partition_nonnegative(self):
        # duplicated points make the test minimum cost exactly 0, so
        # logZ2 >= 0 for all beta and info <= log_nsigma / n follows from
        # logDZ <= logZ1
        x = vecs([0.0], [0.0], [5.0], [5.0])
        curve = capacity_curve(x, x, "kmeans", 2, engine="exact", cfg=CapacityConfig())
        for p in curve.points:
            assert p.log_dz <= p.log_z1 + 1e-12
            assert p.log_z2 >= -1e-12
            assert p.info <= p.log_nsigma / p.n + 1e-12

    def test_sampled_matches_exact_within_tenth_nat(self, pair_n8, exact_curve_n8):
        x1, x2 = pair_n8
        grid = tuple(p.beta for p in exact_curve_n8.points)
        sampled = capacity_curve(
            x1, x2, "kmeans", 2, engine="sampled",
            cfg=CapacityConfig(beta_grid=grid, chains=3, sweeps_burnin=40,
                               sweeps_measure=250, seed=2),
        )
        for pe, ps in zip(exact_curve_n8.points, sampled.points):
            assert abs(pe.info - ps.info) <= 0.1

    def test_sampled_ground_state_levels_have_zero_gamma(self):
        # the top levels all sit in the ground state, whose replicas report
        # costs a few ulps apart; that excess is gamma 0, not 5e-15
        spec = MixtureSpec(n=12, d=3, k_true=3, noise_sigma=0.5, separation=8.0, seed=4,
                           balanced=True)
        x1, x2, _ = draw_paired_samples(spec)
        curve = capacity_curve(x1, x2, "pairwise", 3, engine="sampled", cfg=CapacityConfig(
            chains=2, sweeps_burnin=10, sweeps_measure=20, grid_points=16, restarts=10, seed=4))
        assert [p.gamma for p in curve.points[-6:]] == [0.0] * 6

    def test_engine_auto_respects_budget(self, pair_n8):
        x1, x2 = pair_n8
        curve = capacity_curve(x1, x2, "kmeans", 2, engine="auto",
                               cfg=CapacityConfig(budget=2**20))
        assert curve.engine == "exact"
        small = capacity_curve(
            x1, x2, "kmeans", 2, engine="auto",
            cfg=CapacityConfig(budget=4, beta_grid=(0.0, 0.2), chains=2,
                               sweeps_burnin=10, sweeps_measure=30, restarts=5),
        )
        assert small.engine == "sampled"
        with pytest.raises(BudgetError):
            capacity_curve(x1, x2, "kmeans", 2, engine="exact", cfg=CapacityConfig(budget=4))

    def test_csv_roundtrip(self, exact_curve_n8, tmp_path):
        path = tmp_path / "capacity.csv"
        exact_curve_n8.write_csv(path)
        cols = np.genfromtxt(path, delimiter=",", names=True, ndmin=1)
        assert np.array_equal(cols["beta"], [p.beta for p in exact_curve_n8.points])
        assert np.array_equal(cols["info"], [p.info for p in exact_curve_n8.points])

    def test_dissimilarity_route_needs_explicit_correspondence(self, pair_n8):
        x1, x2 = pair_n8
        d1 = dissimilarity_from_vectors(x1)
        d2 = dissimilarity_from_vectors(x2)
        with pytest.raises(CorrespondenceRequiredError):
            capacity_curve(d1, d2, "pairwise", 2, engine="exact")
        corr = build_correspondence(x1, x2)
        grid = (0.0, 0.1, 0.5)
        via_dissim = capacity_curve(d1, d2, "pairwise", 2, engine="exact", corr=corr,
                                    cfg=CapacityConfig(beta_grid=grid))
        via_vectors = capacity_curve(x1, x2, "pairwise", 2, engine="exact",
                                     cfg=CapacityConfig(beta_grid=grid))
        for a, b in zip(via_dissim.points, via_vectors.points):
            assert a.info == pytest.approx(b.info, abs=1e-12)


class TestCapacityInvariances:
    """Symmetries of the exact capacity curve on an explicit beta grid."""

    CFG = CapacityConfig(beta_grid=(0.0, 0.05, 0.2, 0.8, 3.0))

    def curve(self, x1, x2, family, k):
        return capacity_curve(x1, x2, family, k, engine="exact", cfg=self.CFG)

    @pytest.mark.parametrize("family, k", [("kmeans", 2), ("pairwise", 3)])
    def test_permuting_both_samples_leaves_info_unchanged(self, pair_n8, family, k):
        x1, x2 = pair_n8
        sigma = np.random.default_rng(3).permutation(8)
        assert sigma[0] != 0  # object 0, which fixes the slice, moves
        moved = (Dataset.from_vectors(x.vectors[sigma]) for x in (x1, x2))
        # the correspondence is rebuilt from the permuted samples
        for a, b in zip(self.curve(x1, x2, family, k).points,
                        self.curve(*moved, family, k).points):
            assert abs(a.info - b.info) <= 1e-9

    @pytest.mark.parametrize("family, k", [("kmeans", 2), ("pairwise", 3)])
    def test_translating_both_samples_leaves_info_unchanged(self, pair_n8, family, k):
        x1, x2 = pair_n8
        shift = np.array([3.0, -2.0])
        moved = (Dataset.from_vectors(x.vectors + shift) for x in (x1, x2))
        for a, b in zip(self.curve(x1, x2, family, k).points,
                        self.curve(*moved, family, k).points):
            assert abs(a.info - b.info) <= 1e-9

    def test_auto_is_exact_up_to_the_budget(self, pair_n8):
        x1, x2 = pair_n8
        exact = self.curve(x1, x2, "kmeans", 2)
        at = capacity_curve(x1, x2, "kmeans", 2, engine="auto",
                            cfg=dataclasses.replace(self.CFG, budget=2**8))
        assert at.engine == "exact" and at.points == exact.points
        below = capacity_curve(x1, x2, "kmeans", 2, engine="auto", cfg=dataclasses.replace(
            self.CFG, budget=2**8 - 1, chains=1, sweeps_burnin=5, sweeps_measure=10, restarts=2))
        assert below.engine == "sampled"


class TestOptimalGamma:
    def _curve(self, infos, gammas):
        pts = tuple(
            CapacityPoint(beta=float(i), gamma=g, log_nsigma=0.0, log_z1=0.0,
                          log_z2=0.0, log_dz=4 * v, n=4)
            for i, (v, g) in enumerate(zip(infos, gammas))
        )
        return CapacityCurve(points=pts, engine="exact", cost_name="kmeans", n=4, k=2)

    def test_decreasing_info_picks_beta_zero_end(self):
        curve = self._curve([0.5, 0.4, 0.3], [3.0, 2.0, 1.0])
        gamma, beta, info = optimal_gamma(curve)
        assert (gamma, beta, info) == (3.0, 0.0, 0.5)

    def test_tie_prefers_smaller_gamma(self):
        curve = self._curve([0.5, 0.5, 0.3], [3.0, 2.0, 1.0])
        gamma, beta, info = optimal_gamma(curve)
        assert gamma == 2.0 and beta == 1.0

    def test_noise_free_ceiling_at_high_beta(self):
        spec = MixtureSpec(n=8, d=2, k_true=2, noise_sigma=0.5, separation=8.0,
                           seed=5, balanced=True)
        x1, _, _ = draw_paired_samples(spec)
        curve = capacity_curve(x1, x1, "kmeans", 2, engine="exact", cfg=CapacityConfig())
        gamma, beta, info = optimal_gamma(curve)
        assert beta == curve.points[-1].beta  # nondecreasing info: argmax at top beta

    def test_interior_argmax_against_dense_grid(self, pair_n8, exact_curve_n8):
        x1, x2 = pair_n8
        g0, b0, i0 = optimal_gamma(exact_curve_n8)
        dense = capacity_curve(x1, x2, "kmeans", 2, engine="exact",
                               cfg=CapacityConfig(grid_points=60))
        _, _, i1 = optimal_gamma(dense)
        assert i1 >= i0 - 1e-9
        assert abs(i1 - i0) <= 0.02  # grid refinement barely moves the optimum


def exact_tables(x1, x2, family, k):
    return ExactTables.enumerate(make_cost(family, x1, k), make_cost(family, x2, k),
                                 build_correspondence(x1, x2))


def point_at_gamma(tables, gamma):
    """The exact capacity point at a calibrated gamma, as the channel bound
    reads it."""
    (point,) = exact_points(tables, [tables.beta_for_gamma(gamma)], "multinomial")
    return point


class TestExactPointAtGamma:
    def test_calibration_hits_requested_gamma(self, pair_n8):
        pt = point_at_gamma(exact_tables(*pair_n8, "kmeans", 2), 5.0)
        assert pt.gamma == pytest.approx(5.0, rel=1e-6)

    def test_large_gamma_returns_beta_zero(self, pair_n8):
        pt = point_at_gamma(exact_tables(*pair_n8, "kmeans", 2), 1e9)
        assert pt.beta == 0.0

    @pytest.mark.parametrize("fraction", [0.9, 1e-3, 0.3, 0.0])
    def test_newton_matches_full_bisection(self, pair_n8, fraction):
        eng = exact_tables(*pair_n8, "kmeans", 2)

        def gamma(beta):
            return exact_moments(eng.table1, beta)[1]

        target = max(fraction * eng.span, eng.resolution)  # smaller gammas count as 0
        lo, hi = 0.0, 1.0
        while gamma(hi) > target:
            hi *= 2.0
        for _ in range(100):  # plain bisection, every pass, to float resolution
            mid = 0.5 * (lo + hi)
            if gamma(mid) > target:
                lo = mid
            else:
                hi = mid
        beta = eng.beta_for_gamma(target)
        assert beta == pytest.approx(hi, rel=1e-12, abs=0.0)
        assert gamma(beta) <= target

    def test_calibration_rejects_nan_and_negative_gamma(self, pair_n8):
        eng = exact_tables(*pair_n8, "kmeans", 2)
        for gamma in (math.nan, -1.0):
            with pytest.raises(ValueError, match="gamma"):
                eng.beta_for_gamma(gamma)

    @staticmethod
    def _tied_trial(seed, trial, separation, sigma):
        """Trial `trial` of `simulate --n 6 --k-true 2 --sep S --sigma s
        --balanced --cost pairwise --k 3 --seed seed`."""
        spec = MixtureSpec(n=6, d=2, k_true=2, noise_sigma=sigma, separation=separation,
                           seed=derive_seed(seed, trial, 0), balanced=True)
        x1, x2, _ = draw_paired_samples(spec)
        return x1, x2

    def test_gamma_zero_with_exactly_tied_minima(self):
        # six exactly tied minima, two on the canonical slice: in excess form
        # the mean cost reaches r_min exactly once the other weights underflow
        eng = exact_tables(*self._tied_trial(4, 4, 6.0, 1.0), "pairwise", 3)
        assert (eng.table1.costs == eng.table1.r_min).sum() == 6 // 3
        assert exact_moments(eng.table1, 2.0**1000)[1] == 0.0
        pt = point_at_gamma(eng, 0.0)
        assert math.isfinite(pt.beta) and math.isfinite(pt.info)
        assert 0.0 <= pt.gamma <= eng.resolution
        # gamma = 0 is defined as the resolution floor, not a beta -> inf limit
        assert eng.beta_for_gamma(0.0) == eng.beta_for_gamma(eng.resolution)

    def test_gamma_zero_with_tied_minima_at_a_large_cost_scale(self):
        # r_min = 23472.6: the tied minima's mean once rounded a few ulps,
        # more than GAMMA_SLACK, above r_min at every finite beta
        eng = exact_tables(*self._tied_trial(1, 1, 600.0, 100.0), "pairwise", 3)
        pt = point_at_gamma(eng, 0.0)
        assert math.isfinite(pt.beta) and math.isfinite(pt.info)
        assert 0.0 <= pt.gamma <= eng.resolution
        assert eng.beta_for_gamma(0.0) == eng.beta_for_gamma(eng.resolution)

    def test_gamma_zero_ignores_rounding_level_near_ties(self):
        # at k = 3 the slice keeps two relabelings of each partition, whose
        # costs differ by an ulp; calibrating gamma = 0 past that gap put beta
        # at 2e17, where the log-partitions cancelled to info = -114
        spec = MixtureSpec(n=9, d=3, k_true=3, noise_sigma=1.0, separation=5.0,
                           seed=derive_seed(0, 5, 0), balanced=True)
        x1, x2, _ = draw_paired_samples(spec)
        eng = exact_tables(x1, x2, "pairwise", 3)
        pt = point_at_gamma(eng, 0.0)
        assert pt.beta < 100.0
        assert pt.info == pytest.approx(point_at_gamma(eng, 1e-6).info, abs=1e-6)
        assert eng.beta_for_gamma(0.0) == eng.beta_for_gamma(eng.resolution)


class TestExactEngineWork:
    def test_boltzmann_passes_per_curve(self, monkeypatch):
        # a 25-point curve at n = 20, k = 2: 73 passes for the grid points, one
        # for the span and two Newton calibrations (full-table bisection
        # made 186 passes over 2^20 entries)
        import ascoding.exact as ex

        sizes = []
        sums = ex._boltzmann_sums

        def counted(costs, r_min, rows, *args):
            sizes.extend([costs.shape[1]] * rows.size)  # one per (table, beta)
            return sums(costs, r_min, rows, *args)

        monkeypatch.setattr(ex, "_boltzmann_sums", counted)
        spec = MixtureSpec(n=20, d=2, k_true=2, noise_sigma=1.0, separation=4.0, seed=0,
                           balanced=True)
        x1, x2, _ = draw_paired_samples(spec)
        capacity_curve(x1, x2, "kmeans", 2, engine="exact", cfg=CapacityConfig())
        assert set(sizes) == {2**19}
        assert len(sizes) <= 100


class TestCapacityConfig:
    @pytest.mark.parametrize("engine", ["exact", "sampled"])
    @pytest.mark.parametrize("flat", [False, True])
    def test_both_engines_give_grid_points_points(self, pair_n8, engine, flat):
        # grid_points counts every beta, 0 included, on both engines and on
        # the flat-landscape branch of each grid
        x1, x2 = (vecs([2.0], [2.0], [2.0]),) * 2 if flat else pair_n8
        cfg = CapacityConfig(grid_points=5, chains=1, sweeps_burnin=2, sweeps_measure=4,
                             restarts=2)
        curve = capacity_curve(x1, x2, "kmeans", 2, engine=engine, cfg=cfg)
        assert len(curve.points) == 5 and curve.points[0].beta == 0.0

    @pytest.mark.parametrize("grid", [(0.0, math.nan), (0.0, math.inf), (0.0, -1.0),
                                      (0.0, math.nan, 1.0), ()])
    def test_beta_grid_must_be_finite_and_nonnegative(self, grid):
        with pytest.raises(ValueError, match="beta_grid"):
            CapacityConfig(beta_grid=grid)

    def test_grid_must_start_at_zero(self):
        with pytest.raises(ValueError, match="beta_grid"):
            CapacityConfig(beta_grid=(0.5, 1.0))

    def test_grid_strictly_increasing(self):
        with pytest.raises(ValueError, match="beta_grid"):
            CapacityConfig(beta_grid=(0.0, 1.0, 1.0))

    def test_counts_positive(self):
        with pytest.raises(ValueError, match="chains"):
            CapacityConfig(beta_grid=(0.0, 1.0), chains=0)

    @pytest.mark.parametrize("field, value", [
        ("grid_points", 1), ("grid_points", 0), ("chains", 0), ("sweeps_burnin", 0),
        ("sweeps_measure", 0), ("restarts", 0),
    ])
    def test_counts_below_their_minimum_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            CapacityConfig(**{field: value})


class TestSelectModel:
    def test_single_candidate(self, pair_n8):
        x1, x2 = pair_n8
        res = select_model([("kmeans", 2)], x1, x2, engine="exact", cfg=CapacityConfig())
        assert res.best.k == 2 and not res.failures

    def test_two_blob_recovery(self):
        spec = MixtureSpec(n=10, d=2, k_true=2, noise_sigma=1.0, separation=8.0,
                           seed=0, balanced=True)
        x1, x2, _ = draw_paired_samples(spec)
        res = select_model([("kmeans", k) for k in (1, 2, 3)], x1, x2, engine="exact",
                           cfg=CapacityConfig(grid_points=20))
        assert res.best.k == 2
        by_k = {s.k: s.info_star for s in res.ranking}
        assert by_k[1] == pytest.approx(0.0, abs=1e-9)  # single hypothesis carries nothing

    def test_duplicate_candidates_stable(self, pair_n8):
        x1, x2 = pair_n8
        res = select_model([("kmeans", 2), ("kmeans", 2)], x1, x2, engine="exact",
                           cfg=CapacityConfig(beta_grid=(0.0, 0.3, 1.0)))
        assert res.ranking[0].info_star == res.ranking[1].info_star

    def test_failures_recorded_not_fatal(self, pair_n8):
        x1, x2 = pair_n8
        res = select_model([("kmeans", 2), ("linkage", 2)], x1, x2, engine="exact",
                           cfg=CapacityConfig(beta_grid=(0.0, 0.3)))
        assert len(res.ranking) == 1 and len(res.failures) == 1
        assert res.failures[0][0] == "linkage"

    def test_programming_errors_propagate(self, pair_n8):
        # a non-integer k is a caller's bug, not a candidate that failed
        x1, x2 = pair_n8
        with pytest.raises(TypeError):
            select_model([("kmeans", 2), ("kmeans", "3")], x1, x2, engine="exact",
                         cfg=CapacityConfig(beta_grid=(0.0, 0.3)))

    def test_empty_candidates_rejected(self, pair_n8):
        x1, x2 = pair_n8
        with pytest.raises(ValueError):
            select_model([], x1, x2)

    def test_unknown_engine_raised_not_recorded(self, pair_n8):
        # a configuration error, not a failure of every candidate
        x1, x2 = pair_n8
        with pytest.raises(ValueError, match="engine"):
            select_model([("kmeans", 2)], x1, x2, engine="exhaustive")

    def test_rounding_level_ties_keep_candidate_order(self):
        # on vectors the pairwise cost equals k-means, so each k's two
        # capacities are equal in exact arithmetic; pairwise-k3 comes out
        # 3e-16 above kmeans-k3 from summation order alone
        spec = MixtureSpec(n=12, d=3, k_true=3, noise_sigma=1.0, separation=5.0, seed=0,
                           balanced=True)
        x1, x2, _ = draw_paired_samples(spec)
        cands = [(family, k) for family in ("kmeans", "pairwise") for k in (1, 2, 3)]
        res = select_model(cands, x1, x2, engine="exact", cfg=CapacityConfig())
        assert [(s.cost_family, s.k) for s in res.ranking] == [
            ("kmeans", 3), ("pairwise", 3), ("kmeans", 2), ("pairwise", 2),
            ("kmeans", 1), ("pairwise", 1)]


class TestSampledSelfChecks:
    """Each self-check on curves built to breach exactly that bound; n = 4,
    k = 2, R1(ERM minimizer) = 1, its joint cost 2, log_nsigma = log 6."""

    LOG4 = 4 * math.log(2)

    def _curve(self, log_z, mean=(3.0, 2.0, 1.0), stderr=(0.1, 0.1, 0.1)):
        return FreeEnergyCurve(betas=np.array([0.0, 1.0, 2.0]), log_z=np.array(log_z),
                               mean_cost=np.array(mean), stderr=np.array(stderr), n=4, k=2)

    def _warnings(self, z1=None, dz=None, mean2=(3.0, 2.0, 1.0), stderr2=(0.1, 0.1, 0.1)):
        single = [self.LOG4, self.LOG4 - 2.5, self.LOG4 - 4.0]
        curve1 = self._curve(z1 or single)
        curve2 = self._curve(single, mean2, stderr2)
        joint = self._curve(dz or [self.LOG4, self.LOG4 - 3.5, self.LOG4 - 6.0])
        points = tuple(CapacityPoint(beta=float(b), gamma=0.0, log_nsigma=math.log(6),
                                     log_z1=float(z1), log_z2=float(z2), log_dz=float(dz), n=4)
                       for b, z1, z2, dz in zip(curve1.betas, curve1.log_z, curve2.log_z,
                                                joint.log_z))
        return _sampled_warnings(points, curve1, curve2, joint, 1.0, 2.0)

    def test_clean_curves_pass(self):
        assert self._warnings() == ()

    def test_log_z1_below_ground_state_bound(self):
        # -beta R1 = -2 at beta = 2; 0.3 nats short, beyond 0.05 n = 0.2
        (msg,) = [w for w in self._warnings(z1=[self.LOG4, self.LOG4 - 2.5, -2.3])
                  if w.startswith("logZ1 below")]
        assert "by 0.3 at beta=2.0" in msg

    def test_log_dz_below_joint_bound(self):
        found = self._warnings(dz=[self.LOG4, self.LOG4 - 3.5, -4.3])
        assert any(w.startswith("logDZ below") and "at beta=2.0" in w for w in found)

    def test_info_above_its_ceiling(self):
        # logDZ one nat above logZ1 + logZ2 at beta = 1: info 0.25 above log 6 / 4
        lz1 = self.LOG4 - 2.5
        found = self._warnings(dz=[self.LOG4, 2 * lz1 + 1.0, self.LOG4 - 6.0])
        assert any(w.startswith("info above log_nsigma/n by 0.25") for w in found)

    def test_mean_cost_rise(self):
        assert self._warnings(mean2=(3.0, 1.0, 2.0)) == (
            "logZ2 mean cost rises with beta beyond 2 stderr at 1 grid step",)
        # a rise within 2 combined standard errors, and a single chain's curve
        # (no standard error), pass
        assert self._warnings(mean2=(3.0, 1.0, 1.2)) == ()
        assert self._warnings(mean2=(3.0, 1.0, 2.0), stderr2=(0.0, 0.0, 0.0)) == ()

    def test_warnings_reach_the_candidate_summary(self, exact_curve_n8):
        clean = CandidateScore("kmeans", 2, exact_curve_n8)
        assert "warnings" not in clean.summary()
        flagged = dataclasses.replace(exact_curve_n8, warnings=("logZ1 below",))
        score = dataclasses.replace(clean, curve=flagged)
        assert score.summary()["warnings"] == ["logZ1 below"]
