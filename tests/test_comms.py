import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ascoding import comms
from ascoding.capacity import exact_points, make_cost
from ascoding.comms import (
    Codebook,
    TrialRow,
    error_bound,
    error_rate_grid,
    generate_codebook,
    wilson_interval,
)
from ascoding.core import Dataset, build_correspondence
from ascoding.costs import DEFAULT_BUDGET
from ascoding.datagen import MixtureSpec, dissimilarity_from_vectors, draw_paired_samples
from ascoding.errors import BudgetError
from ascoding.exact import (
    GAMMA_SLACK,
    ExactTables,
    calibrate_betas,
    decode_indices,
    enumerate_costs,
)
from ascoding.rng import derive_rng, derive_seed
from conftest import permute_dataset


@pytest.fixture(scope="module")
def blob_pair():
    spec = MixtureSpec(n=8, d=2, k_true=2, noise_sigma=1.0, separation=6.0, seed=5, balanced=True)
    x1, x2, _ = draw_paired_samples(spec)
    return x1, x2


class TestCodebook:
    def test_minimal_codebook(self):
        cb = generate_codebook(4, rate_bits=0.25, seed=0)  # m = 2
        assert cb.m == 2
        assert np.array_equal(cb.sigmas[0], [0, 1, 2, 3])
        assert not np.array_equal(cb.sigmas[1], [0, 1, 2, 3])

    def test_pigeonhole(self):
        with pytest.raises(ValueError, match="n!"):
            generate_codebook(3, rate_bits=math.log2(7) / 3, seed=0)

    def test_maximum_size(self):
        with pytest.raises(BudgetError, match="maximum"):
            generate_codebook(12, rate_bits=2.0, seed=0)

    @pytest.mark.parametrize("rate", [math.inf, math.nan, -0.5])
    def test_rate_must_be_finite_and_nonnegative(self, rate):
        with pytest.raises(ValueError, match="rate_bits"):
            generate_codebook(8, rate_bits=rate, seed=0)

    @pytest.mark.parametrize("rate", [1e6, 1e300])
    def test_huge_rate_exceeds_maximum_without_overflow(self, rate):
        with pytest.raises(BudgetError, match="maximum"):
            generate_codebook(8, rate_bits=rate, seed=0)

    def test_size_at_the_maximum_is_kept(self):
        # 7 * (log2(137) / 7) rounds to just above log2(137): m is still 137
        rate = math.log2(137) / 7
        assert 7 * rate > math.log2(137)
        assert generate_codebook(7, rate_bits=rate, seed=0, max_size=137).m == 137

    def test_deterministic(self):
        a = generate_codebook(6, rate_bits=0.5, seed=123)
        b = generate_codebook(6, rate_bits=0.5, seed=123)
        assert np.array_equal(a.sigmas, b.sigmas)

    def test_all_distinct(self):
        cb = generate_codebook(5, rate_bits=math.log2(16) / 5, seed=7)
        assert len({tuple(s) for s in cb.sigmas}) == cb.m == 16


class TestPermuteDataset:
    def test_identity(self, blob_pair):
        x1, _ = blob_pair
        out = permute_dataset(x1, np.arange(8))
        assert np.array_equal(out.vectors, x1.vectors)

    def test_swap_rows(self):
        d = Dataset.from_vectors([[0.0], [1.0]])
        out = permute_dataset(d, np.array([1, 0]))
        assert np.array_equal(out.vectors, [[1.0], [0.0]])

    def test_roundtrip_bit_identical(self, blob_pair):
        x1, _ = blob_pair
        rng = derive_rng(4)
        sigma = rng.permutation(8)
        inverse = np.argsort(sigma)
        back = permute_dataset(permute_dataset(x1, sigma), inverse)
        assert np.array_equal(back.vectors, x1.vectors)

    def test_dissimilarities_congruent(self, blob_pair):
        x1, _ = blob_pair
        sigma = derive_rng(5).permutation(8)
        d = dissimilarity_from_vectors(x1)
        direct = permute_dataset(d, sigma).dissim
        derived = dissimilarity_from_vectors(permute_dataset(x1, sigma)).dissim
        assert np.allclose(direct, derived, atol=0)

    def test_length_mismatch(self, blob_pair):
        x1, _ = blob_pair
        with pytest.raises(ValueError):
            permute_dataset(x1, np.arange(5))


def decoder_scores(codebook, sent, train, test, family, k, gamma, budget=DEFAULT_BUDGET):
    """Overlap scores of one channel use, from the calls error_rate_grid
    makes: the training and test tables, then one scoring gather."""
    table1, table2 = enumerate_costs(*(make_cost(family, x, k) for x in (train, test)),
                                     budget=budget)
    codewords = comms._codeword_weights(codebook, np.array([sent]),
                                        build_correspondence(train, test).nu[None], k)
    return comms._overlap_scores([table1], [table2], codewords, [gamma])[0, :, 0]


def oracle_scores(codebook, sent_index, train, fresh_test, k, gamma):
    """Independent decoder: direct evaluation over all label vectors with
    plain-python pushforward and membership checks."""
    n = train.n
    received = permute_dataset(fresh_test, codebook.sigmas[sent_index])
    cost1 = make_cost("kmeans", train, k)
    cost_r = make_cost("kmeans", received, k)
    all_c = [np.array(c) for c in itertools.product(range(1, k + 1), repeat=n)]
    costs1 = [cost1.evaluate(c) for c in all_c]
    costs_r = {tuple(c): cost_r.evaluate(c) for c in all_c}
    r1, rr = min(costs1), min(costs_r.values())
    nu = build_correspondence(train, fresh_test).nu
    members1 = [c for c, v in zip(all_c, costs1) if v <= r1 + gamma + 1e-12]
    scores = []
    for sigma in codebook.sigmas:
        count = 0
        for c in members1:
            carried = c[nu][sigma]
            if costs_r[tuple(carried)] <= rr + gamma + 1e-12:
                count += 1
        scores.append(count)
    return scores


def reference_decoder_scores(codebook, sent_index, train, fresh_test, family, k, gamma):
    """Full-table decoder: every label vector decoded and scored by
    evaluate_batch on both samples, each training member pushed forward by
    labels[nu[sigma]] and counted if it is a received member."""
    n = train.n
    labels = decode_indices(np.arange(k**n), n, k)
    received = permute_dataset(fresh_test, codebook.sigmas[sent_index])
    costs1 = make_cost(family, train, k).evaluate_batch(labels)
    costs_r = make_cost(family, received, k).evaluate_batch(labels)
    members1 = labels[costs1 <= costs1.min() + gamma + GAMMA_SLACK]
    member_r = costs_r <= costs_r.min() + gamma + GAMMA_SLACK
    nu = build_correspondence(train, fresh_test).nu
    radix = k ** np.arange(n)
    return [int(member_r[(members1[:, nu[sigma]] - 1) @ radix].sum())
            for sigma in codebook.sigmas]


@st.composite
def channel_uses(draw):
    """(codebook, sent, train, test, family, k) for n = 1..8 and k = 1..4 on
    small integral vectors: duplicate points and exactly tied costs."""
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, 4))
    assume(k**n <= 3**8)
    d = draw(st.integers(1, 2))
    point = st.lists(st.integers(-2, 2).map(float), min_size=d, max_size=d)
    train, test = (Dataset.from_vectors(np.array(draw(st.lists(point, min_size=n, max_size=n))))
                   for _ in range(2))
    others = draw(st.lists(st.permutations(range(n)), max_size=5, unique_by=tuple))
    sigmas = [list(range(n))] + [p for p in others if p != list(range(n))]
    codebook = Codebook(sigmas=np.array(sigmas), rate_bits=0.0, seed=0)
    sent = draw(st.integers(0, codebook.m - 1))
    family = draw(st.sampled_from(["kmeans", "pairwise"]))
    return codebook, sent, train, test, family, k


class TestTransmitAndDecode:
    @settings(max_examples=150, deadline=None)
    @given(use=channel_uses())
    def test_slice_decoder_matches_full_table_reference(self, use):
        codebook, sent, train, test, family, k = use
        received = permute_dataset(test, codebook.sigmas[sent])
        gaps = np.unique(np.concatenate([
            (t.costs - t.r_min) for t in (enumerate_costs(make_cost(family, train, k))[0],
                                          enumerate_costs(make_cost(family, received, k))[0])]))
        # gamma exactly at cost gaps puts members on the GAMMA_SLACK boundary
        for gamma in (*gaps[:4], gaps[-1], math.inf):
            scores = decoder_scores(codebook, sent, train, test, family, k, gamma)
            assert scores.tolist() == reference_decoder_scores(
                codebook, sent, train, test, family, k, gamma)

    def test_noise_free_decodes_exactly(self, blob_pair):
        # X2 = X1: distinct permuted problems -> the sent codeword is the
        # unique maximal overlap (codebook seed checked collision-free)
        x1, _ = blob_pair
        cb = generate_codebook(8, rate_bits=3 / 8, seed=1)
        for sent in range(cb.m):
            scores = decoder_scores(cb, sent, x1, x1, "kmeans", 2, gamma=0.0)
            assert int(np.argmax(scores)) == sent

    def test_gamma_inf_degenerate(self, blob_pair):
        x1, x2 = blob_pair
        cb = generate_codebook(8, rate_bits=2 / 8, seed=1)
        scores = decoder_scores(cb, 2, x1, x2, "kmeans", 2, gamma=np.inf)
        assert np.all(scores == 2**8)
        assert int(np.argmax(scores)) == 0  # ties decode to the lowest index, not the sent 2

    @pytest.mark.parametrize("gamma", [0.0, 1.5, 4.0])
    def test_matches_independent_oracle(self, blob_pair, gamma):
        x1, x2 = blob_pair
        cb = generate_codebook(8, rate_bits=2 / 8, seed=3)
        sent = 1
        scores = decoder_scores(cb, sent, x1, x2, "kmeans", 2, gamma=gamma)
        assert scores.tolist() == oracle_scores(cb, sent, x1, x2, 2, gamma)

    def test_sent_score_is_canonical_intersection(self, blob_pair):
        x1, x2 = blob_pair
        cb = generate_codebook(8, rate_bits=3 / 8, seed=2)
        for gamma in (0.0, 2.0, 6.0):
            scores = decoder_scores(cb, 4, x1, x2, "kmeans", 2, gamma=gamma)
            # the identity codeword's full-table score on the unpermuted test
            # sample counts the two-sample intersection
            assert scores[4] == reference_decoder_scores(cb, 0, x1, x2, "kmeans", 2, gamma)[0]

    def test_budget_respected(self, blob_pair):
        x1, x2 = blob_pair
        cb = generate_codebook(8, rate_bits=1 / 8, seed=0)
        with pytest.raises(BudgetError):
            decoder_scores(cb, 0, x1, x2, "kmeans", 2, gamma=0.0, budget=4)


class TestErrorBound:
    def test_zero_exponent(self):
        assert error_bound(0.5 * math.log(2), 0.5, 12) == 1.0

    def test_plug_in_value(self):
        assert error_bound(0.6931, 0.5, 10) == pytest.approx(0.03125, abs=2e-4)

    def test_vacuous_regime_clipped(self):
        assert error_bound(0.1, 1.0, 20) == 1.0


class TestWilson:
    def test_no_errors_lower_edge(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0 and 0.0 < hi < 0.05

    def test_contains_point_estimate(self):
        lo, hi = wilson_interval(13, 100)
        assert lo < 0.13 < hi


class TestErrorRate:
    def test_zero_noise_is_exactly_zero(self):
        spec = MixtureSpec(n=8, d=2, k_true=2, noise_sigma=0.0, separation=6.0,
                           seed=1, balanced=True)
        for m in (2, 4, 8):
            cb = generate_codebook(8, math.log2(m) / 8, seed=1)
            [[res]] = error_rate_grid([cb], spec, "kmeans", 2, [0.0], trials=50, seed=9)
            assert res.p_hat == 0.0

    def test_single_codeword_trivial(self):
        spec = MixtureSpec(n=6, d=2, k_true=2, noise_sigma=1.0, separation=6.0,
                           seed=1, balanced=True)
        cb = generate_codebook(6, rate_bits=0.0, seed=0)
        assert cb.m == 1
        [[res]] = error_rate_grid([cb], spec, "kmeans", 2, [0.0], trials=20, seed=0)
        assert res.p_hat == 0.0

    def test_stable_across_seeds_within_wilson(self):
        spec = MixtureSpec(n=8, d=2, k_true=2, noise_sigma=1.2, separation=6.0,
                           seed=1, balanced=True)
        cb = generate_codebook(8, rate_bits=3 / 8, seed=1)
        results = [
            error_rate_grid([cb], spec, "kmeans", 2, [0.0], trials=120, seed=s)[0][0]
            for s in range(3)
        ]
        pooled = wilson_interval(sum(r.errors for r in results),
                                 sum(r.trials for r in results))
        for r in results:  # every seed's interval overlaps the pooled one
            assert max(r.wilson_low, pooled[0]) <= min(r.wilson_high, pooled[1])

    def test_monotone_in_rate_on_average(self):
        spec = MixtureSpec(n=8, d=2, k_true=2, noise_sigma=1.2, separation=6.0,
                           seed=1, balanced=True)
        means = []
        for m in (2, 8):
            ps = [
                error_rate_grid([generate_codebook(8, math.log2(m) / 8, seed=s + 10)],
                                spec, "kmeans", 2, [0.0], trials=120, seed=s)[0][0].p_hat
                for s in range(3)
            ]
            means.append(np.mean(ps))
        assert means[1] >= means[0]

    def test_bound_computed_per_trial(self):
        spec = MixtureSpec(n=8, d=2, k_true=2, noise_sigma=1.0, separation=6.0,
                           seed=1, balanced=True)
        cb = generate_codebook(8, rate_bits=2 / 8, seed=1)
        [[res]] = error_rate_grid([cb], spec, "kmeans", 2, [1.0], trials=25, seed=3,
                                  compute_bound=True)
        assert res.bound is not None and 0.0 < res.bound <= 1.0

    def test_deterministic_given_seed(self):
        spec = MixtureSpec(n=6, d=2, k_true=2, noise_sigma=1.0, separation=6.0,
                           seed=2, balanced=True)
        cb = generate_codebook(6, rate_bits=1 / 3, seed=4)
        [[a]] = error_rate_grid([cb], spec, "kmeans", 2, [0.5], trials=30, seed=5)
        [[b]] = error_rate_grid([cb], spec, "kmeans", 2, [0.5], trials=30, seed=5)
        assert a.rows == b.rows and a.p_hat == b.p_hat


def per_cell_reference(codebooks, spec, family, k, gammas, trials, seed, compute_bound):
    """The per-cell composition the grid replaces: every (codebook, gamma)
    cell redraws each trial's pair, decodes it with the full-table
    reference decoder and calibrates its own bound on fresh exact tables. One
    (rows, errors, wilson_low, wilson_high, bound) tuple per cell."""
    out = []
    for cb in codebooks:
        row = []
        for gamma in gammas:
            rows, bounds, errors = [], [], 0
            for t in range(trials):
                x1, x2, _ = draw_paired_samples(replace(spec, seed=derive_seed(seed, t, 0)))
                sent = int(derive_rng(seed, t, 1).integers(cb.m))
                scores = reference_decoder_scores(cb, sent, x1, x2, family, k, gamma)
                decoded = int(np.argmax(scores))
                errors += 0 if decoded == sent else 1
                top = sorted(scores, reverse=True)
                rows.append(TrialRow(
                    trial=t, sent=sent, decoded=decoded, correct=decoded == sent,
                    best_score=top[0], second_score=top[1] if cb.m > 1 else 0,
                ))
                if compute_bound:
                    tables = ExactTables.enumerate(make_cost(family, x1, k),
                                                   make_cost(family, x2, k),
                                                   build_correspondence(x1, x2))
                    (pt,) = exact_points([tables], calibrate_betas([tables], [gamma]), "multinomial")
                    bounds.append(error_bound(pt.info, cb.rate_bits, spec.n))
            lo, hi = wilson_interval(errors, trials)
            row.append((tuple(rows), errors, lo, hi,
                        float(np.mean(bounds)) if bounds else None))
        out.append(row)
    return out


class TestErrorRateGrid:
    @pytest.mark.parametrize(
        "family, k, n, sigma, sizes, gammas, compute_bound, gather",
        [
            # m=1 codebook; gamma=inf is past every cost span (the beta=0 branch)
            ("kmeans", 2, 6, 1.0, (1, 2, 4), (0.0, 0.5, 2.0, math.inf), True, None),
            ("kmeans", 2, 6, 1.0, (1, 2, 4), (0.0, 0.5, 2.0, math.inf), False, None),
            # zero noise: duplicate points, so costs tie at gamma=0
            ("kmeans", 2, 6, 0.0, (2, 8), (0.0, 1e6), True, None),
            ("pairwise", 3, 6, 1.0, (2, 3), (0.25, 3.0, 1e6), True, None),
            # members scored in several small gathers, one member each
            ("kmeans", 2, 6, 1.0, (8,), (0.0, 2.0), False, 5),
            # unsorted, with a duplicate: the levels rank gammas, the cells keep their order
            ("kmeans", 2, 6, 1.0, (1, 2, 4), (2.0, 0.0, math.inf, 0.0), True, None),
            ("pairwise", 3, 6, 1.0, (1, 3), (2.0, 0.0, math.inf, 0.0), False, 5),
            # gammas at trial 0's exact cost gaps: members on the GAMMA_SLACK boundary
            ("kmeans", 2, 6, 1.0, (1, 4), "gaps", True, None),
            ("pairwise", 3, 6, 0.0, (1, 4), "gaps", False, None),
            # every entry a member at 1e6: chunks of 3 members split trials
            ("kmeans", 2, 6, 1.0, (2, 4), (0.0, 2.0, 1e6), False, 40),
        ],
    )
    def test_matches_per_cell_reference(self, monkeypatch, family, k, n, sigma, sizes,
                                        gammas, compute_bound, gather):
        if gather is not None:
            monkeypatch.setattr(comms, "_GATHER", gather)
        spec = MixtureSpec(n=n, d=2, k_true=2, noise_sigma=sigma, separation=6.0,
                           seed=3, balanced=True)
        if gammas == "gaps":
            pair = draw_paired_samples(replace(spec, seed=derive_seed(4, 0, 0)))[:2]
            gaps = np.unique(np.concatenate([
                t.costs - t.r_min for t in (enumerate_costs(make_cost(family, x, k))[0]
                                            for x in pair)]))
            gammas = tuple(gaps[[2, 0, 1, 3, -1]].tolist())
        codebooks = [generate_codebook(n, math.log2(m) / n, seed=2) for m in sizes]
        grid = error_rate_grid(codebooks, spec, family, k, gammas, trials=6, seed=4,
                               compute_bound=compute_bound)
        ref = per_cell_reference(codebooks, spec, family, k, gammas, 6, 4, compute_bound)
        got = [[(r.rows, r.errors, r.wilson_low, r.wilson_high, r.bound) for r in row]
               for row in grid]
        assert got == ref
        assert all(r.trials == 6 and r.p_hat == r.errors / 6 for row in grid for r in row)

    @pytest.mark.parametrize("family, k", [("kmeans", 2), ("pairwise", 3)])
    @pytest.mark.parametrize("trials_per_group", [1, 5])
    def test_trial_groups_do_not_change_results(self, monkeypatch, family, k,
                                                trials_per_group):
        # by default all 12 trials form one group; 5 per group leaves a
        # part-filled last group
        spec = MixtureSpec(n=6, d=2, k_true=2, noise_sigma=1.0, separation=6.0,
                           seed=3, balanced=True)
        codebooks = [generate_codebook(6, math.log2(m) / 6, seed=2) for m in (2, 4)]
        args = (codebooks, spec, family, k, (0.0, 0.5, 2.0, math.inf))
        grouped = error_rate_grid(*args, trials=12, seed=4, compute_bound=True)
        assert comms.BLOCK // k**5 >= 12
        monkeypatch.setattr(comms, "BLOCK", trials_per_group * k**5)
        assert error_rate_grid(*args, trials=12, seed=4, compute_bound=True) == grouped

    def test_bound_passes_are_stacked(self, monkeypatch):
        # the criterion-5 grid: 40 trials x 5 gammas of n = 8, one group;
        # one pass per trial and gamma made 2,746 passes over single tables.
        # ExactTables.stack makes the one pass at beta = 0, for the spans
        import ascoding.exact as ex

        calls, cold = [], []
        sums = ex._boltzmann_sums

        def counted(costs, r_min, rows, beta, *args):
            calls.append(rows.size)
            cold.append(bool((beta == 0.0).all()))
            return sums(costs, r_min, rows, beta, *args)

        monkeypatch.setattr(ex, "_boltzmann_sums", counted)
        spec = MixtureSpec(n=8, d=2, k_true=2, noise_sigma=1.0, separation=6.0,
                           seed=0, balanced=True)
        codebooks = [generate_codebook(8, math.log2(m) / 8, seed=0) for m in (2, 4, 8)]
        error_rate_grid(codebooks, spec, "kmeans", 2, [0.0, 1.0, 2.0, 5.0, 10.0], trials=40,
                        seed=0, compute_bound=True)
        assert len(calls) == 19 and cold.count(True) == 1 and calls[cold.index(True)] == 40
        assert sum(calls) >= 40 * 5 * 3  # every point's three log-partitions at least

    @pytest.mark.parametrize("compute_bound", [False, True])
    def test_one_enumeration_and_one_gather_per_trial_group(self, monkeypatch, compute_bound):
        # the criterion-5 grid, one group of 40 trials: one enumeration call
        # builds the group's 80 training and test tables, one gather scores
        # every (trial, codebook, gamma) cell, and each trial draws its three
        # codebooks' messages from one generator; with the bound, one joint
        # gather and one orbit search serve the whole group
        import ascoding.exact as ex

        counts = {"enumerate": 0, "tables": 0, "gather": 0, "generators": 0, "joint": 0,
                  "orbits": 0}

        def counted(module, name, key, tables=None):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                counts[key] += 1
                if tables:
                    counts[tables] += len(args)
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        spec = MixtureSpec(n=8, d=2, k_true=2, noise_sigma=1.0, separation=6.0,
                           seed=0, balanced=True)
        codebooks = [generate_codebook(8, math.log2(m) / 8, seed=0) for m in (2, 4, 8)]
        counted(comms, "enumerate_costs", "enumerate", tables="tables")
        counted(comms, "_level_counts", "gather")
        counted(comms, "derive_rng", "generators")
        counted(ex, "joint_cost_table", "joint")
        counted(ex, "_lowest_in_orbit", "orbits")
        assert comms.BLOCK // 2**7 >= 40
        error_rate_grid(codebooks, spec, "kmeans", 2, [0.0, 1.0, 2.0, 5.0, 10.0], trials=40,
                        seed=0, compute_bound=compute_bound)
        assert counts == {"enumerate": 1, "tables": 2 * 40, "gather": 1, "generators": 40,
                          "joint": int(compute_bound), "orbits": int(compute_bound)}

    def test_budget_overflow_raises(self):
        spec = MixtureSpec(n=6, d=2, k_true=2, noise_sigma=1.0, separation=6.0,
                           seed=3, balanced=True)
        cb = generate_codebook(6, rate_bits=1 / 6, seed=0)
        for compute_bound in (False, True):
            with pytest.raises(BudgetError):
                error_rate_grid([cb], spec, "kmeans", 2, [0.0], trials=3, seed=0,
                                compute_bound=compute_bound, budget=32)

    @pytest.mark.parametrize("gammas, trials", [
        ([math.nan, 1.0], 3), ([1.0, math.nan], 3), ([0.0, -0.5], 3), ([0.0], 0),
    ])
    def test_bad_grid_rejected_before_any_draw(self, monkeypatch, gammas, trials):
        def no_draw(spec):
            raise AssertionError("a trial was drawn")

        monkeypatch.setattr(comms, "draw_paired_samples", no_draw)
        spec = MixtureSpec(n=6, d=2, k_true=2, noise_sigma=1.0, separation=6.0,
                           seed=3, balanced=True)
        cb = generate_codebook(6, rate_bits=1 / 6, seed=0)
        with pytest.raises(ValueError):
            error_rate_grid([cb], spec, "kmeans", 2, gammas, trials=trials, seed=0,
                            compute_bound=True)

    def test_empty_codebook_list_rejected_before_any_draw(self, monkeypatch):
        def no_draw(spec):
            raise AssertionError("a trial was drawn")

        monkeypatch.setattr(comms, "draw_paired_samples", no_draw)
        spec = MixtureSpec(n=6, d=2, k_true=2, noise_sigma=1.0, separation=6.0,
                           seed=3, balanced=True)
        with pytest.raises(ValueError, match="empty codebook list"):
            error_rate_grid([], spec, "kmeans", 2, [0.0], trials=3, seed=0)

    def test_nan_gamma_rejected_per_use(self, blob_pair):
        x1, x2 = blob_pair
        cb = generate_codebook(8, rate_bits=1 / 8, seed=0)
        with pytest.raises(ValueError, match="gamma"):
            decoder_scores(cb, 0, x1, x2, "kmeans", 2, gamma=math.nan)
        tables = ExactTables.enumerate(make_cost("kmeans", x1, 2), make_cost("kmeans", x2, 2),
                                       build_correspondence(x1, x2))
        with pytest.raises(ValueError, match="gamma"):
            calibrate_betas([tables], [math.nan])
