import math

import numpy as np
import pytest

from coherentrx.baselines import cn_receiver, cn_tree
from coherentrx.constellation import bpsk, custom, qam6
from coherentrx.metrics import (
    bits_per_photon,
    expected_posterior_trajectory,
    most_probable_path,
    posterior_trajectory,
    prefix_kl,
    prefix_marginal,
)
from coherentrx.photonics import NoiseModel
from coherentrx.simulator import PathDistribution, exact_distribution, map_table
from coherentrx.tree import DecisionTree, decode_leaf_index, num_nodes

IDEAL = NoiseModel()


class TestPosteriorTrajectory:
    def test_round_zero_is_prior(self):
        c = qam6(2.0)
        tree = DecisionTree.zeros(2, 3)
        traj = posterior_trajectory(tree, c, IDEAL, (0, 0))
        np.testing.assert_array_equal(traj.posteriors[0], c.priors)

    def test_quiet_record_sharpens_nulled_hypothesis(self):
        nbar = 1.0
        c = bpsk(nbar)
        rounds = 4
        nodes = np.full(num_nodes(rounds, 2), c.amplitudes[0] / 2.0)
        tree = DecisionTree(rounds, 2, nodes)
        traj = posterior_trajectory(tree, c, IDEAL, (0, 0, 0, 0))
        p_plus = traj.posteriors[:, 0]
        assert np.all(np.diff(p_plus) > 0)
        # likelihood ratio after j quiet rounds is exp(4 nbar j / N)
        for j in range(rounds + 1):
            want = 1.0 / (1.0 + math.exp(-4 * nbar * j / rounds))
            assert abs(p_plus[j] - want) < 1e-12

    def test_rows_normalized(self):
        c = qam6(3.0)
        tree, _ = cn_receiver(c, 3, 3)
        traj = posterior_trajectory(tree, c, IDEAL, (1, 0, 2))
        np.testing.assert_allclose(traj.posteriors.sum(axis=1), 1.0, atol=1e-10)

    def test_zero_probability_path_rejected(self):
        c = custom(np.zeros(2, dtype=complex), np.array([0.5, 0.5]))
        tree = DecisionTree.zeros(2, 2)
        with pytest.raises(ValueError):
            posterior_trajectory(tree, c, IDEAL, (1, 0))

    def test_full_length_required(self):
        c = bpsk(1.0)
        tree = DecisionTree.zeros(3, 2)
        with pytest.raises(ValueError):
            posterior_trajectory(tree, c, IDEAL, (0, 0))

    @pytest.mark.parametrize("path", [(0, -1), (0, 2), (-1, 0), (2, 1)])
    def test_out_of_range_outcome_rejected(self, path):
        c = bpsk(0.5)
        tree = cn_tree(c, 2, 2)
        with pytest.raises(ValueError, match="out of range"):
            posterior_trajectory(tree, c, IDEAL, path)

    def test_length_message_kept(self):
        c = bpsk(0.5)
        tree = cn_tree(c, 2, 2)
        for path in [(0,), (0, 2, 0)]:
            with pytest.raises(ValueError, match="path must cover all rounds"):
                posterior_trajectory(tree, c, IDEAL, path)

    def test_final_round_argmax_agrees_with_map_table(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            c = qam6(float(rng.uniform(1, 8)))
            nodes = rng.normal(0, 1, num_nodes(2, 3)) + 1j * rng.normal(0, 1, num_nodes(2, 3))
            tree = DecisionTree(2, 3, nodes)
            d = exact_distribution(tree, c, IDEAL)
            table = map_table(d)
            for leaf in range(9):
                path = decode_leaf_index(3, 2, leaf)
                traj = posterior_trajectory(tree, c, IDEAL, path)
                assert int(np.argmax(traj.posteriors[-1])) == table.guesses[leaf]

    @pytest.mark.parametrize(
        "design,nbar,visibility",
        [
            # likelihoods taken node by node, outside the forward, miss these
            # bits by an ulp on 3 and 2 of the random tree's 729 leaves
            ("random-seed0", 3.0, 0.99),
            ("random-seed0", 3.0, 0.9975),
            ("cn", 7.8, 0.9975),
        ],
    )
    def test_last_row_is_the_distributions_normalized_column_bit_for_bit(
        self, design, nbar, visibility
    ):
        c = qam6(nbar)
        if design == "cn":
            tree = cn_tree(c, 6, 3)
        else:
            rng = np.random.default_rng(0)
            nodes = rng.normal(0, 1, num_nodes(6, 3)) + 1j * rng.normal(0, 1, num_nodes(6, 3))
            tree = DecisionTree(6, 3, nodes)
        nm = NoiseModel(visibility=visibility)
        probs = exact_distribution(tree, c, nm).probs
        for leaf in range(3**6):
            joint = c.priors * probs[:, leaf]
            traj = posterior_trajectory(tree, c, nm, decode_leaf_index(3, 6, leaf))
            assert traj.posteriors[-1].tobytes() == (joint / joint.sum()).tobytes(), leaf


class TestMostProbablePathAndExpectation:
    def test_perfect_null_prefers_quiet_path(self):
        c = bpsk(1.3)
        nodes = np.full(num_nodes(3, 2), c.amplitudes[0] / math.sqrt(3))
        tree = DecisionTree(3, 2, nodes)
        assert most_probable_path(exact_distribution(tree, c, IDEAL), 0) == (0, 0, 0)

    def test_expected_posterior_rows_normalized(self):
        c = qam6(4.0)
        tree, _ = cn_receiver(c, 3, 3)
        d = exact_distribution(tree, c, IDEAL)
        for label in range(6):
            rows = expected_posterior_trajectory(d, label)
            np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-10)
            np.testing.assert_array_equal(rows[0], c.priors)

    def test_expected_true_posterior_grows(self):
        c = bpsk(0.9)
        tree, _ = cn_receiver(c, 4, 2)
        rows = expected_posterior_trajectory(exact_distribution(tree, c, IDEAL), 1)
        assert rows[-1, 1] > rows[0, 1]

    @pytest.mark.parametrize("label", [-1, 6])
    def test_label_outside_the_constellation_rejected(self, label):
        # -1 used to read codeword 5's row, and 6 raised IndexError
        c = qam6(2.0)
        tree, _ = cn_receiver(c, 2, 3)
        d = exact_distribution(tree, c, IDEAL)
        for diagnostic in (most_probable_path, expected_posterior_trajectory):
            with pytest.raises(ValueError, match="invalid codeword label"):
                diagnostic(d, label)
        with pytest.raises(ValueError, match="invalid codeword label"):
            prefix_marginal(d, label, 1)


class TestPrefixKL:
    def _two_row_dist(self, row_p, row_q):
        c = custom(np.array([1.0, -1.0]), np.array([0.5, 0.5]))
        probs = np.array([row_p, row_q], dtype=float)
        rounds = int(round(math.log2(probs.shape[1])))
        return PathDistribution(probs, rounds, 2, c)

    def test_same_label_is_zero(self):
        c = bpsk(1.0)
        tree, _ = cn_receiver(c, 3, 2)
        d = exact_distribution(tree, c, IDEAL)
        for n in range(4):
            assert prefix_kl(d, 0, 0, n) == 0.0

    def test_round_zero_is_zero(self):
        c = bpsk(1.0)
        tree, _ = cn_receiver(c, 3, 2)
        d = exact_distribution(tree, c, IDEAL)
        assert prefix_kl(d, 0, 1, 0) == 0.0

    def test_bernoulli_value(self):
        d = self._two_row_dist([0.5, 0.5], [0.25, 0.75])
        want = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        assert abs(prefix_kl(d, 0, 1, 1) - want) < 1e-15
        assert abs(want - 0.1438410362258904) < 1e-12

    def test_infinite_when_q_lacks_support(self):
        d = self._two_row_dist([0.5, 0.5], [1.0, 0.0])
        assert prefix_kl(d, 0, 1, 1) == math.inf
        # reversed direction stays finite: 0 log 0 terms vanish
        assert prefix_kl(d, 1, 0, 1) == math.log(2.0)

    def test_non_decreasing_in_round(self):
        rng = np.random.default_rng(1)
        for _ in range(6):
            k = int(rng.integers(2, 4))
            amps = rng.normal(0, 1, k) + 1j * rng.normal(0, 1, k)
            c = custom(amps)
            rounds, arity = int(rng.integers(1, 5)), int(rng.integers(2, 4))
            nodes = rng.normal(0, 1, num_nodes(rounds, arity)) + 1j * rng.normal(
                0, 1, num_nodes(rounds, arity)
            )
            tree = DecisionTree(rounds, arity, nodes)
            d = exact_distribution(tree, c, IDEAL)
            for p in range(k):
                for q in range(k):
                    vals = [prefix_kl(d, p, q, n) for n in range(rounds + 1)]
                    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_prefix_marginal_consistency(self):
        c = bpsk(0.8)
        tree, _ = cn_receiver(c, 3, 2)
        d = exact_distribution(tree, c, IDEAL)
        m1 = prefix_marginal(d, 0, 1)
        assert abs(m1.sum() - 1.0) < 1e-12
        full = prefix_marginal(d, 0, 3)
        np.testing.assert_allclose(full, d.probs[0], atol=0)


class TestBitsPerPhoton:
    def test_headline_operating_point(self):
        # 2.5% raw error at 0.75 photons per symbol clears 1.1 bits/photon
        val = bits_per_photon(0.025, 0.75)
        assert abs(val - 1.1084520913377730) < 1e-12
        assert val > 1.1

    def test_useless_channel(self):
        assert bits_per_photon(0.5, 2.0) == 0.0

    def test_perfect_channel(self):
        assert bits_per_photon(0.0, 1.0) == 1.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bits_per_photon(0.6, 1.0)
        with pytest.raises(ValueError):
            bits_per_photon(0.1, 0.0)
