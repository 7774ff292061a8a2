import itertools
import math
import re

import numpy as np
import pytest

from coherentrx.constellation import bpsk, custom
from coherentrx.photonics import NoiseModel, sample_draws
from coherentrx.simulator import (
    PathDistribution,
    averaged_distribution,
    batch_distribution,
    error_rate,
    exact_distribution,
    map_table,
    mc_sample,
)
from coherentrx.tree import DecisionTable, DecisionTree, num_nodes

IDEAL = NoiseModel()


def random_instance(rng, rounds=None, arity=None, k_codes=None, noisy=True):
    rounds = rounds or rng.integers(1, 5)
    arity = arity or rng.integers(2, 4)
    k_codes = k_codes or rng.integers(2, 4)
    amps = rng.normal(0, 0.8, k_codes) + 1j * rng.normal(0, 0.8, k_codes)
    pri = rng.uniform(0.2, 1.0, k_codes)
    c = custom(amps, pri / pri.sum())
    nodes = rng.normal(0, 0.8, num_nodes(rounds, arity)) + 1j * rng.normal(
        0, 0.8, num_nodes(rounds, arity)
    )
    tree = DecisionTree(int(rounds), int(arity), nodes)
    if noisy:
        nm = NoiseModel(
            visibility=float(rng.uniform(0.9, 1.0)),
            efficiency=float(rng.uniform(0.5, 1.0)),
            dark_counts=float(rng.uniform(0, 0.05)),
            phase_jitter=float(rng.uniform(0, 0.1)),
            amplitude_jitter=float(rng.uniform(0, 0.05)),
        )
    else:
        nm = IDEAL
    return tree, c, nm


class TestExactDistribution:
    def test_perfect_null_row(self):
        c = bpsk(1.2)
        tree = DecisionTree(1, 2, np.array([c.amplitudes[0]]))
        d = exact_distribution(tree, c, IDEAL)
        np.testing.assert_array_equal(d.probs[0], [1.0, 0.0])

    def test_wrong_hypothesis_click_probability(self):
        nbar = 1.2
        c = bpsk(nbar)
        tree = DecisionTree(1, 2, np.array([c.amplitudes[0]]))
        d = exact_distribution(tree, c, IDEAL)
        assert abs(d.probs[1, 1] - (1 - math.exp(-4 * nbar))) < 1e-12

    def test_all_zero_tree_vacuum_path(self):
        c = bpsk(1.2)
        d = exact_distribution(DecisionTree.zeros(4, 2), c, IDEAL)
        assert abs(d.probs[0, 0] - math.exp(-1.2)) < 1e-12

    def test_rows_normalized(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            tree, c, nm = random_instance(rng)
            d = batch_distribution(tree, c, nm, [0.03], [1.01])
            np.testing.assert_allclose(d.probs.sum(axis=1), 1.0, atol=1e-10)

    def test_global_phase_covariance(self):
        rng = np.random.default_rng(2)
        tree, c, nm = random_instance(rng)
        phi = np.exp(1j * 0.77)
        c_rot = custom(c.amplitudes * phi, c.priors)
        tree_rot = DecisionTree(tree.rounds, tree.arity, tree.nodes * phi)
        d0 = exact_distribution(tree, c, nm)
        d1 = exact_distribution(tree_rot, c_rot, nm)
        np.testing.assert_allclose(d0.probs, d1.probs, atol=1e-12)

    def test_two_dimensional_jitter_rejected(self):
        # jitter is drawn once per receiver run: a (1, N) batch is refused
        rng = np.random.default_rng(3)
        tree, c, nm = random_instance(rng, rounds=3)
        phase, scale = sample_draws(nm, 3, 11)
        with pytest.raises(ValueError, match=r"\(B,\)"):
            batch_distribution(tree, c, nm, phase[None, :], scale[None, :])

    @pytest.mark.parametrize(
        "phase, scale",
        [
            (math.nan, 1.0),
            (math.inf, 1.0),
            (-math.inf, 1.0),
            (0.0, math.nan),
            (0.0, math.inf),
            (0.0, 0.0),
            (0.0, -0.5),
        ],
    )
    def test_non_finite_or_non_positive_draws_rejected(self, phase, scale):
        # caught before the kernel, with one message that names the draws
        tree, c, nm = random_instance(np.random.default_rng(3), rounds=2)
        with pytest.raises(ValueError, match="jitter draws need finite phases"):
            batch_distribution(tree, c, nm, [0.01, phase], [1.0, scale])


class TestAveragedDistribution:
    def test_no_jitter_collapses_to_exact(self):
        tree, c, nm = random_instance(np.random.default_rng(4), noisy=False)
        d_exact = exact_distribution(tree, c, nm)
        d_avg = averaged_distribution(tree, c, nm, 100, seed=0)
        np.testing.assert_array_equal(d_avg.probs, d_exact.probs)

    def test_batch_one_is_single_draw(self):
        rng = np.random.default_rng(5)
        tree, c, nm = random_instance(rng)
        d1 = averaged_distribution(tree, c, nm, 1, seed=9)
        phase, scale = sample_draws(nm, 1, 9)
        np.testing.assert_array_equal(d1.probs, batch_distribution(tree, c, nm, phase, scale).probs)

    def test_monte_carlo_convergence_rate(self):
        # batch-mean estimates tighten like 1/sqrt(batch)
        rng = np.random.default_rng(6)
        tree, c, _ = random_instance(rng, rounds=2, arity=2, noisy=False)
        nm = NoiseModel(phase_jitter=0.25, amplitude_jitter=0.1)
        ref = averaged_distribution(tree, c, nm, 60_000, seed=1)
        err3 = np.abs(averaged_distribution(tree, c, nm, 1_000, seed=2).probs - ref.probs).max()
        err4 = np.abs(averaged_distribution(tree, c, nm, 10_000, seed=3).probs - ref.probs).max()
        assert err4 < err3
        assert err4 < 3.0 * err3 / math.sqrt(10.0)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(7)
        tree, c, nm = random_instance(rng)
        a = averaged_distribution(tree, c, nm, 32, seed=5)
        b = averaged_distribution(tree, c, nm, 32, seed=5)
        np.testing.assert_array_equal(a.probs, b.probs)


class TestMapTableAndError:
    def _dist(self, probs, priors=None):
        k, n = probs.shape
        c = custom(np.arange(1, k + 1, dtype=complex), priors)
        rounds = int(round(math.log2(n)))
        return PathDistribution(np.asarray(probs, float), rounds, 2, c)

    def test_two_hypothesis_argmax(self):
        d = self._dist(np.array([[0.9, 0.1], [0.1, 0.9]]))
        table = map_table(d)
        assert table.guesses[0] == 0 and table.guesses[1] == 1

    def test_tie_breaks_to_lowest_label(self):
        d = self._dist(np.array([[0.5, 0.5], [0.5, 0.5]]))
        np.testing.assert_array_equal(map_table(d).guesses, [0, 0])

    def test_exhaustive_argmax_recovery(self):
        from coherentrx.baselines import cn_tree

        c = bpsk(1.2)
        tree = cn_tree(c, 4, 2)
        d = exact_distribution(tree, c, IDEAL)
        table = map_table(d)
        weighted = c.priors[:, None] * d.probs
        for leaf in range(16):
            best = max(range(2), key=lambda y: (weighted[y, leaf], -y))
            assert table.guesses[leaf] == best

    def test_indistinguishable_error(self):
        probs = np.tile([0.25, 0.25, 0.25, 0.25], (3, 1))
        d = self._dist(probs)
        assert abs(error_rate(d, map_table(d)) - (1 - 1 / 3)) < 1e-12

    def test_disjoint_support_error_zero(self):
        d = self._dist(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert error_rate(d, map_table(d)) == 0.0

    def test_kennedy_error_value(self):
        nbar = 1.2
        c = bpsk(nbar)
        tree = DecisionTree(1, 2, np.array([c.amplitudes[0]]))
        d = exact_distribution(tree, c, IDEAL)
        err = error_rate(d, map_table(d))
        assert abs(err - 0.5 * math.exp(-4 * nbar)) < 1e-12

    def test_map_table_is_optimal_exhaustively(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            tree, c, nm = random_instance(rng, rounds=2, arity=2)
            d = exact_distribution(tree, c, nm)
            err_map = error_rate(d, map_table(d))
            k, n_paths = d.probs.shape
            for guesses in itertools.product(range(k), repeat=n_paths):
                table = DecisionTable(2, 2, np.array(guesses))
                assert err_map <= error_rate(d, table) + 1e-15

    def test_map_table_beats_random_tables(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            tree, c, nm = random_instance(rng, rounds=3, arity=3)
            d = exact_distribution(tree, c, nm)
            err_map = error_rate(d, map_table(d))
            k, n_paths = d.probs.shape
            for _ in range(200):
                table = DecisionTable(3, 3, rng.integers(0, k, n_paths))
                assert err_map <= error_rate(d, table) + 1e-15

    def test_binary_error_never_beats_helstrom(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            tree, c, _ = random_instance(rng, k_codes=2, noisy=False)
            d = exact_distribution(tree, c, IDEAL)
            err = error_rate(d, map_table(d))
            overlap = math.exp(-abs(c.amplitudes[0] - c.amplitudes[1]) ** 2)
            p0, p1 = c.priors
            helstrom = 0.5 * (1 - math.sqrt(1 - 4 * p0 * p1 * overlap))
            assert err >= helstrom - 1e-12


class TestMonteCarlo:
    def test_certain_hypothesis_perfect_null(self):
        c = custom(np.array([0.9, -0.9]), np.array([1.0, 0.0]))
        tree = DecisionTree(1, 2, np.array([0.9 + 0j]))
        table = DecisionTable(1, 2, np.array([0, 1]))
        res = mc_sample(tree, table, c, IDEAL, 10_000, seed=0)
        assert res.error_rate == 0.0
        assert res.path_counts[0] == 10_000

    def test_agrees_with_exact_within_3_sigma(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            tree, c, nm = random_instance(rng)
            d = averaged_distribution(tree, c, nm, 200, seed=21)
            table = map_table(d)
            exact = error_rate(d, table)
            res = mc_sample(tree, table, c, nm, 100_000, seed=22)
            sigma = math.sqrt(max(exact * (1 - exact), 1e-12) / 100_000)
            assert abs(res.error_rate - exact) < 3.5 * sigma

    def test_fixed_seed_reproduces_counts(self):
        rng = np.random.default_rng(12)
        tree, c, nm = random_instance(rng)
        table = map_table(exact_distribution(tree, c, nm))
        a = mc_sample(tree, table, c, nm, 5_000, seed=3)
        b = mc_sample(tree, table, c, nm, 5_000, seed=3)
        assert a.num_errors == b.num_errors
        np.testing.assert_array_equal(a.path_counts, b.path_counts)

    def test_path_histogram_total(self):
        rng = np.random.default_rng(13)
        tree, c, nm = random_instance(rng)
        table = map_table(exact_distribution(tree, c, nm))
        res = mc_sample(tree, table, c, nm, 7_777, seed=4)
        assert res.path_counts.sum() == 7_777

    @pytest.mark.parametrize("jitter", [False, True])
    @pytest.mark.parametrize("num_runs", [2**70, 2**62])
    def test_run_count_beyond_memory_is_refused_before_any_draw(self, monkeypatch, num_runs, jitter):
        # a codeword byte and a 2-byte leaf index a run, and a 16-byte
        # rotation with jitter; the generator is never made
        def no_draws(*args, **kwargs):
            raise AssertionError("a draw was made before the run arrays were allocated")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        c = bpsk(1.0)
        tree = DecisionTree(2, 2, np.full(num_nodes(2, 2), 1.0 + 0j))
        table = DecisionTable(2, 2, np.array([0, 1, 1, 1]))
        nm = NoiseModel(phase_jitter=0.02, amplitude_jitter=0.005) if jitter else IDEAL
        per_run = 19 if jitter else 3
        with pytest.raises(ValueError, match=f"cannot hold {num_runs} runs: it keeps {per_run} bytes a run"):
            mc_sample(tree, table, c, nm, num_runs, seed=0)

    @pytest.mark.parametrize(
        "num_runs, message",
        [(10.5, "num_runs must be an integer, got 10.5"), (True, "num_runs must be an integer, got True"),
         (0, "num_runs must be at least 1, got 0")],
    )
    def test_run_count_must_be_a_positive_integer(self, num_runs, message):
        # 10.5 once failed inside numpy with a TypeError
        tree = DecisionTree.zeros(2, 2)
        table = DecisionTable(2, 2, np.array([0, 1, 1, 1]))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            mc_sample(tree, table, bpsk(1.0), IDEAL, num_runs, seed=0)

    def test_table_shape_mismatch_rejected(self):
        c = bpsk(0.5)
        tree = DecisionTree(2, 2, np.zeros(num_nodes(2, 2), dtype=complex))
        for rounds, arity in ((3, 2), (2, 3)):
            table = DecisionTable(rounds, arity, np.zeros(arity**rounds, dtype=int))
            with pytest.raises(ValueError, match="table shape does not match"):
                mc_sample(tree, table, c, IDEAL, 1_000, seed=0)


def test_distribution_validation():
    c = bpsk(0.5)
    with pytest.raises(ValueError):
        PathDistribution(np.array([[0.7, 0.2], [0.5, 0.5]]), 1, 2, c)
    with pytest.raises(ValueError):
        PathDistribution(np.ones((2, 3)) / 3, 1, 2, c)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_distribution_rejects_non_finite(bad):
    c = bpsk(0.5)
    with pytest.raises(ValueError, match="must lie in"):
        PathDistribution(np.array([[bad, bad], [0.5, 0.5]]), 1, 2, c)
    with pytest.raises(ValueError, match="must lie in"):
        PathDistribution(np.array([[0.5, 0.5], [bad, 0.5]]), 1, 2, c)
