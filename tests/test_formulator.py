import math
import re
import sys
import tracemalloc

import numpy as np
import pytest

from coherentrx import formulator, simulator
from coherentrx.baselines import cn_receiver, cn_tree, dolinar_tree
from coherentrx.constellation import bpsk, custom, qam6
from coherentrx.formulator import (
    FormulatorConfig,
    _gradient,
    formulate,
    init_tree,
    optimize_sweep,
)
from coherentrx.photonics import NoiseModel, sample_draws
from coherentrx.simulator import (
    averaged_distribution,
    batch_distribution,
    error_rate,
    exact_distribution,
    map_table,
)
from coherentrx.tree import DecisionTree, num_nodes

IDEAL = NoiseModel()
LAB = NoiseModel(visibility=0.9975, efficiency=0.85, dark_counts=1e-3,
                 phase_jitter=0.02, amplitude_jitter=0.005)


class TestInitTree:
    def test_zero_perturbation_is_cn(self):
        c = qam6(3.0)
        np.testing.assert_array_equal(
            init_tree(c, 3, 3, 0.0, seed=0).nodes, cn_tree(c, 3, 3).nodes
        )

    def test_relative_perturbation_scale(self):
        c = qam6(7.8)
        base = cn_tree(c, 6, 3)
        tree = init_tree(c, 6, 3, 0.01, seed=42)
        scale = np.abs(base.nodes)
        rel = (tree.nodes - base.nodes).real / scale
        assert abs(np.std(rel) - 0.01) < 0.002
        rel_im = (tree.nodes - base.nodes).imag / scale
        assert abs(np.std(rel_im) - 0.01) < 0.002

    def test_deterministic(self):
        c = bpsk(1.0)
        a = init_tree(c, 4, 2, 0.05, seed=9)
        b = init_tree(c, 4, 2, 0.05, seed=9)
        np.testing.assert_array_equal(a.nodes, b.nodes)


class TestLoss:
    def test_indistinguishable_hypotheses(self):
        c = bpsk(0.0)
        tree = DecisionTree.zeros(3, 2)
        table = map_table(exact_distribution(tree, c, IDEAL))
        assert error_rate(averaged_distribution(tree, c, IDEAL, 8, seed=0), table) == 0.5

    def test_cross_module_cn_consistency(self):
        c = bpsk(1.2)
        tree, table = cn_receiver(c, 4, 2)
        want = error_rate(exact_distribution(tree, c, IDEAL), table)
        got = error_rate(averaged_distribution(tree, c, IDEAL, 16, seed=3), table)
        assert abs(got - want) < 1e-15

    def test_batch_size_invariant_without_jitter(self):
        nm = NoiseModel(visibility=0.99, efficiency=0.8, dark_counts=0.01)
        c = bpsk(0.9)
        tree, table = cn_receiver(c, 3, 2)
        vals = {
            error_rate(averaged_distribution(tree, c, nm, b, seed=1), table) for b in (1, 7, 64)
        }
        assert len(vals) == 1


class TestGradient:
    def test_zero_at_certain_prior(self):
        # a certain hypothesis pins the loss at zero for every tree
        c = custom(np.array([0.8, -0.8]), np.array([1.0, 0.0]))
        tree = init_tree(c, 3, 2, 0.2, seed=2)
        table = map_table(exact_distribution(tree, c, IDEAL))
        g = _gradient(tree, table, c, IDEAL, *sample_draws(IDEAL, 4, seed=0))
        assert np.abs(g).max() < 1e-14

    def test_unreachable_branch_has_zero_gradient(self):
        # both codewords at the origin with a nulling root: outcome 1 never
        # occurs, so the click subtree is zero-measure
        c = custom(np.array([0.0, 0.0]), np.array([0.5, 0.5]))
        tree = DecisionTree.zeros(2, 2)
        table = map_table(exact_distribution(tree, c, IDEAL))
        g = _gradient(tree, table, c, IDEAL, *sample_draws(IDEAL, 1, seed=0))
        assert g[2] == 0.0  # node reached only after a click at the root

    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(3)
        nm = NoiseModel(visibility=0.98, efficiency=0.85, dark_counts=5e-3,
                        phase_jitter=0.05, amplitude_jitter=0.02)
        for _ in range(4):
            k = int(rng.integers(2, 4))
            amps = rng.normal(0, 0.7, k) + 1j * rng.normal(0, 0.7, k)
            pri = rng.uniform(0.2, 1, k)
            c = custom(amps, pri / pri.sum())
            rounds, arity = int(rng.integers(1, 4)), int(rng.integers(2, 4))
            nodes = rng.normal(0, 0.7, num_nodes(rounds, arity)) + 1j * rng.normal(
                0, 0.7, num_nodes(rounds, arity)
            )
            tree = DecisionTree(rounds, arity, nodes)
            table = map_table(exact_distribution(tree, c, nm))
            g = _gradient(tree, table, c, nm, *sample_draws(nm, 3, seed=7))
            h = 1e-6
            for idx in rng.choice(nodes.size, size=min(3, nodes.size), replace=False):
                for comp, part in ((1.0, "real"), (1j, "imag")):
                    up, dn = nodes.copy(), nodes.copy()
                    up[idx] += h * comp
                    dn[idx] -= h * comp
                    d_up = averaged_distribution(DecisionTree(rounds, arity, up), c, nm, 3, seed=7)
                    d_dn = averaged_distribution(DecisionTree(rounds, arity, dn), c, nm, 3, seed=7)
                    lu, ld = error_rate(d_up, table), error_rate(d_dn, table)
                    fd = (lu - ld) / (2 * h)
                    got = getattr(g[idx], part)
                    assert abs(got - fd) <= 1e-5 * max(abs(fd), 1e-3)


class TestFormulate:
    def test_learns_optimized_kennedy_single_round(self):
        nbar = 0.4
        c = bpsk(nbar)
        a = math.sqrt(nbar)
        u = np.linspace(-2 - 3 * a, 2 + 3 * a, 2_000_001)
        q0, q1 = np.exp(-((a - u) ** 2)), np.exp(-((a + u) ** 2))
        scan = 1 - 0.5 * (np.maximum(q0, q1) + np.maximum(1 - q0, 1 - q1))
        cfg = FormulatorConfig(max_iterations=3000, batch_size=1, convergence_window=50,
                               convergence_delta=1e-13, init_perturbation=0.0, seed=1)
        res = formulate(c, 1, 2, IDEAL, cfg)
        assert abs(res.final_loss - scan.min()) < 1e-9
        assert abs(abs(res.tree.nodes[0]) - abs(u[scan.argmin()])) < 1e-3

    def test_zero_energy_constellation_flat_trace(self):
        c = custom(np.zeros(3, dtype=complex), np.array([0.5, 0.3, 0.2]))
        cfg = FormulatorConfig(max_iterations=30, batch_size=2, seed=0)
        res = formulate(c, 2, 2, IDEAL, cfg)
        np.testing.assert_allclose(res.trace.loss, 0.5, atol=1e-12)
        assert abs(res.final_loss - 0.5) < 1e-12

    def test_deterministic_end_to_end(self):
        c = bpsk(0.9)
        cfg = FormulatorConfig(max_iterations=40, batch_size=6, seed=123)
        r1 = formulate(c, 3, 2, LAB, cfg)
        r2 = formulate(c, 3, 2, LAB, cfg)
        np.testing.assert_array_equal(r1.tree.nodes, r2.tree.nodes)
        np.testing.assert_array_equal(r1.table.guesses, r2.table.guesses)
        np.testing.assert_array_equal(r1.trace.loss, r2.trace.loss)
        np.testing.assert_array_equal(r1.trace.gradient_norm, r2.trace.gradient_norm)
        assert r1.final_loss == r2.final_loss

    def test_frozen_batch_steps_are_monotone(self):
        c = bpsk(0.8)
        cfg = FormulatorConfig(max_iterations=60, batch_size=5, seed=7)
        res = formulate(c, 4, 2, LAB, cfg)
        t = res.trace
        assert np.all(t.loss_post_table <= t.loss_start + 1e-12)
        assert np.all(t.loss <= t.loss_post_table + 1e-12)

    def test_monotone_trace_without_jitter(self):
        nm = NoiseModel(visibility=0.995, efficiency=0.9, dark_counts=2e-3)
        c = bpsk(1.1)
        cfg = FormulatorConfig(max_iterations=120, batch_size=4, seed=2)
        res = formulate(c, 4, 2, nm, cfg)
        # the batch never changes, so end-of-iteration losses never increase
        assert np.all(np.diff(res.trace.loss) <= 1e-12)

    def test_symmetric_bpsk_stays_real(self):
        cfg = FormulatorConfig(max_iterations=80, batch_size=1,
                               init_perturbation=0.0, seed=4)
        res = formulate(bpsk(1.0), 3, 2, IDEAL, cfg)
        assert np.abs(res.tree.nodes.imag).max() < 1e-6

    def test_improves_on_cn_under_noise(self):
        c = bpsk(1.2)
        cfg = FormulatorConfig(max_iterations=150, batch_size=8, seed=5)
        res = formulate(c, 4, 2, LAB, cfg)
        tree, table = cn_receiver(c, 4, 2)
        cn_loss = error_rate(averaged_distribution(tree, c, LAB, 80, seed=900), table)
        q_loss = error_rate(averaged_distribution(res.tree, c, LAB, 80, seed=900), res.table)
        assert q_loss < cn_loss

    @pytest.mark.parametrize("nbar", [0.0, 0.8])
    def test_initial_tree_is_never_written(self, nbar):
        # at zero energy every gradient is zero and the start is the best
        # iterate; otherwise the loop steps away from it
        c = bpsk(nbar)
        tree = init_tree(c, 3, 2, 0.05, seed=1)
        before = tree.nodes.tobytes()
        tree.nodes.setflags(write=False)
        cfg = FormulatorConfig(max_iterations=10, batch_size=4, seed=2)
        res = formulate(c, 3, 2, LAB, cfg, initial_tree=tree)
        assert tree.nodes.tobytes() == before
        assert (res.tree is tree) == (nbar == 0.0)

    def test_held_out_batch_beyond_memory_fails_before_learning(self, monkeypatch):
        # the held-out batch, ten training batches, is drawn before the
        # initial tree is built or any forward runs
        def no_learning(*args, **kwargs):
            raise AssertionError("learning began before the held-out batch was drawn")

        monkeypatch.setattr(formulator, "init_tree", no_learning)
        monkeypatch.setattr(formulator, "_batch_forward", no_learning)
        cfg = FormulatorConfig(batch_size=2**62)
        draws = formulator._HOLDOUT_FACTOR * 2**62
        with pytest.raises(ValueError, match=f"jitter sampler cannot hold {draws} draws: it keeps 32 bytes"):
            formulate(bpsk(1.0), 2, 2, LAB, cfg)

    def test_initial_tree_shape_checked(self):
        cfg = FormulatorConfig(max_iterations=5, batch_size=1, seed=0)
        with pytest.raises(ValueError):
            formulate(bpsk(1.0), 3, 2, IDEAL, cfg, initial_tree=DecisionTree.zeros(2, 2))


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_iterations=0),
            dict(batch_size=0),
            dict(learning_rate=0.0),
            dict(convergence_window=1),
            dict(convergence_delta=0.0),
            dict(init_perturbation=-0.1),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            FormulatorConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(batch_size=2.5), "batch_size must be an integer, got 2.5"),
            (dict(max_iterations=3.5), "max_iterations must be an integer, got 3.5"),
            (dict(convergence_window=2.5), "convergence_window must be an integer, got 2.5"),
            (dict(max_iterations=0), "max_iterations must be at least 1, got 0"),
            (dict(convergence_window=1), "convergence_window must be at least 2, got 1"),
        ],
    )
    def test_counts_are_refused_in_their_own_words(self, kwargs, message):
        # batch_size=2.5 was once accepted, and formulate failed inside numpy
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            FormulatorConfig(**kwargs)


class TestExhaustedLineSearch:
    def test_a_step_too_large_for_every_halving_is_flagged(self):
        # every halving of 1e200 leaves a step the spec loader refuses, so the
        # iterate never moves and the run "converges" at its start
        cfg = FormulatorConfig(max_iterations=60, learning_rate=1e200)
        res = formulate(qam6(1.0), 3, 3, NoiseModel(), cfg)
        assert res.trace.exhausted.dtype == bool
        assert res.trace.exhausted.all() and res.trace.converged
        assert (res.trace.gradient_norm > 0).all()
        assert np.unique(res.trace.loss).size == 1

    def test_a_run_that_descends_is_not_flagged(self):
        res = formulate(bpsk(1.0), 3, 2, NoiseModel(), FormulatorConfig(max_iterations=10, batch_size=4))
        assert res.trace.exhausted.shape == res.trace.loss.shape
        assert not res.trace.exhausted.any()


def result_bytes(res):
    """Every array and value of a learning result, as bytes and plain values."""
    t = res.trace
    arrays = (res.tree.nodes, res.table.guesses, t.iteration, t.loss, t.gradient_norm,
              t.loss_start, t.loss_post_table)
    return [a.tobytes() for a in arrays], t.converged, t.best_iteration, res.final_loss


# (mean photons, rounds, noise model, config): the Dolinar start wins by
# 6e-7; both starts reach a loss of exactly 0 with different trees
SWEEP_POINTS = {
    "dolinar_wins": (0.5, 3, LAB, FormulatorConfig(max_iterations=60, batch_size=4, seed=8)),
    "tie": (20.0, 2, IDEAL, FormulatorConfig(max_iterations=10, batch_size=1,
                                             init_perturbation=0.0, seed=8)),
}


@pytest.mark.parametrize("point", sorted(SWEEP_POINTS))
def test_optimize_sweep_keeps_the_first_best_start(point):
    # a one-point BPSK grid runs the CN start, then the Dolinar start, at
    # the sweep's config for that point; the lowest held-out loss wins, and
    # a tie goes to the CN start
    nbar, rounds, nm, cfg = SWEEP_POINTS[point]
    ((got_nbar, got),) = optimize_sweep(bpsk, [nbar], rounds, 2, nm, cfg)
    c = bpsk(nbar)
    runs = [formulate(c, rounds, 2, nm, cfg, initial_tree=t) for t in (None, dolinar_tree(nbar, rounds))]
    want = min(runs, key=lambda r: r.final_loss)
    assert got_nbar == nbar
    assert result_bytes(got) == result_bytes(want)
    if point == "tie":
        assert runs[0].final_loss == runs[1].final_loss
        assert runs[0].tree.nodes.tobytes() != runs[1].tree.nodes.tobytes()
        assert want is runs[0]
    else:
        assert want is runs[1]


def test_optimize_sweep_warm_starts_across_far_apart_points():
    # the points' quotient overflows to inf, and a zero node times inf was
    # NaN; the warm start takes the quotient of their roots instead, or is
    # dropped where the spec loader would refuse it
    cfg = FormulatorConfig(max_iterations=1, batch_size=2, seed=185)
    got = optimize_sweep(bpsk, [1e-300, 1e10], 4, 2, LAB, cfg)
    assert [nbar for nbar, _ in got] == [1e-300, 1e10]


def reference_formulate(c, rounds, arity, nm, cfg):
    """The learning loop with a separate MAP-table forward per iteration and
    every iteration's seed spawned up front, from public pieces."""
    init_seq, holdout_seq, iter_root = np.random.SeedSequence(cfg.seed).spawn(3)
    tree = init_tree(c, rounds, arity, cfg.init_perturbation, init_seq)
    iter_seqs = iter_root.spawn(cfg.max_iterations)
    table, rows = None, []
    best_loss, best_tree = math.inf, tree
    for it in range(cfg.max_iterations):
        phase, scale = sample_draws(nm, cfg.batch_size, iter_seqs[it])
        dist = batch_distribution(tree, c, nm, phase, scale)
        new_table = map_table(dist)
        loss_start = error_rate(dist, table if table is not None else new_table)
        table = new_table
        loss_post_table = error_rate(dist, table)
        grad = _gradient(tree, table, c, nm, phase, scale)
        gnorm = float(np.linalg.norm(grad.view(np.float64)))
        loss_end = loss_post_table
        if gnorm > 0:
            step = cfg.learning_rate
            for _ in range(formulator._MAX_BACKTRACKS):
                cand = DecisionTree(rounds, arity, tree.nodes - step * grad)
                cand_loss = error_rate(batch_distribution(cand, c, nm, phase, scale), table)
                if cand_loss <= loss_post_table:
                    tree, loss_end = cand, cand_loss
                    break
                step *= 0.5
        rows.append((loss_end, gnorm, loss_start, loss_post_table))
        if loss_end < best_loss:
            best_loss, best_tree = loss_end, tree
        window = cfg.convergence_window
        if it >= window and rows[it - window][0] - loss_end < cfg.convergence_delta:
            break
    holdout = sample_draws(nm, formulator._HOLDOUT_FACTOR * cfg.batch_size, holdout_seq)
    final = batch_distribution(best_tree, c, nm, *holdout)
    return best_tree, np.array(rows), error_rate(final, map_table(final))


# (constellation, rounds, arity, noise model, batch size): one chunk of draws
# a batch, a QAM6 tree, and no jitter (the batch collapses to one draw)
LEARNING_CASES = {
    "bpsk_lab": (bpsk(0.8), 4, 2, LAB, 16),
    "qam6_jitter": (qam6(4.0), 2, 3, NoiseModel(visibility=0.995, phase_jitter=0.03,
                                                amplitude_jitter=0.02), 5),
    "bpsk_ideal": (bpsk(1.2), 3, 2, IDEAL, 8),
}
# a batch of the BPSK case spans four chunks of at most five draws
FIVE_BPSK_DRAWS = 5 * 2 * 2**4


class TestLevelBatchedLoop:
    @pytest.mark.parametrize("chunk_elems", [None, FIVE_BPSK_DRAWS])
    @pytest.mark.parametrize("case", sorted(LEARNING_CASES))
    def test_loop_equals_the_separate_forward_loop_bit_for_bit(self, monkeypatch, case, chunk_elems):
        c, rounds, arity, nm, batch = LEARNING_CASES[case]
        if chunk_elems is not None:
            monkeypatch.setattr(simulator, "_CHUNK_ELEMS", chunk_elems)
        cfg = FormulatorConfig(max_iterations=25, batch_size=batch, seed=3)
        res = formulate(c, rounds, arity, nm, cfg)
        tree, rows, final_loss = reference_formulate(c, rounds, arity, nm, cfg)
        assert res.tree.nodes.tobytes() == tree.nodes.tobytes()
        trace = np.stack([res.trace.loss, res.trace.gradient_norm,
                          res.trace.loss_start, res.trace.loss_post_table], axis=1)
        assert trace.tobytes() == rows.tobytes()
        assert res.final_loss == final_loss

    @staticmethod
    def count_calls(monkeypatch):
        """Counts the photonics kernel calls made through every other module,
        and the learning loop's error_rate calls."""
        calls = {"kernel": 0, "error_rate": 0}

        def counting(fn, key):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        kernels = ("detected_mean", "outcome_probs", "outcome_prob_derivs")
        for name, module in list(sys.modules.items()):
            if name.startswith("coherentrx.") and name != "coherentrx.photonics":
                for kernel in kernels:
                    if kernel in vars(module):
                        monkeypatch.setattr(module, kernel, counting(vars(module)[kernel], "kernel"))
        monkeypatch.setattr(formulator, "error_rate", counting(formulator.error_rate, "error_rate"))
        return calls

    @pytest.mark.parametrize("chunk_elems", [None, FIVE_BPSK_DRAWS])
    @pytest.mark.parametrize("case", sorted(LEARNING_CASES))
    def test_one_forward_per_iteration_and_line_search_step(self, monkeypatch, case, chunk_elems):
        c, rounds, arity, nm, batch = LEARNING_CASES[case]
        if chunk_elems is not None:
            monkeypatch.setattr(simulator, "_CHUNK_ELEMS", chunk_elems)
        calls = self.count_calls(monkeypatch)
        cfg = FormulatorConfig(max_iterations=25, batch_size=batch, seed=3)
        res = formulate(c, rounds, arity, nm, cfg)
        iterations = len(res.trace)
        # two losses an iteration, one a line-search step, one held out
        evals = calls["error_rate"] - 2 * iterations - 1
        assert evals >= iterations
        per_draw = c.n_codewords * arity**rounds
        step = max(1, simulator._CHUNK_ELEMS // per_draw)
        draws = 1 if nm.is_deterministic else batch
        chunks = -(-draws // step)
        holdout = 1 if nm.is_deterministic else formulator._HOLDOUT_FACTOR * batch
        holdout_chunks = -(-holdout // step)
        # a forward is one detected-mean call and one binned-Poisson call for
        # all nodes; an iteration's gradient reuses its table's forward of the
        # last chunk and computes the other chunks' again; the CN start
        # runs one forward for each level but the first
        forwards = (iterations * (2 * chunks - 1) + evals * chunks + holdout_chunks
                    + (rounds - 1))
        assert calls["kernel"] == 2 * forwards
        if chunk_elems is not None and case != "bpsk_ideal":
            assert chunks > 1

    def test_one_chunk_forward_alive_at_a_time(self, monkeypatch):
        # a batch of three chunks: the table's forward of the last chunk is
        # handed to the gradient and freed before any other chunk's forward
        # is computed again, so the peak stays near a one-chunk batch's
        c = qam6(4.0)
        tree = init_tree(c, 4, 3, 0.01, seed=0)
        monkeypatch.setattr(simulator, "_CHUNK_ELEMS", 20 * 6 * 3**4)
        peaks = {}
        for batch in (20, 60, 20, 60):
            cfg = FormulatorConfig(max_iterations=2, batch_size=batch, seed=1)
            tracemalloc.start()
            try:
                formulate(c, 4, 3, LAB, cfg, initial_tree=tree)
                peaks[batch] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # 0.72 against 0.69 MB; a second forward alive reads 1.07 MB
        assert peaks[60] <= 1.1 * peaks[20]
