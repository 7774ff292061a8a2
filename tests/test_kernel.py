"""The batched forward kernel and gradient sweep against per-draw loops.

The references below evaluate one draw at a time with scalar jitter, the
way the forward recursion and the gradient sweep are written for a single
receiver run.  The batched code performs the same elementwise arithmetic
and sums over draws in the same order, so the comparisons are exact.  The
Monte Carlo sampler is compared the same way with a sampler that applies
the jitter kernel to each draw's phase and scale in every round, and with a
sampler that keeps whole-run arrays and makes each draw in one call.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coherentrx import simulator
from coherentrx.baselines import cn_receiver
from coherentrx.constellation import bpsk, custom, qam6
from coherentrx.formulator import _gradient
from coherentrx.photonics import (
    NoiseModel,
    detected_mean,
    outcome_prob_derivs,
    outcome_probs,
    sample_draws,
)
from coherentrx.simulator import (
    averaged_distribution,
    batch_distribution,
    error_rate,
    exact_distribution,
    map_table,
    mc_sample,
)
from coherentrx.tree import DecisionTree, level_offset, num_nodes


def path_probs(tree, c, nm, phase, scale):
    """Per-draw path probabilities ``(B, K, M^N)``: the forward recursion's last level."""
    return simulator._forward(tree, c, nm, *simulator._check_draws(phase, scale))[0][-1]


def random_instance(rng, rounds, arity, k_codes):
    amps = rng.normal(0, 0.8, k_codes) + 1j * rng.normal(0, 0.8, k_codes)
    pri = rng.uniform(0.2, 1.0, k_codes)
    c = custom(amps, pri / pri.sum())
    n = num_nodes(rounds, arity)
    tree = DecisionTree(rounds, arity, rng.normal(0, 0.8, n) + 1j * rng.normal(0, 0.8, n))
    nm = NoiseModel(
        visibility=float(rng.choice([1.0, rng.uniform(0.9, 1.0)])),
        efficiency=float(rng.uniform(0.6, 1.0)),
        dark_counts=float(rng.uniform(0.0, 0.02)),
        phase_jitter=float(rng.uniform(0.01, 0.1)),
        amplitude_jitter=float(rng.uniform(0.005, 0.05)),
    )
    return tree, c, nm


def reference_probs(tree, c, nm, phase, scale):
    """One draw: scalar jitter ``phase``, ``scale``, the same in every round."""
    slices = c.amplitudes / math.sqrt(tree.rounds)
    probs = np.ones((c.n_codewords, 1))
    for level in range(tree.rounds):
        disp = tree.level_nodes(level)
        rot = float(scale) * np.exp(1j * float(phase))
        means = detected_mean(slices[:, None], rot * disp[None, :], nm)
        q = outcome_probs(means, tree.arity)
        probs = (probs[:, :, None] * q).reshape(c.n_codewords, -1)
    return probs


def reference_gradient(tree, table, c, nm, draws):
    """Forward/backward sweep one draw at a time, summed in draw order.

    ``draws`` is a ``(phase, scale)`` pair of arrays, read as Python floats.
    """
    n, m = tree.rounds, tree.arity
    k_codes = c.n_codewords
    slices = c.amplitudes / math.sqrt(n)
    labels = np.arange(k_codes)
    weights = c.priors[:, None] * (table.guesses[None, :] == labels[:, None])
    gx = np.zeros(num_nodes(n, m))
    gy = np.zeros(num_nodes(n, m))
    for phase, a in zip(*(x.tolist() for x in draws)):
        w = slices * np.exp(-1j * phase)
        q_levels, dq_levels = [], []
        forward = [np.ones((k_codes, 1))]
        for level in range(n):
            u = tree.level_nodes(level)
            rot = a * np.exp(1j * phase)
            means = detected_mean(slices[:, None], rot * u[None, :], nm)
            q, dq = outcome_prob_derivs(means, m)
            q_levels.append(q)
            dq_levels.append(dq)
            forward.append((forward[-1][:, :, None] * q).reshape(k_codes, -1))
        backward = weights
        for level in range(n - 1, -1, -1):
            b_next = backward.reshape(k_codes, m**level, m)
            coeff = forward[level] * (dq_levels[level] * b_next).sum(axis=2)
            u = tree.level_nodes(level)
            dn_dx = nm.efficiency * (
                2.0 * a * a * u.real[None, :] - 2.0 * nm.visibility * a * w.real[:, None]
            )
            dn_dy = nm.efficiency * (
                2.0 * a * a * u.imag[None, :] - 2.0 * nm.visibility * a * w.imag[:, None]
            )
            start = level_offset(m, level)
            stop = start + m**level
            gx[start:stop] += (coeff * dn_dx).sum(axis=0)
            gy[start:stop] += (coeff * dn_dy).sum(axis=0)
            backward = (q_levels[level] * b_next).sum(axis=2)
    return -(gx + 1j * gy) / draws[0].size


def random_shapes(seed):
    rng = np.random.default_rng(seed)
    return (
        rng,
        int(rng.integers(1, 5)),
        int(rng.integers(2, 5)),
        int(rng.integers(2, 7)),
    )


@pytest.mark.parametrize("batch", [1, 3, 16])
@pytest.mark.parametrize("seed", range(6))
def test_path_probs_per_run_matches_reference_loop(seed, batch):
    rng, rounds, arity, k_codes = random_shapes(seed)
    tree, c, nm = random_instance(rng, rounds, arity, k_codes)
    phase = rng.normal(0.0, 0.1, batch)
    scale = rng.normal(1.0, 0.05, batch)
    got = path_probs(tree, c, nm, phase, scale)
    assert got.shape == (batch, k_codes, arity**rounds)
    for b in range(batch):
        want = reference_probs(tree, c, nm, phase[b], scale[b])
        assert np.array_equal(got[b], want)


@pytest.mark.parametrize("seed", range(6))
def test_exact_distribution_matches_reference_loop(seed):
    # a batch of one through the accumulator: 0.0 + p and p / 1 keep every bit
    rng, rounds, arity, k_codes = random_shapes(seed)
    tree, c, nm = random_instance(rng, rounds, arity, k_codes)
    phase, scale = float(rng.normal(0.0, 0.1)), float(rng.normal(1.0, 0.05))
    got = batch_distribution(tree, c, nm, [phase], [scale]).probs
    assert got.tobytes() == reference_probs(tree, c, nm, phase, scale).tobytes()
    # exact_distribution is the ideal draw: phase 0, scale 1
    got = exact_distribution(tree, c, nm).probs
    assert got.tobytes() == reference_probs(tree, c, nm, 0.0, 1.0).tobytes()


@pytest.mark.parametrize("batch", [1, 3, 16])
@pytest.mark.parametrize("seed", range(12, 18))
def test_gradient_matches_reference_loop(seed, batch):
    rng, rounds, arity, k_codes = random_shapes(seed)
    tree, c, nm = random_instance(rng, rounds, arity, k_codes)
    draws = sample_draws(nm, batch, seed)
    table = map_table(averaged_distribution(tree, c, nm, batch, seed))
    got = _gradient(tree, table, c, nm, *draws)
    assert np.array_equal(got, reference_gradient(tree, table, c, nm, draws))


def test_batch_mean_is_sequential_and_chunk_invariant(monkeypatch):
    rng, rounds, arity, k_codes = random_shapes(20)
    tree, c, nm = random_instance(rng, rounds, arity, k_codes)
    phase = rng.normal(0.0, 0.1, 40)
    scale = rng.normal(1.0, 0.05, 40)
    acc = np.zeros((k_codes, arity**rounds))
    for b in range(40):
        acc += reference_probs(tree, c, nm, phase[b], scale[b])
    whole = batch_distribution(tree, c, nm, phase, scale).probs
    monkeypatch.setattr(simulator, "_CHUNK_ELEMS", 1)
    chunked = batch_distribution(tree, c, nm, phase, scale).probs
    assert np.array_equal(whole, acc / 40)
    assert np.array_equal(chunked, whole)


def test_chunked_gradient_matches_reference_loop(monkeypatch):
    rng, rounds, arity, k_codes = random_shapes(21)
    tree, c, nm = random_instance(rng, rounds, arity, k_codes)
    draws = sample_draws(nm, 7, 21)
    table = map_table(averaged_distribution(tree, c, nm, 7, 21))
    monkeypatch.setattr(simulator, "_CHUNK_ELEMS", 1)
    got = _gradient(tree, table, c, nm, *draws)
    assert np.array_equal(got, reference_gradient(tree, table, c, nm, draws))


def test_shape_validation():
    rng, _, _, _ = random_shapes(0)
    tree, c, nm = random_instance(rng, 3, 2, 2)
    with pytest.raises(ValueError):
        batch_distribution(tree, c, nm, np.zeros(3), np.ones(2))
    with pytest.raises(ValueError):
        batch_distribution(tree, c, nm, np.zeros((4, 2)), np.ones((4, 2)))
    with pytest.raises(ValueError):
        batch_distribution(tree, c, nm, np.zeros(2), np.array([1.0, 0.0]))


instance_seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=40, deadline=None)
@given(seed=instance_seeds, batch=st.integers(1, 8))
def test_rows_sum_to_one(seed, batch):
    rng, rounds, arity, k_codes = random_shapes(seed)
    tree, c, nm = random_instance(rng, rounds, arity, k_codes)
    probs = path_probs(tree, c, nm, rng.normal(0.0, 0.3, batch), rng.uniform(0.5, 1.5, batch))
    np.testing.assert_allclose(probs.sum(axis=2), 1.0, rtol=0, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(seed=instance_seeds, theta=st.floats(-math.pi, math.pi, allow_nan=False))
def test_common_phase_rotation_invariance(seed, theta):
    rng, rounds, arity, k_codes = random_shapes(seed)
    tree, c, nm = random_instance(rng, rounds, arity, k_codes)
    rot = np.exp(1j * theta)
    c_rot = custom(c.amplitudes * rot, c.priors)
    tree_rot = DecisionTree(rounds, arity, tree.nodes * rot)
    phase = rng.normal(0.0, 0.1, 4)
    scale = rng.normal(1.0, 0.05, 4)
    np.testing.assert_allclose(
        path_probs(tree_rot, c_rot, nm, phase, scale),
        path_probs(tree, c, nm, phase, scale),
        rtol=0,
        atol=1e-12,
    )


@settings(max_examples=40, deadline=None)
@given(seed=instance_seeds, batch=st.integers(1, 4))
def test_label_permutation_permutes_rows_exactly(seed, batch):
    # each codeword's row is computed from its own amplitude alone
    rng, rounds, arity, k_codes = random_shapes(seed)
    tree, c, nm = random_instance(rng, rounds, arity, k_codes)
    perm = rng.permutation(k_codes)
    c_perm = custom(c.amplitudes[perm], c.priors[perm])
    phase, scale = rng.normal(0.0, 0.1, batch), rng.normal(1.0, 0.05, batch)
    want = path_probs(tree, c, nm, phase, scale)[:, perm]
    assert path_probs(tree, c_perm, nm, phase, scale).tobytes() == want.tobytes()
    want = averaged_distribution(tree, c, nm, batch, seed).probs[perm]
    assert averaged_distribution(tree, c_perm, nm, batch, seed).probs.tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    seed=instance_seeds,
    nbar=st.floats(0.01, 4.0),
    noisy=st.booleans(),
    shape=st.sampled_from([(1, 2), (3, 2), (4, 2), (2, 3), (3, 4)]),
)
def test_bpsk_mirror_keeps_the_error(seed, nbar, noisy, shape):
    # negating every node and swapping the codewords +a and -a negates each
    # slice - node difference, so every detected mean keeps its bits
    rounds, arity = shape
    rng = np.random.default_rng(seed)
    c = bpsk(nbar)
    n = num_nodes(rounds, arity)
    tree = DecisionTree(rounds, arity, rng.normal(0, 0.8, n) + 1j * rng.normal(0, 0.8, n))
    mirror = DecisionTree(rounds, arity, -tree.nodes)
    swapped = custom(c.amplitudes[::-1], c.priors[::-1])
    nm = random_instance(rng, 1, 2, 2)[2] if noisy else NoiseModel()
    table = map_table(averaged_distribution(tree, c, nm, 8, seed))
    for batch in (1, 8):
        want = error_rate(averaged_distribution(tree, c, nm, batch, seed), table)
        assert error_rate(averaged_distribution(mirror, swapped, nm, batch, seed), table) == want
    want = mc_sample(tree, table, c, nm, 2000, seed)
    got = mc_sample(mirror, table, swapped, nm, 2000, seed)
    assert got.num_errors == want.num_errors
    np.testing.assert_array_equal(got.path_counts, want.path_counts)


@settings(max_examples=40, deadline=None)
@given(seed=instance_seeds, batch=st.integers(1, 4))
def test_gradient_matches_central_differences(seed, batch):
    rng, rounds, arity, k_codes = random_shapes(seed)
    tree, c, nm = random_instance(rng, rounds, arity, k_codes)
    phase, scale = sample_draws(nm, batch, seed)
    table = map_table(batch_distribution(tree, c, nm, phase, scale))
    grad = _gradient(tree, table, c, nm, phase, scale)

    def loss_at(nodes):
        d = batch_distribution(DecisionTree(rounds, arity, nodes), c, nm, phase, scale)
        return error_rate(d, table)

    h = 1e-6
    fd = np.zeros(tree.nodes.size, dtype=complex)
    for j in range(tree.nodes.size):
        for comp in (1.0, 1j):
            up, dn = tree.nodes.copy(), tree.nodes.copy()
            up[j] += h * comp
            dn[j] -= h * comp
            fd[j] += (loss_at(up) - loss_at(dn)) / (2 * h) * comp
    # the rule of acceptance criterion 4: central differences carry ~1e-10
    # cancellation noise, so the relative scale is floored at 1e-4
    ref = max(float(np.abs(fd).max()), 1e-4)
    assert float(np.abs(grad - fd).max()) / ref < 1e-5


def reference_mean(b, u, nm, phase, scale):
    """The detected mean with the jitter rotation applied inside the kernel."""
    b = np.asarray(b, dtype=np.complex128)
    u = np.asarray(u, dtype=np.complex128)
    u_eff = np.asarray(scale) * np.exp(1j * np.asarray(phase)) * u
    if nm.visibility == 1.0:
        raw = np.abs(b - u_eff) ** 2
    else:
        cross = (b * np.conj(u_eff)).real
        raw = np.abs(b) ** 2 + np.abs(u_eff) ** 2 - 2.0 * nm.visibility * cross
    return nm.efficiency * np.maximum(raw, 0.0) + nm.dark_counts


def reference_mc_sample(tree, table, c, nm, num_runs, seed):
    """Runs sampled with the jitter kernel on each draw's phase and scale."""
    rng = np.random.default_rng(seed)
    y = rng.choice(c.n_codewords, size=num_runs, p=c.priors)
    slices = c.amplitudes[y] / np.sqrt(tree.rounds)
    phase = (
        rng.normal(0.0, nm.phase_jitter, num_runs)
        if nm.phase_jitter > 0
        else np.zeros(num_runs)
    )
    scale = np.ones(num_runs)
    if nm.amplitude_jitter > 0:
        scale = rng.normal(1.0, nm.amplitude_jitter, num_runs)
        bad = scale <= 0
        while np.any(bad):
            scale[bad] = rng.normal(1.0, nm.amplitude_jitter, int(bad.sum()))
            bad = scale <= 0
    leaf = np.zeros(num_runs, dtype=np.int64)
    for level in range(tree.rounds):
        disp = tree.level_nodes(level)[leaf]
        means = reference_mean(slices, disp, nm, phase, scale)
        k = np.minimum(rng.poisson(means), tree.arity - 1)
        leaf = leaf * tree.arity + k
    errors = int(np.count_nonzero(table.guesses[leaf] != y))
    return errors, np.bincount(leaf, minlength=tree.arity**tree.rounds)


@pytest.mark.parametrize("visibility", [1.0, 0.97])
def test_jitter_kernel_is_rotation_then_detected_mean(visibility):
    rng = np.random.default_rng(40)
    nm = NoiseModel(visibility=visibility, efficiency=0.8, dark_counts=0.0)
    b = rng.normal(0, 0.8, (4, 1, 1)) + 1j * rng.normal(0, 0.8, (4, 1, 1))
    u = rng.normal(0, 0.8, (1, 5, 1)) + 1j * rng.normal(0, 0.8, (1, 5, 1))
    # the last displacement nulls the first slice exactly
    u[0, -1, 0] = b[0, 0, 0]
    phase = np.append(rng.normal(0.0, 0.1, 2), 0.0)[None, None, :]
    scale = np.append(rng.normal(1.0, 0.05, 2), 1.0)[None, None, :]
    u_eff = (scale * np.exp(1j * phase)) * u
    got = detected_mean(b, u_eff, nm)
    assert got.shape == (4, 5, 3)
    assert np.array_equal(got, reference_mean(b, u, nm, phase, scale))
    with_power = detected_mean(b, u_eff, nm, slice_power=np.abs(b) ** 2)
    assert np.array_equal(with_power, got)
    # under exact nulling only the visibility residual 2*(1 - xi)*|b|^2 is left
    residual = nm.efficiency * 2.0 * (1.0 - visibility) * float(np.abs(b[0, 0, 0]) ** 2)
    null = got[0, -1, -1]
    if visibility == 1.0:
        assert null == 0.0
    else:
        assert abs(null - residual) <= 1e-12 * residual
    # scalar jitter, as the single-run callers pass it
    for k in range(3):
        rot = float(scale[0, 0, k]) * np.exp(1j * float(phase[0, 0, k]))
        scalar = detected_mean(b, rot * u, nm)
        assert np.array_equal(scalar, got[:, :, k : k + 1])


@pytest.mark.parametrize("small_chunks", [False, True])
@pytest.mark.parametrize("jitter", [False, True])
@pytest.mark.parametrize("unit_visibility", [True, False])
@pytest.mark.parametrize("seed", range(30, 33))
def test_mc_sample_matches_reference_loop(monkeypatch, seed, unit_visibility, jitter, small_chunks):
    if small_chunks:
        # 313 chunks of 64 runs, the last one partial
        monkeypatch.setattr(simulator, "_CHUNK_ELEMS", 1024)
    rng, rounds, arity, k_codes = random_shapes(seed)
    tree, c, nm = random_instance(rng, rounds, arity, k_codes)
    if unit_visibility:
        nm = replace(nm, visibility=1.0)
    elif nm.visibility == 1.0:
        nm = replace(nm, visibility=0.95)
    if not jitter:
        nm = replace(nm, phase_jitter=0.0, amplitude_jitter=0.0)
    table = map_table(exact_distribution(tree, c, nm))
    got = mc_sample(tree, table, c, nm, 20_000, seed)
    errors, counts = reference_mc_sample(tree, table, c, nm, 20_000, seed)
    assert got.num_errors == errors
    assert np.array_equal(got.path_counts, counts)


@pytest.mark.parametrize("one_run_chunks", [False, True])
@pytest.mark.parametrize("num_runs", [7, 1001])
@pytest.mark.parametrize("seed", [34, 35])
def test_chunked_mc_sample_matches_reference_loop(monkeypatch, seed, num_runs, one_run_chunks):
    # chunks of 64 runs: 7 runs fit in one, 1001 end in a partial chunk;
    # or chunks of a single run, so that every draw is made one run at a time
    monkeypatch.setattr(simulator, "_CHUNK_ELEMS", 16 if one_run_chunks else 1024)
    rng, rounds, arity, k_codes = random_shapes(seed)
    tree, c, nm = random_instance(rng, rounds, arity, k_codes)
    if nm.visibility == 1.0:
        nm = replace(nm, visibility=0.95)
    table = map_table(exact_distribution(tree, c, nm))
    got = mc_sample(tree, table, c, nm, num_runs, seed)
    errors, counts = reference_mc_sample(tree, table, c, nm, num_runs, seed)
    assert got.num_errors == errors
    assert np.array_equal(got.path_counts, counts)


def test_mc_sample_reaches_the_last_leaf_of_a_full_tree():
    # 16 binary rounds make MAX_LEAVES = 2^16 paths; with zero displacements
    # each round's mean is ln 2, so every outcome has probability 1/2 and
    # the leaf indices run up to 2^16 - 1
    c = bpsk(16 * math.log(2))
    tree = DecisionTree(16, 2, np.zeros(num_nodes(16, 2), dtype=np.complex128))
    nm = NoiseModel()
    table = map_table(exact_distribution(tree, c, nm))
    got = mc_sample(tree, table, c, nm, 150_000, 3)
    errors, counts = reference_mc_sample(tree, table, c, nm, 150_000, 3)
    assert got.num_errors == errors
    assert np.array_equal(got.path_counts, counts)
    assert counts.size == 1 << 16 and counts[-1] > 0


@pytest.mark.parametrize("small_chunks", [False, True])
def test_mc_sample_memory_per_run_is_bounded(monkeypatch, small_chunks):
    # whole-run arrays take 19 bytes a run with jitter and one chunk's
    # temporaries a fixed ~1.6 MB (~8 bytes a run here); a round's
    # temporaries held for every run would take ~100 bytes a run.  With
    # small chunks (49 of 4096 runs) the per-chunk redraw indices must stay
    # small too
    if small_chunks:
        monkeypatch.setattr(simulator, "_CHUNK_ELEMS", 1 << 16)
    c = qam6(7.8)
    tree, table = cn_receiver(c, 6, 3)
    nm = NoiseModel(visibility=0.997, dark_counts=1e-3, phase_jitter=0.02, amplitude_jitter=0.005)
    num_runs = 200_000
    tracemalloc.start()
    try:
        mc_sample(tree, table, c, nm, num_runs, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / num_runs < 40


def whole_run_mc_sample(tree, table, c, nm, num_runs, seed):
    """The sampler with whole-run arrays: every draw over all runs is one call.

    It keeps a run-length rotation array even without jitter (``1+0j``
    times each displacement), int64 codewords and leaves, and multiplies in
    the amplitude scales once all redraws are done.  Returns the error
    count, the path counts and the number of redraw calls (one per pass over
    the still non-positive scales).
    """
    rng = np.random.default_rng(seed)
    y = rng.choice(c.n_codewords, size=num_runs, p=c.priors)
    code_slices = c.amplitudes / np.sqrt(tree.rounds)
    code_power = None if nm.visibility == 1.0 else np.abs(code_slices) ** 2
    redraws = 0
    if nm.phase_jitter > 0:
        rot = np.exp(1j * rng.normal(0.0, nm.phase_jitter, num_runs))
    else:
        rot = np.ones(num_runs, dtype=np.complex128)
    if nm.amplitude_jitter > 0:
        scale = rng.normal(1.0, nm.amplitude_jitter, num_runs)
        bad = scale <= 0
        while np.any(bad):
            redraws += 1
            scale[bad] = rng.normal(1.0, nm.amplitude_jitter, int(bad.sum()))
            bad = scale <= 0
        rot *= scale
    leaf = np.zeros(num_runs, dtype=np.int64)
    for level in range(tree.rounds):
        disp = rot * tree.level_nodes(level)[leaf]
        power = None if code_power is None else code_power[y]
        k = rng.poisson(detected_mean(code_slices[y], disp, nm, slice_power=power))
        leaf = leaf * tree.arity + np.minimum(k, tree.arity - 1)
    errors = int(np.count_nonzero(table.guesses[leaf] != y))
    return errors, np.bincount(leaf, minlength=tree.arity**tree.rounds), redraws


NO_JITTER = [
    NoiseModel(),
    NoiseModel(visibility=0.97, efficiency=0.9, dark_counts=0.01),
]


@pytest.mark.parametrize("small_chunks", [False, True])
@pytest.mark.parametrize("nm", NO_JITTER, ids=["ideal", "lossy"])
def test_mc_sample_without_jitter_matches_whole_run_sampler(monkeypatch, nm, small_chunks):
    # no rotation is formed without jitter; only the sign of a zero in a
    # displacement can differ, and the detected mean ignores it
    if small_chunks:
        # 1563 chunks of 64 runs, the last one partial
        monkeypatch.setattr(simulator, "_CHUNK_ELEMS", 1024)
    c = qam6(7.8)
    tree, table = cn_receiver(c, 6, 3)
    for seed in (0, 1):
        got = mc_sample(tree, table, c, nm, 100_000, seed)
        errors, counts, _ = whole_run_mc_sample(tree, table, c, nm, 100_000, seed)
        assert got.num_errors == errors
        assert np.array_equal(got.path_counts, counts)


@pytest.mark.parametrize("chunk_elems", [256, simulator._CHUNK_ELEMS])
@pytest.mark.parametrize("unit_visibility", [False, True])
@pytest.mark.parametrize("phase_jitter", [0.0, 0.1])
def test_mc_sample_scale_redraws_match_whole_run_sampler(
    monkeypatch, phase_jitter, unit_visibility, chunk_elems
):
    # a scale sigma of 0.6 draws a non-positive scale for ~5% of the runs,
    # and some of their redraws are non-positive again; at unit visibility
    # the detected mean takes its form without |b|^2
    monkeypatch.setattr(simulator, "_CHUNK_ELEMS", chunk_elems)
    c = qam6(2.0)
    tree, table = cn_receiver(c, 3, 3)
    nm = NoiseModel(
        visibility=1.0 if unit_visibility else 0.98,
        phase_jitter=phase_jitter,
        amplitude_jitter=0.6,
    )
    got = mc_sample(tree, table, c, nm, 5_001, 9)
    errors, counts, redraws = whole_run_mc_sample(tree, table, c, nm, 5_001, 9)
    assert redraws >= 2
    assert got.num_errors == errors
    assert np.array_equal(got.path_counts, counts)


@pytest.mark.parametrize("small_chunks", [False, True])
@pytest.mark.parametrize("jitter", [True, False])
def test_mc_sample_memory_slope_per_run(monkeypatch, jitter, small_chunks):
    # what grows with num_runs is the codewords (1 byte a run here), the
    # leaves (2) and, with jitter, the rotations (16); one chunk's
    # temporaries are the same at both sizes, about 1.6 MB at the default
    # chunk of 16,384 runs.  With small chunks (16 to 64 of 4096 runs) the
    # list of per-chunk redraw indices grows too, by well under a byte a run
    if small_chunks:
        monkeypatch.setattr(simulator, "_CHUNK_ELEMS", 1 << 16)
    c = qam6(7.8)
    tree, table = cn_receiver(c, 6, 3)
    nm = NoiseModel(visibility=0.997, dark_counts=1e-3)
    if jitter:
        nm = replace(nm, phase_jitter=0.02, amplitude_jitter=0.005)
    # a process's first draw imports modules; keep that out of the peaks
    mc_sample(tree, table, c, nm, 1, 0)
    peaks = []
    for num_runs in (1 << 16, 1 << 18):
        tracemalloc.start()
        try:
            mc_sample(tree, table, c, nm, num_runs, 0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    slope = (peaks[1] - peaks[0]) / ((1 << 18) - (1 << 16))
    assert slope <= (20 if jitter else 4)
    assert peaks[0] - slope * (1 << 16) <= 2.5e6


@pytest.mark.parametrize("jitter", [False, True])
def test_gradient_turns_with_a_common_rotation(jitter):
    # turning the codewords and the nodes by one phase leaves every detected
    # mean as it is, so the gradient in the node displacements turns along
    for seed in range(50):
        rng, rounds, arity, k_codes = random_shapes(seed)
        tree, c, nm = random_instance(rng, rounds, arity, k_codes)
        if not jitter:
            nm = replace(nm, phase_jitter=0.0, amplitude_jitter=0.0)
        turn = np.exp(1j * rng.uniform(-np.pi, np.pi))
        draws = sample_draws(nm, 4, seed)
        table = map_table(batch_distribution(tree, c, nm, *draws))
        grad = _gradient(tree, table, c, nm, *draws)
        tree_rot = DecisionTree(rounds, arity, tree.nodes * turn)
        c_rot = custom(c.amplitudes * turn, c.priors)
        got = _gradient(tree_rot, table, c_rot, nm, *draws)
        # an absolute floor for gradients at a stationary point (|g| ~ 1e-17)
        np.testing.assert_allclose(got, turn * grad, rtol=1e-9, atol=1e-13)
