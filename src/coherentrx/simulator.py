"""Exact and Monte Carlo evaluation of adaptive displacement receivers.

For an (N, M) tree the conditional distribution of the full outcome path
given each codeword is an exact product of binned-Poisson terms, enumerable
over all M^N paths (at most 729 for the shapes of interest).  Each of the N
rounds receives the slice ``beta / sqrt(N)`` (``Constellation.slices``) of
the codeword amplitude, so the slice energies sum to the symbol energy.

Exact enumeration is the workhorse, and every walk of a tree is in this
module.  Its one forward recursion, the private ``_forward``, takes the
outcome terms of every node from one kernel call.  One accumulator,
``_batch_forward``, averages a batch of draws for :func:`batch_distribution`
and the learning loop (a single draw's :func:`exact_distribution` is a batch
of one), and the gradient's backward sweep, ``_gradient``, takes over its
last forward.  ``_ideal_prefixes`` gives the conditional-nulling design (one
call per level) and the posterior trajectory along one record each level's
prefix probabilities at the ideal draw; no other module reads a forward.
:func:`mc_sample` simulates individual receiver runs as an independent
statistical cross-check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .constellation import Constellation, _count
from .photonics import NoiseModel, detected_mean, outcome_prob_derivs, outcome_probs, sample_draws
from .tree import DecisionTable, DecisionTree, level_offset, num_nodes

__all__ = [
    "PathDistribution",
    "exact_distribution",
    "batch_distribution",
    "averaged_distribution",
    "map_table",
    "error_rate",
    "MCResult",
    "mc_sample",
]

_ROW_SUM_TOL = 1e-10


@dataclass(frozen=True)
class PathDistribution:
    """Conditional outcome-path probabilities, one row per codeword.

    ``probs[y, p]`` is the probability of observing the complete outcome path
    with leaf index ``p`` when codeword ``y`` was sent.  Rows sum to one.
    """

    probs: np.ndarray
    rounds: int
    arity: int
    constellation: Constellation

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=np.float64)
        expected = (self.constellation.n_codewords, self.arity**self.rounds)
        if probs.shape != expected:
            raise ValueError(f"expected probs of shape {expected}, got {probs.shape}")
        # one reduction, written so that NaN fails it
        if not ((probs >= -1e-15) & (probs <= 1 + 1e-12)).all():
            raise ValueError("path probabilities must lie in [0, 1]")
        row_sums = probs.sum(axis=1)
        if np.any(np.abs(row_sums - 1.0) > _ROW_SUM_TOL):
            raise ValueError(f"rows must sum to 1, got {row_sums}")
        object.__setattr__(self, "probs", probs)


def _check_draws(phase, scale) -> tuple[np.ndarray, np.ndarray]:
    """A batch of jitter draws as float arrays of one shape ``(B,)``.

    Phases must be finite, and scales finite and positive.
    """
    phase = np.asarray(phase, dtype=np.float64)
    scale = np.asarray(scale, dtype=np.float64)
    if phase.shape != scale.shape or phase.ndim != 1:
        raise ValueError("phase and scale must share a shape (B,), one draw per receiver run")
    # one reduction, written so that NaN fails it
    if not (np.isfinite(phase) & (scale > 0) & (scale < np.inf)).all():
        raise ValueError("jitter draws need finite phases and finite, positive amplitude scales")
    return phase, scale


def _forward(
    tree: DecisionTree, c: Constellation, nm: NoiseModel, phase, scale, derivs: bool = False
):
    """The forward recursion over a tree: ``(prefix, q, dq)``, one entry per level.

    ``phase`` and ``scale`` are checked arrays of ``B`` draws, whose jitter
    rotation ``scale * exp(i*phase)`` applies in every round.  ``prefix[n]``
    is the ``(B, K, M^n)`` probabilities of the first ``n`` outcomes, for
    ``n = 0, ..., N``, so ``prefix[-1]`` is the path probabilities;
    ``q[level]`` is the level's ``(B, K, M^level, M)`` outcome probabilities
    and ``dq[level]`` their derivatives in the detected mean (``dq`` is
    ``None`` unless ``derivs``).  A level's outcome terms do not depend on the
    levels before it, so those of every node come from one kernel call; only
    the prefix products go level by level, and ``prefix[n]`` reads the first
    ``n`` levels' nodes alone.
    """
    batch, k_codes, m = phase.shape[0], c.n_codewords, tree.arity
    slices = c.slices(tree.rounds)[None, :, None]
    rot = scale * np.exp(1j * phase)
    means = detected_mean(slices, rot[:, None, None] * tree.nodes[None, None, :], nm)
    q, dq = outcome_prob_derivs(means, m) if derivs else (outcome_probs(means, m), None)
    levels = [slice(level_offset(m, lv), level_offset(m, lv + 1)) for lv in range(tree.rounds)]
    q_levels = [q[:, :, nodes] for nodes in levels]
    prefix = [np.ones((batch, k_codes, 1))]
    for q_level in q_levels:
        prefix.append((prefix[-1][:, :, :, None] * q_level).reshape(batch, k_codes, -1))
    return prefix, q_levels, None if dq is None else [dq[:, :, nodes] for nodes in levels]


def _ideal_prefixes(tree: DecisionTree, c: Constellation, nm: NoiseModel) -> list[np.ndarray]:
    """The ``(K, M^n)`` ``prefix[n]`` of :func:`_forward` at the ideal draw, ``n = 0, ..., N``."""
    return [probs[0] for probs in _forward(tree, c, nm, np.zeros(1), np.ones(1))[0]]


def exact_distribution(tree: DecisionTree, c: Constellation, nm: NoiseModel) -> PathDistribution:
    """Exact conditional path distribution at the ideal draw (no jitter): a batch of one."""
    return batch_distribution(tree, c, nm, np.zeros(1), np.ones(1))


# Upper bound on the per-draw values one batched call holds, so that large
# batches are evaluated in chunks of bounded memory.
_CHUNK_ELEMS = 1 << 18


def _draw_chunks(phase: np.ndarray, scale: np.ndarray, per_draw: int):
    """Consecutive chunks ``(phase, scale)`` of a batch of draws, in order.

    Each chunk holds at most ``_CHUNK_ELEMS // per_draw`` draws (at least
    one), where ``per_draw`` is the size of one draw's result.
    """
    step = max(1, _CHUNK_ELEMS // per_draw)
    for start in range(0, phase.shape[0], step):
        yield phase[start : start + step], scale[start : start + step]


def _batch_forward(
    tree: DecisionTree, c: Constellation, nm: NoiseModel, phase, scale, derivs: bool = False
):
    """Batch-averaged path distribution, plus the last chunk's forward.

    The draws, checked arrays as in :func:`_forward`, go through
    :func:`_draw_chunks` and are summed one at a time in batch order:
    ``np.sum`` over the draw axis would switch to pairwise summation whenever
    that axis is contiguous, which reorders the additions and changes the
    last bits.  The last chunk's forward (with derivatives if ``derivs``) is
    returned in a list, for the learning loop's gradient to take out; each
    chunk's forward is dropped before the next one is computed, so one
    chunk's forward is alive at a time.
    """
    acc = np.zeros((c.n_codewords, tree.arity**tree.rounds))
    held = []
    for ph, sc in _draw_chunks(phase, scale, acc.size):
        held.clear()
        held.append(_forward(tree, c, nm, ph, sc, derivs))
        for probs in held[0][0][-1]:
            acc += probs
    return PathDistribution(acc / phase.shape[0], tree.rounds, tree.arity, c), held


def batch_distribution(
    tree: DecisionTree,
    c: Constellation,
    nm: NoiseModel,
    phase,
    scale,
) -> PathDistribution:
    """Path distribution averaged over a batch of jitter draws.

    ``phase`` and ``scale`` hold ``B`` jitter draws, one per receiver run,
    each held fixed across the rounds of its run: both of shape ``(B,)``,
    checked once for the whole batch.  Draw ``b``'s path probabilities are
    the last level of the forward recursion ``_forward``, elementwise, so
    they equal the single-draw result bit for bit.  The draws are summed one
    at a time in batch order, by the accumulator that also gives the
    learning loop its MAP table (with derivatives, for the gradient), so
    that table has these bits.
    """
    return _batch_forward(tree, c, nm, *_check_draws(phase, scale))[0]


def _sensitivities(
    tree: DecisionTree,
    c: Constellation,
    nm: NoiseModel,
    weights: np.ndarray,
    phase: np.ndarray,
    scale: np.ndarray,
    forward: tuple,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-draw success-probability derivatives, each of shape (B, nodes).

    One forward/backward sweep over the whole batch: forward prefix
    probabilities F and backward suffix sums B of the per-path success
    ``weights``; a node's sensitivity combines them with the binned-Poisson
    derivative of its round and the chain rule through the detected mean,
    which is quadratic in the displacement components.  ``forward`` is the
    ``(prefix, q, dq)`` of :func:`_forward`, with derivatives, for these
    draws.  The chain-rule factors ``dn/dx`` and ``dn/dy`` of every node
    come from one expression each, as the outcome terms come from one kernel
    call; only the backward sums and each level's reduction over codewords
    go level by level.
    """
    n, m = tree.rounds, tree.arity
    k_codes = c.n_codewords
    batch = phase.shape[0]
    slices = c.slices(n)
    a = scale[:, None, None]
    w = slices[None, :] * np.exp(-1j * phase[:, None])
    forward_probs, q_levels, dq_levels = forward
    u = tree.nodes[None, None, :]
    dn_dx = nm.efficiency * (
        2.0 * a * a * u.real - 2.0 * nm.visibility * a * w.real[:, :, None]
    )
    dn_dy = nm.efficiency * (
        2.0 * a * a * u.imag - 2.0 * nm.visibility * a * w.imag[:, :, None]
    )
    sx = np.empty((batch, num_nodes(n, m)))
    sy = np.empty((batch, num_nodes(n, m)))
    backward = weights[None]
    for level in range(n - 1, -1, -1):
        b_next = backward.reshape(backward.shape[0], k_codes, m**level, m)
        coeff = forward_probs[level] * (dq_levels[level] * b_next).sum(axis=3)
        nodes = slice(level_offset(m, level), level_offset(m, level + 1))
        sx[:, nodes] = (coeff * dn_dx[:, :, nodes]).sum(axis=1)
        sy[:, nodes] = (coeff * dn_dy[:, :, nodes]).sum(axis=1)
        backward = (q_levels[level] * b_next).sum(axis=3)
    return sx, sy


def _gradient(
    tree: DecisionTree,
    table: DecisionTable,
    c: Constellation,
    nm: NoiseModel,
    phase: np.ndarray,
    scale: np.ndarray,
    held: list | None = None,
) -> np.ndarray:
    """Exact loss gradient, packed as d/d(re) + 1j * d/d(im) per node.

    The draws are swept in chunks of bounded memory, and their
    sensitivities are summed one draw at a time in batch order, as in
    :func:`batch_distribution`, so that numpy's pairwise summation never
    reorders the additions.  ``held`` is the list in which the batch
    accumulator, :func:`_batch_forward` with derivatives, hands over the last
    chunk's forward.  That chunk's sensitivities are taken first, which
    empties the list and frees the forward; the other chunks' forwards are
    computed again, one at a time, so one chunk's forward is alive at a time.
    """
    labels = np.arange(c.n_codewords)
    # success weight of each (codeword, leaf): prior if the table guesses it
    weights = c.priors[:, None] * (table.guesses[None, :] == labels[:, None])
    # the weights have the accumulator's shape, so these are its chunks
    chunks = list(_draw_chunks(phase, scale, weights.size))
    last = [_sensitivities(tree, c, nm, weights, *chunks.pop(), held.pop())] if held else []
    rest = (
        _sensitivities(tree, c, nm, weights, ph, sc, _forward(tree, c, nm, ph, sc, derivs=True))
        for ph, sc in chunks
    )
    gx = np.zeros(tree.nodes.size)
    gy = np.zeros(tree.nodes.size)
    for sx, sy in itertools.chain(rest, last):
        for rx, ry in zip(sx, sy):
            gx += rx
            gy += ry
    return -(gx + 1j * gy) / phase.shape[0]


def averaged_distribution(
    tree: DecisionTree,
    c: Constellation,
    nm: NoiseModel,
    batch_size: int,
    seed,
) -> PathDistribution:
    """Noise-averaged path distribution over a seeded batch of jitter draws.

    ``batch_size`` receiver runs each draw their jitter once.  With zero
    jitter :func:`~coherentrx.photonics.sample_draws` gives the ideal draw
    alone, so the average is the exact distribution for any ``batch_size``.
    """
    return batch_distribution(tree, c, nm, *sample_draws(nm, batch_size, seed))


def map_table(d: PathDistribution) -> DecisionTable:
    """Maximum-a-posteriori decision table: argmax_y prior_y * P(path | y).

    The priors are the constellation's.  Ties break toward the lowest label
    (np.argmax returns the first maximum), fixed for determinism across
    platforms.
    """
    weighted = d.constellation.priors[:, None] * d.probs
    return DecisionTable(d.rounds, d.arity, np.argmax(weighted, axis=0))


def error_rate(d: PathDistribution, table: DecisionTable) -> float:
    """Average error probability of a fixed decision table on a distribution.

    Equals ``1 - sum_path prior_guess(path) * P(path | guess(path))`` with
    the constellation's priors, clamped at zero where rounding takes it a few
    ulps below; with the MAP table this is the Bayes-optimal error for the
    distribution.
    """
    if (table.rounds, table.arity) != (d.rounds, d.arity):
        raise ValueError("table shape does not match the distribution")
    guesses = table.guesses
    p_correct = d.constellation.priors[guesses] * d.probs[guesses, np.arange(guesses.size)]
    return float(max(1.0 - p_correct.sum(), 0.0))


@dataclass(frozen=True)
class MCResult:
    """Empirical outcome of simulated receiver runs."""

    num_runs: int
    num_errors: int
    path_counts: np.ndarray

    @property
    def error_rate(self) -> float:
        return self.num_errors / self.num_runs

    @property
    def stderr(self) -> float:
        """Binomial standard error of the empirical error rate."""
        p = self.error_rate
        return float(np.sqrt(p * (1.0 - p) / self.num_runs))


def mc_sample(
    tree: DecisionTree,
    table: DecisionTable,
    c: Constellation,
    nm: NoiseModel,
    num_runs: int,
    seed,
) -> MCResult:
    """Simulate individual receiver runs; deterministic for a fixed seed.

    Each run samples a codeword from the priors, one jitter draw held fixed
    across its rounds, and a Poisson photon count per round, then scores the
    table's guess.  Returns the empirical error count and the histogram of
    observed outcome paths.

    The generator is called in a fixed order that the result for a seed
    depends on: the codewords, then the jitter (all phases, then all
    amplitude scales, then the redraws of non-positive scales in run order
    until positive, the rule of :func:`~coherentrx.photonics.sample_draws`),
    then each round's counts for all runs in run order.  Every draw over all
    runs is made in consecutive chunks of ``_CHUNK_ELEMS // 16`` runs;
    consecutive draws consume the generator exactly as one draw over all
    runs does, so the result does not depend on the chunk size.  The jitter
    rotation ``scale * exp(i*phase)`` is formed once per run; without jitter
    there is no rotation and the displacements are used as they are.

    Memory: only the codewords (one byte each for up to 256 codewords), the
    leaf indices (2 bytes) and, with jitter, the rotations (16 bytes) are
    held for every run: 19 bytes a run with jitter and 3 without.  One
    chunk's temporaries add about 1.6 MB, whatever ``num_runs`` is (both
    figures are tracemalloc peaks on a QAM6 tree of 6 ternary rounds).  The
    whole-run arrays are allocated before the first draw, and a count they
    cannot hold raises ValueError, naming that cost.
    """
    num_runs = _count(num_runs, "num_runs")
    if (table.rounds, table.arity) != (tree.rounds, tree.arity):
        raise ValueError("table shape does not match the tree")
    code_dtype = np.min_scalar_type(c.n_codewords - 1)
    jitter = not nm.is_deterministic
    try:
        y = np.empty(num_runs, dtype=code_dtype)
        # leaf indices stay below MAX_LEAVES = 2^16 at every level
        leaf = np.zeros(num_runs, dtype=np.uint16)
        rot = np.ones(num_runs, dtype=np.complex128) if jitter else None
    except (MemoryError, ValueError):
        per_run = code_dtype.itemsize + 2 + 16 * jitter
        raise ValueError(
            f"the Monte Carlo sampler cannot hold {num_runs} runs: it keeps {per_run} bytes a run"
        ) from None
    rng = np.random.default_rng(seed)
    # at a chunk's peak about sixteen float64-sized values a run are alive:
    # the widened codewords, the complex slices and displacements, and the
    # detected mean's temporaries
    step = max(1, _CHUNK_ELEMS // 16)

    def chunks():
        return (slice(s, min(s + step, num_runs)) for s in range(0, num_runs, step))

    for s in chunks():
        y[s] = rng.choice(c.n_codewords, size=s.stop - s.start, p=c.priors)
    # per-codeword slice amplitudes and |b|^2, gathered for a chunk of runs;
    # only the visibility < 1 form reads |b|^2
    code_slices = c.slices(tree.rounds)
    code_power = None if nm.visibility == 1.0 else np.abs(code_slices) ** 2
    # exp(i*phase), then times the scale where one is drawn: a scale of
    # exactly 1 changes no bit of these rotations.  A non-positive scale
    # leaves its rotation as it is until a redraw gives a positive one.
    if nm.phase_jitter > 0:
        for s in chunks():
            np.exp(1j * rng.normal(0.0, nm.phase_jitter, s.stop - s.start), out=rot[s])
    if nm.amplitude_jitter > 0:
        redraw = []
        for s in chunks():
            scale = rng.normal(1.0, nm.amplitude_jitter, s.stop - s.start)
            ok = scale > 0
            np.multiply(rot[s], scale, out=rot[s], where=ok)
            redraw.append(s.start + np.flatnonzero(~ok))
        redraw = np.concatenate(redraw)
        while redraw.size:
            scale = rng.normal(1.0, nm.amplitude_jitter, redraw.size)
            ok = scale > 0
            rot[redraw[ok]] *= scale[ok]
            redraw = redraw[~ok]
        # the last chunk's scales would otherwise stay alive through the rounds
        del scale, ok, redraw
    for level in range(tree.rounds):
        nodes = tree.level_nodes(level)
        for s in chunks():
            # fancy indexing through narrow indices runs at about half speed:
            # widen the codewords once for their two gathers; take() widens
            # the leaves in one pass
            codes = y[s].astype(np.intp)
            disp = nodes.take(leaf[s])
            if rot is not None:
                np.multiply(rot[s], disp, out=disp)
            power = None if code_power is None else code_power[codes]
            try:
                k = rng.poisson(detected_mean(code_slices[codes], disp, nm, slice_power=power))
            except ValueError:
                raise ValueError(
                    "a detected mean photon number is beyond what the Monte Carlo sampler "
                    "can draw (about 9.2e18); the receiver's displacements are out of its range"
                ) from None
            np.minimum(k, tree.arity - 1, out=k)
            leaf[s] *= tree.arity
            np.add(leaf[s], k, out=leaf[s], casting="unsafe")
    n_paths = tree.arity**tree.rounds
    errors = 0
    counts = np.zeros(n_paths, dtype=np.int64)
    for s in chunks():
        errors += int(np.count_nonzero(table.guesses.take(leaf[s]) != y[s]))
        counts += np.bincount(leaf[s], minlength=n_paths)
    return MCResult(num_runs, errors, counts)
