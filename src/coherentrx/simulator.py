"""Exact and Monte Carlo evaluation of adaptive displacement receivers.

For an (N, M) tree the conditional distribution of the full outcome path
given each codeword is an exact product of binned-Poisson terms, enumerable
over all M^N paths (at most 729 for the shapes of interest).  Each of the N
rounds receives the equal time slice ``beta / sqrt(N)`` of the codeword
amplitude, so the slice energies sum to the symbol energy.

Exact enumeration is the workhorse.  Its one forward recursion, the private
generator ``_levels``, serves :func:`path_probs` and the gradient sweep; it
takes the outcome terms of every node from one kernel call,
``_outcome_terms``, which the conditional-nulling design calls one level at
a time.  :func:`mc_sample` simulates individual receiver runs as an
independent statistical cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .constellation import Constellation
from .photonics import (
    IDEAL_DRAW,
    NoiseDraw,
    NoiseModel,
    detected_mean,
    outcome_prob_derivs,
    outcome_probs,
    sample_draws,
)
from .tree import DecisionTable, DecisionTree, level_offset

__all__ = [
    "PathDistribution",
    "path_probs",
    "draw_arrays",
    "exact_distribution",
    "draw_chunks",
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


def path_probs(
    tree: DecisionTree,
    c: Constellation,
    nm: NoiseModel,
    phase,
    scale,
) -> np.ndarray:
    """Conditional path probabilities for a batch of jitter draws.

    ``phase`` and ``scale`` hold ``B`` jitter draws, one per receiver run,
    each held fixed across the rounds of its run: both of shape ``(B,)``.
    Returns ``probs`` of shape ``(B, K, M^N)``; ``probs[b]`` is the
    distribution of run ``b``.  The detected means and outcome probabilities
    of every node, draw and codeword come from one kernel call, and only the
    prefix products go level by level; a single draw is ``B = 1`` of the
    same call.  The arithmetic is elementwise, so every ``probs[b]`` equals
    the single-draw result bit for bit.
    """
    phase = np.asarray(phase, dtype=np.float64)
    scale = np.asarray(scale, dtype=np.float64)
    if phase.shape != scale.shape or phase.ndim != 1:
        raise ValueError("phase and scale must share a shape (B,), one draw per receiver run")
    if np.any(scale <= 0):
        raise ValueError("amplitude scales must be positive")
    for probs, _, _ in _levels(tree, c, nm, scale * np.exp(1j * phase)):
        pass
    return probs


def _outcome_terms(
    nodes, c: Constellation, rounds: int, nm: NoiseModel, rot, arity: int, derivs: bool = False
):
    """Outcome probabilities of some nodes for every run and codeword, in one kernel call.

    ``nodes`` are displacements of a tree with ``rounds`` rounds and ``rot``
    the jitter rotations ``scale * exp(i*phase)`` of ``B`` runs, shape
    ``(B,)``.  Returns ``(q, dq)`` of shape ``(B, K, nodes, M)``: the binned
    Poisson probabilities of each node's round and their derivatives in the
    detected mean (``None`` unless ``derivs``).  The terms are elementwise,
    so any set of nodes gives each node's terms with the same bits.
    """
    slices = (c.amplitudes / np.sqrt(rounds))[None, :, None]
    means = detected_mean(slices, rot[:, None, None] * nodes[None, None, :], nm)
    if derivs:
        return outcome_prob_derivs(means, arity)
    return outcome_probs(means, arity), None


def _levels(tree: DecisionTree, c: Constellation, nm: NoiseModel, rot, derivs: bool = False):
    """The forward recursion over a tree, one level per step.

    ``rot`` is the jitter rotation ``scale * exp(i*phase)`` of ``B`` runs,
    shape ``(B,)``, applied in every round.  A level's outcome terms do not
    depend on the levels before it, so those of every node come from one
    :func:`_outcome_terms` call before the first step; only the prefix
    products go level by level.  Each step yields the ``(B, K, M^(level+1))``
    prefix probabilities through the level, the level's outcome
    probabilities ``q`` and their derivatives in the detected mean (``None``
    unless ``derivs``).  The whole tree is read up front, so a design that
    fills its nodes from the prefix probabilities of the level before
    (:func:`~coherentrx.baselines.cn_tree`) calls :func:`_outcome_terms` one
    level at a time instead.
    """
    batch, k_codes, m = rot.shape[0], c.n_codewords, tree.arity
    q, dq = _outcome_terms(tree.nodes, c, tree.rounds, nm, rot, m, derivs)
    probs = np.ones((batch, k_codes, 1))
    for level in range(tree.rounds):
        nodes = slice(level_offset(m, level), level_offset(m, level + 1))
        q_level = q[:, :, nodes]
        probs = (probs[:, :, :, None] * q_level).reshape(batch, k_codes, -1)
        yield probs, q_level, None if dq is None else dq[:, :, nodes]


def draw_arrays(draws: Sequence[NoiseDraw]) -> tuple[np.ndarray, np.ndarray]:
    """Phase offsets and amplitude scales of a list of draws, as arrays."""
    phase = np.array([d.phase_offset for d in draws], dtype=np.float64)
    scale = np.array([d.amplitude_scale for d in draws], dtype=np.float64)
    return phase, scale


def exact_distribution(
    tree: DecisionTree,
    c: Constellation,
    nm: NoiseModel,
    draw: NoiseDraw = IDEAL_DRAW,
) -> PathDistribution:
    """Exact conditional path distribution for one per-run jitter draw."""
    probs = path_probs(tree, c, nm, *draw_arrays([draw]))[0]
    return PathDistribution(probs, tree.rounds, tree.arity, c)


# Upper bound on the per-draw values one batched call holds, so that large
# batches are evaluated in chunks of bounded memory.
_CHUNK_ELEMS = 1 << 18


def draw_chunks(phase: np.ndarray, scale: np.ndarray, per_draw: int):
    """Consecutive chunks ``(phase, scale)`` of a batch of draws, in order.

    Each chunk holds at most ``_CHUNK_ELEMS // per_draw`` draws (at least
    one), where ``per_draw`` is the size of one draw's result.
    """
    step = max(1, _CHUNK_ELEMS // per_draw)
    for start in range(0, phase.shape[0], step):
        yield phase[start : start + step], scale[start : start + step]


def batch_distribution(
    tree: DecisionTree,
    c: Constellation,
    nm: NoiseModel,
    phase,
    scale,
) -> PathDistribution:
    """Path distribution averaged over a batch of jitter draws.

    ``phase`` and ``scale`` are as in :func:`path_probs`.  The draws are
    summed one at a time in batch order: ``np.sum`` over the draw axis would
    switch to pairwise summation whenever that axis is contiguous, which
    reorders the additions and changes the last bits.  The learning loop
    takes its MAP table from its gradient's forward instead, with the same
    chunks and the same order of additions, so that table has these bits.
    """
    phase = np.asarray(phase, dtype=np.float64)
    scale = np.asarray(scale, dtype=np.float64)
    n_paths = tree.arity**tree.rounds
    acc = np.zeros((c.n_codewords, n_paths))
    for ph, sc in draw_chunks(phase, scale, c.n_codewords * n_paths):
        for probs in path_probs(tree, c, nm, ph, sc):
            acc += probs
    return PathDistribution(acc / phase.shape[0], tree.rounds, tree.arity, c)


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
    return batch_distribution(tree, c, nm, *draw_arrays(sample_draws(nm, batch_size, seed)))


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
    the constellation's priors; with the MAP table this is the Bayes-optimal
    error for the distribution.
    """
    if (table.rounds, table.arity) != (d.rounds, d.arity):
        raise ValueError("table shape does not match the distribution")
    guesses = table.guesses
    p_correct = d.constellation.priors[guesses] * d.probs[guesses, np.arange(guesses.size)]
    return float(1.0 - p_correct.sum())


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
    amplitude scales, then the redraws of non-positive scales in run order),
    then each round's counts for all runs in run order.  Every draw over all
    runs is made in consecutive chunks of ``_CHUNK_ELEMS // 4`` runs;
    consecutive draws consume the generator exactly as one draw over all
    runs does, so the result does not depend on the chunk size.  The jitter
    rotation ``scale * exp(i*phase)`` is formed once per run; without jitter
    there is no rotation and the displacements are used as they are.

    Memory: only the codewords (one byte each for up to 256 codewords), the
    leaf indices (4 bytes) and, with jitter, the rotations (16 bytes) are
    held for every run: 21 bytes a run with jitter and 5 without.  One
    chunk's temporaries add about 6 MB, whatever ``num_runs`` is (both
    figures are tracemalloc peaks on a QAM6 tree of 6 ternary rounds).
    """
    if num_runs < 1:
        raise ValueError("num_runs must be at least 1")
    if (table.rounds, table.arity) != (tree.rounds, tree.arity):
        raise ValueError("table shape does not match the tree")
    rng = np.random.default_rng(seed)
    # each run of a chunk holds about four values: slice, displacement,
    # mean and count
    step = max(1, _CHUNK_ELEMS // 4)
    chunks = [slice(s, min(s + step, num_runs)) for s in range(0, num_runs, step)]
    y = np.empty(num_runs, dtype=np.min_scalar_type(c.n_codewords - 1))
    for s in chunks:
        y[s] = rng.choice(c.n_codewords, size=s.stop - s.start, p=c.priors)
    # per-codeword slice amplitudes and |b|^2, gathered for a chunk of runs;
    # only the visibility < 1 form reads |b|^2
    code_slices = c.amplitudes / np.sqrt(tree.rounds)
    code_power = None if nm.visibility == 1.0 else np.abs(code_slices) ** 2
    # exp(i*phase), then times the scale where one is drawn: a scale of
    # exactly 1 changes no bit of these rotations.  A non-positive scale
    # leaves its rotation as it is until a redraw gives a positive one.
    rot = None
    if nm.phase_jitter > 0:
        rot = np.empty(num_runs, dtype=np.complex128)
        for s in chunks:
            np.exp(1j * rng.normal(0.0, nm.phase_jitter, s.stop - s.start), out=rot[s])
    if nm.amplitude_jitter > 0:
        if rot is None:
            rot = np.ones(num_runs, dtype=np.complex128)
        redraw = []
        for s in chunks:
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
    # leaf indices stay below MAX_LEAVES = 2^16 at every level
    leaf = np.zeros(num_runs, dtype=np.int32)
    for level in range(tree.rounds):
        nodes = tree.level_nodes(level)
        for s in chunks:
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
            leaf[s] += k
    n_paths = tree.arity**tree.rounds
    errors = 0
    counts = np.zeros(n_paths, dtype=np.int64)
    for s in chunks:
        errors += int(np.count_nonzero(table.guesses.take(leaf[s]) != y[s]))
        counts += np.bincount(leaf[s], minlength=n_paths)
    return MCResult(num_runs, errors, counts)
