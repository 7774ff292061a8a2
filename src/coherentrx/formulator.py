"""The adaptive learning loop that designs a receiver for a noise model.

Each iteration alternates two provably non-increasing moves on a freshly
sampled noise batch:

1. decision-table inference: the table is refit by maximum a posteriori on
   the batch-averaged path distribution (Bayes-optimal, never worse);
2. one gradient-descent step on the per-node displacements with backtracking
   line search, accepted only if the loss (same batch, same table) does not
   increase.

The loss is the averaged-distribution error rate with the table held fixed,
which is smooth in the node parameters: every path probability is a product
of binned-Poisson terms whose means are quadratic in the displacements.  The
gradient is therefore computed exactly by a forward/backward sweep over the
tree rather than by finite differences.

Initialization starts from the conditional-nulling design plus a small
relative Gaussian perturbation, which lands the search near a known-good
receiver.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .baselines import cn_tree, dolinar_tree
from .constellation import Constellation, mean_energy
from .photonics import NoiseDraw, NoiseModel, _jitter_arrays
from .simulator import (
    PathDistribution,
    _levels,
    batch_distribution,
    draw_arrays,
    draw_chunks,
    error_rate,
    map_table,
)
from .tree import DecisionTable, DecisionTree, level_offset, num_nodes

__all__ = [
    "FormulatorConfig",
    "LearningTrace",
    "FormulateResult",
    "init_tree",
    "formulate",
    "optimize_receiver",
    "optimize_sweep",
]

# Halvings of the step before a line search gives up, and the size of the
# held-out batch in training batches
_MAX_BACKTRACKS = 40
_HOLDOUT_FACTOR = 10


@dataclass(frozen=True)
class FormulatorConfig:
    """Hyperparameters of one learning run."""

    max_iterations: int = 300
    batch_size: int = 16
    learning_rate: float = 2.0
    convergence_window: int = 20
    convergence_delta: float = 1e-6
    init_perturbation: float = 0.01
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_iterations < 1 or self.batch_size < 1:
            raise ValueError("max_iterations and batch_size must be positive")
        # the float checks are written so that NaN fails them
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite")
        if self.convergence_window < 2:
            raise ValueError("convergence_window must be at least 2")
        if not 0 < self.convergence_delta < math.inf:
            raise ValueError("convergence_delta must be positive and finite")
        if not 0 <= self.init_perturbation < math.inf:
            raise ValueError("init_perturbation must be non-negative and finite")


@dataclass(frozen=True)
class LearningTrace:
    """Per-iteration history of one learning run.

    ``loss_start`` is the batch loss before this iteration's updates (with
    the previous table), ``loss_post_table`` after the table refit, ``loss``
    after the accepted descent step; all three refer to the same frozen
    batch, so ``loss <= loss_post_table <= loss_start`` up to rounding.
    """

    iteration: np.ndarray
    loss: np.ndarray
    gradient_norm: np.ndarray
    loss_start: np.ndarray
    loss_post_table: np.ndarray
    converged: bool
    best_iteration: int

    def __post_init__(self) -> None:
        for arr in (self.loss, self.loss_start, self.loss_post_table):
            if np.any(arr < 0) or np.any(arr > 1):
                raise ValueError("losses are error probabilities in [0, 1]")

    def __len__(self) -> int:
        return self.iteration.size


@dataclass
class FormulateResult:
    """Outcome of a learning run: the receiver logic plus diagnostics.

    ``final_loss`` re-evaluates the returned tree/table on a held-out noise
    batch ten times the training batch size.
    """

    tree: DecisionTree
    table: DecisionTable
    trace: LearningTrace
    final_loss: float


def init_tree(
    c: Constellation,
    rounds: int,
    arity: int,
    perturbation: float,
    seed,
) -> DecisionTree:
    """Conditional-nulling displacements plus relative Gaussian perturbation.

    The per-component perturbation scale is ``perturbation`` times the node's
    nulling amplitude (falling back to the constellation's RMS slice
    amplitude for zero-amplitude nodes).  The CN design itself is noise-free,
    so no noise model enters it.
    """
    base = cn_tree(c, rounds, arity)
    if perturbation == 0:
        return base
    rng = np.random.default_rng(seed)
    scale = np.abs(base.nodes)
    fallback = math.sqrt(max(mean_energy(c), 1e-30) / rounds)
    scale = np.where(scale > 0, scale, fallback)
    jitter = rng.standard_normal(base.nodes.size) + 1j * rng.standard_normal(
        base.nodes.size
    )
    return DecisionTree(rounds, arity, base.nodes + perturbation * scale * jitter)


def _forward(tree: DecisionTree, c: Constellation, nm: NoiseModel, phase, scale) -> tuple:
    """The derivs forward of one chunk of draws: ``(prefix, q, dq)`` per level.

    ``prefix[level]`` is the prefix probabilities through ``level``, and
    ``prefix[-1]`` the path probabilities, with the bits of
    :func:`~coherentrx.simulator.path_probs`.
    """
    return tuple(zip(*_levels(tree, c, nm, scale * np.exp(1j * phase), derivs=True)))


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
    which is quadratic in the displacement components.  ``forward`` is
    :func:`_forward`'s for these draws.  The chain-rule factors ``dn/dx`` and
    ``dn/dy`` of every node come from one expression each, as the outcome
    terms come from one kernel call; only the backward sums and each level's
    reduction over codewords go level by level.
    """
    n, m = tree.rounds, tree.arity
    k_codes = c.n_codewords
    batch = phase.shape[0]
    slices = c.amplitudes / math.sqrt(n)
    a = scale[:, None, None]
    w = slices[None, :] * np.exp(-1j * phase[:, None])
    prefix, q_levels, dq_levels = forward
    forward_probs = (np.ones((batch, k_codes, 1)),) + prefix
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


def _batch_forward(tree: DecisionTree, c: Constellation, nm: NoiseModel, phase, scale):
    """Batch-averaged path distribution from the derivs forward, plus one chunk's forward.

    The distribution equals :func:`~coherentrx.simulator.batch_distribution`
    bit for bit: the same chunks, the draws summed one at a time in batch
    order.  The last chunk's forward is returned in a list, for
    :func:`_gradient` to take out; each chunk's forward is dropped before the
    next one is computed, so one chunk's forward is alive at a time.
    """
    acc = np.zeros((c.n_codewords, tree.arity**tree.rounds))
    held = []
    for ph, sc in draw_chunks(phase, scale, acc.size):
        held.clear()
        held.append(_forward(tree, c, nm, ph, sc))
        for probs in held[0][0][-1]:
            acc += probs
    return PathDistribution(acc / phase.shape[0], tree.rounds, tree.arity, c), held


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
    :func:`~coherentrx.simulator.batch_distribution`, so that numpy's
    pairwise summation never reorders the additions.  ``held`` is the list
    in which :func:`_batch_forward` hands over the last chunk's forward.
    That chunk's sensitivities are taken first, which empties the list and
    frees the forward; the other chunks' forwards are computed again, one at
    a time, so one chunk's forward is alive at a time.
    """
    labels = np.arange(c.n_codewords)
    # success weight of each (codeword, leaf): prior if the table guesses it
    weights = c.priors[:, None] * (table.guesses[None, :] == labels[:, None])
    chunks = list(draw_chunks(phase, scale, weights.size))
    last = [_sensitivities(tree, c, nm, weights, *chunks.pop(), held.pop())] if held else []
    rest = (
        _sensitivities(tree, c, nm, weights, ph, sc, _forward(tree, c, nm, ph, sc))
        for ph, sc in chunks
    )
    gx = np.zeros(tree.nodes.size)
    gy = np.zeros(tree.nodes.size)
    for sx, sy in itertools.chain(rest, last):
        for rx, ry in zip(sx, sy):
            gx += rx
            gy += ry
    return -(gx + 1j * gy) / phase.shape[0]


def _gradient_on_draws(
    tree: DecisionTree,
    table: DecisionTable,
    c: Constellation,
    nm: NoiseModel,
    draws: list[NoiseDraw],
) -> np.ndarray:
    """:func:`_gradient` on a list of draws."""
    return _gradient(tree, table, c, nm, *draw_arrays(draws))


def formulate(
    c: Constellation,
    rounds: int,
    arity: int,
    nm: NoiseModel,
    cfg: FormulatorConfig,
    initial_tree: DecisionTree | None = None,
) -> FormulateResult:
    """Run the learning loop and return the best iterate.

    Per iteration: draw a noise batch as arrays, run one forward over the
    tree with derivatives, refit the table by MAP on the batch-averaged
    distribution it gives, then reuse it for the gradient and take one
    backtracked descent step (one plain forward per line-search step).  Stops
    when the loss improvement over ``convergence_window`` iterations falls
    below ``convergence_delta`` or at ``max_iterations`` (then the trace is
    flagged unconverged rather than raising).  The returned table is refit
    on the held-out batch used for ``final_loss``, matching how the receiver
    would be deployed.  Fully deterministic for a fixed config.
    """
    root = np.random.SeedSequence(cfg.seed)
    init_seq, holdout_seq, iter_root = root.spawn(3)
    if initial_tree is None:
        tree = init_tree(c, rounds, arity, cfg.init_perturbation, init_seq)
    else:
        if (initial_tree.rounds, initial_tree.arity) != (rounds, arity):
            raise ValueError("initial tree shape mismatch")
        tree = initial_tree.copy()

    table: DecisionTable | None = None
    rows: list[tuple[int, float, float, float, float]] = []
    best_loss = math.inf
    best_tree = tree.copy()
    best_iteration = -1
    converged = False
    for it in range(cfg.max_iterations):
        # one child a spawn: the seeds of spawning max_iterations children
        # up front, made only for the iterations that run
        (iter_seq,) = iter_root.spawn(1)
        phase, scale = _jitter_arrays(nm, cfg.batch_size, iter_seq)
        dist, held = _batch_forward(tree, c, nm, phase, scale)
        new_table = map_table(dist)
        loss_start = error_rate(dist, table if table is not None else new_table)
        table = new_table
        loss_post_table = error_rate(dist, table)

        grad = _gradient(tree, table, c, nm, phase, scale, held)
        gnorm = float(np.linalg.norm(grad.view(np.float64)))
        loss_end = loss_post_table
        if gnorm > 0:
            step = cfg.learning_rate
            for _ in range(_MAX_BACKTRACKS):
                cand = DecisionTree(rounds, arity, tree.nodes - step * grad)
                cand_loss = error_rate(batch_distribution(cand, c, nm, phase, scale), table)
                if cand_loss <= loss_post_table:
                    tree = cand
                    loss_end = cand_loss
                    break
                step *= 0.5
        rows.append((it, loss_end, gnorm, loss_start, loss_post_table))
        if loss_end < best_loss:
            best_loss = loss_end
            best_tree = tree.copy()
            best_iteration = it
        if it >= cfg.convergence_window:
            improvement = rows[it - cfg.convergence_window][1] - loss_end
            if improvement < cfg.convergence_delta:
                converged = True
                break

    arr = np.array(rows)
    trace = LearningTrace(
        iteration=arr[:, 0].astype(np.int64),
        loss=arr[:, 1],
        gradient_norm=arr[:, 2],
        loss_start=arr[:, 3],
        loss_post_table=arr[:, 4],
        converged=converged,
        best_iteration=best_iteration,
    )
    holdout = _jitter_arrays(nm, _HOLDOUT_FACTOR * cfg.batch_size, holdout_seq)
    final_dist = batch_distribution(best_tree, c, nm, *holdout)
    final_table = map_table(final_dist)
    final_loss = error_rate(final_dist, final_table)
    return FormulateResult(best_tree, final_table, trace, final_loss)


def optimize_receiver(
    c: Constellation,
    rounds: int,
    arity: int,
    nm: NoiseModel,
    cfg: FormulatorConfig,
    extra_initial_trees: tuple[DecisionTree, ...] = (),
) -> FormulateResult:
    """Multi-start wrapper: CN-initialized run plus optional extra starts.

    All candidates share the same held-out evaluation batch (same config
    seed), so picking the lowest ``final_loss`` is a fair comparison.
    """
    results = [formulate(c, rounds, arity, nm, cfg)]
    for t in extra_initial_trees:
        results.append(formulate(c, rounds, arity, nm, cfg, initial_tree=t))
    return min(results, key=lambda r: r.final_loss)


def optimize_sweep(
    builder,
    mean_photon_grid,
    rounds: int,
    arity: int,
    nm: NoiseModel,
    cfg: FormulatorConfig,
) -> list[tuple[float, FormulateResult]]:
    """Optimize one receiver per sweep point with warm starting.

    ``builder`` maps a mean photon number to a constellation.  Receiver
    strategies can switch discontinuously along the sweep, so each point
    runs the CN-initialized search, a Dolinar-initialized one (binary trees
    of two codewords only), and a warm start from the neighboring point's
    winner with displacements rescaled by the amplitude ratio; the lowest
    held-out loss wins.
    """
    results: list[tuple[float, FormulateResult]] = []
    prev: tuple[float, DecisionTree] | None = None
    for i, nbar in enumerate(mean_photon_grid):
        c = builder(nbar)
        point_cfg = replace(cfg, seed=cfg.seed + i)
        extras: list[DecisionTree] = []
        if arity == 2 and c.n_codewords == 2:
            extras.append(dolinar_tree(nbar, rounds))
        if prev is not None:
            prev_nbar, prev_tree = prev
            ratio = math.sqrt(nbar / prev_nbar) if prev_nbar > 0 else 1.0
            extras.append(DecisionTree(rounds, arity, prev_tree.nodes * ratio))
        res = optimize_receiver(c, rounds, arity, nm, point_cfg, tuple(extras))
        results.append((float(nbar), res))
        prev = (float(nbar), res.tree)
    return results
