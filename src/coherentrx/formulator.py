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
tree rather than by finite differences; that sweep lives in
:mod:`~coherentrx.simulator`, beside the forward recursion it reuses.

Initialization starts from the conditional-nulling design plus a small
relative Gaussian perturbation, which lands the search near a known-good
receiver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .baselines import cn_tree, dolinar_tree
from .constellation import Constellation, _amplitude_scale, _count, mean_energy
from .photonics import NoiseModel, sample_draws
from .simulator import _batch_forward, _gradient, batch_distribution, error_rate, map_table
from .tree import _MEANS_OUT_OF_RANGE, DecisionTable, DecisionTree, _means_in_range

__all__ = [
    "FormulatorConfig",
    "LearningTrace",
    "FormulateResult",
    "init_tree",
    "formulate",
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
        _count(self.max_iterations, "max_iterations")
        _count(self.batch_size, "batch_size")
        # the float checks are written so that NaN fails them
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite")
        _count(self.convergence_window, "convergence_window", least=2)
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
    ``exhausted`` is true where the gradient was non-zero but the line search
    accepted no step within its halvings, so the iterate stood still.
    """

    iteration: np.ndarray
    loss: np.ndarray
    gradient_norm: np.ndarray
    loss_start: np.ndarray
    loss_post_table: np.ndarray
    exhausted: np.ndarray
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
    # a perturbation near the float range overflows into nodes the tree refuses
    with np.errstate(over="ignore", invalid="ignore"):
        return DecisionTree(rounds, arity, base.nodes + perturbation * scale * jitter)


def formulate(
    c: Constellation,
    rounds: int,
    arity: int,
    nm: NoiseModel,
    cfg: FormulatorConfig,
    initial_tree: DecisionTree | None = None,
) -> FormulateResult:
    """Run the learning loop and return the best iterate.

    Per iteration: draw a noise batch as arrays, run the batch accumulator
    of :mod:`~coherentrx.simulator` once with derivatives, refit the table by
    MAP on the batch-averaged distribution it gives, then reuse its forward
    for the gradient and take one backtracked descent step (one plain
    forward, through :func:`~coherentrx.simulator.batch_distribution`, per
    line-search step).  Stops when the loss improvement over
    ``convergence_window`` iterations falls below ``convergence_delta`` or
    at ``max_iterations`` (then the trace is flagged unconverged rather than
    raising).  The returned table is refit on the held-out batch used for
    ``final_loss``, matching how the receiver would be deployed.  Fully
    deterministic for a fixed config.  No tree is written to, so the result
    may be ``initial_tree`` itself.  A start the spec loader would refuse
    raises its ``ValueError``; the line search rejects such a candidate.
    """
    root = np.random.SeedSequence(cfg.seed)
    init_seq, holdout_seq, iter_root = root.spawn(3)
    # drawn first, so that a batch whose held-out draws cannot be held fails
    # before any learning
    holdout = sample_draws(nm, _HOLDOUT_FACTOR * cfg.batch_size, holdout_seq)
    if initial_tree is None:
        tree = init_tree(c, rounds, arity, cfg.init_perturbation, init_seq)
    else:
        if (initial_tree.rounds, initial_tree.arity) != (rounds, arity):
            raise ValueError("initial tree shape mismatch")
        tree = initial_tree
    if not _means_in_range(c, rounds, tree.nodes, nm):
        raise ValueError(_MEANS_OUT_OF_RANGE)

    table: DecisionTable | None = None
    rows: list[tuple[int, float, float, float, float, bool]] = []
    best_loss = math.inf
    best_tree = tree
    best_iteration = -1
    converged = False
    for it in range(cfg.max_iterations):
        # one child a spawn: the seeds of spawning max_iterations children
        # up front, made only for the iterations that run
        (iter_seq,) = iter_root.spawn(1)
        phase, scale = sample_draws(nm, cfg.batch_size, iter_seq)
        dist, held = _batch_forward(tree, c, nm, phase, scale, derivs=True)
        new_table = map_table(dist)
        loss_start = error_rate(dist, table if table is not None else new_table)
        table = new_table
        loss_post_table = error_rate(dist, table)

        grad = _gradient(tree, table, c, nm, phase, scale, held)
        gnorm = float(np.linalg.norm(grad.view(np.float64)))
        loss_end = loss_post_table
        exhausted = gnorm > 0  # until a step is accepted
        if gnorm > 0:
            step = cfg.learning_rate
            for _ in range(_MAX_BACKTRACKS):
                with np.errstate(over="ignore", invalid="ignore"):
                    nodes = tree.nodes - step * grad
                # a candidate no receiver spec may hold is rejected as a worse one is
                if _means_in_range(c, rounds, nodes, nm):
                    cand = DecisionTree(rounds, arity, nodes)
                    cand_loss = error_rate(batch_distribution(cand, c, nm, phase, scale), table)
                    if cand_loss <= loss_post_table:
                        tree, loss_end, exhausted = cand, cand_loss, False
                        break
                step *= 0.5
        rows.append((it, loss_end, gnorm, loss_start, loss_post_table, exhausted))
        if loss_end < best_loss:
            best_loss = loss_end
            best_tree = tree
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
        exhausted=arr[:, 5].astype(bool),
        converged=converged,
        best_iteration=best_iteration,
    )
    final_dist = batch_distribution(best_tree, c, nm, *holdout)
    final_table = map_table(final_dist)
    final_loss = error_rate(final_dist, final_table)
    return FormulateResult(best_tree, final_table, trace, final_loss)


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
    winner with displacements rescaled by the amplitude ratio.  The starts
    of a point share its config, so also its held-out batch, and the lowest
    ``final_loss`` wins; the CN start runs first, so a tie goes to it.
    """
    results: list[tuple[float, FormulateResult]] = []
    prev: tuple[float, DecisionTree] | None = None
    for i, nbar in enumerate(mean_photon_grid):
        c = builder(nbar)
        point_cfg = replace(cfg, seed=cfg.seed + i)
        starts: list[DecisionTree | None] = [None]  # None: the CN start
        if arity == 2 and c.n_codewords == 2:
            starts.append(dolinar_tree(nbar, rounds))
        if prev is not None:
            prev_nbar, prev_tree = prev
            ratio = _amplitude_scale(nbar, prev_nbar) if prev_nbar > 0 else 1.0
            with np.errstate(over="ignore", invalid="ignore"):
                nodes = prev_tree.nodes * ratio
            # a start the spec loader would refuse is dropped; the others run
            if _means_in_range(c, rounds, nodes, nm):
                starts.append(DecisionTree(rounds, arity, nodes))
        runs = (formulate(c, rounds, arity, nm, point_cfg, initial_tree=t) for t in starts)
        res = min(runs, key=lambda r: r.final_loss)
        results.append((float(nbar), res))
        prev = (float(nbar), res.tree)
    return results
