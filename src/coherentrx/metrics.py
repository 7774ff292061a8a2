"""Receiver diagnostics: posterior evolution, prefix KL divergence, bits/photon.

The posterior trajectory shows how the codeword belief sharpens round by
round along a measurement record; the pairwise prefix KL divergence
quantifies how separable two codewords' measurement statistics have become
after ``n`` rounds (non-decreasing in ``n`` by the chain rule); bits per
received photon is the binary-channel information rate normalized by the
symbol energy.  No diagnostic walks the tree itself:
:func:`posterior_trajectory` reads the prefix probabilities of the
simulator's one forward recursion along its record, and the per-codeword
diagnostics read a :class:`~coherentrx.simulator.PathDistribution`, which a
caller builds once and passes to each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .constellation import Constellation
from .simulator import PathDistribution, _ideal_prefixes
from .tree import DecisionTree, decode_leaf_index, leaf_index

__all__ = [
    "PosteriorTrajectory",
    "posterior_trajectory",
    "most_probable_path",
    "expected_posterior_trajectory",
    "prefix_marginal",
    "prefix_kl",
    "bits_per_photon",
]


@dataclass(frozen=True)
class PosteriorTrajectory:
    """Posterior over codewords after each round along one outcome path.

    ``posteriors[j]`` is the belief after round ``j``; row 0 is the prior.
    """

    posteriors: np.ndarray
    path: tuple[int, ...]

    def __post_init__(self) -> None:
        sums = self.posteriors.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > 1e-10):
            raise ValueError("posterior rows must sum to 1")


def posterior_trajectory(
    tree: DecisionTree,
    c: Constellation,
    nm,
    path: Sequence[int],
) -> PosteriorTrajectory:
    """Bayesian belief after each round of a complete measurement record.

    The likelihoods are the prefix probabilities of the simulator's forward
    recursion under the :class:`~coherentrx.photonics.NoiseModel` ``nm`` at
    the ideal draw (jitter left out), read at the record's prefixes.  So the
    last row is the normalized column ``priors * P(path | y)`` of
    :func:`~coherentrx.simulator.exact_distribution`, bit for bit.  Raises
    ValueError when the record has zero probability under every hypothesis
    (the conditional is undefined there).
    """
    path = tuple(int(k) for k in path)
    if len(path) != tree.rounds:
        raise ValueError("path must cover all rounds")
    leaf_index(tree.arity, tree.rounds, path)  # range check of every outcome
    prefix = _ideal_prefixes(tree, c, nm)
    out = [c.priors.copy()]
    for j in range(1, tree.rounds + 1):
        joint = c.priors * prefix[j][:, leaf_index(tree.arity, j, path[:j])]
        total = joint.sum()
        if total <= 0.0:
            raise ValueError(f"path {path} has zero probability under every hypothesis")
        out.append(joint / total)
    return PosteriorTrajectory(np.array(out), path)


def _check_label(d: PathDistribution, label: int) -> None:
    if not 0 <= label < d.constellation.n_codewords:
        raise ValueError("invalid codeword label")


def most_probable_path(d: PathDistribution, label: int) -> tuple[int, ...]:
    """Most likely complete outcome path of a distribution for a given true codeword.

    Ties break toward the lowest leaf index.
    """
    _check_label(d, label)
    return decode_leaf_index(d.arity, d.rounds, int(np.argmax(d.probs[label])))


def expected_posterior_trajectory(d: PathDistribution, label: int) -> np.ndarray:
    """Probability-weighted posterior per round for a given true codeword.

    Row ``j`` averages the round-``j`` posterior over all outcome prefixes,
    weighted by the prefix probability under the true codeword.  Row 0 is
    the prior.
    """
    _check_label(d, label)
    priors, m, n = d.constellation.priors, d.arity, d.rounds
    rows = [priors.copy()]
    for j in range(1, n + 1):
        marg = d.probs.reshape(priors.size, m**j, m ** (n - j)).sum(axis=2)
        joint = priors[:, None] * marg
        total = joint.sum(axis=0)
        post = np.where(total > 0, joint / np.where(total > 0, total, 1.0), 0.0)
        rows.append(post @ marg[label])
    return np.array(rows)


def prefix_marginal(d: PathDistribution, label: int, round_n: int) -> np.ndarray:
    """Distribution of the first ``round_n`` outcomes given a codeword."""
    if not 0 <= round_n <= d.rounds:
        raise ValueError("round_n must lie in [0, rounds]")
    _check_label(d, label)
    if round_n == 0:
        # the empty prefix is a point mass regardless of row rounding
        return np.ones(1)
    row = d.probs[label]
    return row.reshape(d.arity**round_n, -1).sum(axis=1)


def prefix_kl(d: PathDistribution, p: int, q: int, round_n: int) -> float:
    """KL divergence (nats) between two codewords' length-n prefix statistics.

    Conventions: terms with ``p_i = 0`` contribute nothing; a prefix with
    ``p_i > 0`` but ``q_i = 0`` makes the divergence infinite.
    """
    mp = prefix_marginal(d, p, round_n)
    mq = prefix_marginal(d, q, round_n)
    support = mp > 0
    if np.any(mq[support] == 0):
        return math.inf
    return float(np.sum(mp[support] * np.log(mp[support] / mq[support])))


def bits_per_photon(ber: float, mean_photons: float) -> float:
    """Binary-channel information per received photon: (1 - H2(ber)) / nbar."""
    if not 0.0 <= ber <= 0.5:
        raise ValueError("ber must lie in [0, 1/2]")
    if mean_photons <= 0:
        raise ValueError("mean_photons must be positive")
    h2 = 0.0
    for x in (ber, 1.0 - ber):
        if x > 0:
            h2 -= x * math.log2(x)
    return (1.0 - h2) / mean_photons
