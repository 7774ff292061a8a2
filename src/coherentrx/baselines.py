"""Reference receivers and bounds for coherent-state discrimination.

Closed forms (equal-prior BPSK with amplitude ``a = sqrt(mean_photons)``):

* Helstrom bound      ``(1 - sqrt(1 - exp(-4*nbar))) / 2``
* homodyne SQL        ``erfc(sqrt(2*nbar)) / 2``
* Kennedy (exact null)``exp(-4*nbar) / 2``

The conditional-nulling receiver CN(N, M) nulls the currently most probable
hypothesis at every node; the discretized Dolinar receiver Dolinar(N, 2) is
the exact zero-noise optimum over N-round binary feedback strategies,
computed by backward-induction dynamic programming on the posterior (a
sufficient statistic for two hypotheses).  The heterodyne SQL is the
minimum-error decision on an isotropic Gaussian outcome with variance 1/2
per quadrature around the codeword amplitude, which for BPSK reduces to
``erfc(sqrt(nbar)) / 2`` (3 dB worse argument than homodyne).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.interpolate import PchipInterpolator

from .constellation import Constellation, bpsk
from .photonics import NoiseModel, detected_mean_jitter, outcome_probs
from .simulator import exact_distribution, map_table
from .tree import DecisionTable, DecisionTree, level_offset, num_nodes

__all__ = [
    "BoundCurve",
    "helstrom_bpsk",
    "homodyne_sql_bpsk",
    "kennedy_bpsk",
    "cn_tree",
    "cn_receiver",
    "dolinar_tree",
    "dolinar_receiver",
    "heterodyne_sql",
    "heterodyne_sql_mc",
]


@dataclass(frozen=True)
class BoundCurve:
    """Error rate of one bound or receiver over a mean-photon sweep."""

    receiver: str
    mean_photons: np.ndarray
    error: np.ndarray

    def __post_init__(self) -> None:
        n = np.asarray(self.mean_photons, dtype=np.float64)
        e = np.asarray(self.error, dtype=np.float64)
        if n.shape != e.shape or n.ndim != 1:
            raise ValueError("mean_photons and error must be 1-d and congruent")
        if np.any(e < 0) or np.any(e > 1):
            raise ValueError("error rates must lie in [0, 1]")
        object.__setattr__(self, "mean_photons", n)
        object.__setattr__(self, "error", e)


def _check_nbar(mean_photons: float) -> None:
    if mean_photons < 0:
        raise ValueError("mean_photons must be non-negative")


def helstrom_bpsk(mean_photons: float) -> float:
    """Quantum-optimal error for equal-prior BPSK: overlap e^{-4*nbar}."""
    _check_nbar(mean_photons)
    return 0.5 * (1.0 - math.sqrt(1.0 - math.exp(-4.0 * mean_photons)))


def homodyne_sql_bpsk(mean_photons: float) -> float:
    """Ideal homodyne threshold detection of +/-a, equal priors."""
    _check_nbar(mean_photons)
    return 0.5 * math.erfc(math.sqrt(2.0 * mean_photons))


def kennedy_bpsk(mean_photons: float) -> float:
    """Single-round exact-nulling receiver under ideal conditions."""
    _check_nbar(mean_photons)
    return 0.5 * math.exp(-4.0 * mean_photons)


def cn_tree(c: Constellation, rounds: int, arity: int) -> DecisionTree:
    """Conditional-nulling tree: each node nulls the current MAP hypothesis.

    Posteriors are propagated with the ideal noise model; ties between
    hypotheses break toward the lowest label.
    """
    if rounds < 1:
        raise ValueError("rounds must be at least 1")
    if arity < 2:
        raise ValueError("arity must be at least 2")
    ideal = NoiseModel()
    slices = c.amplitudes / math.sqrt(rounds)
    nodes = np.zeros(num_nodes(rounds, arity), dtype=np.complex128)
    probs = np.ones((c.n_codewords, 1))
    for level in range(rounds):
        weighted = c.priors[:, None] * probs
        y_star = np.argmax(weighted, axis=0)
        disp = slices[y_star]
        start = level_offset(arity, level)
        nodes[start : start + arity**level] = disp
        means = detected_mean_jitter(slices[:, None], disp[None, :], ideal, 0.0, 1.0)
        q = outcome_probs(means, arity)
        probs = (probs[:, :, None] * q).reshape(c.n_codewords, -1)
    return DecisionTree(rounds, arity, nodes)


def cn_receiver(
    c: Constellation, rounds: int, arity: int
) -> tuple[DecisionTree, DecisionTable]:
    """CN tree plus its design decision table (MAP on the ideal distribution)."""
    tree = cn_tree(c, rounds, arity)
    table = map_table(exact_distribution(tree, c, NoiseModel()))
    return tree, table


# ---------------------------------------------------------------------------
# Discretized Dolinar receiver via backward-induction dynamic programming
# ---------------------------------------------------------------------------


def _binary_round_terms(p, u, slice_amp: float):
    """Outcome probabilities and updated posteriors for one binary round.

    ``p`` is the posterior of the +slice_amp hypothesis; ``u`` the (real)
    displacement.  Returns (P_noclick, p_noclick, P_click, p_click),
    elementwise over broadcast inputs.  Unreachable branches get posterior
    1/2; they carry zero probability weight.
    """
    m_plus = (slice_amp - u) ** 2
    m_minus = (slice_amp + u) ** 2
    e_plus = np.exp(-m_plus)
    e_minus = np.exp(-m_minus)
    joint0_p = p * e_plus
    joint0_m = (1.0 - p) * e_minus
    prob0 = joint0_p + joint0_m
    post0 = np.where(prob0 > 0, joint0_p / np.where(prob0 > 0, prob0, 1.0), 0.5)
    joint1_p = p * (1.0 - e_plus)
    joint1_m = (1.0 - p) * (1.0 - e_minus)
    prob1 = joint1_p + joint1_m
    post1 = np.where(prob1 > 0, joint1_p / np.where(prob1 > 0, prob1, 1.0), 0.5)
    return prob0, post0, prob1, post1


def _expected_error(p, u, slice_amp: float, v_next):
    """Expected downstream error of displacement ``u`` at posterior ``p``.

    ``v_next`` maps posteriors to next-level values (an interpolant).
    """
    prob0, post0, prob1, post1 = _binary_round_terms(p, u, slice_amp)
    return prob0 * v_next(post0) + prob1 * v_next(post1)


def _value_interpolant(p_grid: np.ndarray, values: np.ndarray):
    """Monotone cubic interpolant of a value-function table.

    Piecewise-linear interpolation leaves slope kinks whose magnitude can
    exceed the tiny true value differences at near-certain posteriors (error
    scales reach 1e-9 at high photon numbers), which makes the displacement
    argmin noise-driven there; a C1 shape-preserving cubic removes the kinks
    without overshooting.
    """
    return PchipInterpolator(p_grid, values, extrapolate=False)


def _best_displacements(
    p: np.ndarray,
    slice_amp: float,
    v_next,
    bracket: float,
    coarse: int = 512,
    golden_iters: int = 70,
) -> tuple[np.ndarray, np.ndarray]:
    """Minimize expected error over the displacement, per posterior value.

    A coarse scan over [-bracket, bracket] (always including the two exact
    nulling displacements and zero) locates the basin; a vectorized
    golden-section pass refines every posterior's optimum simultaneously.
    """
    u_grid = np.concatenate(
        [np.linspace(-bracket, bracket, coarse), [-slice_amp, 0.0, slice_amp]]
    )
    step = u_grid[1] - u_grid[0]
    best_val = np.full(p.shape, np.inf)
    best_u = np.zeros(p.shape)
    for u in u_grid:
        val = _expected_error(p, u, slice_amp, v_next)
        better = val < best_val
        best_val = np.where(better, val, best_val)
        best_u = np.where(better, u, best_u)
    lo = best_u - step
    hi = best_u + step
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(golden_iters):
        x1 = hi - invphi * (hi - lo)
        x2 = lo + invphi * (hi - lo)
        f1 = _expected_error(p, x1, slice_amp, v_next)
        f2 = _expected_error(p, x2, slice_amp, v_next)
        take_left = f1 < f2
        hi = np.where(take_left, x2, hi)
        lo = np.where(take_left, lo, x1)
    u_refined = 0.5 * (lo + hi)
    val_refined = _expected_error(p, u_refined, slice_amp, v_next)
    # keep the scan winner when refinement does not actually improve on it
    keep = val_refined < best_val
    return np.where(keep, u_refined, best_u), np.where(keep, val_refined, best_val)


def dolinar_tree(
    mean_photons: float,
    rounds: int,
    grid_points: int = 2001,
) -> DecisionTree:
    """Zero-noise optimal N-round binary feedback tree for equal-prior BPSK.

    Backward induction: the value function over the posterior grid starts
    from the terminal Bayes error min(p, 1-p) and absorbs one round at a
    time, optimizing one real displacement per (level, posterior) by golden
    section.  The optimal policy is then unrolled into tree form node by
    node at each node's exact posterior.  Displacements stay real by the
    problem's real-axis symmetry.
    """
    _check_nbar(mean_photons)
    if rounds < 1:
        raise ValueError("rounds must be at least 1")
    tree = DecisionTree.zeros(rounds, 2)
    if mean_photons == 0:
        return tree
    slice_amp = math.sqrt(mean_photons / rounds)
    bracket = 2.0 + 3.0 * math.sqrt(mean_photons)
    p_grid = np.linspace(0.0, 1.0, grid_points)
    interpolants = [None] * (rounds + 1)
    interpolants[rounds] = _value_interpolant(p_grid, np.minimum(p_grid, 1.0 - p_grid))
    for level in range(rounds - 1, 0, -1):
        _, v = _best_displacements(p_grid, slice_amp, interpolants[level + 1], bracket)
        interpolants[level] = _value_interpolant(p_grid, v)
    posteriors = np.array([0.5])
    for level in range(rounds):
        u, _ = _best_displacements(posteriors, slice_amp, interpolants[level + 1], bracket)
        start = level_offset(2, level)
        tree.nodes[start : start + 2**level] = u
        _, post0, _, post1 = _binary_round_terms(posteriors, u, slice_amp)
        posteriors = np.stack([post0, post1], axis=1).reshape(-1)
    return tree


def dolinar_receiver(
    mean_photons: float, rounds: int, grid_points: int = 2001
) -> tuple[DecisionTree, DecisionTable]:
    """Dolinar tree plus its zero-noise MAP decision table."""
    tree = dolinar_tree(mean_photons, rounds, grid_points)
    c = bpsk(mean_photons)
    table = map_table(exact_distribution(tree, c, NoiseModel()))
    return tree, table


# ---------------------------------------------------------------------------
# Heterodyne SQL
# ---------------------------------------------------------------------------


def heterodyne_sql(c: Constellation, epsabs: float = 1e-10) -> float:
    """Minimum-error heterodyne detection of an arbitrary constellation.

    The heterodyne outcome is an isotropic Gaussian of variance 1/2 per
    quadrature centered on the codeword amplitude; the success probability
    integrates ``max_y prior_y * exp(-|z - beta_y|^2) / pi`` over the plane
    with adaptive 2-d quadrature.
    """
    amps = c.amplitudes
    priors = c.priors
    pad = 7.0
    x_lo, x_hi = amps.real.min() - pad, amps.real.max() + pad
    y_lo, y_hi = amps.imag.min() - pad, amps.imag.max() + pad

    def integrand(y: float, x: float) -> float:
        d2 = (x - amps.real) ** 2 + (y - amps.imag) ** 2
        return float(np.max(priors * np.exp(-d2))) / math.pi

    p_correct, _ = integrate.dblquad(
        integrand, x_lo, x_hi, y_lo, y_hi, epsabs=epsabs, epsrel=1e-10
    )
    return float(min(max(1.0 - p_correct, 0.0), 1.0))


def heterodyne_sql_mc(
    c: Constellation,
    num_samples: int = 10_000_000,
    seed=0,
    chunk: int = 500_000,
) -> tuple[float, float]:
    """Monte Carlo heterodyne SQL with its binomial standard error."""
    if num_samples < 1:
        raise ValueError("num_samples must be at least 1")
    rng = np.random.default_rng(seed)
    amps = c.amplitudes
    log_priors = np.where(c.priors > 0, np.log(np.where(c.priors > 0, c.priors, 1.0)), -np.inf)
    sigma = math.sqrt(0.5)
    correct = 0
    remaining = num_samples
    while remaining > 0:
        size = min(chunk, remaining)
        y = rng.choice(c.n_codewords, size=size, p=c.priors)
        z = amps[y] + sigma * (
            rng.standard_normal(size) + 1j * rng.standard_normal(size)
        )
        score = log_priors[None, :] - np.abs(z[:, None] - amps[None, :]) ** 2
        guess = np.argmax(score, axis=1)
        correct += int(np.count_nonzero(guess == y))
        remaining -= size
    err = 1.0 - correct / num_samples
    stderr = math.sqrt(max(err * (1.0 - err), 0.0) / num_samples)
    return err, stderr
