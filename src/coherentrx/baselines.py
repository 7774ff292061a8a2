"""Reference receivers and bounds for coherent-state discrimination.

Closed forms (equal-prior BPSK with amplitude ``a = sqrt(mean_photons)``):

* Helstrom bound      ``(1 - sqrt(1 - exp(-4*nbar))) / 2``
* homodyne SQL        ``erfc(sqrt(2*nbar)) / 2``
* Kennedy (exact null)``exp(-4*nbar) / 2``

The conditional-nulling receiver CN(N, M) nulls the currently most probable
hypothesis at every node; the discretized Dolinar receiver Dolinar(N, 2) is
the exact zero-noise optimum over N-round binary feedback strategies,
computed by backward-induction dynamic programming on the posterior (a
sufficient statistic for two hypotheses).  Each DP level scans a coarse
displacement grid in blocks of displacement-posterior pairs, then refines by
golden section; on the value-table levels all but a few anchor posteriors
scan only windows around the anchors' winners.  The trees are the full
scan's to the byte at N = 1, 2, 4 and 10 for 0.2, 1.5 and 100 photons, and
at N = 4 and 10 for 0.5-30 photons.  At N = 10 and 35, 45, 60 or 80
photons some nodes differ, where near-zero values tie; the error rates agree
to 2.2e-16.

The heterodyne SQL is the minimum-error decision on an isotropic Gaussian
outcome with variance 1/2 per quadrature around the codeword amplitude,
which for BPSK reduces to ``erfc(sqrt(nbar)) / 2`` (3 dB worse argument than
homodyne).
For a general constellation the integral over the imaginary quadrature is
closed form (erf pieces under the upper envelope of one line per codeword).
The integral over the real quadrature is split at the points where that
integrand is not smooth, which are known in closed form (row kinks and
decision-region vertices), and each piece is integrated by adaptive 24-point
Gauss-Legendre quadrature.

The Dolinar DP interpolates its value tables with an in-repo PCHIP cubic
whose values are scipy's ``PchipInterpolator``'s to the bit.  The golden
section asks the interpolant for the same number of queries at every step,
and their intervals barely move, so it keeps each query's interval row
between steps and hands the rows to the interpolant, which searches again
only for the queries that left theirs; no value depends on the rows, and no
call changes the interpolant.  The module runs on numpy alone and never
imports scipy.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .constellation import Constellation, bpsk
from .photonics import NoiseModel
from .simulator import _ideal_prefixes, exact_distribution, map_table
from .tree import DecisionTable, DecisionTree, level_offset

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
        # both range checks are written so that NaN fails them
        if not (n >= 0).all():
            raise ValueError("mean photon numbers must be non-negative")
        if not ((e >= 0) & (e <= 1)).all():
            raise ValueError("error rates must lie in [0, 1]")
        object.__setattr__(self, "mean_photons", n)
        object.__setattr__(self, "error", e)


def _check_nbar(mean_photons: float) -> None:
    if not (math.isfinite(mean_photons) and mean_photons >= 0):
        raise ValueError("mean_photons must be finite and non-negative")


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

    Posteriors are propagated with the ideal noise model.  Ties between
    hypotheses break toward the lowest label (``np.argmax``) only where they
    are exact in floating point: two weighted prefix probabilities that agree
    in exact arithmetic but differ in their last bits go to the larger one.
    """
    if rounds < 1:
        raise ValueError("rounds must be at least 1")
    if arity < 2:
        raise ValueError("arity must be at least 2")
    tree = DecisionTree.zeros(rounds, arity)
    slices = c.amplitudes / math.sqrt(rounds)
    ideal = NoiseModel()
    probs = np.ones((c.n_codewords, 1))
    for level in range(rounds):
        tree.level_nodes(level)[:] = slices[np.argmax(c.priors[:, None] * probs, axis=0)]
        if level + 1 < rounds:
            # the next level's prefix probabilities read only the levels
            # filled so far
            probs = _ideal_prefixes(tree, c, ideal)[level + 1]
    return tree


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


def _round_terms(p, q, u, slice_amp: float, prob, post, joint) -> None:
    """Outcome probabilities and updated posteriors of one binary round.

    ``p`` is the posterior of the +slice_amp hypothesis, ``q = 1 - p`` and
    ``u`` the real displacement, broadcast against ``p``.  ``prob`` and
    ``post`` receive each outcome's probability and posterior along their
    leading axis (no click, click); ``joint`` is scratch of the same shape.
    Unreachable branches get posterior 1/2; they carry zero probability
    weight.  Both signs' ``exp(-(slice_amp -/+ u)**2)`` go through one call,
    and the posteriors are a plain division unless some outcome has
    probability zero (a masked division costs twice as much).
    """
    # both signs' no-click probabilities, then their click ones
    e = np.empty((2,) + u.shape)
    np.subtract(slice_amp, u, out=e[0])
    np.add(slice_amp, u, out=e[1])
    np.square(e, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    # joint takes p's share of each outcome, post q's until the division
    np.multiply(p, e[0], out=joint[0])
    np.multiply(q, e[1], out=post[0])
    np.subtract(1.0, e, out=e)
    np.multiply(p, e[0], out=joint[1])
    np.multiply(q, e[1], out=post[1])
    np.add(joint, post, out=prob)
    if prob.min() > 0:
        np.divide(joint, prob, out=post)
    else:
        post.fill(0.5)
        np.divide(joint, prob, out=post, where=prob > 0)


def _edge_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    """One-sided three-point end derivative, clamped to preserve shape."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


# Queries a value interpolant evaluates at once
_EVAL_BLOCK = 8192


class _Pchip:
    """Monotone cubic interpolant of a value-function table: the PCHIP cubic
    of a table on an evenly spaced grid of at least three knots over [0, 1],
    NaN outside it.

    Piecewise-linear interpolation leaves slope kinks whose magnitude can
    exceed the tiny true value differences at near-certain posteriors (error
    scales reach 1e-9 at high photon numbers), which makes the displacement
    argmin noise-driven there; a C1 shape-preserving cubic removes the kinks
    without overshooting.

    The derivatives are Fritsch & Butland's weighted harmonic means of the
    neighbouring slopes, zero at a sign change or a flat side, with
    one-sided clamped ends; each interval holds the cubic Hermite
    coefficients in powers of ``s = x - p[i]``.  Every operation follows
    ``scipy.interpolate.PchipInterpolator(p, v, extrapolate=False)`` in the
    same order, so the values are its values to the bit: the interval holds
    ``p[i] <= x < p[i + 1]`` (the last one is closed), and the cubic is
    ``((c3 + c2*s) + c1*(s*s)) + c0*((s*s)*s)``.  The interpolant is a
    function of its table: no call changes it.
    """

    def __init__(self, p_grid: np.ndarray, values: np.ndarray) -> None:
        x = np.asarray(p_grid, dtype=np.float64)
        y = np.asarray(values, dtype=np.float64)
        if x[0] != 0.0 or x[-1] != 1.0:
            raise ValueError("the grid must run from 0 to 1")
        h = x[1:] - x[:-1]
        m = (y[1:] - y[:-1]) / h
        sm = np.sign(m)
        flat = (sm[1:] != sm[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
        w1 = 2 * h[1:] + h[:-1]
        w2 = h[1:] + 2 * h[:-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
        d = np.zeros_like(y)
        d[1:-1][~flat] = 1.0 / whmean[~flat]
        d[0] = _edge_slope(h[0], h[1], m[0], m[1])
        d[-1] = _edge_slope(h[-1], h[-2], m[-1], m[-2])
        t = (d[:-1] + d[1:] - 2 * m) / h
        # one row per interval: left knot, right knot (the last one closed),
        # c0 to c3; one more row of NaN coefficients, index n - 1 (and -1,
        # which wraps to it), takes every query outside the grid.  Its left
        # knot lies above 1.0, so no query of the grid stays in it.
        nan = [np.nan]
        self._rows = np.stack([
            np.concatenate([x[:-1], [np.nextafter(x[-1], np.inf)]]),
            np.concatenate([x[1:-1], [np.nextafter(x[-1], np.inf), np.inf]]),
            np.concatenate([t / h, nan]),
            np.concatenate([(m - d[:-1]) / h - t, nan]),
            np.concatenate([d[:-1], nan]),
            # the evaluation starts from 0.0, which turns a -0.0 into +0.0
            np.concatenate([0.0 + y[:-1], nan]),
        ])
        self._left, self._right, self._c0, self._c1, self._c2, self._c3 = self._rows
        self._last = x.size - 2

    def evaluate(self, x: np.ndarray, scratch: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
        """Overwrite ``x`` with the values at ``x`` and return it.

        ``x`` and ``scratch`` are C-contiguous float64 arrays of one shape;
        ``scratch`` is left undefined.  Without ``rows`` the queries go
        ``_EVAL_BLOCK`` at a time, so the evaluation's own temporaries (an
        interval index and two float64 arrays) stay near 200 KB however many
        queries there are.

        ``rows`` is the caller's C-contiguous ``(6, x.size)`` float64 buffer
        of each query's interval row (both knots and the four coefficients),
        for at most ``_EVAL_BLOCK`` queries, NaN before its first call.  The
        call searches again only for the queries that left their row's
        interval and leaves every query's row in ``rows`` for the next call.
        It saves gathers and nothing else; no value depends on it.
        """
        flat_x, flat_s = x.reshape(-1), scratch.reshape(-1)
        if rows is not None:
            self._evaluate_hinted(flat_x, flat_s, rows)
        else:
            for k in range(0, flat_x.size, _EVAL_BLOCK):
                self._evaluate_block(flat_x[k : k + _EVAL_BLOCK], flat_s[k : k + _EVAL_BLOCK])
        return x

    def _locate(self, x: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        # first guess floor(x * (n - 1)), clamped to a real interval (NaN
        # goes to 0) and then corrected against the knots themselves; every
        # gather wraps: index -1 reaches the NaN interval, and the default
        # mode would copy its output
        np.multiply(x, self._last + 1, out=scratch)
        np.fmax(scratch, 0.0, out=scratch)
        np.fmin(scratch, self._last, out=scratch)
        i = scratch.astype(np.intp)
        below = x < self._left.take(i, out=scratch, mode="wrap")
        above = x >= self._right.take(i, out=scratch, mode="wrap")
        i -= below
        i += above
        return i

    def _evaluate_block(self, x: np.ndarray, scratch: np.ndarray) -> None:
        i = self._locate(x, scratch)
        s = self._left.take(i, out=scratch, mode="wrap")
        np.subtract(x, s, out=s)
        # IEEE sums and products commute exactly, so only the grouping has
        # to be scipy's
        acc = self._c2.take(i, out=x, mode="wrap")
        acc *= s
        term = self._c3.take(i, mode="wrap")
        acc += term
        ss = np.multiply(s, s)
        sss = np.multiply(ss, s, out=s)
        self._c1.take(i, out=term, mode="wrap")
        term *= ss
        acc += term
        self._c0.take(i, out=term, mode="wrap")
        term *= sss
        acc += term

    def _evaluate_hinted(self, x: np.ndarray, scratch: np.ndarray, rows: np.ndarray) -> None:
        # written so that NaN, in a query or in the rows, fails the check
        inside = np.less_equal(rows[0], x)
        inside &= x < rows[1]
        stay = np.count_nonzero(inside)
        if 4 * stay < 3 * x.size:
            # most of the queries moved: searching them all is cheaper
            self._rows.take(self._locate(x, scratch), axis=1, mode="wrap", out=rows)
        elif stay < x.size:
            moved = np.flatnonzero(~inside)
            xm = x[moved]
            rows[:, moved] = self._rows.take(self._locate(xm, scratch[: xm.size]), axis=1, mode="wrap")
        left, _, c0, c1, c2, c3 = rows
        # the operations and their order are _evaluate_block's
        s = np.subtract(x, left, out=scratch)
        acc = np.multiply(c2, s, out=x)
        acc += c3
        ss = np.multiply(s, s)
        sss = np.multiply(ss, s, out=s)
        ss *= c1
        acc += ss
        sss *= c0
        acc += sss


# Displacement-posterior pairs per coarse-scan block.  The block buffers hold
# both outcomes of every pair, so a scan's working set stays near a megabyte
# for any number of posteriors: 8 displacements at a time on the 2001-point
# grid, all 515 at once for up to 31 posteriors.
_SCAN_ELEMS = 1 << 14

# Windowed scan: posteriors per anchor, displacements on each side of a window's centre
_ANCHOR_GAP = 32
_HALF_WINDOW = 4

# Golden-section steps that refine each scan winner
_GOLDEN_ITERS = 70

# Evenly spaced displacements of the coarse scan, and posteriors of the DP's
# value-table grid on [0, 1]
_COARSE = 512
_GRID_POINTS = 2001


def _best_displacements(
    p: np.ndarray,
    slice_amp: float,
    v_next,
    bracket: float,
    *,
    window: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Minimize expected error over the displacement, per 1-d posterior array.

    A coarse scan of ``_COARSE`` displacements over [-bracket, bracket]
    (always including the two exact nulling displacements and zero) locates
    the basin, in blocks of about ``_SCAN_ELEMS`` displacement-posterior
    pairs; the first minimum wins ties, as in a one-at-a-time scan with
    strict ``<``.  A vectorized
    golden-section pass of ``_GOLDEN_ITERS`` steps then refines every
    posterior's optimum simultaneously.  Each evaluation writes both
    outcomes' posteriors into one reused buffer and passes it to ``v_next``
    in a single call; the golden-section pair and the refinement use
    contiguous prefixes of the same buffers.  The golden section owns the
    interval rows of its pair's ``4 * p.size`` queries, when they fit in
    ``_EVAL_BLOCK``: it allocates them once, NaN, and passes them to
    ``v_next.evaluate`` at every step, so that each step searches again only
    for the queries that left their intervals (see :class:`_Pchip`).  A step
    makes a fixed handful of numpy calls, whose fixed cost dominates at the
    unroll's few posteriors.

    ``window`` is for a sorted, evenly spaced ``p`` of more than
    ``_ANCHOR_GAP`` posteriors: the anchors (every ``_ANCHOR_GAP``-th
    posterior and the last) scan in full, and the others scan, in grid
    order, windows around the index interpolated between their anchors'
    winners and around its mirror (the other hypothesis's basin), then the
    special displacements.  They scan in full where the anchors' winners are
    over ``2 * _HALF_WINDOW`` apart or special, or where they win on a
    window edge.  Errors are elementwise, so each scanned pair's bits are the
    full scan's; the winners match it in the checked range (see the module
    docstring), not where near-zero values tie.
    """
    u_grid = np.concatenate(
        [np.linspace(-bracket, bracket, _COARSE), [-slice_amp, 0.0, slice_amp]]
    )
    step = u_grid[1] - u_grid[0]
    q = 1.0 - p
    size = p.size
    # prob, post and joint, with room for any scan block and the golden pair
    bufs = np.empty((3, 2 * max(min(u_grid.size * size, _SCAN_ELEMS), 2 * size)))

    def terms(rows: int, cols: int) -> list[np.ndarray]:
        # prob, post and joint of `rows` displacements at `cols` posteriors
        return [b[: 2 * rows * cols].reshape(2, rows, cols) for b in bufs]

    def expected_error(
        u: np.ndarray, p: np.ndarray, q: np.ndarray, prob, post, joint, intervals=None
    ) -> np.ndarray:
        # u is (rows, 1) or (rows, P) in the scan, (2, P) or (1, P) after it
        _round_terms(p, q, u, slice_amp, prob, post, joint)
        v = v_next.evaluate(post, joint, intervals)
        np.multiply(prob, v, out=v)
        return np.add(v[0], v[1], out=joint[0])

    best_val = np.full(size, np.inf)
    best_idx = np.zeros(size, dtype=np.intp)

    def scan(cols: np.ndarray, cand: np.ndarray) -> None:
        # displacement indices ascending down the rows of cand, one column each or shared
        rows = max(1, _SCAN_ELEMS // max(cols.size, 1))
        ps, qs, at = p[cols], q[cols], np.arange(cols.size)
        for start in range(0, cand.shape[0], rows):
            block = cand[start : start + rows]
            val = expected_error(u_grid[block], ps, qs, *terms(block.shape[0], cols.size))
            row = np.argmin(val, axis=0)
            better = val[row, at] < best_val[cols]
            best_val[cols[better]] = val[row, at][better]
            best_idx[cols[better]] = np.broadcast_to(block, val.shape)[row, at][better]

    redo = np.arange(size)
    if window and size > _ANCHOR_GAP:
        anchors = np.union1d(redo[::_ANCHOR_GAP], size - 1)
        scan(anchors, np.arange(u_grid.size)[:, None])
        i = np.delete(redo, anchors)
        left = i - i % _ANCHOR_GAP
        right = np.minimum(left + _ANCHOR_GAP, size - 1)
        w_lo, w_hi = best_idx[left], best_idx[right]
        centre = np.rint(w_lo + (w_hi - w_lo) * (i - left) / (right - left)).astype(np.intp)
        centres = np.stack([centre, _COARSE - 1 - centre])
        windows = np.add.outer(np.arange(-_HALF_WINDOW, _HALF_WINDOW + 1), centres)
        windows = np.sort(np.clip(windows, 0, _COARSE - 1).reshape(-1, i.size), axis=0)
        special = np.broadcast_to(np.arange(_COARSE, u_grid.size)[:, None], (3, i.size))
        scan(i, np.concatenate([windows, special]))
        doubt = (np.abs(w_hi - w_lo) > 2 * _HALF_WINDOW) | (np.maximum(w_lo, w_hi) >= _COARSE)
        doubt |= (np.abs(best_idx[i] - centres) == _HALF_WINDOW).any(axis=0)
        redo = i[doubt]
        best_val[redo] = np.inf
    if redo.size:
        scan(redo, np.arange(u_grid.size)[:, None])
    best_u = u_grid[best_idx]
    # bounds holds (lo, hi); the pair hi - w, lo + w comes from one signed
    # product w = invphi * (hi - lo) and one sum
    bounds = np.stack([best_u - step, best_u + step])
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    signed = np.array([[-invphi], [invphi]])
    width = np.empty(size)
    pair = np.empty((2, size))
    # which bound moves to its pair point: hi where the left point is lower, else lo
    moves = np.empty((2, size), dtype=bool)
    golden = terms(2, size)
    # the pair's interval rows; NaN fails every interval check, so the first
    # step searches in full
    intervals = np.full((6, 4 * size), np.nan) if 4 * size <= _EVAL_BLOCK else None
    for _ in range(_GOLDEN_ITERS):
        np.subtract(bounds[1], bounds[0], out=width)
        np.multiply(signed, width, out=pair)
        np.add(pair, bounds[::-1], out=pair)
        f = expected_error(pair, p, q, *golden, intervals)
        np.less(f[0], f[1], out=moves[1])
        np.logical_not(moves[1], out=moves[0])
        np.putmask(bounds, moves, pair)
    lo, hi = bounds
    u_refined = 0.5 * (lo + hi)
    val_refined = expected_error(u_refined[None], p, q, *terms(1, size))[0]
    # keep the scan winner when refinement does not actually improve on it
    keep = val_refined < best_val
    return np.where(keep, u_refined, best_u), np.where(keep, val_refined, best_val)


def dolinar_tree(mean_photons: float, rounds: int) -> DecisionTree:
    """Zero-noise optimal N-round binary feedback tree for equal-prior BPSK.

    Backward induction: the value function over a grid of ``_GRID_POINTS``
    posteriors starts from the terminal Bayes error min(p, 1-p) and absorbs
    one round at a time, optimizing one real displacement per (level,
    posterior) by golden section after a windowed scan.  The optimal policy
    is then unrolled into tree form node by node at each node's exact
    posterior, scanning in full there.  Displacements stay real by the
    problem's real-axis symmetry.
    """
    _check_nbar(mean_photons)
    if rounds < 1:
        raise ValueError("rounds must be at least 1")
    tree = DecisionTree.zeros(rounds, 2)
    if mean_photons == 0:
        return tree
    # the slice the simulator scores, bit for bit, so that nulling it is exact
    slice_amp = float((bpsk(mean_photons).amplitudes / math.sqrt(rounds))[0].real)
    bracket = 2.0 + 3.0 * math.sqrt(mean_photons)
    p_grid = np.linspace(0.0, 1.0, _GRID_POINTS)
    # the value interpolants of levels rounds, rounds - 1, ..., 1; the unroll
    # takes them back from the end and drops each one once it has used it
    interpolants = [_Pchip(p_grid, np.minimum(p_grid, 1.0 - p_grid))]
    for _ in range(rounds - 1):
        _, v = _best_displacements(p_grid, slice_amp, interpolants[-1], bracket, window=True)
        interpolants.append(_Pchip(p_grid, v))
    posteriors = np.array([0.5])
    for level in range(rounds):
        u, _ = _best_displacements(posteriors, slice_amp, interpolants.pop(), bracket)
        start = level_offset(2, level)
        tree.nodes[start : start + 2**level] = u
        prob, post, joint = np.empty((3, 2, posteriors.size))
        _round_terms(posteriors, 1.0 - posteriors, u, slice_amp, prob, post, joint)
        # children of node i are 2i (no click) and 2i + 1 (click)
        posteriors = post.T.ravel()
    return tree


def dolinar_receiver(mean_photons: float, rounds: int) -> tuple[DecisionTree, DecisionTable]:
    """Dolinar tree plus its zero-noise MAP decision table."""
    tree = dolinar_tree(mean_photons, rounds)
    c = bpsk(mean_photons)
    table = map_table(exact_distribution(tree, c, NoiseModel()))
    return tree, table


# ---------------------------------------------------------------------------
# Heterodyne SQL
# ---------------------------------------------------------------------------


# Gauss-Legendre points of the outer rule, the agreement a halved piece must
# reach, and the halvings a piece may take before heterodyne_sql gives up;
# breakpoints, and plane heights at a vertex, within _TIE_TOL count as tied
_GL_POINTS = 24
_TIE_TOL = 1e-9
_HALVING_TOL = 1e-13
_MAX_HALVINGS = 30
# Largest codeword quadrature heterodyne_sql takes: beyond it the unit-width
# peaks around each a_k span too few floats (the ulp of 1e18 is 128)
_MAX_QUADRATURE = 1e8


@functools.cache
def _gauss_legendre() -> tuple[tuple[float, ...], tuple[float, ...]]:
    # nodes and weights on [-1, 1]; computed once, on the first call
    nodes, weights = np.polynomial.legendre.leggauss(_GL_POINTS)
    return tuple(nodes.tolist()), tuple(weights.tolist())


def _vertex_xs(amps: np.ndarray, log_priors: np.ndarray) -> np.ndarray:
    """x of every point where three codewords tie for the heterodyne maximum.

    ``log prior_k - |z - beta_k|^2`` is ``-|z|^2`` plus the plane
    ``v_k = log prior_k - |beta_k|^2 + 2 a_k x + 2 b_k y``, so the decision
    regions are convex polygons.  A vertex is where three planes meet at the
    top; near-ties within ``_TIE_TOL`` are kept too, which only adds a split.
    """
    a, b = amps.real, amps.imag
    v0 = log_priors - a * a - b * b
    i, j, k = np.array(list(combinations(range(a.size), 3)), dtype=np.intp).reshape(-1, 3).T
    det = 2.0 * ((a[i] - a[j]) * (b[j] - b[k]) - (b[i] - b[j]) * (a[j] - a[k]))
    i, j, k, det = i[det != 0], j[det != 0], k[det != 0], det[det != 0]
    # Cramer's rule on v_i = v_j and v_j = v_k
    r1, r2 = v0[j] - v0[i], v0[k] - v0[j]
    x = (r1 * (b[j] - b[k]) - (b[i] - b[j]) * r2) / det
    y = ((a[i] - a[j]) * r2 - r1 * (a[j] - a[k])) / det
    v = v0 + 2.0 * (a * x[:, None] + b * y[:, None])
    top = v.max(axis=1)
    return x[v[np.arange(x.size), i] >= top - _TIE_TOL * (1.0 + np.abs(top))]


def heterodyne_sql(c: Constellation) -> float:
    """Minimum-error heterodyne detection of an arbitrary constellation.

    The heterodyne outcome ``z = x + iy`` is an isotropic Gaussian of
    variance 1/2 per quadrature centered on the codeword amplitude
    ``beta_k = a_k + i b_k``; the success probability integrates
    ``max_k prior_k * exp(-|z - beta_k|^2) / pi`` over the plane.

    At fixed x the log of ``prior_k * exp(-|z - beta_k|^2)`` is ``-y^2`` plus
    the line ``log w_k(x) - b_k^2 + 2 b_k y`` with
    ``w_k(x) = prior_k * exp(-(x - a_k)^2)``, so the maximum is a Gaussian
    times the upper envelope of at most K lines.  On the envelope piece
    ``[lo, hi]`` owned by codeword k the y-integral is closed form,
    ``w_k(x) * sqrt(pi)/2 * (erf(hi - b_k) - erf(lo - b_k))``.  It runs
    over the amplitudes' bounding box padded by 7, and x over the merged
    windows ``[a_k - 7, a_k + 7]`` (the Gaussian tail beyond them is below
    1e-21); a single box-wide piece would be thousands of units wide at
    large photon numbers, and its nodes would miss the unit-width peaks.
    Zero-prior codewords never win the maximum and are dropped.

    The x-integrand has a kink where two codewords of one row (equal ``b``)
    swap the row's largest ``w_k``, at
    ``x = (l2 - l1 + a1^2 - a2^2) / (2 (a1 - a2))`` with ``l = log prior``,
    and its second derivative jumps at the x of every vertex of the decision
    regions (:func:`_vertex_xs`); between these points it is smooth.  Each
    window is split at all of them, and each piece is integrated by adaptive
    ``_GL_POINTS``-point Gauss-Legendre quadrature: a piece is halved until
    its two halves agree with it to ``_HALVING_TOL`` absolute, and the
    halves' sum is kept.  (A vertex left inside a piece can make the halves
    agree while both are off by more.)  A piece that would need more than
    ``_MAX_HALVINGS`` halvings raises ``RuntimeError`` rather than return an
    unconverged value.

    A codeword whose real or imaginary part exceeds ``_MAX_QUADRATURE`` =
    1e8 in magnitude (BPSK above 1e16 photons) raises ``ValueError``: there
    the windows fall below float resolution near ``a_k``, and the value
    would be wrong.  Up to that limit BPSK reads at most ~2e-12, against a
    true error of 0 to hundreds of digits.
    """
    # written so that NaN fails it
    if not (np.abs(c.amplitudes.view(np.float64)) <= _MAX_QUADRATURE).all():
        raise ValueError(
            f"heterodyne_sql takes codeword quadratures up to {_MAX_QUADRATURE:g} in magnitude "
            f"(1e16 photons for bpsk): beyond that its windows fall below float resolution"
        )
    keep = c.priors > 0
    amps, log_priors = c.amplitudes[keep], np.log(c.priors[keep])
    pad = 7.0
    y_lo, y_hi = amps.imag.min() - pad, amps.imag.max() + pad
    # lines of equal slope (one row of codewords) never cross: at each x only
    # the row's largest w_k can own an envelope piece
    rows: dict[float, list[tuple[float, float]]] = {}
    for a, b, log_prior in zip(amps.real.tolist(), amps.imag.tolist(), log_priors.tolist()):
        rows.setdefault(b, []).append((a, log_prior))
    slopes = sorted(rows)
    norm = 2.0 * math.sqrt(math.pi)  # 1/pi of the density over sqrt(pi)/2 per erf piece

    def inner(x: float) -> float:
        log_w = [max(lp - (x - a) ** 2 for a, lp in rows[b]) for b in slopes]
        icpt = [lw - b * b for lw, b in zip(log_w, slopes)]
        total = 0.0
        for k, b in enumerate(slopes):
            # line k tops the envelope between its lower- and higher-slope crossings
            cross = [(icpt[j] - icpt[k]) / (2.0 * (b - slopes[j])) for j in range(len(slopes)) if j != k]
            lo, hi = max([y_lo, *cross[:k]]), min([y_hi, *cross[k:]])
            if hi > lo:
                total += math.exp(log_w[k]) * (math.erf(hi - b) - math.erf(lo - b))
        return total / norm

    row_kinks = [
        (l2 - l1 + a1 * a1 - a2 * a2) / (2.0 * (a1 - a2))
        for row in rows.values()
        for i, (a1, l1) in enumerate(row)
        for a2, l2 in row[i + 1 :]
        if a1 != a2
    ]
    xs = np.sort(np.concatenate([_vertex_xs(amps, log_priors), row_kinks]))
    # windows [a_k - pad, a_k + pad] that overlap merge into one
    reals = np.unique(amps.real)
    gaps = np.flatnonzero(np.diff(reals) > 2.0 * pad)
    starts = (reals[np.r_[0, gaps + 1]] - pad).tolist()
    ends = (reals[np.r_[gaps, -1]] + pad).tolist()
    pieces = []
    for x_lo, x_hi in zip(starts, ends):
        # in-window breakpoints, one per cluster of ties that rounding pulled apart
        inside = xs[(xs > x_lo + _TIE_TOL) & (xs < x_hi - _TIE_TOL)]
        cuts = [x_lo, *inside[np.diff(inside, prepend=x_lo) > _TIE_TOL].tolist(), x_hi]
        pieces += zip(cuts, cuts[1:])

    nodes, weights = _gauss_legendre()

    def rule(lo: float, hi: float) -> float:
        half = 0.5 * (hi - lo)
        mid = lo + half
        return half * math.fsum(w * inner(mid + half * t) for t, w in zip(nodes, weights))

    todo = [(lo, hi, rule(lo, hi), 0) for lo, hi in pieces]
    kept = []
    while todo:
        lo, hi, whole, halvings = todo.pop()
        mid = 0.5 * (lo + hi)
        left, right = rule(lo, mid), rule(mid, hi)
        if abs(left + right - whole) <= _HALVING_TOL:
            kept.append(left + right)
        elif halvings == _MAX_HALVINGS:
            raise RuntimeError(
                f"heterodyne quadrature did not converge on [{lo!r}, {hi!r}] "
                f"after {_MAX_HALVINGS} halvings"
            )
        else:
            todo += [(mid, hi, right, halvings + 1), (lo, mid, left, halvings + 1)]
    p_correct = math.fsum(kept)
    return float(min(max(1.0 - p_correct, 0.0), 1.0))


# Samples a heterodyne Monte Carlo chunk draws at once, and samples of a chunk
# scored at once
_MC_CHUNK = 500_000
_MC_SCORE_BLOCK = 1 << 15


def heterodyne_sql_mc(
    c: Constellation,
    num_samples: int = 10_000_000,
    seed=0,
) -> tuple[float, float]:
    """Monte Carlo heterodyne SQL with its binomial standard error.

    Samples are drawn ``_MC_CHUNK`` at a time, and each chunk reads the
    generator's stream in a fixed order that the result for a seed depends
    on: the codewords (one ``random()`` double each), then the real noise,
    then the imaginary noise.  Each sample is decided by a running maximum
    of ``log prior - |z - beta|^2`` over the codewords, where only a strictly
    larger score replaces the best, so ties go to the lowest label.  No array
    holds a value per (sample, codeword) pair.

    Two walkers read each chunk's stream ``_MC_SCORE_BLOCK`` samples at a
    time.  A copy of the generator, set to the generator's state at the
    chunk's start, draws the codewords.  The generator itself draws past
    them into a reused block buffer, then draws the chunk's real noise, then
    the imaginary noise one block at a time, so it leaves the chunk where one
    call per part would, whatever its bit generator.  Each block builds its
    noisy field and scores it, so a chunk holds 8 bytes a sample (its real
    noise) plus one score block's arrays.
    """
    try:
        num_samples = operator.index(num_samples)
    except TypeError:
        raise ValueError("num_samples must be a positive integer") from None
    if num_samples < 1:
        raise ValueError("num_samples must be a positive integer")
    rng = np.random.default_rng(seed)
    labels = np.random.Generator(type(rng.bit_generator)())
    amps = c.amplitudes
    log_priors = np.where(c.priors > 0, np.log(np.where(c.priors > 0, c.priors, 1.0)), -np.inf)
    sigma = math.sqrt(0.5)
    block = min(_MC_SCORE_BLOCK, num_samples)
    # the skipped codeword doubles, then each block's imaginary noise
    spare = np.empty(block)
    field = np.empty(block, dtype=np.complex128)
    correct = 0
    for first in range(0, num_samples, _MC_CHUNK):
        size = min(_MC_CHUNK, num_samples - first)
        starts = range(0, size, block)
        labels.bit_generator.state = rng.bit_generator.state
        for start in starts:
            rng.random(out=spare[: min(block, size - start)])
        real = rng.standard_normal(size)
        for start in starts:
            n = min(block, size - start)
            yb = labels.choice(c.n_codewords, size=n, p=c.priors)
            # amps[y] + sigma * (n1 + 1j*n2) built in place, with the same bits
            # (a zero part's sign aside, which |z - beta|^2 ignores)
            zb = field[:n]
            zb.real = real[start : start + n]
            zb.imag = rng.standard_normal(out=spare[:n])
            zb *= sigma
            zb += amps[yb]
            best = log_priors[0] - np.abs(zb - amps[0]) ** 2
            guess = np.zeros(n, dtype=np.int64)
            for k in range(1, c.n_codewords):
                score = log_priors[k] - np.abs(zb - amps[k]) ** 2
                np.copyto(guess, k, where=score > best)
                np.maximum(best, score, out=best)
            correct += int(np.count_nonzero(guess == yb))
        del real  # freed before the next chunk's draw
    err = 1.0 - correct / num_samples
    stderr = math.sqrt(max(err * (1.0 - err), 0.0) / num_samples)
    return err, stderr
