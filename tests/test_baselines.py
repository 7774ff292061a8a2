import math
import re
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from scipy import integrate
from scipy.interpolate import PchipInterpolator

from coherentrx.baselines import (
    _SCAN_ELEMS,
    BoundCurve,
    _best_displacements,
    _Pchip,
    cn_receiver,
    cn_tree,
    dolinar_receiver,
    dolinar_tree,
    helstrom_bpsk,
    heterodyne_sql,
    heterodyne_sql_mc,
    homodyne_sql_bpsk,
    kennedy_bpsk,
)
from coherentrx.constellation import bpsk, custom, qam6
from coherentrx.photonics import NoiseModel, detected_mean, outcome_probs
from coherentrx.simulator import error_rate, exact_distribution, map_table
from coherentrx.tree import DecisionTree, level_offset, num_nodes

IDEAL = NoiseModel()


def simulated_error(tree, table, c):
    return error_rate(exact_distribution(tree, c, IDEAL), table)


def interpolated(v, x):
    """Values of the interpolant ``v`` at ``x``, in a new array."""
    out = np.array(x, dtype=np.float64, order="C")
    return v.evaluate(out, np.empty_like(out))


def reference_best_displacements(p, slice_amp, v_next, bracket, coarse=512, golden_iters=70):
    """One displacement at a time: the coarse scan with strict ``<``, then a
    golden section that evaluates its two points in separate calls."""

    def expected_error(u):
        e_plus = np.exp(-((slice_amp - u) ** 2))
        e_minus = np.exp(-((slice_amp + u) ** 2))
        joint0_p = p * e_plus
        prob0 = joint0_p + (1.0 - p) * e_minus
        post0 = np.where(prob0 > 0, joint0_p / np.where(prob0 > 0, prob0, 1.0), 0.5)
        joint1_p = p * (1.0 - e_plus)
        prob1 = joint1_p + (1.0 - p) * (1.0 - e_minus)
        post1 = np.where(prob1 > 0, joint1_p / np.where(prob1 > 0, prob1, 1.0), 0.5)
        return prob0 * interpolated(v_next, post0) + prob1 * interpolated(v_next, post1)

    u_grid = np.concatenate([np.linspace(-bracket, bracket, coarse), [-slice_amp, 0.0, slice_amp]])
    step = u_grid[1] - u_grid[0]
    best_val = np.full(p.shape, np.inf)
    best_u = np.zeros(p.shape)
    for u in u_grid:
        val = expected_error(u)
        better = val < best_val
        best_val = np.where(better, val, best_val)
        best_u = np.where(better, u, best_u)
    lo, hi = best_u - step, best_u + step
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(golden_iters):
        x1 = hi - invphi * (hi - lo)
        x2 = lo + invphi * (hi - lo)
        take_left = expected_error(x1) < expected_error(x2)
        hi = np.where(take_left, x2, hi)
        lo = np.where(take_left, lo, x1)
    u_refined = 0.5 * (lo + hi)
    val_refined = expected_error(u_refined)
    keep = val_refined < best_val
    return np.where(keep, u_refined, best_u), np.where(keep, val_refined, best_val)


class ScipyValues:
    """scipy's PCHIP behind the interpolant's in-place ``evaluate``."""

    def __init__(self, p_grid, values):
        self.pchip = PchipInterpolator(p_grid, values, extrapolate=False)

    def evaluate(self, x, scratch, rows=None):
        x[...] = self.pchip(x)
        return x


def value_tables(grid_points):
    """The terminal table, two DP levels below it and tables with flat runs,
    sign changes, end slopes clamped at both ends and a -0.0 knot that the
    cubic leaves falling, each on ``grid_points`` posteriors."""
    p_grid = np.linspace(0.0, 1.0, grid_points)
    tables = [np.minimum(p_grid, 1.0 - p_grid)]
    for nbar, rounds in ((0.2, 4), (9.8, 8)):
        v_next = ScipyValues(p_grid, tables[0])
        _, v = _best_displacements(p_grid, math.sqrt(nbar / rounds), v_next, 2.0 + 3.0 * math.sqrt(nbar))
        tables.append(v)
    rng = np.random.default_rng(11)
    steps = np.round(rng.normal(size=grid_points))  # runs of equal values, steps either way
    tables += [steps, np.cumsum(steps == 0), np.sin(9.0 * p_grid), np.zeros(grid_points)]
    zigzag = np.resize([0.0, 1.0, -10.0], grid_points)
    tables += [zigzag, zigzag[::-1], np.resize([0.5, -0.0, -1.0, -3.5], grid_points)]
    return p_grid, tables


def reference_heterodyne_sql(c):
    """Adaptive 2-d quadrature of max_k prior_k exp(-|z - beta_k|^2) / pi."""
    amps, priors = c.amplitudes, c.priors

    def integrand(y, x):
        d2 = (x - amps.real) ** 2 + (y - amps.imag) ** 2
        return float(np.max(priors * np.exp(-d2))) / math.pi

    p_correct, _ = integrate.dblquad(
        integrand,
        amps.real.min() - 7.0,
        amps.real.max() + 7.0,
        amps.imag.min() - 7.0,
        amps.imag.max() + 7.0,
        epsabs=1e-10,
        epsrel=1e-10,
    )
    return 1.0 - p_correct


def mpmath_heterodyne_sql(c, dps=20):
    """Heterodyne SQL at ``dps`` digits on the same box as ``heterodyne_sql``.

    At fixed x the y-axis is cut at every crossing of two codewords' lines,
    each interval goes in closed form to the codeword that is largest at its
    midpoint, and ``mpmath.quad`` integrates over x split at every crossing
    of two codewords of one row.
    """
    with mpmath.workdps(dps):
        keep = c.priors > 0
        amps = c.amplitudes[keep].tolist()
        a = [mpmath.mpf(z.real) for z in amps]
        b = [mpmath.mpf(z.imag) for z in amps]
        lp = [mpmath.log(mpmath.mpf(p)) for p in c.priors[keep].tolist()]
        pairs = [(j, k) for j in range(len(a)) for k in range(j + 1, len(a))]
        x_lo, x_hi = min(a) - 7, max(a) + 7
        y_lo, y_hi = min(b) - 7, max(b) + 7

        def inner(x):
            icpt = [lp[k] - (x - a[k]) ** 2 - b[k] ** 2 for k in range(len(a))]
            cross = {(icpt[j] - icpt[k]) / (2 * (b[k] - b[j])) for j, k in pairs if b[j] != b[k]}
            edges = [y_lo] + sorted(y for y in cross if y_lo < y < y_hi) + [y_hi]
            total = 0
            for lo, hi in zip(edges, edges[1:]):
                mid = (lo + hi) / 2
                k = max(range(len(a)), key=lambda k: icpt[k] + 2 * b[k] * mid)
                w = mpmath.exp(lp[k] - (x - a[k]) ** 2)
                total += w * (mpmath.erf(hi - b[k]) - mpmath.erf(lo - b[k]))
            return total / (2 * mpmath.sqrt(mpmath.pi))

        kinks = {
            (lp[k] - lp[j] + a[j] ** 2 - a[k] ** 2) / (2 * (a[j] - a[k]))
            for j, k in pairs
            if b[j] == b[k] and a[j] != a[k]
        }
        cuts = [x_lo] + sorted(x for x in kinks if x_lo < x < x_hi) + [x_hi]
        return 1 - mpmath.quad(inner, cuts)


def reference_heterodyne_sql_mc(c, num_samples, seed, chunk):
    """Each chunk decided by ``argmax`` over a (samples, codewords) score array."""
    rng = np.random.default_rng(seed)
    amps = c.amplitudes
    log_priors = np.where(c.priors > 0, np.log(np.where(c.priors > 0, c.priors, 1.0)), -np.inf)
    sigma = math.sqrt(0.5)
    correct = 0
    remaining = num_samples
    while remaining > 0:
        size = min(chunk, remaining)
        y = rng.choice(c.n_codewords, size=size, p=c.priors)
        z = amps[y] + sigma * (rng.standard_normal(size) + 1j * rng.standard_normal(size))
        score = log_priors[None, :] - np.abs(z[:, None] - amps[None, :]) ** 2
        correct += int(np.count_nonzero(np.argmax(score, axis=1) == y))
        remaining -= size
    err = 1.0 - correct / num_samples
    return err, math.sqrt(max(err * (1.0 - err), 0.0) / num_samples)


def reference_cn_tree(c, rounds, arity):
    """The level loop as written before the shared forward recursion: each
    level's nodes from the ``argmax`` of the weighted prefix probabilities,
    then ``detected_mean`` under the identity rotation and ``outcome_probs``."""
    slices = c.amplitudes / math.sqrt(rounds)
    nodes = np.zeros(num_nodes(rounds, arity), dtype=np.complex128)
    probs = np.ones((c.n_codewords, 1))
    for level in range(rounds):
        y_star = np.argmax(c.priors[:, None] * probs, axis=0)
        disp = slices[y_star]
        start = level_offset(arity, level)
        nodes[start : start + arity**level] = disp
        means = detected_mean(slices[:, None], (1.0 * np.exp(1j * 0.0)) * disp[None, :], IDEAL)
        q = outcome_probs(means, arity)
        probs = (probs[:, :, None] * q).reshape(c.n_codewords, -1)
    return nodes


class TestClosedForms:
    def test_helstrom_anchors(self):
        assert helstrom_bpsk(0.0) == 0.5
        assert abs(helstrom_bpsk(0.2) - 0.5 * (1 - math.sqrt(1 - math.exp(-0.8)))) < 1e-16
        assert helstrom_bpsk(200.0) < 1e-12

    def test_homodyne_anchors(self):
        assert homodyne_sql_bpsk(0.0) == 0.5
        assert abs(homodyne_sql_bpsk(0.95) - 0.025626291428684757) < 1e-15
        assert abs(homodyne_sql_bpsk(1.6) - 0.005706018193000828) < 1e-15

    def test_kennedy_anchors(self):
        assert kennedy_bpsk(0.0) == 0.5
        assert abs(kennedy_bpsk(1.2) - 0.004114873524510015) < 1e-15

    def test_negative_energy_rejected(self):
        for fn in (helstrom_bpsk, homodyne_sql_bpsk, kennedy_bpsk):
            with pytest.raises(ValueError):
                fn(-0.01)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_energy_rejected(self, bad):
        for fn in (helstrom_bpsk, homodyne_sql_bpsk, kennedy_bpsk):
            with pytest.raises(ValueError, match="finite and non-negative"):
                fn(bad)

    def test_kennedy_matches_simulated_nulling_tree(self):
        for nbar in (0.1, 0.7, 1.2, 2.5):
            c = bpsk(nbar)
            tree = DecisionTree(1, 2, np.array([c.amplitudes[0]]))
            err = simulated_error(tree, map_table(exact_distribution(tree, c, IDEAL)), c)
            assert abs(err - kennedy_bpsk(nbar)) < 1e-12


class TestConditionalNulling:
    def test_root_nulls_lowest_max_prior_label(self):
        c = bpsk(1.0)
        tree = cn_tree(c, 4, 2)
        assert tree.nodes[0] == c.amplitudes[0] / 2.0

    def test_cn12_is_kennedy(self):
        for nbar in (0.3, 1.2):
            c = bpsk(nbar)
            tree, table = cn_receiver(c, 1, 2)
            assert abs(simulated_error(tree, table, c) - kennedy_bpsk(nbar)) < 1e-12

    def test_cn_after_click_nulls_other_hypothesis(self):
        c = bpsk(1.0)
        tree = cn_tree(c, 3, 2)
        # no click keeps nulling +a; a click reveals -a
        assert tree.nodes[1] == c.amplitudes[0] / math.sqrt(3)
        assert tree.nodes[2] == c.amplitudes[1] / math.sqrt(3)

    def test_cn63_beats_heterodyne_sql_ideally(self):
        c = qam6(7.8)
        tree, table = cn_receiver(c, 6, 3)
        err = simulated_error(tree, table, c)
        assert err < heterodyne_sql(c)

    def test_matches_level_loop_oracle_bit_for_bit(self):
        rng = np.random.default_rng(7)
        cases = [(qam6(7.8), 6, 3), (bpsk(0.8), 10, 2)]
        for _ in range(60):
            k = int(rng.integers(2, 7))
            amps = rng.normal(size=k) + 1j * rng.normal(size=k)
            priors = rng.uniform(0.1, 1.0, k)
            if k > 2:
                # a duplicated codeword with the same prior: exact ties
                amps[k - 1] = amps[0]
                priors[k - 1] = priors[0]
            c = custom(amps * rng.uniform(0.3, 2.0), priors / priors.sum())
            cases.append((c, int(rng.integers(1, 7)), int(rng.integers(2, 5))))
        for c, rounds, arity in cases:
            nodes = cn_tree(c, rounds, arity).nodes
            want = reference_cn_tree(c, rounds, arity)
            assert nodes.tobytes() == want.tobytes(), (c, rounds, arity)

    def test_error_is_never_negative(self):
        # 1 - sum of the correct-guess terms rounds to -2.2e-16 here
        c = bpsk(16.0)
        tree, table = cn_receiver(c, 6, 2)
        assert error_rate(exact_distribution(tree, c, NoiseModel()), table) == 0.0

    def test_helstrom_lower_bounds_cn(self):
        for nbar in np.geomspace(0.05, 5, 6):
            c = bpsk(nbar)
            tree, table = cn_receiver(c, 4, 2)
            assert simulated_error(tree, table, c) >= helstrom_bpsk(nbar) - 1e-12


class TestValueInterpolant:
    @pytest.mark.parametrize("grid_points", [3, 101, 501, 2001])
    def test_matches_scipy_pchip_bit_for_bit(self, grid_points):
        p_grid, tables = value_tables(grid_points)
        rng = np.random.default_rng(grid_points)
        queries = np.concatenate([
            p_grid,
            np.nextafter(p_grid, -1.0),
            np.nextafter(p_grid, 2.0),
            0.5 * (p_grid[1:] + p_grid[:-1]),
            [0.0, -0.0, 1.0],
            rng.uniform(0.0, 1.0, 5000),
            # outside the grid, and NaN
            [-1e-300, -0.5, 1.5, 7.0, -math.inf, math.inf, math.nan],
        ])
        for values in tables:
            want = PchipInterpolator(p_grid, values, extrapolate=False)(queries)
            got = interpolated(_Pchip(p_grid, values), queries)
            assert got.tobytes() == want.tobytes()
        inside = (queries >= 0.0) & (queries <= 1.0)
        np.testing.assert_array_equal(np.isnan(got), ~inside)

    def test_evaluate_overwrites_its_queries(self):
        p_grid, tables = value_tables(101)
        v = _Pchip(p_grid, tables[1])
        # more queries than one evaluation block, in the scan's (2, rows, P) layout
        x = np.random.default_rng(3).uniform(0.0, 1.0, (2, 9, 1001))
        want = PchipInterpolator(p_grid, tables[1], extrapolate=False)(x)
        assert interpolated(v, x.T).tobytes() == np.ascontiguousarray(want.T).tobytes()
        assert v.evaluate(x, np.empty_like(x)) is x
        assert x.tobytes() == want.tobytes()

    def test_no_call_changes_the_interpolant(self):
        def state(v):
            return {
                name: (type(a), a.shape, a.dtype, a.tobytes()) if isinstance(a, np.ndarray) else a
                for name, a in vars(v).items()
            }

        p_grid, tables = value_tables(101)
        v = _Pchip(p_grid, tables[1])
        before = state(v)
        x = np.random.default_rng(4).uniform(0.0, 1.0, 400)
        rows = np.full((6, x.size), np.nan)
        # repeated counts, with and without rows, and a count that differs
        for queries in (x, x, x[::-1], x[:7], x, x):
            interpolated(v, queries)
            got = np.array(queries)
            v.evaluate(got, np.empty_like(got), rows if got.size == x.size else None)
        assert state(v) == before

    @pytest.mark.parametrize("grid_points", [3, 101, 2001])
    def test_interval_hint_matches_scipy_bit_for_bit(self, grid_points):
        # one rows buffer, NaN at first, goes through every set; each set is
        # checked against the rows the last one left, whether all, most or a
        # few of its queries left their intervals
        p_grid, tables = value_tables(grid_points)
        rng = np.random.default_rng(grid_points + 1)
        b = np.concatenate([
            p_grid,
            np.nextafter(p_grid, -1.0),
            np.nextafter(p_grid, 2.0),
            [0.0, -0.0, 1.0, 1.0, -1e-300, -0.5, 1.5, 7.0, -math.inf, math.inf, math.nan],
            rng.uniform(0.0, 1.0, 300),
        ])
        # against b, a moves every query, few moves a tenth of them, and edge
        # moves only those on 1.0, 0.0 and -0.0 out of the grid, so that going
        # back from edge to b checks 1.0 against a hint to the NaN interval
        a = np.roll(b, 7)
        few = b.copy()
        moved = rng.choice(b.size, b.size // 10, replace=False)
        few[moved] = rng.permutation(b)[: moved.size]
        edge = b.copy()
        edge[b == 1.0] = 1.5
        edge[b == 0.0] = -0.5
        for values in tables:
            want = PchipInterpolator(p_grid, values, extrapolate=False)
            v = _Pchip(p_grid, values)
            rows = np.full((6, b.size), np.nan)
            for x in (a, a, b, few, b, edge, b, a, b):
                got = x.copy()
                v.evaluate(got, np.empty_like(got), rows)
                assert got.tobytes() == want(x).tobytes()

    @pytest.mark.parametrize(
        "nbar, rounds", [(0.2, 4), (1.5, 4), (5.0, 4), (9.8, 4), (0.5, 10), (5.0, 10), (9.8, 10)]
    )
    def test_dp_trees_match_dp_on_scipy_pchip(self, nbar, rounds, monkeypatch):
        got = dolinar_tree(nbar, rounds).nodes.tobytes()
        monkeypatch.setattr("coherentrx.baselines._Pchip", ScipyValues)
        assert got == dolinar_tree(nbar, rounds).nodes.tobytes()


class TestDolinar:
    def test_n1_matches_displacement_scan(self):
        # independent oracle: dense 1-d scan of the hand-derived single-round
        # MAP error 1 - (max of no-click likelihoods + max of click ones)/2
        for nbar in (0.2, 1.0):
            c = bpsk(nbar)
            a = math.sqrt(nbar)
            u = np.linspace(-2.0 - 3.0 * a, 2.0 + 3.0 * a, 400_001)
            quiet = np.exp(-((a - u) ** 2)), np.exp(-((a + u) ** 2))
            scan = 1.0 - 0.5 * (
                np.maximum(quiet[0], quiet[1])
                + np.maximum(1.0 - quiet[0], 1.0 - quiet[1])
            )
            tree, table = dolinar_receiver(nbar, 1)
            assert abs(simulated_error(tree, table, c) - scan.min()) < 1e-6

    def test_monotone_in_rounds(self):
        for nbar in (0.2, 0.8):
            c = bpsk(nbar)
            errs = []
            for rounds in (1, 2, 4):
                tree, table = dolinar_receiver(nbar, rounds)
                errs.append(simulated_error(tree, table, c))
            assert errs[0] >= errs[1] >= errs[2]

    def test_bracketed_by_helstrom_and_kennedy(self):
        for nbar in np.geomspace(0.05, 5, 6):
            c = bpsk(nbar)
            tree, table = dolinar_receiver(nbar, 4)
            err = simulated_error(tree, table, c)
            assert helstrom_bpsk(nbar) - 1e-12 <= err <= kennedy_bpsk(nbar) + 1e-12

    def test_beats_homodyne_sql_through_crossing_region(self):
        for nbar in np.linspace(0.05, 1.6, 8):
            c = bpsk(nbar)
            tree, table = dolinar_receiver(nbar, 4)
            assert simulated_error(tree, table, c) <= homodyne_sql_bpsk(nbar) + 1e-12

    def test_ten_round_regression_values(self):
        # frozen truth of the equal-slice ten-round DP optimum; the residual
        # gap to Helstrom is intrinsic to per-round displacement + counting,
        # shrinking like ~1/N (0.34-1.19% at N=96 for nbar 0.1-0.5)
        expected = {0.1: 0.21812327358622907, 0.2: 0.13425627622211145, 0.5: 0.03806229511697801}
        for nbar, frozen in expected.items():
            c = bpsk(nbar)
            tree, table = dolinar_receiver(nbar, 10)
            err = simulated_error(tree, table, c)
            assert abs(err - frozen) < 1e-6
            assert err > helstrom_bpsk(nbar)

    def test_zero_energy_tree(self):
        tree = dolinar_tree(0.0, 3)
        np.testing.assert_array_equal(tree.nodes, np.zeros(7, dtype=complex))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.5])
    def test_bad_energy_rejected_before_any_fork(self, bad):
        with pytest.raises(ValueError, match="finite and non-negative"):
            dolinar_tree(bad, 4)

    @pytest.mark.parametrize("rounds", [2, 3])
    @pytest.mark.parametrize("nbar", [1e20, 1e50, 1e100, 1e150, 1e200, 1e250, 1e290, 1e296])
    def test_nulls_the_slice_the_simulator_scores(self, nbar, rounds):
        # the DP took its slice as sqrt(nbar / N); where that differs from the
        # simulator's slice in the last bit, "exact nulling" left a detected
        # mean of an ulp squared, and both hypotheses always clicked (0.5)
        tree, table = dolinar_receiver(nbar, rounds)
        assert simulated_error(tree, table, bpsk(nbar)) == 0.0

    @pytest.mark.parametrize("rounds", [1, 2, 4, 10])
    def test_tree_bytes_do_not_depend_on_parts(self, rounds, monkeypatch):
        # the anchors cut each value-table level into parts; an anchor gap
        # longer than the grid leaves one part, which scans in full
        windowed = [dolinar_tree(nbar, rounds).nodes.tobytes() for nbar in (0.2, 1.5, 100.0)]
        monkeypatch.setattr("coherentrx.baselines._ANCHOR_GAP", 1 << 30)
        full = [dolinar_tree(nbar, rounds).nodes.tobytes() for nbar in (0.2, 1.5, 100.0)]
        assert windowed == full

    # each case misses the full scan's winner somewhere on the grid when one
    # part of the window is dropped: the mirror window, the fallback on
    # anchors whose winners disagree, and the fallback on an anchor that won
    # on a special displacement (here values move but the tree does not)
    @pytest.mark.parametrize(
        "coarse, nbar, rounds, grid_points, depth",
        [(50, 0.9, 3, 2001, 0), (512, 0.05, 2, 2001, 0), (512, 9.8, 8, 501, 1)],
    )
    def test_window_matches_full_scan(self, coarse, nbar, rounds, grid_points, depth, monkeypatch):
        p_grid = np.linspace(0.0, 1.0, grid_points)
        slice_amp = math.sqrt(nbar / rounds)
        bracket = 2.0 + 3.0 * math.sqrt(nbar)
        v_next = _Pchip(p_grid, np.minimum(p_grid, 1.0 - p_grid))
        for _ in range(depth):
            _, v = _best_displacements(p_grid, slice_amp, v_next, bracket)
            v_next = _Pchip(p_grid, v)
        monkeypatch.setattr("coherentrx.baselines._COARSE", coarse)
        want = _best_displacements(p_grid, slice_amp, v_next, bracket)
        got = _best_displacements(p_grid, slice_amp, v_next, bracket, window=True)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()

    # budgets: single-row blocks on the 2001-point grid, the default, and
    # the whole scan in one block
    @pytest.mark.parametrize("budget", [2001, _SCAN_ELEMS, 1 << 20])
    @pytest.mark.parametrize("coarse", [50, 512])
    def test_blocked_scan_matches_per_u_oracle(self, coarse, budget, monkeypatch):
        # 53 and 515 displacements: neither is a multiple of the scan block
        monkeypatch.setattr("coherentrx.baselines._SCAN_ELEMS", budget)
        monkeypatch.setattr("coherentrx.baselines._COARSE", coarse)
        rng = np.random.default_rng(7)
        p_grid = np.linspace(0.0, 1.0, 2001)
        terminal = _Pchip(p_grid, np.minimum(p_grid, 1.0 - p_grid))
        for nbar, rounds in ((0.2, 4), (5.0, 4)):
            slice_amp = math.sqrt(nbar / rounds)
            bracket = 2.0 + 3.0 * math.sqrt(nbar)
            _, v = reference_best_displacements(p_grid, slice_amp, terminal, bracket, coarse)
            level = _Pchip(p_grid, v)
            # {0, 1} reach the zero-probability branch at u = -/+ slice_amp
            for p in (p_grid, np.array([0.0, 0.5, 1.0]), rng.uniform(0.0, 1.0, 333)):
                for v_next in (terminal, level):
                    want = reference_best_displacements(p, slice_amp, v_next, bracket, coarse)
                    got = _best_displacements(p, slice_amp, v_next, bracket)
                    np.testing.assert_array_equal(got[0], want[0])
                    np.testing.assert_array_equal(got[1], want[1])

    @pytest.mark.parametrize("grid_points", [3, 101])
    def test_golden_section_matches_per_u_oracle_on_value_tables(self, grid_points):
        # the golden section runs on its interval rows; the oracle evaluates
        # one displacement at a time, without them
        p_grid, tables = value_tables(grid_points)
        rng = np.random.default_rng(grid_points)
        for values in tables:
            v_next = _Pchip(p_grid, values)
            for nbar, rounds in ((0.2, 4), (9.8, 8)):
                slice_amp = math.sqrt(nbar / rounds)
                bracket = 2.0 + 3.0 * math.sqrt(nbar)
                for p in (np.array([0.0, 0.5, 1.0]), rng.uniform(0.0, 1.0, 40)):
                    want = reference_best_displacements(p, slice_amp, v_next, bracket)
                    got = _best_displacements(p, slice_amp, v_next, bracket)
                    assert got[0].tobytes() == want[0].tobytes()
                    assert got[1].tobytes() == want[1].tobytes()

    def test_golden_section_without_interval_rows_gives_the_same_bits(self, monkeypatch):
        # a pair of more than _EVAL_BLOCK queries keeps no interval rows and
        # goes through the interpolant in blocks
        p_grid, tables = value_tables(101)
        p = np.random.default_rng(5).uniform(0.0, 1.0, 40)
        args = (p, math.sqrt(9.8 / 8), _Pchip(p_grid, tables[1]), 2.0 + 3.0 * math.sqrt(9.8))
        want = _best_displacements(*args)
        monkeypatch.setattr("coherentrx.baselines._EVAL_BLOCK", 4 * p.size - 1)
        got = _best_displacements(*args)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()

    @pytest.mark.parametrize("nbar, rounds, limit", [(0.2, 10, 3.2e6), (0.8, 4, 2.6e6)])
    def test_tree_memory_is_bounded(self, nbar, rounds, limit):
        # whole trees, so that interval rows or scan buffers kept past their
        # level would show; a first small tree takes numpy's one-time
        # allocations
        dolinar_tree(nbar, 2)
        tracemalloc.start()
        try:
            dolinar_tree(nbar, rounds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit

    @pytest.mark.parametrize("size", [1, 512, 2001])
    def test_scan_memory_follows_block_budget(self, size):
        # a block pair holds three two-outcome buffers, the interpolant's
        # output and a mask, about 66 bytes; allow 96, plus 160 bytes per
        # posterior of running state and 32 KiB of fixed overhead
        p_grid = np.linspace(0.0, 1.0, 2001)
        terminal = _Pchip(p_grid, np.minimum(p_grid, 1.0 - p_grid))
        p = np.linspace(0.0, 1.0, size) if size > 1 else np.array([0.5])
        pairs = min(515 * size, _SCAN_ELEMS)
        tracemalloc.start()
        try:
            _best_displacements(p, math.sqrt(0.05), terminal, 2.0 + 3.0 * math.sqrt(0.2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 96 * pairs + 160 * size + 32 * 1024


class TestHeterodyne:
    def test_bpsk_closed_form(self):
        for nbar in (0.2, 0.8, 2.0):
            want = 0.5 * math.erfc(math.sqrt(nbar))
            assert abs(heterodyne_sql(bpsk(nbar)) - want) < 1e-8

    def test_certain_prior_errorless(self):
        c = custom(np.array([0.0, 2.0]), np.array([1.0, 0.0]))
        assert heterodyne_sql(c) < 1e-8
        err, _ = heterodyne_sql_mc(c, 100_000, seed=1)
        assert err == 0.0

    def test_qam6_regression_fixture(self):
        # MC oracle frozen at its seed; quadrature must sit within 3 sigma
        err, stderr = heterodyne_sql_mc(qam6(7.8), 2_000_000, seed=3)
        assert abs(err - 0.04505300000000001) < 1e-15
        quad = heterodyne_sql(qam6(7.8))
        assert abs(quad - 0.04515887176617461) < 1e-9
        assert abs(quad - err) < 3 * stderr

    def test_bpsk_closed_form_tight(self):
        # x ~ N(+-a, 1/2) along the codeword axis with MAP threshold t, at any
        # rotation of the pair.  Rotated off the real axis, the threshold is an
        # envelope crossing of the closed-form inner integral; on it, the
        # threshold is a kink of the outer integrand, where the x-range is split.
        # at large photon numbers the codewords' peaks are far apart and one
        # unit wide
        for nbar in (0.05, 0.2, 0.8, 2.0, 5.0, 1e2, 1e4, 1e6, 1e8, 1e10, 1e12):
            a = math.sqrt(nbar)
            for prior in (0.5, 0.8):
                t = math.log((1.0 - prior) / prior) / (4.0 * a)
                want = 0.5 * (prior * math.erfc(a - t) + (1.0 - prior) * math.erfc(a + t))
                for angle in (0.0, math.pi / 2, 0.7, 2.0):
                    amps = np.array([a, -a]) * np.exp(1j * angle)
                    c = custom(amps, np.array([prior, 1.0 - prior]))
                    assert abs(heterodyne_sql(c) - want) < 1e-13

    def test_qam6_far_apart_codewords(self):
        # each codeword's unit-width peak lies thousands of units from the
        # others; a box-wide piece read 1/3 at 1e8 photons and 1.0 from 1e9
        for nbar in (1e8, 1e9, 1e12):
            assert heterodyne_sql(qam6(nbar)) <= 1e-12

    @pytest.mark.parametrize("builder", [bpsk, qam6])
    @pytest.mark.parametrize("nbar", [1e20, 1e24, 1e36])
    def test_huge_photon_numbers_rejected(self, builder, nbar):
        # the true error is 0 to hundreds of digits; the windows around each
        # codeword fell below float resolution and read up to 0.8333
        with pytest.raises(ValueError, match="quadratures up to 1e\\+08"):
            heterodyne_sql(builder(nbar))

    def test_limit_is_inclusive_and_accurate(self):
        # BPSK codewords at +-1e8 exactly: the largest quadrature taken
        assert heterodyne_sql(bpsk(1e16)) <= 1e-11

    def test_matches_dblquad_oracle(self):
        # unequal priors, two codewords in one row, one codeword never used
        amps = np.array([0.6 + 0.5j, -0.9 + 0.5j, 0.2 - 0.8j, 1.4 + 1.2j])
        c = custom(amps, np.array([0.45, 0.25, 0.3, 0.0]))
        assert abs(heterodyne_sql(c) - reference_heterodyne_sql(c)) < 1e-9

    @pytest.mark.parametrize("nbar", [7.8, 2.0])
    def test_matches_mpmath_oracle(self, nbar):
        c = qam6(nbar)
        assert abs(heterodyne_sql(c) - mpmath_heterodyne_sql(c)) <= 1e-14

    def test_common_rotation_invariant(self):
        c = qam6(7.8)
        base = heterodyne_sql(c)
        for angle in (0.3, 1.0, math.pi / 2, 2.5, -2.0):
            rotated = custom(c.amplitudes * np.exp(1j * angle), c.priors)
            assert abs(heterodyne_sql(rotated) - base) <= 1e-13

    def test_relabeling_and_quarter_turn_invariant(self):
        # alphabets of 2-8 codewords on a coarse grid, so that codewords share
        # rows and columns (a quarter-turn makes each column a row), with one
        # codeword repeated and one prior zero
        rng = np.random.default_rng(26)
        grid = np.array([-1.5, -0.75, 0.0, 0.5, 1.25])
        for _ in range(60):
            k = int(rng.integers(2, 9))
            amps = rng.choice(grid, k) + 1j * rng.choice(grid, k)
            amps[-1] = amps[0]
            priors = rng.random(k)
            priors[int(rng.integers(k))] = 0.0
            priors = priors / priors.sum()
            base = heterodyne_sql(custom(amps, priors))
            order = rng.permutation(k)
            assert abs(heterodyne_sql(custom(amps[order], priors[order])) - base) <= 1e-14
            assert abs(heterodyne_sql(custom(1j * amps, priors)) - base) <= 1e-14

    def test_halving_cap_raises(self, monkeypatch):
        # one halving settles every piece of the QAM6 range, none settles unhalved
        want = heterodyne_sql(qam6(7.8))
        monkeypatch.setattr("coherentrx.baselines._MAX_HALVINGS", 1)
        assert heterodyne_sql(qam6(7.8)) == want
        monkeypatch.setattr("coherentrx.baselines._MAX_HALVINGS", 0)
        with pytest.raises(RuntimeError, match=r"did not converge on \[.*\] after 0 halvings"):
            heterodyne_sql(qam6(7.8))

    def test_mc_matches_argmax_oracle(self, monkeypatch):
        # a zero-prior codeword first, and codewords 1 and 3 identical with
        # equal priors, so every sample nearest them is a tie won by label 1
        amps = np.array([0.0, 0.9 + 0.4j, -1.1 + 0.2j, 0.9 + 0.4j, 0.1 - 1.3j])
        c = custom(amps, np.array([0.0, 0.3, 0.25, 0.3, 0.15]))
        for num_samples, chunk, seed in ((100_003, 30_000, 7), (2_000, 2_000, 8), (5, 2, 9)):
            monkeypatch.setattr("coherentrx.baselines._MC_CHUNK", chunk)
            got = heterodyne_sql_mc(c, num_samples, seed=seed)
            assert got == reference_heterodyne_sql_mc(c, num_samples, seed, chunk)
        monkeypatch.setattr("coherentrx.baselines._MC_CHUNK", 70_000)
        got = heterodyne_sql_mc(qam6(7.8), 300_001, seed=3)
        assert got == reference_heterodyne_sql_mc(qam6(7.8), 300_001, 3, 70_000)

    @pytest.mark.parametrize("block, chunk, num_samples", [(1, 13, 40), (7, 30, 1_001), (4096, 9_000, 20_001)])
    def test_mc_score_blocks_match_argmax_oracle(self, monkeypatch, block, chunk, num_samples):
        # chunks that are not a multiple of the block, so every chunk ends on
        # a short block; a zero prior and a tied pair as in the oracle test
        amps = np.array([0.0, 0.9 + 0.4j, -1.1 + 0.2j, 0.9 + 0.4j, 0.1 - 1.3j])
        c = custom(amps, np.array([0.0, 0.3, 0.25, 0.3, 0.15]))
        monkeypatch.setattr("coherentrx.baselines._MC_SCORE_BLOCK", block)
        monkeypatch.setattr("coherentrx.baselines._MC_CHUNK", chunk)
        for seed in (0, 11):
            got = heterodyne_sql_mc(c, num_samples, seed=seed)
            assert got == reference_heterodyne_sql_mc(c, num_samples, seed, chunk)

    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937, np.random.Philox])
    def test_mc_reads_a_callers_generator_as_one_pass(self, monkeypatch, bit_generator):
        # the oracle draws each chunk's codewords, real noise and imaginary
        # noise in one call each; both generators must end in the same state
        monkeypatch.setattr("coherentrx.baselines._MC_CHUNK", 70_000)
        ours, theirs = np.random.Generator(bit_generator(5)), np.random.Generator(bit_generator(5))
        got = heterodyne_sql_mc(qam6(7.8), 150_001, seed=ours)
        assert got == reference_heterodyne_sql_mc(qam6(7.8), 150_001, theirs, 70_000)
        np.testing.assert_equal(ours.bit_generator.state, theirs.bit_generator.state)

    @pytest.mark.parametrize(
        "call",
        [lambda: heterodyne_sql_mc(bpsk(1e308), 1000), lambda: dolinar_tree(1e308, 3)],
        ids=["heterodyne_sql_mc", "dolinar_tree"],
    )
    def test_codewords_beyond_1e150_are_refused_without_a_warning(self, call):
        # each once squared the amplitudes into numpy's overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^codeword amplitudes must be finite and at most 1e\+150 "):
                call()

    @pytest.mark.parametrize("bad", [1e3, 10.5, "1000", 0, -3])
    def test_mc_sample_count_must_be_a_positive_integer(self, bad):
        rule = "at least 1" if isinstance(bad, int) else "an integer"
        with pytest.raises(ValueError, match=f"^num_samples must be {rule}, got {re.escape(repr(bad))}$"):
            heterodyne_sql_mc(bpsk(0.8), bad)

    def test_mc_sample_count_is_not_a_bool(self):
        # True once ran one sample and returned (0.0, 0.0)
        with pytest.raises(ValueError, match="^num_samples must be an integer, got True$"):
            heterodyne_sql_mc(bpsk(0.8), True)

    def test_mc_takes_numpy_integer_counts(self):
        assert heterodyne_sql_mc(bpsk(0.8), np.int64(1_000), seed=2) == heterodyne_sql_mc(bpsk(0.8), 1_000, seed=2)

    def test_mc_memory_is_real_noise_and_one_block(self):
        # a 500k-sample chunk holds its real noise (4 MB) and one score
        # block's arrays; more chunks hold no more
        heterodyne_sql_mc(qam6(7.8), 10, seed=3)  # first-call allocations out of the way
        peaks = []
        for num_samples in (2_000_000, 4_000_000):
            tracemalloc.start()
            try:
                heterodyne_sql_mc(qam6(7.8), num_samples, seed=3)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 9e6
        assert abs(peaks[1] - peaks[0]) <= 1e6

    def test_mc_memory_is_one_chunk_draw(self):
        # a chunk holds its real noise (4 MB for 500k samples), and scoring in
        # sub-blocks adds a few MB whatever the chunk size
        tracemalloc.start()
        try:
            heterodyne_sql_mc(qam6(7.8), 2_000_000, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 22e6

    def test_mc_matches_quadrature_bpsk(self):
        c = bpsk(0.8)
        err, stderr = heterodyne_sql_mc(c, 1_000_000, seed=5)
        assert abs(err - heterodyne_sql(c)) < 4 * stderr


class TestBoundCurves:
    def test_validation(self):
        with pytest.raises(ValueError):
            BoundCurve("x", np.array([1.0, 2.0]), np.array([0.1]))
        with pytest.raises(ValueError):
            BoundCurve("x", np.array([1.0]), np.array([1.5]))

    def test_nan_error_rejected(self):
        with pytest.raises(ValueError, match="must lie in"):
            BoundCurve("x", np.array([0.1]), np.array([math.nan]))
        with pytest.raises(ValueError, match="must lie in"):
            BoundCurve("x", np.array([0.1, 0.2]), np.array([0.3, math.nan]))

    @pytest.mark.parametrize("bad", [math.nan, -1.0, -1e-300])
    def test_bad_mean_photons_rejected(self, bad):
        with pytest.raises(ValueError, match="non-negative"):
            BoundCurve("x", np.array([0.1, bad]), np.array([0.1, 0.2]))
        BoundCurve("x", np.array([0.0, 0.1]), np.array([0.5, 0.2]))

    def test_analytic_bounds_monotone_non_increasing(self):
        grid = np.geomspace(0.02, 6, 40)
        for fn in (helstrom_bpsk, homodyne_sql_bpsk, kennedy_bpsk):
            vals = np.array([fn(x) for x in grid])
            assert np.all(np.diff(vals) <= 1e-15)

    def test_simulated_receiver_curves_monotone(self):
        grid = np.geomspace(0.1, 3, 6)
        cn_errs, dol_errs = [], []
        for nbar in grid:
            c = bpsk(nbar)
            tree, table = cn_receiver(c, 4, 2)
            cn_errs.append(simulated_error(tree, table, c))
            tree, table = dolinar_receiver(nbar, 4)
            dol_errs.append(simulated_error(tree, table, c))
        assert np.all(np.diff(cn_errs) <= 1e-12)
        assert np.all(np.diff(dol_errs) <= 1e-12)
