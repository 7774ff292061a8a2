"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
The heavyweight receivers are learned once in module-scoped fixtures and
shared by the criteria that grade them.
"""

import itertools
import math
import time

import mpmath
import numpy as np
import pytest
from scipy import optimize

from coherentrx.baselines import (
    cn_receiver,
    dolinar_receiver,
    helstrom_bpsk,
    heterodyne_sql,
    heterodyne_sql_mc,
    homodyne_sql_bpsk,
    kennedy_bpsk,
)
from coherentrx.constellation import bpsk, custom, qam6
from coherentrx.formulator import FormulatorConfig, _gradient, formulate, optimize_sweep
from coherentrx.metrics import posterior_trajectory, prefix_kl
from coherentrx.photonics import (
    DEFAULT_AMPLITUDE_JITTER,
    DEFAULT_DARK_COUNTS,
    DEFAULT_PHASE_JITTER,
    NoiseModel,
    lab_noise,
    sample_draws,
)
from coherentrx.simulator import (
    PathDistribution,
    averaged_distribution,
    batch_distribution,
    error_rate,
    exact_distribution,
    map_table,
    mc_sample,
)
from coherentrx.tree import DecisionTree, Receiver, decode_leaf_index, num_nodes, save_receiver

# Documented benchmark conditions: visibility/efficiency from the quoted
# operating points, dark counts and jitter at the package defaults.
BPSK_NOISE = lab_noise(visibility=0.9975, efficiency=0.85)
QAM_NOISE = NoiseModel(
    visibility=0.997,
    efficiency=1.0,
    dark_counts=DEFAULT_DARK_COUNTS,
    phase_jitter=DEFAULT_PHASE_JITTER,
    amplitude_jitter=DEFAULT_AMPLITUDE_JITTER,
)
BPSK_SWEEP = (0.4, 0.8, 0.95, 1.2, 1.5, 1.6, 2.0)
SQL_GRID = (0.4, 0.8, 0.95, 1.2, 1.5)  # criterion 6: all tested points <= 1.5
DOMINANCE_GRID = (0.4, 0.8, 1.2, 1.6, 2.0)
EVAL_BATCH = 200
EVAL_SEED = 2026


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")


def evaluate(tree, table, c, nm) -> float:
    """Shared held-out evaluation protocol for every receiver."""
    return error_rate(averaged_distribution(tree, c, nm, EVAL_BATCH, EVAL_SEED), table)


def make_instances(count: int, max_rounds: int = 4):
    """Deterministic random (tree, constellation, noise) instances."""
    rng = np.random.default_rng(20260808)
    out = []
    for _ in range(count):
        rounds = int(rng.integers(1, max_rounds + 1))
        arity = int(rng.integers(2, 4))
        k = int(rng.integers(2, 4))
        amps = rng.normal(0, 0.8, k) + 1j * rng.normal(0, 0.8, k)
        pri = rng.uniform(0.2, 1.0, k)
        c = custom(amps, pri / pri.sum())
        n = num_nodes(rounds, arity)
        tree = DecisionTree(rounds, arity, rng.normal(0, 0.8, n) + 1j * rng.normal(0, 0.8, n))
        nm = NoiseModel(
            visibility=float(rng.uniform(0.9, 1.0)),
            efficiency=float(rng.uniform(0.5, 1.0)),
            dark_counts=float(rng.uniform(0.0, 0.05)),
            phase_jitter=float(rng.uniform(0.0, 0.1)),
            amplitude_jitter=float(rng.uniform(0.0, 0.05)),
        )
        out.append((tree, c, nm))
    return out


@pytest.fixture(scope="module")
def instances():
    return make_instances(100)


@pytest.fixture(scope="module")
def bpsk_campaign():
    """Criterion 6/7 receivers: one optimized receiver per sweep point."""
    cfg = FormulatorConfig(max_iterations=500, batch_size=16, seed=11)
    t0 = time.perf_counter()
    swept = optimize_sweep(bpsk, BPSK_SWEEP, 4, 2, BPSK_NOISE, cfg)
    points = {}
    for nbar, res in swept:
        c = bpsk(nbar)
        cn_t, cn_b = cn_receiver(c, 4, 2)
        do_t, do_b = dolinar_receiver(nbar, 4)
        points[nbar] = {
            "result": res,
            "error": evaluate(res.tree, res.table, c, BPSK_NOISE),
            "cn": evaluate(cn_t, cn_b, c, BPSK_NOISE),
            "dolinar": evaluate(do_t, do_b, c, BPSK_NOISE),
            "sql": homodyne_sql_bpsk(nbar),
        }
    return {"points": points, "cfg": cfg, "runtime": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def qam_campaign():
    """Criterion 8 receiver at the high-energy six-codeword operating point."""
    cfg = FormulatorConfig(max_iterations=1000, batch_size=12, seed=5)
    c = qam6(7.8)
    t0 = time.perf_counter()
    res = formulate(c, 6, 3, QAM_NOISE, cfg)
    error = evaluate(res.tree, res.table, c, QAM_NOISE)
    cn_t, cn_b = cn_receiver(c, 6, 3)
    cn_error = evaluate(cn_t, cn_b, c, QAM_NOISE)
    sql = heterodyne_sql(c)
    sql_mc, sql_stderr = heterodyne_sql_mc(c, 2_000_000, seed=3)
    return {
        "cfg": cfg,
        "constellation": c,
        "result": res,
        "error": error,
        "cn": cn_error,
        "sql": sql,
        "sql_mc": (sql_mc, sql_stderr),
        "runtime": time.perf_counter() - t0,
    }


def test_criterion_1_closed_form_oracles():
    t0 = time.perf_counter()
    worst = 0.0
    # 40 digits for this oracle only; the session's mpmath precision is left alone
    with mpmath.workdps(40):
        for nbar in np.linspace(0.0, 5.0, 50):
            x = mpmath.mpf(float(nbar))
            refs = (
                (helstrom_bpsk, 0.5 * (1 - mpmath.sqrt(1 - mpmath.e ** (-4 * x)))),
                (homodyne_sql_bpsk, 0.5 * mpmath.erfc(mpmath.sqrt(2 * x))),
                (kennedy_bpsk, 0.5 * mpmath.e ** (-4 * x)),
            )
            for fn, ref in refs:
                worst = max(worst, abs(fn(float(nbar)) - float(ref)))
    runtime = time.perf_counter() - t0
    ok = worst < 1e-12 and runtime < 1.0
    report(1, ok, f"closed forms vs 40-digit oracle: max |diff| {worst:.2e}, {runtime:.2f}s")
    assert worst < 1e-12
    assert runtime < 1.0


def jitter_averaged_error(tree, c, nm, table, order: int = 24) -> float:
    """Exact noise-averaged error via Gauss-Hermite quadrature.

    This is the quantity :func:`mc_sample` estimates: the error of a fixed
    table averaged over the per-run jitter law (truncated-positive amplitude
    scale handled by weight renormalization).  Independent of the batch
    machinery under test.
    """
    if nm.is_deterministic:
        return error_rate(exact_distribution(tree, c, nm), table)
    xs, ws = np.polynomial.hermite_e.hermegauss(order)
    total = 0.0
    weight = 0.0
    for x, wx in zip(xs, ws):
        phase = nm.phase_jitter * x
        for y, wy in zip(xs, ws):
            scale = 1.0 + nm.amplitude_jitter * y
            if scale <= 0.0:
                continue
            d = batch_distribution(tree, c, nm, [phase], [scale])
            total += wx * wy * error_rate(d, table)
            weight += wx * wy
    return total / weight


def test_criterion_2_simulator_soundness(instances):
    t0 = time.perf_counter()
    worst_row = 0.0
    worst_sigma = 0.0
    for i, (tree, c, nm) in enumerate(instances):
        d = averaged_distribution(tree, c, nm, 20, seed=1000 + i)
        worst_row = max(worst_row, float(np.abs(d.probs.sum(axis=1) - 1.0).max()))
        table = map_table(d)
        exact = jitter_averaged_error(tree, c, nm, table)
        mc = mc_sample(tree, table, c, nm, 100_000, seed=2000 + i)
        sigma = math.sqrt(max(exact * (1 - exact), 1e-12) / 100_000)
        worst_sigma = max(worst_sigma, abs(mc.error_rate - exact) / sigma)
    runtime = time.perf_counter() - t0
    ok = worst_row < 1e-10 and worst_sigma < 3.0 and runtime < 60
    report(
        2,
        ok,
        f"100 instances: max row-sum dev {worst_row:.1e}, worst MC deviation "
        f"{worst_sigma:.2f} sigma, {runtime:.0f}s",
    )
    assert worst_row < 1e-10
    assert worst_sigma < 3.0
    assert runtime < 60


def test_criterion_3_bayes_optimality(instances):
    t0 = time.perf_counter()
    checked = 0
    for i, (tree, c, nm) in enumerate(instances):
        if tree.rounds > 2:
            continue
        d = averaged_distribution(tree, c, nm, 20, seed=1000 + i)
        table = map_table(d)
        err_map = error_rate(d, table)
        k, n_paths = d.probs.shape
        weighted = c.priors[:, None] * d.probs
        all_tables = np.array(list(itertools.product(range(k), repeat=n_paths)))
        p_correct = weighted[all_tables, np.arange(n_paths)[None, :]]
        errors = 1.0 - p_correct.sum(axis=1)
        assert err_map == errors.min(), (
            f"instance {i}: MAP {err_map!r} vs exhaustive minimum {errors.min()!r}"
        )
        checked += 1
    runtime = time.perf_counter() - t0
    ok = checked > 0 and runtime < 60
    report(3, ok, f"exhaustive table enumeration on {checked} instances, exact equality, {runtime:.0f}s")
    assert checked > 0
    assert runtime < 60


def test_criterion_4_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    worst = 0.0
    for i in range(20):
        rounds = int(rng.integers(1, 4))
        arity = int(rng.integers(2, 4))
        k = int(rng.integers(2, 4))
        amps = rng.normal(0, 0.7, k) + 1j * rng.normal(0, 0.7, k)
        pri = rng.uniform(0.2, 1.0, k)
        c = custom(amps, pri / pri.sum())
        n = num_nodes(rounds, arity)
        nodes = rng.normal(0, 0.7, n) + 1j * rng.normal(0, 0.7, n)
        tree = DecisionTree(rounds, arity, nodes)
        nm = NoiseModel(
            visibility=float(rng.uniform(0.9, 1.0)),
            efficiency=float(rng.uniform(0.6, 1.0)),
            dark_counts=float(rng.uniform(0.0, 0.02)),
            phase_jitter=float(rng.uniform(0.0, 0.05)),
            amplitude_jitter=float(rng.uniform(0.0, 0.02)),
        )
        draws = sample_draws(nm, 3, 500 + i)
        table = map_table(averaged_distribution(tree, c, nm, 3, seed=500 + i))
        grad = _gradient(tree, table, c, nm, *draws)

        def loss_at(nd):
            acc = np.zeros((k, arity**rounds))
            for ph, sc in zip(*(x.tolist() for x in draws)):
                acc += batch_distribution(DecisionTree(rounds, arity, nd), c, nm, [ph], [sc]).probs
            return error_rate(PathDistribution(acc / draws[0].size, rounds, arity, c), table)

        h = 1e-6
        fd = np.zeros(n, dtype=complex)
        for j in range(n):
            for comp in (1.0, 1j):
                up, dn = nodes.copy(), nodes.copy()
                up[j] += h * comp
                dn[j] -= h * comp
                der = (loss_at(up) - loss_at(dn)) / (2 * h)
                fd[j] += der * comp
        # central differences at h=1e-6 carry ~1e-10 cancellation noise;
        # below that scale the reference cannot certify relative accuracy,
        # so the comparison floors at 1e-4 (an absolute bound of 1e-9 there)
        scale = max(float(np.abs(fd).max()), 1e-4)
        worst = max(worst, float(np.abs(grad - fd).max()) / scale)
    runtime = time.perf_counter() - t0
    ok = worst < 1e-5 and runtime < 60
    report(4, ok, f"analytic vs central differences on 20 instances: max rel {worst:.1e}, {runtime:.0f}s")
    assert worst < 1e-5
    assert runtime < 60


def _binary_tree_error(u: np.ndarray, slice_amp: float) -> np.ndarray:
    """Exact zero-noise MAP error of equal-prior BPSK binary feedback trees.

    ``u`` holds real displacements in heap order along its last axis (node i
    has children 2i+1 on no click, 2i+2 on a click); leading axes are a batch.
    Written independently of the package: the no-click probability of round
    displacement u under hypothesis +-slice_amp is exp(-(+-slice_amp - u)^2),
    and the error sums the smaller joint probability over the leaves.
    """
    rounds = int(math.log2(u.shape[-1] + 1))
    joint_p = joint_m = np.full(u.shape[:-1] + (1,), 0.5)
    for level in range(rounds):
        x = u[..., 2**level - 1 : 2 ** (level + 1) - 1]
        e_p, e_m = np.exp(-((slice_amp - x) ** 2)), np.exp(-((slice_amp + x) ** 2))
        shape = x.shape[:-1] + (-1,)
        joint_p = np.stack([joint_p * e_p, joint_p * (1 - e_p)], axis=-1).reshape(shape)
        joint_m = np.stack([joint_m * e_m, joint_m * (1 - e_m)], axis=-1).reshape(shape)
    return np.minimum(joint_p, joint_m).sum(axis=-1)


def test_criterion_5_dolinar_dp_validity():
    t0 = time.perf_counter()
    depths = (1, 2, 4, 10)
    monotone_ok = True
    trees10, gaps = {}, {}
    for nbar in (0.1, 0.2, 0.5):
        c = bpsk(nbar)
        errs = []
        for rounds in depths:
            tree, table = dolinar_receiver(nbar, rounds)
            errs.append(error_rate(exact_distribution(tree, c, NoiseModel()), table))
        monotone_ok &= all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))
        trees10[nbar] = (tree, errs[-1])
        gaps[nbar] = [e / helstrom_bpsk(nbar) - 1 for e in errs]

    # single-round optimum against a dense hand-derived displacement scan
    nbar = 0.2
    a = math.sqrt(nbar)
    u = np.linspace(-2 - 3 * a, 2 + 3 * a, 400_001)
    q0, q1 = np.exp(-((a - u) ** 2)), np.exp(-((a + u) ** 2))
    scan_min = (1 - 0.5 * (np.maximum(q0, q1) + np.maximum(1 - q0, 1 - q1))).min()
    tree, table = dolinar_receiver(nbar, 1)
    n1_err = error_rate(exact_distribution(tree, bpsk(nbar), NoiseModel()), table)
    scan_ok = abs(n1_err - scan_min) < 1e-6

    # Ten-round optimality within the family the DP optimizes (equal slices,
    # one real displacement per node, binary counting), judged by the
    # independent oracle above: same error, and neither a +-1e-3 nudge of any
    # single node nor an L-BFGS-B refinement of all 1023 nodes improves it.
    oracle_match = nudge_drop = refine_drop = 0.0
    for nbar, (tree, err) in trees10.items():
        u, s = tree.nodes.real, math.sqrt(nbar / 10)
        oracle_err = float(_binary_tree_error(u, s))
        oracle_match = max(oracle_match, abs(err - oracle_err))
        nudged = u + 1e-3 * np.concatenate([np.eye(u.size), -np.eye(u.size)])
        nudge_drop = max(nudge_drop, oracle_err - _binary_tree_error(nudged, s).min())
        refined = optimize.minimize(_binary_tree_error, u, args=(s,), method="L-BFGS-B")
        refine_drop = max(refine_drop, oracle_err - refined.fun)
    family_ok = oracle_match <= 1e-12 and nudge_drop <= 1e-9 and refine_drop <= 1e-9

    # The family reaches Helstrom only as N grows (roughly halving the gap per
    # doubling of N), so the gap must shrink at every depth and by at least
    # 0.55x from four to ten rounds; 1/N would give 0.40x and 1/sqrt(N) 0.63x.
    ratios = {nbar: g[-1] / g[-2] for nbar, g in gaps.items()}
    converge_ok = all(
        g[-1] > 0 and all(b < a for a, b in zip(g, g[1:])) for g in gaps.values()
    ) and all(r <= 0.55 for r in ratios.values())
    runtime = time.perf_counter() - t0

    ok = monotone_ok and scan_ok and family_ok and converge_ok and runtime < 60
    report(
        5,
        ok,
        f"monotone {monotone_ok}, N=1 scan match {scan_ok}, N=10 family optimum {family_ok} "
        f"(oracle {oracle_match:.1e}, nudge drop {nudge_drop:.1e}, refine drop {refine_drop:.1e}), "
        "gap(10)/gap(4) " + ", ".join(f"{k}:{v:.3f}" for k, v in ratios.items())
        + " (need <=0.55), N=10 gaps "
        + ", ".join(f"{k}:{g[-1] * 100:.2f}%" for k, g in gaps.items())
        + f", {runtime:.0f}s",
    )
    assert monotone_ok
    assert scan_ok
    assert runtime < 60
    assert oracle_match <= 1e-12, f"DP error differs from the oracle by {oracle_match}"
    assert nudge_drop <= 1e-9, f"a single-node nudge lowers the error by {nudge_drop}"
    assert refine_drop <= 1e-9, f"L-BFGS-B refinement lowers the error by {refine_drop}"
    assert converge_ok, f"gaps to Helstrom at N={depths}: {gaps}"


def test_criterion_6_bpsk_headline(bpsk_campaign):
    points = bpsk_campaign["points"]
    q95, sql95 = points[0.95]["error"], points[0.95]["sql"]
    reduction = 1 - q95 / sql95
    below_all = all(points[n]["error"] < points[n]["sql"] for n in SQL_GRID)
    runtime = bpsk_campaign["runtime"]
    ok = reduction >= 0.30 and below_all and runtime < 300
    report(
        6,
        ok,
        f"error {q95:.6f} vs SQL {sql95:.6f} at 0.95 ({reduction * 100:.1f}% below, "
        f"need >=30%), below SQL at all tested points <=1.5: {below_all}, {runtime:.0f}s",
    )
    assert reduction >= 0.30
    assert below_all
    assert runtime < 300


def test_criterion_7_bpsk_dominance(bpsk_campaign):
    points = bpsk_campaign["points"]
    dominated = True
    best_gain = 0.0
    rows = []
    for nbar in DOMINANCE_GRID:
        p = points[nbar]
        rival = min(p["cn"], p["dolinar"])
        dominated &= p["error"] <= rival + 1e-4
        gain = (rival - p["error"]) / rival
        best_gain = max(best_gain, gain)
        rows.append(f"{nbar}:{gain * 100:+.1f}%")
    runtime = bpsk_campaign["runtime"]
    ok = dominated and best_gain > 0.05 and runtime < 600
    report(
        7,
        ok,
        f"QREAL vs best(CN, Dolinar): gains {' '.join(rows)}; "
        f"dominated everywhere {dominated}, best gain {best_gain * 100:.1f}% (need >5%), {runtime:.0f}s",
    )
    assert dominated
    assert best_gain > 0.05
    assert runtime < 600


def test_criterion_8_qam_headline(qam_campaign):
    err, cn, sql = qam_campaign["error"], qam_campaign["cn"], qam_campaign["sql"]
    sql_mc, sql_stderr = qam_campaign["sql_mc"]
    sql_cross_checked = abs(sql - sql_mc) < 3 * sql_stderr
    below_sql = 1 - err / sql
    below_cn = 1 - err / cn
    runtime = qam_campaign["runtime"]
    ok = below_sql >= 0.20 and below_cn >= 0.05 and sql_cross_checked and runtime < 1800
    report(
        8,
        ok,
        f"error {err:.6f}: {below_sql * 100:.1f}% below heterodyne SQL {sql:.6f} "
        f"(need >=20%), {below_cn * 100:.1f}% below CN {cn:.6f} (need >=5%), {runtime:.0f}s",
    )
    assert sql_cross_checked
    assert below_sql >= 0.20
    assert below_cn >= 0.05
    assert runtime < 1800


def _plateau_within(trace, budget: int) -> bool:
    loss = trace.loss
    if loss.size < 21:
        return True  # converged long before the budget
    drops = loss[:-20] - loss[20:]
    idx = np.nonzero(drops < 1e-5)[0]
    return idx.size > 0 and int(idx[0]) + 20 <= budget


def test_criterion_9_convergence(bpsk_campaign, qam_campaign):
    t6 = bpsk_campaign["points"][0.95]["result"].trace
    t8 = qam_campaign["result"].trace
    plateau6 = _plateau_within(t6, 500) and len(t6) <= 500
    plateau8 = _plateau_within(t8, 1000) and len(t8) <= 1000
    monotone = True
    for trace in (t6, t8):
        monotone &= bool(np.all(trace.loss_post_table <= trace.loss_start + 1e-12))
        monotone &= bool(np.all(trace.loss <= trace.loss_post_table + 1e-12))
    ok = plateau6 and plateau8 and monotone
    report(
        9,
        ok,
        f"plateau within budget: bpsk {plateau6} ({len(t6)} iters), qam {plateau8} "
        f"({len(t8)} iters); frozen-batch steps monotone within 1e-12: {monotone}",
    )
    assert plateau6
    assert plateau8
    assert monotone


def test_criterion_10_metrics_properties(qam_campaign):
    t0 = time.perf_counter()
    res = qam_campaign["result"]
    c = qam_campaign["constellation"]
    tree = res.tree
    k = c.n_codewords

    kl_ok = True
    for model in (NoiseModel(), QAM_NOISE):
        d = averaged_distribution(tree, c, model, 24, seed=31)
        for p in range(k):
            for q in range(k):
                vals = [prefix_kl(d, p, q, n) for n in range(tree.rounds + 1)]
                kl_ok &= all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    # posterior trajectories graded against the distribution they are read
    # from: the single-draw design-noise conditional and its MAP table
    d = exact_distribution(tree, c, QAM_NOISE)
    table = map_table(d)
    priors_ok = True
    argmax_ok = True
    for leaf in range(tree.arity**tree.rounds):
        path = decode_leaf_index(tree.arity, tree.rounds, leaf)
        traj = posterior_trajectory(tree, c, QAM_NOISE, path)
        priors_ok &= bool(np.array_equal(traj.posteriors[0], c.priors))
        argmax_ok &= int(np.argmax(traj.posteriors[-1])) == int(table.guesses[leaf])
    runtime = time.perf_counter() - t0
    ok = kl_ok and priors_ok and argmax_ok and runtime < 60
    report(
        10,
        ok,
        f"prefix KL non-decreasing all pairs {kl_ok}, round-0 posteriors equal priors "
        f"{priors_ok}, final argmax matches table on all 729 paths {argmax_ok}, {runtime:.0f}s",
    )
    assert kl_ok
    assert priors_ok
    assert argmax_ok
    assert runtime < 60


def _receiver_bytes(path, res, c, nm, seed) -> bytes:
    save_receiver(str(path), Receiver(res.tree, res.table, c, nm, {"seed": seed}))
    return path.read_bytes()


def test_criterion_11_determinism(bpsk_campaign, qam_campaign, tmp_path):
    # re-run the full sweep of criterion 6/7 and the criterion-8 learning
    # with identical seeds; the emitted receiver files must match byte-wise
    cfg6 = bpsk_campaign["cfg"]
    swept_again = dict(optimize_sweep(bpsk, BPSK_SWEEP, 4, 2, BPSK_NOISE, cfg6))
    bpsk_ok = True
    for nbar, point in bpsk_campaign["points"].items():
        c = bpsk(nbar)
        a = _receiver_bytes(tmp_path / f"b{nbar}_a.json", point["result"], c, BPSK_NOISE, cfg6.seed)
        b = _receiver_bytes(tmp_path / f"b{nbar}_b.json", swept_again[nbar], c, BPSK_NOISE, cfg6.seed)
        bpsk_ok &= a == b

    cfg8 = qam_campaign["cfg"]
    c8 = qam_campaign["constellation"]
    rerun = formulate(c8, 6, 3, QAM_NOISE, cfg8)
    qam_ok = _receiver_bytes(tmp_path / "q_a.json", qam_campaign["result"], c8, QAM_NOISE, cfg8.seed) == _receiver_bytes(
        tmp_path / "q_b.json", rerun, c8, QAM_NOISE, cfg8.seed
    )
    ok = bpsk_ok and qam_ok
    report(11, ok, f"byte-identical receiver files on re-run: bpsk sweep {bpsk_ok}, qam {qam_ok}")
    assert bpsk_ok
    assert qam_ok
