"""The three benchmark workloads and the checks on their outputs.

Every workload is a pair of functions: ``inputs(seed)`` builds the inputs
(cheap; counted in set-up time) and ``run(inputs, workdir)`` makes one pass
and returns one :class:`Op` per operation.  An operation is one sweep point,
one CLI command or one reference receiver; it fails when it raises, exits
non-zero or fails a check.

The seed drives every evaluation draw: held-out noise batches, ``evaluate``
and ``metrics`` batches and all Monte Carlo samples.  The training seeds are
part of the workload definition (the acceptance values 11 and 5), because
the learning loop stops at a seed-dependent iteration (30 to 48 iterations
for QAM6 seeds 5 to 12), so a free training seed would make a pass time
measure convergence luck instead of speed.  Outputs that do not depend on
the seed are compared with the recorded reference values at every seed; the
rest only at the default seed, and structural checks apply at every seed.

Calls go through module attributes (``simulator.error_rate``) so that the
tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import traceback
from dataclasses import dataclass, field
from typing import Callable

from coherentrx import baselines, cli, constellation, formulator, photonics, simulator

DEFAULT_SEED = 0
REL_TOL = 1e-9

BPSK_POINTS = (0.4, 0.8, 0.95, 1.2, 1.5, 1.6, 2.0)
BPSK_SQL_MAX = 1.5  # criterion 6: below the homodyne SQL at every point <= 1.5
DOMINANCE_SLACK = 1e-4  # criterion 7: within this of min(CN, Dolinar)
# Exact-vs-Monte-Carlo checks run at every seed, so they use 4 standard
# errors: a 3-sigma check would fail by chance at 0.27% of seeds.
MC_SIGMAS = 4.0
HELDOUT_BATCH = 200
HELDOUT_SEED = 2026
DOLINAR_POINTS = (0.1, 0.2, 0.5)
DOLINAR_ROUNDS = 10
QAM_PHOTONS = 7.8


@dataclass
class Op:
    """One operation of a pass: what it produced and what went wrong."""

    name: str
    values: dict = field(default_factory=dict)
    error: str | None = None
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.error is None and not self.problems


def _guard(op: Op, fn) -> None:
    """Run ``fn`` for ``op``; an exception marks the operation failed."""
    try:
        fn()
    except Exception:  # the pass goes on; the failure is counted and shown
        op.error = traceback.format_exc(limit=3).strip().splitlines()[-1]


# ---------------------------------------------------------------------------
# bpsk_sweep: the criterion 6/7 learning campaign
# ---------------------------------------------------------------------------


def bpsk_inputs(seed: int) -> dict:
    return {
        "points": BPSK_POINTS,
        "noise": photonics.lab_noise(visibility=0.9975, efficiency=0.85),
        "config": formulator.FormulatorConfig(max_iterations=500, batch_size=16, seed=11),
        "heldout_seed": HELDOUT_SEED + seed,
    }


def bpsk_run(inp: dict, workdir: str) -> list[Op]:
    nm = inp["noise"]
    ops = [Op(f"nbar={nbar}") for nbar in inp["points"]]
    swept = []

    def sweep() -> None:
        swept.extend(
            formulator.optimize_sweep(constellation.bpsk, inp["points"], 4, 2, nm, inp["config"])
        )

    _guard(ops[0], sweep)
    if ops[0].error is not None:
        for op in ops[1:]:
            op.error = ops[0].error
        return ops

    for op, (nbar, res) in zip(ops, swept):
        c = constellation.bpsk(nbar)

        def heldout(tree, table) -> float:
            dist = simulator.averaged_distribution(tree, c, nm, HELDOUT_BATCH, inp["heldout_seed"])
            return simulator.error_rate(dist, table)

        def point() -> None:
            op.values = {
                "final_loss": res.final_loss,
                "iterations": len(res.trace),
                "error": heldout(res.tree, res.table),
                "cn": heldout(*baselines.cn_receiver(c, 4, 2)),
                "dolinar": heldout(*baselines.dolinar_receiver(nbar, 4)),
                "homodyne_sql": baselines.homodyne_sql_bpsk(nbar),
            }

        _guard(op, point)
    return ops


def bpsk_structure(op: Op) -> None:
    v = op.values
    nbar = float(op.name.split("=")[1])
    if nbar <= BPSK_SQL_MAX and not v["error"] < v["homodyne_sql"]:
        op.problems.append(f"error {v['error']:.6g} not below homodyne SQL {v['homodyne_sql']:.6g}")
    rival = min(v["cn"], v["dolinar"])
    if not v["error"] <= rival + DOMINANCE_SLACK:
        op.problems.append(f"error {v['error']:.6g} above min(CN, Dolinar) {rival:.6g} + {DOMINANCE_SLACK}")


# ---------------------------------------------------------------------------
# qam6_pipeline: optimize -> evaluate -> metrics through the CLI, in-process
# ---------------------------------------------------------------------------


def qam6_inputs(seed: int) -> dict:
    eval_seed = str(HELDOUT_SEED + seed)
    return {
        "optimize": [
            "optimize", "--encoding", "qam6", "--rounds", "6", "--arity", "3",
            "--mean-photon", str(QAM_PHOTONS), "--visibility", "0.997", "--efficiency", "1",
            "--dark", "1e-3", "--phase-jitter", "0.02", "--amp-jitter", "0.005",
            "--iters", "1000", "--batch", "12", "--seed", "5",
        ],
        "evaluate": [
            "evaluate", "--sweep", str(QAM_PHOTONS), "--batch", "200", "--seed", eval_seed,
            "--mc-samples", "1000000",
        ],
        "metrics": ["metrics", "--batch", "200", "--seed", eval_seed],
    }


def output_digest(path: str) -> str:
    """SHA-256 of a CLI output without its ``# spec = <path>`` header line.

    ``evaluate`` and ``metrics`` copy the ``--spec`` input path into their
    metadata header, so two identical runs in different directories differ
    in that line only; the data rows and every other header line are
    compared byte for byte.
    """
    with open(path, "rb") as fh:
        lines = fh.read().splitlines(keepends=True)
    kept = b"".join(line for line in lines if not line.startswith(b"# spec = "))
    return hashlib.sha256(kept).hexdigest()


def read_csv(path: str) -> list[dict]:
    with open(path) as fh:
        rows = [line.rstrip("\n") for line in fh if not line.startswith("#")]
    header = rows[0].split(",")
    return [dict(zip(header, r.split(","))) for r in rows[1:]]


def _cli(argv: list[str]) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"exit code {rc}: {err.getvalue().strip()}")


def _kl_non_decreasing(rows: list[dict]) -> bool:
    """Prefix KL never falls from one round to the next (criterion 10)."""
    last: dict[tuple, float] = {}
    for row in rows:
        key = (row["model"], row["label_p"], row["label_q"])
        val = float(row["kl_nats"])
        if val < last.get(key, 0.0) - 1e-12:
            return False
        last[key] = val
    return True


def qam6_run(inp: dict, workdir: str) -> list[Op]:
    spec = os.path.join(workdir, "receiver.json")
    trace = os.path.join(workdir, "receiver_trace.csv")
    sweep = os.path.join(workdir, "sweep.csv")
    diag = os.path.join(workdir, "diagnostics")
    opt, ev, met = Op("optimize"), Op("evaluate"), Op("metrics")

    def optimize() -> None:
        _cli(inp["optimize"] + ["--out", spec])
        with open(spec) as fh:
            meta = json.load(fh)["metadata"]
        opt.values = {
            "final_loss": meta["final_loss"],
            "iterations": meta["iterations_run"],
            "receiver_sha256": output_digest(spec),
            "trace_sha256": output_digest(trace),
        }

    def evaluate() -> None:
        _cli(inp["evaluate"] + ["--spec", spec, "--out", sweep])
        (row,) = read_csv(sweep)
        ev.values = {
            "exact_error": float(row["exact_error"]),
            "mc_error": float(row["mc_error"]),
            "mc_stderr": float(row["mc_stderr"]),
            "sha256": output_digest(sweep),
        }

    def diagnostics() -> None:
        _cli(inp["metrics"] + ["--spec", spec, "--out-dir", diag])
        post_path = os.path.join(diag, "posterior.csv")
        kl_path = os.path.join(diag, "kl.csv")
        posterior, kl = read_csv(post_path), read_csv(kl_path)
        met.values = {
            "posterior_rows": len(posterior),
            "kl_rows": len(kl),
            "posterior_sha256": output_digest(post_path),
            "kl_sha256": output_digest(kl_path),
            "posterior_rows_sum_to_1": all(
                abs(sum(float(x) for k, x in row.items() if k.startswith("posterior_")) - 1.0) <= 1e-9
                for row in posterior
            ),
            "kl_non_decreasing": _kl_non_decreasing(kl),
        }

    for op, step in ((opt, optimize), (ev, evaluate), (met, diagnostics)):
        _guard(op, step)
    return [opt, ev, met]


def qam6_structure(op: Op) -> None:
    v = op.values
    if op.name == "evaluate":
        gap = abs(v["exact_error"] - v["mc_error"])
        if not gap <= MC_SIGMAS * v["mc_stderr"]:
            op.problems.append(f"|exact - MC| = {gap:.3g} exceeds {MC_SIGMAS:g} x stderr {v['mc_stderr']:.3g}")
    elif op.name == "metrics":
        for key in ("posterior_rows_sum_to_1", "kl_non_decreasing"):
            if not v[key]:
                op.problems.append(f"{key} is false")


# ---------------------------------------------------------------------------
# reference_curves: Dolinar DP, heterodyne SQL (quadrature and MC), CN
# ---------------------------------------------------------------------------


def reference_inputs(seed: int) -> dict:
    return {
        "dolinar": [(nbar, constellation.bpsk(nbar)) for nbar in DOLINAR_POINTS],
        "qam6": constellation.qam6(QAM_PHOTONS),
        "ideal": photonics.NoiseModel(),
        "mc_seed": 3 + seed,
    }


def reference_run(inp: dict, workdir: str) -> list[Op]:
    ops = []
    ideal, q = inp["ideal"], inp["qam6"]

    def ideal_error(tree, table, c) -> float:
        return simulator.error_rate(simulator.exact_distribution(tree, c, ideal), table)

    for nbar, c in inp["dolinar"]:
        op = Op(f"dolinar nbar={nbar}")

        def dolinar(op=op, nbar=nbar, c=c) -> None:
            err = ideal_error(*baselines.dolinar_receiver(nbar, DOLINAR_ROUNDS), c)
            helstrom = baselines.helstrom_bpsk(nbar)
            op.values = {"error": err, "helstrom": helstrom, "gap_pct": (err / helstrom - 1) * 100}

        _guard(op, dolinar)
        ops.append(op)

    quad, mc, cn = Op("heterodyne_sql"), Op("heterodyne_sql_mc"), Op("cn qam6")

    def quadrature() -> None:
        quad.values = {"error": baselines.heterodyne_sql(q)}

    def monte_carlo() -> None:
        err, stderr = baselines.heterodyne_sql_mc(q, 2_000_000, seed=inp["mc_seed"])
        mc.values = {"error": err, "stderr": stderr}

    def conditional_nulling() -> None:
        cn.values = {"error": ideal_error(*baselines.cn_receiver(q, 6, 3), q)}

    for op, step in ((quad, quadrature), (mc, monte_carlo), (cn, conditional_nulling)):
        _guard(op, step)
        ops.append(op)
    # the MC estimate is graded against the quadrature of the same pass
    if quad.ok and mc.ok:
        mc.values["quadrature"] = quad.values["error"]
    return ops


def reference_structure(op: Op) -> None:
    v = op.values
    if op.name.startswith("dolinar") and not v["error"] >= v["helstrom"] * (1 - 1e-12):
        op.problems.append(f"error {v['error']:.6g} below the Helstrom bound {v['helstrom']:.6g}")
    if op.name == "heterodyne_sql_mc" and "quadrature" in v:
        gap = abs(v["error"] - v["quadrature"])
        if not gap <= MC_SIGMAS * v["stderr"]:
            op.problems.append(f"|quadrature - MC| = {gap:.3g} exceeds {MC_SIGMAS:g} x stderr {v['stderr']:.3g}")
    if op.name == "cn qam6" and not 0.0 < v["error"] < 1.0:
        op.problems.append(f"CN error {v['error']!r} outside (0, 1)")


# ---------------------------------------------------------------------------
# registry and checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[int], dict]
    run: Callable[[dict, str], list[Op]]
    structure: Callable[[Op], None]
    # op name -> the values that do not depend on the seed, checked against
    # the reference at every seed; "*" as the name means every op, "*" as
    # the values means every value
    seed_free: dict
    error_rate: Callable[[list[Op]], float]  # the designed receiver's error


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "bpsk_sweep", bpsk_inputs, bpsk_run, bpsk_structure,
            {"*": ("final_loss", "iterations")},
            lambda ops: sum(op.values["error"] for op in ops) / len(ops),
        ),
        Workload(
            "qam6_pipeline", qam6_inputs, qam6_run, qam6_structure,
            {"optimize": ("final_loss", "iterations", "receiver_sha256", "trace_sha256")},
            lambda ops: ops[1].values["exact_error"],
        ),
        Workload(
            "reference_curves", reference_inputs, reference_run, reference_structure,
            {
                "dolinar nbar=0.1": "*", "dolinar nbar=0.2": "*", "dolinar nbar=0.5": "*",
                "heterodyne_sql": "*", "cn qam6": "*",
            },
            lambda ops: sum(op.values["error"] for op in ops[: len(DOLINAR_POINTS)]) / len(DOLINAR_POINTS),
        ),
    )
}


def _matches(got, want) -> bool:
    if isinstance(want, float) and isinstance(got, (int, float)):
        return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=1e-300)
    return got == want


def check(w: Workload, ops: list[Op], reference: dict, seed: int) -> None:
    """Structural checks at every seed; reference values where they apply."""
    for op in ops:
        if op.error is not None:
            continue
        w.structure(op)
        want = reference.get(op.name)
        if want is None:
            op.problems.append("no reference values recorded")
            continue
        free = w.seed_free.get(op.name, w.seed_free.get("*", ()))
        for key, expected in want.items():
            if seed != DEFAULT_SEED and free != "*" and key not in free:
                continue
            got = op.values.get(key)
            if not _matches(got, expected):
                op.problems.append(f"{key} = {got!r}, reference {expected!r}")
