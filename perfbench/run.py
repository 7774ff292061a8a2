#!/usr/bin/env python3
"""coherentrx benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload bpsk_sweep --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --all            # every workload, untraced and traced

Run it from a checkout that holds ``src/coherentrx``.  With ``--trace 0`` it
times whole passes with tracing off and reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics and the tracing overhead.  Passes repeat until the next one
would end after ``--seconds``; at least one always runs.  Human-readable
lines come first, the last line of standard output is one JSON object, and
the full record (every traced function, the machine, all pass times) is
written to ``.perfbench/results/`` in the checkout.  The exit code is 0 when
the run completed, even if an output check failed (``failed`` counts those);
it is 2 when the checkout or the arguments are unusable.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
WORKLOAD_NAMES = ("bpsk_sweep", "qam6_pipeline", "reference_curves")
SETUP_PROBES = 3  # timed fresh-process imports, after one untimed warm-up
CHILD_TIMEOUT_S = 170


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def spread(values: list[float]) -> dict:
    """Median, quartiles and sample count."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall time of fresh processes that import coherentrx and build the inputs."""
    cmd = [sys.executable, os.path.join(HERE, "probe.py"), workload, str(seed)]
    times = []
    for i in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            fail(f"set-up probe failed: {proc.stderr.strip()}")
        if i:  # the first probe also writes the bytecode caches
            times.append(dt)
    return times


def one_pass(w, inputs, seed: int, reference: dict, workdir: str):
    """Run and check one pass; returns (seconds, ops)."""
    import workloads

    passdir = tempfile.mkdtemp(dir=workdir)
    try:
        t0 = time.perf_counter()
        ops = w.run(inputs, passdir)
        dt = time.perf_counter() - t0
    finally:
        shutil.rmtree(passdir, ignore_errors=True)
    workloads.check(w, ops, reference, seed)
    return dt, ops


def layer_metrics(stats: dict, wall_s: float, untraced_s: float) -> dict:
    """Per-layer figures of one traced pass, keyed ``layer.metric``."""
    from tracer import PCHIP

    def total(key):
        return stats[key].total_s if key in stats else 0.0

    def calls(key):
        return stats[key].calls if key in stats else 0

    def elems(key):
        return stats[key].elems if key in stats else 0

    def group(name, field):
        return sum(getattr(s, field) for s in stats.values() if s.group == name)

    kernel_calls = group("photonics.kernel", "top_calls")
    iterations = elems("formulator.formulate")
    formulate_calls = calls("formulator.formulate")
    in_formulate = stats["simulator.error_rate"].in_formulate if "simulator.error_rate" in stats else 0
    evals = in_formulate - 2 * iterations - formulate_calls
    mc_s = total("simulator.mc_sample")
    m = {
        "photonics.kernel_calls": (kernel_calls, "count"),
        "photonics.kernel_s": (group("photonics.kernel", "top_s"), "s"),
        "photonics.elems_per_call": (
            group("photonics.kernel", "top_elems") / kernel_calls if kernel_calls else 0.0, "count"),
        "simulator.exact_distribution.calls": (calls("simulator.exact_distribution"), "count"),
        "simulator.exact_distribution.s": (total("simulator.exact_distribution"), "s"),
        "simulator.map_table.s": (total("simulator.map_table"), "s"),
        "simulator.error_rate.s": (total("simulator.error_rate"), "s"),
        "simulator.mc_sample.s": (mc_s, "s"),
        "simulator.mc_runs_per_s": (
            elems("simulator.mc_sample") / mc_s if mc_s else 0.0, "1/s"),
        "formulator.formulate.self_s": (
            stats["formulator.formulate"].self_s if formulate_calls else 0.0, "s"),
        "formulator.iterations": (iterations, "count"),
        "formulator.line_search_evals": (evals, "count"),
        "formulator.backtracks": (evals - iterations, "count"),
        "formulator.accepted_per_eval": (iterations / evals if evals else 0.0, "ratio"),
        "baselines.s": (group("baselines", "top_s"), "s"),
        "baselines.pchip_points": (elems(PCHIP), "count"),
        "baselines.dolinar_tree.s": (total("baselines.dolinar_tree"), "s"),
        "baselines.heterodyne_sql.s": (total("baselines.heterodyne_sql"), "s"),
        "baselines.heterodyne_sql_mc.s": (total("baselines.heterodyne_sql_mc"), "s"),
        "tree.save_receiver.s": (total("tree.save_receiver"), "s"),
        "tree.load_receiver.s": (total("tree.load_receiver"), "s"),
        "metrics.s": (group("metrics", "top_s"), "s"),
    }
    for sub in ("optimize", "evaluate", "metrics"):
        key = f"cli.cmd_{sub}"
        m[f"cli.{sub}.self_s"] = (stats[key].self_s if key in stats else 0.0, "s")
    m["trace.wall_s"] = (wall_s, "s")
    m["trace.overhead_s"] = (wall_s - untraced_s, "s")
    return m


def run_workload(args) -> int:
    import machine

    machine.cap_threads()
    if not os.path.isfile(os.path.join(SRC, "coherentrx", "__init__.py")):
        fail(f"no coherentrx sources under {SRC}; run from a checkout of the repository")
    sys.path[:0] = [SRC, HERE]
    import coherentrx

    if os.path.dirname(os.path.abspath(coherentrx.__file__)) != os.path.join(SRC, "coherentrx"):
        fail(f"imported coherentrx from {coherentrx.__file__}, not from {SRC}")
    import workloads
    from tracer import Tracer

    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)["workloads"][args.workload]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    w = workloads.WORKLOADS[args.workload]
    setup = measure_setup(args.workload, args.seed)
    inputs = w.inputs(args.seed)
    os.makedirs(os.path.join(OUT, "work"), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(OUT, "work"))

    walls, traced_walls, layers, all_ops, errors = [], [], [], [], []

    def keep(ops) -> None:
        # every pass of a run must agree, traced or not
        if all_ops and [op.values for op in ops] != [op.values for op in all_ops[0]]:
            for op in ops:
                op.problems.append("outputs differ from the first pass of this run")
        all_ops.append(ops)
        if all(op.ok for op in ops):
            errors.append(w.error_rate(ops))

    start = time.perf_counter()
    try:
        while True:
            dt, ops = one_pass(w, inputs, args.seed, reference, workdir)
            walls.append(dt)
            keep(ops)
            if args.trace:
                tracer = Tracer()
                with tracer:
                    tdt, tops = one_pass(w, inputs, args.seed, reference, workdir)
                traced_walls.append(tdt)
                keep(tops)
                layers.append(layer_metrics(tracer.stats, tdt, dt))
            elapsed = time.perf_counter() - start
            if elapsed * (len(walls) + 1) / len(walls) > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(ops) for ops in all_ops)
    failed = sum(not op.ok for ops in all_ops for op in ops)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    end_to_end = {
        "wall_s": (spread(walls)["median"], "s"),
        "setup_s": (spread(setup)["median"], "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "error_rate": (statistics.median(errors) if errors else 1.0, "probability"),
        "ok_share": ((attempted - failed) / attempted, "share"),
    }
    per_layer = {}
    if layers:
        for key, (_, unit) in layers[0].items():
            per_layer[key] = (statistics.median(layer[key][0] for layer in layers), unit)

    problems = sorted(
        {f"{op.name}: {p}" for ops in all_ops for op in ops for p in ([op.error] if op.error else op.problems)}
    )
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "problems": problems,
        "wall_s": spread(walls) | {"passes": walls},
        "setup_s": spread(setup) | {"probes": setup},
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
        "ops": [{"name": op.name, "ok": op.ok, "values": op.values} for op in all_ops[0]],
        "machine": machine.record(ROOT),
    }
    if args.trace:
        record["traced_wall_s"] = spread(traced_walls) | {"passes": traced_walls}
        record["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}
        record["functions"] = {k: vars(s) for k, s in sorted(tracer.stats.items()) if s.calls}
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    path = os.path.join(OUT, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, default=float)

    print(f"workload {args.workload}  seed {args.seed}  passes {len(walls)}  results {os.path.relpath(path, ROOT)}")
    for p in problems:
        print(f"  FAILED {p}")
    for key in ("wall_s", "setup_s"):
        s = record[key]
        print(f"  {key} median {s['median']:.4f} s  quartiles {s['q1']:.4f} .. {s['q3']:.4f}  n={s['n']}")
    print(f"  failed_share {record['failed_share']:.4g} ({failed} of {attempted} operations)")
    shown = dict(end_to_end) | per_layer
    for key, (value, unit) in shown.items():
        print(f"  {key} = {value:.6g} {unit}")

    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    source = per_layer if args.trace else end_to_end
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": source[k][0], "unit": source[k][1]} for k in wanted},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload untraced then traced, each in its own process."""
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            sys.stdout.write("\n".join(proc.stdout.splitlines()[:-1]) + "\n")
            sys.stderr.write(proc.stderr)
            status = status or proc.returncode
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=0, help="workload seed; 0 reproduces the acceptance runs")
    parser.add_argument("--seconds", type=float, default=36.0, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: traced run, per-layer metrics")
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    return run_all(args) if args.all else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
