"""Batch command-line front end.

Subcommands::

    optimize   learn a receiver, write receiver-spec JSON + trace CSV
    evaluate   sweep a receiver over mean photon numbers, write CSV
    baseline   write bound/receiver error curves, one CSV per receiver
    metrics    posterior-evolution and prefix-KL CSVs for a receiver

Every output embeds a metadata header (tool version, resolved config, seed)
sufficient to reproduce it byte for byte; no timestamps.  Files are written
atomically (temp + rename).
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__, baselines, metrics
from .constellation import Constellation, _amplitude_scale, _count, bpsk, custom, mean_energy, qam6
from .formulator import FormulatorConfig, formulate, optimize_sweep
from .photonics import NoiseModel
from .simulator import averaged_distribution, error_rate, exact_distribution, mc_sample
from .tree import _MEANS_OUT_OF_RANGE, Receiver, _means_in_range, atomic_write, load_receiver, num_nodes, save_receiver

_ENCODINGS = {"bpsk": bpsk, "qam6": qam6}


def _each(cast, texts: list[str], message: str) -> list:
    """``cast`` of every text, or the parser's usage error with ``message``."""
    try:
        return [cast(t) for t in texts]
    except ValueError:
        raise argparse.ArgumentTypeError(message) from None


def _parse_sweep(text: str) -> list[float]:
    """Accept 'a,b,c' lists or 'start:stop:num' linear grids."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError("grid form is start:stop:num")
        start, stop = _each(float, parts[:2], "sweep values must be numbers")
        (num,) = _each(int, parts[2:], f"the grid count must be an integer, got {parts[2]!r}")
        if num < 1:
            raise argparse.ArgumentTypeError("grid needs at least one point")
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise argparse.ArgumentTypeError("sweep values must be finite")
        # numpy refuses a grid beyond 2**63 bytes, or near that misindexes it
        if num <= np.iinfo(np.intp).max // 8:
            with contextlib.suppress(MemoryError):
                return np.linspace(start, stop, num).tolist()
        raise argparse.ArgumentTypeError(f"a grid of {num} points is more than memory holds")
    values = _each(float, [x for x in text.split(",") if x.strip()], "sweep values must be numbers")
    if not values:
        raise argparse.ArgumentTypeError("empty sweep")
    if not all(math.isfinite(x) for x in values):
        raise argparse.ArgumentTypeError("sweep values must be finite")
    return values


def _write_csv(path: str, meta: dict, columns: list[str], rows: list[list]) -> None:
    lines = [f"# {k} = {meta[k]}" for k in sorted(meta)]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    atomic_write(path, "\n".join(lines) + "\n")


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _meta(args: argparse.Namespace, command: str) -> dict:
    # destination paths do not affect the data; leaving them out keeps
    # reruns byte-identical wherever the files land.  The input spec is
    # named by its content hash for the same reason.
    skip = {"func", "out", "out_dir", "trace"}
    meta = {"tool": "coherentrx", "version": __version__, "command": command}
    for key, val in sorted(vars(args).items()):
        if key == "spec":
            with open(val, "rb") as fh:
                val = "sha256:" + hashlib.sha256(fh.read()).hexdigest()
        if key not in skip:
            meta[key] = val
    return meta


# The noise and learning flags: flag -> (field, help).  A flag takes its
# field's default, and that default's type, from NoiseModel() or
# FormulatorConfig().  Each subcommand declares its own --batch and --seed.
_NOISE_FLAGS = {
    "--visibility": ("visibility", "interference visibility in [0,1]"),
    "--efficiency": ("efficiency", "detection efficiency in [0,1]"),
    "--dark": ("dark_counts", "mean dark counts per round"),
    "--phase-jitter": ("phase_jitter", "per-run phase jitter sigma (rad)"),
    "--amp-jitter": ("amplitude_jitter", "per-run relative amplitude jitter sigma"),
}
_LEARNING_FLAGS = {
    "--iters": ("max_iterations", "max learning iterations"),
    "--learning-rate": ("learning_rate", None),
    "--perturbation": ("init_perturbation", "relative scale of the initialization perturbation"),
    "--window": ("convergence_window", "convergence window (iterations)"),
    "--delta": ("convergence_delta", "convergence loss-improvement threshold"),
}


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")  # the attribute argparse stores a long flag under


def _add_flags(p: argparse.ArgumentParser, table: dict, defaults) -> None:
    for flag, (field, text) in table.items():
        default = getattr(defaults, field)
        p.add_argument(flag, type=type(default), default=default, help=text)


def _from_flags(cls, table: dict, args: argparse.Namespace, **fixed):
    """The ``cls`` (NoiseModel or FormulatorConfig) that the table's flags give."""
    return cls(**{field: getattr(args, _dest(flag)) for flag, (field, _) in table.items()}, **fixed)


def _scaled_constellation(c: Constellation, nbar: float) -> Constellation:
    """Same geometry at a different prior-averaged energy."""
    if c.name in _ENCODINGS:
        return _ENCODINGS[c.name](nbar)
    current = mean_energy(c)
    if current == 0:
        raise ValueError("cannot rescale a zero-energy constellation")
    # an infinite scale makes inf or NaN amplitudes, which custom() refuses
    with np.errstate(over="ignore", invalid="ignore"):
        amplitudes = c.amplitudes * _amplitude_scale(nbar, current)
    return custom(amplitudes, c.priors, name=c.name)


def _check_writable(*paths: str) -> None:
    """Refuse, before any work, an output file whose directory does not exist.

    The ``OSError`` names the path given, as a failed write does.
    """
    for path in paths:
        if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise OSError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def cmd_optimize(args: argparse.Namespace) -> int:
    trace_path = args.trace or os.path.splitext(args.out)[0] + "_trace.csv"
    _check_writable(args.out, trace_path)
    c = _ENCODINGS[args.encoding](args.mean_photon)
    nm = _from_flags(NoiseModel, _NOISE_FLAGS, args)
    cfg = _from_flags(FormulatorConfig, _LEARNING_FLAGS, args, batch_size=args.batch, seed=args.seed)
    result = formulate(c, args.rounds, args.arity, nm, cfg)
    metadata = {
        "command": "optimize",
        "tool_version": __version__,
        "encoding": args.encoding,
        "mean_photon": args.mean_photon,
        "seed": args.seed,
        "config": {dest: getattr(args, dest) for dest in [*map(_dest, _LEARNING_FLAGS), "batch"]},
        "converged": result.trace.converged,
        "iterations_run": len(result.trace),
        "final_loss": result.final_loss,
        "tree_parameters": result.tree.n_parameters,
        "table_entries": int(result.table.guesses.size),
        "constellation_geometry": (
            "2x3 grid, x in {-d,0,d}, y in {-d/2,d/2}, d=sqrt(12*nbar/11), uniform priors"
            if args.encoding == "qam6"
            else "antipodal +/-sqrt(nbar), uniform priors"
        ),
        "cn_ordering": "null current MAP hypothesis, ties toward lowest label",
    }
    t = result.trace
    warnings = [] if t.converged else ["did not converge within max iterations; best iterate returned"]
    if t.exhausted.any():
        warnings.append(f"the line search accepted no step in {t.exhausted.sum()} of {len(t)} iterations; "
                        "a smaller --learning-rate may let it descend")
    if warnings:
        metadata["warning"] = "; ".join(warnings)
    receiver = Receiver(result.tree, result.table, c, nm, metadata)
    save_receiver(args.out, receiver)
    _write_csv(
        trace_path,
        _meta(args, "optimize"),
        ["iteration", "loss", "gradient_norm"],
        [[int(i), float(l), float(g)] for i, l, g in zip(t.iteration, t.loss, t.gradient_norm)],
    )
    print(f"wrote {args.out} and {trace_path} (final loss {result.final_loss:.6g})")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    # checked before any evaluation, so that a bad count never waits for a
    # --reoptimize sweep
    _count(args.mc_samples, "--mc-samples")
    _count(args.batch, "--batch")
    _check_writable(args.out)
    receiver = load_receiver(args.spec)
    grid = args.sweep if args.sweep else [args.mean_photon]
    if any(x < 0 for x in grid):
        raise ValueError("mean photon numbers must be non-negative")
    nm = receiver.noise_model
    rows = []
    if args.reoptimize:
        cfg = _from_flags(FormulatorConfig, _LEARNING_FLAGS, args, batch_size=args.batch, seed=args.seed)
        swept = optimize_sweep(
            lambda nbar: _scaled_constellation(receiver.constellation, nbar),
            grid,
            receiver.tree.rounds,
            receiver.tree.arity,
            nm,
            cfg,
        )
        pairs = [(nbar, res.tree, res.table) for nbar, res in swept]
    else:
        pairs = [(nbar, receiver.tree, receiver.table) for nbar in grid]
    for i, (nbar, tree, table) in enumerate(pairs):
        c = _scaled_constellation(receiver.constellation, nbar)
        dist = averaged_distribution(tree, c, nm, args.batch, args.seed + i)
        exact = error_rate(dist, table)
        mc = mc_sample(tree, table, c, nm, args.mc_samples, args.seed + i)
        rows.append([float(nbar), exact, mc.error_rate, mc.stderr])
    _write_csv(
        args.out,
        _meta(args, "evaluate"),
        ["mean_photons", "exact_error", "mc_error", "mc_stderr"],
        rows,
    )
    print(f"wrote {args.out}")
    return 0


# Reference receivers by name: (bpsk only, closed-form error curve(args, nbar),
# design(args, c, nbar) -> (tree, design table)).  Each has a curve or a
# design; a designed receiver is scored by its noise-averaged error.
_BASELINES = {
    "helstrom": (True, lambda args, nbar: baselines.helstrom_bpsk(nbar), None),
    "homodyne": (True, lambda args, nbar: baselines.homodyne_sql_bpsk(nbar), None),
    "heterodyne": (
        False,
        lambda args, nbar: baselines.heterodyne_sql(_ENCODINGS[args.encoding](nbar)),
        None,
    ),
    "kennedy": (True, lambda args, nbar: baselines.kennedy_bpsk(nbar), None),
    "cn": (False, None, lambda args, c, nbar: baselines.cn_receiver(c, args.rounds, args.arity)),
    "dolinar": (True, None, lambda args, c, nbar: baselines.dolinar_receiver(nbar, args.rounds)),
}
_BASELINE_CHOICES = tuple(_BASELINES)


def _baseline_error(args, nm: NoiseModel, name: str, nbar: float, seed) -> float:
    _, curve, design = _BASELINES[name]
    if curve is not None:
        return curve(args, nbar)
    c = _ENCODINGS[args.encoding](nbar)
    tree, table = design(args, c, nbar)
    # scored under nm, so refused where the spec loader would refuse it
    if not _means_in_range(c, args.rounds, tree.nodes, nm):
        raise ValueError(f"{name} at {nbar:g} mean photons: {_MEANS_OUT_OF_RANGE}")
    return error_rate(averaged_distribution(tree, c, nm, args.batch, seed), table)


def cmd_baseline(args: argparse.Namespace) -> int:
    receivers = [r.strip() for r in args.receivers.split(",") if r.strip()]
    for r in receivers:
        if r not in _BASELINES:
            raise ValueError(f"unknown receiver {r!r}; choose from {_BASELINE_CHOICES}")
        if _BASELINES[r][0] and args.encoding != "bpsk":
            raise ValueError(f"{r} curve is defined for the bpsk encoding only")
    # only a designed receiver averages over noise draws and builds a tree
    designed = [r for r in receivers if _BASELINES[r][2] is not None]
    if designed:
        _count(args.batch, "--batch")
        _count(args.rounds, "--rounds")
        if "cn" in designed:
            _count(args.arity, "--arity", least=2)
        # the largest tree asked for, since cn's arity is at least dolinar's 2
        num_nodes(args.rounds, args.arity if "cn" in designed else 2)
    if any(x < 0 for x in args.sweep):
        raise ValueError("mean photon numbers must be non-negative")
    nm = _from_flags(NoiseModel, _NOISE_FLAGS, args)
    grid = args.sweep
    # every curve before the directory or any file: a sweep point that a
    # receiver refuses leaves no partial output
    curves = [
        baselines.BoundCurve(
            name,
            np.asarray(grid),
            np.asarray([_baseline_error(args, nm, name, nbar, args.seed + i) for i, nbar in enumerate(grid)]),
        )
        for name in receivers
    ]
    os.makedirs(args.out_dir, exist_ok=True)
    for curve in curves:
        out = os.path.join(args.out_dir, f"{curve.receiver}.csv")
        _write_csv(
            out,
            _meta(args, "baseline") | {"receiver": curve.receiver},
            ["receiver", "mean_photons", "error"],
            [[curve.receiver, float(n), float(e)] for n, e in zip(curve.mean_photons, curve.error)],
        )
        print(f"wrote {out}")
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    _count(args.batch, "--batch")
    receiver = load_receiver(args.spec)
    tree, c, nm = receiver.tree, receiver.constellation, receiver.noise_model
    models = [("ideal", NoiseModel())]
    if nm != NoiseModel():
        models.append(("design", nm))

    k_codes = c.n_codewords
    post_rows = []
    for model_name, model in models:
        d = exact_distribution(tree, c, model)
        for label in range(k_codes):
            path = metrics.most_probable_path(d, label)
            traj = metrics.posterior_trajectory(tree, c, model, path)
            path_str = "".join(str(k) for k in path)
            for rnd, row in enumerate(traj.posteriors):
                post_rows.append([model_name, "map_path", label, path_str, rnd] + [float(x) for x in row])
            expected = metrics.expected_posterior_trajectory(d, label)
            for rnd, row in enumerate(expected):
                post_rows.append([model_name, "expected", label, path_str, rnd] + [float(x) for x in row])
    post_cols = ["model", "variant", "true_label", "path", "round"] + [
        f"posterior_{y}" for y in range(k_codes)
    ]

    kl_rows = []
    for model_name, model in models:
        dist = averaged_distribution(tree, c, model, args.batch, args.seed)
        for p in range(k_codes):
            for q in range(k_codes):
                for rnd in range(tree.rounds + 1):
                    val = metrics.prefix_kl(dist, p, q, rnd)
                    kl_rows.append([model_name, p, q, rnd, val])
    # both files' rows first: a batch the jitter sampler refuses leaves no output
    os.makedirs(args.out_dir, exist_ok=True)
    post_path = os.path.join(args.out_dir, "posterior.csv")
    _write_csv(post_path, _meta(args, "metrics"), post_cols, post_rows)
    kl_path = os.path.join(args.out_dir, "kl.csv")
    _write_csv(kl_path, _meta(args, "metrics"), ["model", "label_p", "label_q", "round", "kl_nats"], kl_rows)
    print(f"wrote {post_path} and {kl_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coherentrx",
        description="Design and evaluate adaptive photon-counting receivers.",
    )
    parser.add_argument("--version", action="version", version=f"coherentrx {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_opt = sub.add_parser("optimize", help="learn a receiver for a noise model")
    p_opt.add_argument("--encoding", choices=sorted(_ENCODINGS), required=True)
    p_opt.add_argument("--rounds", type=int, required=True, help="processing rounds N (>= 1)")
    p_opt.add_argument("--arity", type=int, required=True, help="outcome classes M (>= 2)")
    p_opt.add_argument("--mean-photon", type=float, required=True)
    _add_flags(p_opt, _NOISE_FLAGS, NoiseModel())
    _add_flags(p_opt, _LEARNING_FLAGS, FormulatorConfig())
    p_opt.add_argument("--batch", type=int, default=16, help="noise draws per learning iteration")
    p_opt.add_argument("--seed", type=int, default=0)
    p_opt.add_argument("--out", required=True, help="receiver-spec JSON path")
    p_opt.add_argument("--trace", default=None, help="trace CSV path (default: <out>_trace.csv)")
    p_opt.set_defaults(func=cmd_optimize)

    p_eval = sub.add_parser("evaluate", help="error-rate sweep of a stored receiver")
    p_eval.add_argument("--spec", required=True, help="receiver-spec JSON from 'optimize'")
    grid = p_eval.add_mutually_exclusive_group(required=True)
    grid.add_argument("--sweep", type=_parse_sweep, default=None, help="'a,b,c' or start:stop:num")
    grid.add_argument("--mean-photon", type=float, default=None)
    p_eval.add_argument("--mc-samples", type=int, default=100_000)
    p_eval.add_argument("--batch", type=int, default=32,
                        help="noise draws for the exact average (and per learning iteration with --reoptimize)")
    p_eval.add_argument("--reoptimize", action="store_true", help="re-learn the receiver at every sweep point")
    _add_flags(p_eval, _LEARNING_FLAGS, FormulatorConfig())
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--out", required=True)
    p_eval.set_defaults(func=cmd_evaluate)

    p_base = sub.add_parser("baseline", help="reference bounds and receivers")
    p_base.add_argument("--receivers", default="helstrom,homodyne,kennedy", help=f"comma list from {_BASELINE_CHOICES}")
    p_base.add_argument("--encoding", choices=sorted(_ENCODINGS), default="bpsk")
    p_base.add_argument("--rounds", type=int, default=4)
    p_base.add_argument("--arity", type=int, default=2)
    p_base.add_argument("--sweep", type=_parse_sweep, required=True)
    p_base.add_argument("--batch", type=int, default=32)
    _add_flags(p_base, _NOISE_FLAGS, NoiseModel())
    p_base.add_argument("--seed", type=int, default=0)
    p_base.add_argument("--out-dir", required=True)
    p_base.set_defaults(func=cmd_baseline)

    p_met = sub.add_parser("metrics", help="posterior and KL diagnostics of a receiver")
    p_met.add_argument("--spec", required=True)
    p_met.add_argument("--batch", type=int, default=32)
    p_met.add_argument("--seed", type=int, default=0)
    p_met.add_argument("--out-dir", required=True)
    p_met.set_defaults(func=cmd_metrics)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(f"error: cannot read input file: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # the spec is the one file read; atomic_write names its destination
        action = "read input" if exc.filename == getattr(args, "spec", None) else "write output"
        print(f"error: cannot {action} file {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
