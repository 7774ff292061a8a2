"""Spans around the public functions of coherentrx, installed from outside.

The tracer replaces each public function of the traced modules by a timing
wrapper in every ``coherentrx`` module namespace that binds it, so calls made
through ``from .simulator import exact_distribution`` are seen as well as
calls through ``simulator.exact_distribution``.  It also wraps
``scipy.interpolate.PchipInterpolator.__call__`` to count the points the
Dolinar dynamic program interpolates.  ``uninstall`` puts every original
object back.

Each span records calls, total time, self time (total minus the time of its
child spans) and an element count.  Functions are grouped (one group per
module, with the photonics kernels in a group of their own); a call whose
caller is in the same group is nested, so group totals count only the
outermost calls and never count a nested call twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass

import numpy as np

TRACED_MODULES = ("photonics", "simulator", "formulator", "baselines", "metrics", "tree", "cli")

# Forward kernels of one processing round; their element count is the number
# of detected means (detected_mean*) or outcome-probability rows evaluated.
KERNELS = (
    "detected_mean",
    "detected_mean_array",
    "detected_mean_jitter",
    "outcome_probs",
    "outcome_prob_derivs",
)

PCHIP = "baselines.pchip"


@dataclass
class Stat:
    """Accumulated figures of one traced function."""

    group: str
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    elems: int = 0
    top_calls: int = 0
    top_s: float = 0.0
    top_elems: int = 0
    in_formulate: int = 0


def _outcome_rows(args, kwargs, result) -> int:
    """Mean values fed to a binned-Poisson kernel (result rows, not bins)."""
    probs = result[0] if isinstance(result, tuple) else result
    return int(np.size(probs) // probs.shape[-1])


def _pchip_points(args, kwargs, result) -> int:
    return int(np.size(args[1] if len(args) > 1 else kwargs["x"]))


def _element_counter(module: str, name: str):
    if module == "photonics" and name.startswith("detected_mean"):
        return lambda args, kwargs, result: int(np.size(result))
    if module == "photonics" and name.startswith("outcome_prob"):
        return _outcome_rows
    if module == "formulator" and name == "formulate":
        return lambda args, kwargs, result: len(result.trace)
    if module == "simulator" and name == "mc_sample":
        return lambda args, kwargs, result: int(result.num_runs)
    return None


def public_functions(mod) -> list[str]:
    """Names of the functions a module defines and exports."""
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n in vars(mod) if not n.startswith("_")]
    return [
        n
        for n in names
        if inspect.isfunction(getattr(mod, n, None))
        and getattr(mod, n).__module__ == mod.__name__
    ]


class Tracer:
    """Installs timing spans around the traced functions and collects them."""

    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self._stack: list[list] = []  # [group, child_seconds] per open span
        self._formulate_depth = 0
        self._patches: list[tuple[object, str, bool, object]] = []

    def _wrap(self, key: str, group: str, fn, count):
        stat = self.stats.setdefault(key, Stat(group))
        stack = self._stack
        clock = time.perf_counter
        is_formulate = key == "formulator.formulate"
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [group, 0.0]
            stack.append(frame)
            if tracer._formulate_depth:
                stat.in_formulate += 1
            if is_formulate:
                tracer._formulate_depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if is_formulate:
                    tracer._formulate_depth -= 1
                if parent is not None:
                    parent[1] += dt
                top = parent is None or parent[0] != group
                stat.calls += 1
                stat.total_s += dt
                stat.self_s += dt - frame[1]
                if top:
                    stat.top_calls += 1
                    stat.top_s += dt
            if count is not None:
                n = count(args, kwargs, result)
                stat.elems += n
                if top:
                    stat.top_elems += n
            return result

        return span

    def _set(self, owner, attr: str, value) -> None:
        had_own = attr in vars(owner)
        self._patches.append((owner, attr, had_own, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every public function of the traced modules, everywhere bound."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        from scipy.interpolate import PchipInterpolator

        mods = {short: importlib.import_module(f"coherentrx.{short}") for short in TRACED_MODULES}
        pkg = [m for n, m in sorted(sys.modules.items()) if n == "coherentrx" or n.startswith("coherentrx.")]
        for short, mod in mods.items():
            for name in public_functions(mod):
                original = getattr(mod, name)
                group = "photonics.kernel" if short == "photonics" and name in KERNELS else short
                wrapper = self._wrap(f"{short}.{name}", group, original, _element_counter(short, name))
                for other in pkg:
                    for attr, value in list(vars(other).items()):
                        if value is original:
                            self._set(other, attr, wrapper)

        call = PchipInterpolator.__call__
        self._set(PchipInterpolator, "__call__", self._wrap(PCHIP, "pchip", call, _pchip_points))

    def uninstall(self) -> None:
        """Put back every attribute ``install`` replaced, newest first."""
        while self._patches:
            owner, attr, had_own, value = self._patches.pop()
            if had_own:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
