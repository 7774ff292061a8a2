"""Record of the machine and software a benchmark run used."""

from __future__ import annotations

import os
import platform
import subprocess

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

# mc_sample holds several arrays of one entry per run; the largest are the
# complex128 slice amplitudes and displacements: 1e6 runs x 16 bytes.
MC_ARRAY_BYTES = 1_000_000 * 16


def cap_threads() -> int:
    """Limit the numeric libraries to the CPUs this process may use, at most 2.

    Must run before numpy is imported.
    """
    n = min(len(os.sched_getaffinity(0)), 2)
    for var in THREAD_VARS:
        os.environ[var] = str(n)
    return n


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def _size_bytes(text: str | None) -> int | None:
    if not text:
        return None
    units = {"K": 1024, "M": 1024**2, "G": 1024**3}
    if text[-1] in units:
        return int(text[:-1]) * units[text[-1]]
    return int(text)


def cpu_model() -> str:
    info = _read("/proc/cpuinfo") or ""
    for line in info.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def caches() -> dict:
    """Data and unified cache sizes of CPU 0, keyed L1d/L2/L3."""
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    entries = sorted(os.listdir(base)) if os.path.isdir(base) else []
    for entry in (e for e in entries if e.startswith("index")):
        d = os.path.join(base, entry)
        kind = _read(os.path.join(d, "type"))
        if kind == "Instruction":
            continue
        level = _read(os.path.join(d, "level"))
        out[f"L{level}{'d' if kind == 'Data' else ''}"] = {
            "bytes": _size_bytes(_read(os.path.join(d, "size"))),
            "shared_cpu_list": _read(os.path.join(d, "shared_cpu_list")),
        }
    return out


def git_commit(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def blas() -> dict | None:
    import numpy as np

    try:
        cfg = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 prints instead
        return None
    deps = cfg.get("Build Dependencies", {})
    return {k: {"name": v.get("name"), "version": v.get("version")} for k, v in deps.items()}


def record(root: str) -> dict:
    import numpy as np
    import scipy

    cache = caches()
    l3 = (cache.get("L3") or {}).get("bytes")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "caches": cache,
        "mc_sample_arrays": (
            f"largest mc_sample array {MC_ARRAY_BYTES / 1e6:.0f} MB vs L3 "
            + (f"{l3 / 2**20:.0f} MiB: cache-resident" if l3 and l3 >= 4 * MC_ARRAY_BYTES
               else f"{l3} bytes: not cache-resident")
        ),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas(),
        "thread_caps": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(root),
        "platform": platform.platform(),
    }
