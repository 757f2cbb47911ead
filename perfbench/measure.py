"""Summary statistics and the environment fingerprint stored with results."""

from __future__ import annotations

import math
import os
import platform
from pathlib import Path

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

BLAS_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with ``p``% at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def supports_percentile(n: int, p: float, beyond: int = 10) -> bool:
    """True when ``n`` samples leave at least ``beyond`` of them above ``p``."""
    return n * (1.0 - p / 100.0) >= beyond - 1e-9


def highest_tail(n: int, beyond: int = 10) -> float:
    """The highest candidate percentile with ``beyond`` samples past it."""
    for p in TAIL_PERCENTILES:
        if supports_percentile(n, p, beyond):
            return p
    raise ValueError(f"{n} samples support no tail percentile")


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


# ----------------------------------------------------------------------
# Environment fingerprint
# ----------------------------------------------------------------------
def cpu_times() -> tuple[int, int]:
    """``(steal, total)`` jiffies from the aggregate line of /proc/stat."""
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()[1:]
    except OSError:
        return 0, 0
    ticks = [int(f) for f in fields[:8]]
    steal = ticks[7] if len(ticks) > 7 else 0
    return steal, sum(ticks)


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


def git_sha(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint(root: Path, steal_before, steal_after,
                frontend: str | None) -> dict:
    import numpy

    return {
        "cores": os.cpu_count(),
        "cores_available": len(os.sched_getaffinity(0)),
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV_VARS},
        "cpu_steal_share": steal_share(steal_before, steal_after),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "git_sha": git_sha(root),
        "frontend": frontend,
    }
