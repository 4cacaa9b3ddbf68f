"""Locate the checkout, pin the math libraries to one thread, import pflow.

Every benchmark process imports this module first: the thread settings
must be in the environment before numpy is imported, and pflow must come
from the checkout's own `src/` tree, never from an installed copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class CheckoutError(RuntimeError):
    """The directory the benchmark runs in holds no usable pflow source tree."""


def pin_threads() -> None:
    """One BLAS/OpenMP thread: the benchmark is a single-threaded closed loop."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the thread settings were pinned")
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_pflow():
    """Import pflow from `<checkout>/src` and return the package.

    Raises:
        CheckoutError: If the source tree is missing or pflow resolves to
            a file outside it.
    """
    if not (SRC / "pflow" / "__init__.py").is_file():
        raise CheckoutError(f"no pflow source tree under {SRC}")
    sys.path.insert(0, str(SRC))
    import pflow

    if Path(pflow.__file__).resolve().parent != SRC / "pflow":
        raise CheckoutError(f"pflow imported from {pflow.__file__}, not from {SRC}")
    import pflow.bench
    import pflow.oracle

    return pflow


def warm_up(pflow) -> None:
    """Touch every code path the workloads time, at a negligible size.

    This pays the first-call costs (lazy imports inside numpy.linalg,
    allocator growth) before any timed region.
    """
    for model in ("ungm", "coupled"):
        config = pflow.bench.BenchConfig(
            model=model, dims=(3,), particle_counts=(4,), lambda_steps=2,
            mc_runs=1, trajectory_steps=3, master_seed=0,
        )
        pflow.bench.run_benchmark(config)
    pflow.oracle.verify_closed_forms(n_instances=1, seed=0, rk4_steps=10)


def environment(np) -> dict:
    """Thread setting, core count and library versions, for the run log."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    return {
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_version,
    }
