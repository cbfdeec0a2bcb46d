"""One measurement in a fresh process; prints one JSON line.

    python3 bench/worker.py setup WORKLOAD
    python3 bench/worker.py reference enumcheck
    python3 bench/worker.py measure WORKLOAD SEED PASSES
    python3 bench/worker.py traced WORKLOAD SEED SPANS_STEM

run.py starts these with the environment it pins (one OpenBLAS thread, a
fixed hash seed); they are not meant to be started by hand.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

import spec

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))


def _import_package() -> None:
    import dworkcount.cli

    if Path(dworkcount.cli.__file__).resolve().parent != SRC / "dworkcount":
        raise SystemExit(f"imported dworkcount from {dworkcount.cli.__file__}, not from {SRC}")


def setup(workload: str) -> dict:
    start = time.perf_counter()
    _import_package()
    from dworkcount.field import FqField

    for p, e in spec.SETUP_FIELDS[workload]:
        FqField(p, e)
    return {"setup_s": time.perf_counter() - start}


def reference() -> dict:
    """Enumeration counts for every enumcheck fibre, by element id."""
    _import_package()
    from dworkcount.brute import dwork_counts_by_lambda
    from dworkcount.field import FqField

    return {
        f"{d},{p},{e}": dwork_counts_by_lambda(FqField(p, e), d).tolist()
        for d, p, e in spec.ENUMCHECK_CONFIGS
    }


def _openblas() -> dict:
    """Thread count and run-time configuration of the OpenBLAS numpy
    loaded, read from the library itself."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if threads is not None and config is not None:
                threads.restype, threads.argtypes = ctypes.c_int, []
                config.restype, config.argtypes = ctypes.c_char_p, []
                return {"blas_threads": threads(), "blas_runtime": config().decode()}
    return {"blas_threads": None, "blas_runtime": None}


def environment() -> dict:
    import platform

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **_openblas(),
    }


def measure(workload: str, seed: int, passes: int) -> dict:
    _import_package()
    import workloads

    runs = [workloads.run_pass(workload, seed, r) for r in range(passes)]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"passes": runs, "peak_rss_mb": peak_kb / 1024, "env": environment()}


def traced(workload: str, seed: int, stem: str) -> dict:
    _import_package()
    import tracing
    import workloads

    tracer = tracing.Tracer()
    tracer.install()
    run = workloads.run_pass(workload, seed, 0, wrap_op=lambda op: tracer.wrap("bench.op", op))
    tracer.write(Path(stem))
    return {
        "passes": [run],
        "counters": tracer.counters,
        "max_residual": tracer.max_residual,
    }


def main(argv: list[str]) -> None:
    role, workload, *rest = argv
    if role == "setup":
        result = setup(workload)
    elif role == "reference":
        result = reference()
    elif role == "measure":
        result = measure(workload, int(rest[0]), int(rest[1]))
    elif role == "traced":
        result = traced(workload, int(rest[0]), rest[1])
    else:
        raise SystemExit(f"unknown role {role!r}")
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
