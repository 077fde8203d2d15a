"""Environment record, the single-thread GEMM roofline and the host probe.

The record keeps deterministic fields (versions, thread pins, CPU count, seed)
apart from wall-clock ones (the measured GEMM rate), so two records of the same
configuration compare equal on the former.
"""
from __future__ import annotations

import os
import platform
import statistics
import time


def thread_pins() -> dict[str, str]:
    """The BLAS/OpenMP thread-pool variables in effect."""
    return {k: v for k, v in sorted(os.environ.items())
            if k.endswith(("_NUM_THREADS", "_MAXIMUM_THREADS"))}


def blas_info() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # numpy < 1.26 has no mode argument
        return {"name": "unknown", "version": "unknown"}
    blas = deps.get("blas", {})
    return {"name": str(blas.get("name", "unknown")),
            "version": str(blas.get("version", "unknown"))}


def gemm_roofline_gflops(size: int = 512, repeats: int = 15) -> float:
    """Median f64 GEMM rate of ``size``-square matrices on the pinned pool."""
    import numpy as np

    rng = np.random.default_rng(12345)
    a = rng.standard_normal((size, size))
    b = rng.standard_normal((size, size))
    out = np.empty((size, size))
    np.matmul(a, b, out=out)  # warm the BLAS kernels and the output pages
    rates = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.matmul(a, b, out=out)
        rates.append(2.0 * size ** 3 / (time.perf_counter() - t0) / 1e9)
    return statistics.median(rates)


class HostProbe:
    """A fixed calibration task that calls no ocrseg code: a pure-Python loop,
    256-square f64 GEMMs, a streaming elementwise pass over 8 MB arrays and a
    run of NumPy calls on (32, 1024) arrays, the size the training workload
    uses; about 10 ms each on a 2-vCPU Xeon VM. Timed right before a measured
    interval, it says how fast the shared host runs at that moment;
    ``normalise`` rescales the interval to a host on which the probe takes
    ``REFERENCE_S``."""

    REFERENCE_S = 0.040

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(54321)
        self.a = rng.standard_normal((256, 256))
        self.b = rng.standard_normal((256, 256))
        self.c = np.empty((256, 256))
        self.x = rng.standard_normal(1 << 20)
        self.y = rng.standard_normal(1 << 20)
        self.z = np.empty(1 << 20)
        self.s = rng.standard_normal((32, 1024))
        self.t = rng.standard_normal((32, 1024))
        self.w = rng.standard_normal((32, 32))
        self.seconds()  # warm the kernels and the output pages

    def seconds(self) -> float:
        import numpy as np

        t0 = time.perf_counter()
        acc = 0.0
        for i in range(180_000):
            acc += i * 0.5
        for _ in range(18):
            np.matmul(self.a, self.b, out=self.c)
        for _ in range(5):
            np.add(self.x, self.y, out=self.z)
            np.multiply(self.z, self.x, out=self.z)
        for _ in range(50):
            u = np.maximum(self.w @ ((self.s + self.t) * self.s), 0.0)
            u.sum(axis=1)
            u.T.copy()
        return time.perf_counter() - t0

    def normalise(self, elapsed: float, probe_s: float) -> float:
        return elapsed / probe_s * self.REFERENCE_S


def record(seed: int, workload: str, roofline: float) -> dict:
    import numpy as np

    return {
        "deterministic": {
            "workload": workload,
            "seed": seed,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas_info(),
            "thread_pins": thread_pins(),
            "cpu_count": os.cpu_count(),
        },
        "wallclock": {"env.gemm_roofline_gflops": roofline},
    }
