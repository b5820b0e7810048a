"""Size ladders: how phi, normalize and the HNF scale with input size.

Times each at geometric sizes on random inputs and fits a log-log slope, so
a complexity change shows even when absolute times are noisy.  The rows
at phi 100/400/1600, normalize 1600, HNF 40x45 and the `presets` cold start
match the baseline table in ROADMAP.md.
"""

from __future__ import annotations

import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time

from daxcalc import Factor, GroupSpec, ManifoldModel, SRData, TrivialKernel, hermite_normal_form, normalize, phi

from generate import loose_word
from reference import Group

PHI_SIZES = (100, 400, 1600)
HNF_SIZES = (10, 20, 40)


def _seconds(fn, repeat: int) -> float:
    """Fastest of `repeat` timed calls."""
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def loglog_slope(points) -> float:
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def machine() -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def run_ladder(seed: int, child_env: dict, cwd) -> dict:
    """Ladder rows and slopes; phi once per size, the cheaper steps best of three."""
    rng = random.Random(seed)
    group = Group((("x", None), ("y", None), ("a", 2)))
    spec = GroupSpec((Factor("x"), Factor("y"), Factor("a", 2)))
    manifold = ManifoldModel(spec, TrivialKernel())
    phi_s, normalize_s = [], []
    for n in PHI_SIZES:
        data = SRData((), tuple((rng.choice((1, -1)), spec.element(loose_word(rng, group))) for _ in range(n)))
        phi_s.append((n, _seconds(lambda: phi(data, manifold), 1)))
        normalize_s.append((n, _seconds(lambda: normalize(data, manifold), 3)))
    hnf_s = []
    for n in HNF_SIZES:
        rows = [[rng.randint(-9, 9) for _ in range(n + 5)] for _ in range(n)]
        hnf_s.append((n, _seconds(lambda: hermite_normal_form(rows), 3)))
    reduced, _ = hermite_normal_form(rows)  # the largest, 40 x 45
    hnf_bits = max(abs(v).bit_length() for row in reduced for v in row)
    presets = []
    for _ in range(3):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "daxcalc", "presets"],
            cwd=cwd, env=child_env, stdout=subprocess.DEVNULL, check=True,
        )
        presets.append(time.perf_counter() - start)
    return {
        "machine": machine(),
        "phi_ms": {str(n): t * 1e3 for n, t in phi_s},
        "normalize_ms": {str(n): t * 1e3 for n, t in normalize_s},
        "hnf_ms": {f"{n}x{n + 5}": t * 1e3 for n, t in hnf_s},
        "hnf_40x45_max_bits": hnf_bits,
        "presets_cold_s": statistics.median(presets),
        "slopes": {
            "phi": loglog_slope(phi_s),
            "normalize": loglog_slope(normalize_s),
            "hnf": loglog_slope(hnf_s),
        },
    }


def ladder_metrics(ladder: dict) -> dict:
    return {
        "engine.phi.slope": ladder["slopes"]["phi"],
        "forms.normalize.slope": ladder["slopes"]["normalize"],
        "kernel.hnf.slope": ladder["slopes"]["hnf"],
        "ladder.phi_100_ms": ladder["phi_ms"]["100"],
        "ladder.phi_400_ms": ladder["phi_ms"]["400"],
        "ladder.phi_1600_ms": ladder["phi_ms"]["1600"],
        "ladder.normalize_1600_ms": ladder["normalize_ms"]["1600"],
        "ladder.hnf_40x45_ms": ladder["hnf_ms"]["40x45"],
        "ladder.hnf_40x45_max_bits": ladder["hnf_40x45_max_bits"],
        "ladder.presets_cold_s": ladder["presets_cold_s"],
    }
