"""Key-generation timing harness over four smart-home sensor workloads.

Times only the keystream-generation call for the two methods (chaotic and
cube-lookup baseline) across a ladder of payload sizes per sensor, reports
medians, and fits a line to elapsed-vs-size.  The published timings from the
original implementation (Intel Core i7, Java runtime) ship as display-only
reference columns; absolute milliseconds from different hardware are not
meaningful local expectations.
"""

from __future__ import annotations

import csv
import gc
import io
import statistics
import time
from dataclasses import dataclass
from enum import Enum

from .errors import TooFewPoints
from .keymatrix import Matrix3D, default_matrix
from .keyschedule import baseline_keystream, derive_key_material, generate_keystream, keystream_seed


class Sensor(Enum):
    SMOKE_DETECTOR = "SmokeDetector"
    SMART_LIGHT = "SmartLight"
    IP_CAMERA = "IpCamera"
    IP_TV = "IpTv"


METHOD_BASELINE = "baseline3dkgm"
METHOD_PROPOSED = "proposedChaos"
METHODS = (METHOD_BASELINE, METHOD_PROPOSED)

SMALL_SIZES_KB = (10, 30, 155, 350, 512)
LARGE_SIZES_KB = (1000, 1500, 2000, 2500, 3000)

DEFAULT_MASTER_KEY = bytes(range(16))

# Reference timings (ms) reported for the original implementation; shown
# beside local measurements, never asserted.
REFERENCE_MS = {
    METHOD_BASELINE: {
        10: 19, 30: 57, 155: 295, 350: 665, 512: 973,
        1000: 1516, 1500: 1999, 2000: 2432, 2500: 2825, 3000: 3287,
    },
    METHOD_PROPOSED: {
        10: 26, 30: 67, 155: 301, 350: 671, 512: 911,
        1000: 1489, 1500: 1968, 2000: 2356, 2500: 2765, 3000: 3200,
    },
}


@dataclass(frozen=True)
class WorkloadProfile:
    sensor: Sensor
    sizes_kb: tuple[int, ...]


def default_profiles() -> tuple[WorkloadProfile, ...]:
    """Low-rate sensors get the small ladder, streaming sensors the large one."""
    return (
        WorkloadProfile(Sensor.SMOKE_DETECTOR, SMALL_SIZES_KB),
        WorkloadProfile(Sensor.SMART_LIGHT, SMALL_SIZES_KB),
        WorkloadProfile(Sensor.IP_CAMERA, LARGE_SIZES_KB),
        WorkloadProfile(Sensor.IP_TV, LARGE_SIZES_KB),
    )


def payload_byte_count(size_kb: int) -> int:
    """Bytes in ``size_kb`` kilobits, the paper's size unit: 125 per kb."""
    return size_kb * 1000 // 8


@dataclass(frozen=True)
class BenchRecord:
    method: str
    sensor: Sensor
    size_kb: int
    elapsed_ms: float
    throughput_kb_per_ms: float


@dataclass(frozen=True)
class TrendFit:
    slope: float        # ms per kb
    intercept: float    # ms
    r_squared: float


def run_bench(
    profiles,
    methods,
    master_key: bytes,
    repetitions: int = 10,
    matrix: Matrix3D | None = None,
) -> list[BenchRecord]:
    """Median of ``repetitions`` timings of the keystream call per (method,
    sensor, size).

    Only the payload length enters the timed call.  Timed regions run
    sequentially on the calling thread.  Repetitions go round-robin over
    every (method, sensor, size) cell, after one untimed warm-up pass, so a
    drift in machine speed hits every size alike instead of bending one
    ladder; the garbage collector is off while timing.
    """
    m = matrix if matrix is not None else default_matrix()
    km = derive_key_material(master_key, m)
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}")
    if repetitions < 3:
        raise ValueError("medians need at least 3 repetitions")
    cells = [
        (method, profile, size_kb)
        for method in methods
        for profile in profiles
        for size_kb in profile.sizes_kb
    ]
    times_ms: list[list[float]] = [[] for _ in cells]
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for rep in range(-1, repetitions):
            for (method, profile, size_kb), times in zip(cells, times_ms):
                n = payload_byte_count(size_kb)
                if method == METHOD_PROPOSED:
                    seed = keystream_seed(km.key1)
                    t0 = time.perf_counter_ns()
                    generate_keystream(seed, km.final_key, n)
                    t1 = time.perf_counter_ns()
                else:
                    t0 = time.perf_counter_ns()
                    baseline_keystream(m, km.key1, n)
                    t1 = time.perf_counter_ns()
                if rep >= 0:
                    times.append((t1 - t0) / 1e6)
    finally:
        if gc_was_enabled:
            gc.enable()
    records = []
    for (method, profile, size_kb), times in zip(cells, times_ms):
        elapsed = statistics.median(times)
        records.append(BenchRecord(method, profile.sensor, size_kb, elapsed, size_kb / elapsed))
    return records


def fit_linear(records) -> TrendFit:
    """Ordinary least squares of elapsed_ms on size_kb."""
    if len(records) < 4:
        raise TooFewPoints(f"trend fit needs at least 4 points, got {len(records)}")
    xs = [r.size_kb for r in records]
    ys = [r.elapsed_ms for r in records]
    slope, intercept = statistics.linear_regression(xs, ys)
    r = statistics.correlation(xs, ys)
    return TrendFit(slope, intercept, r * r)


def check_trends(records) -> list[str]:
    """Trend invariants: per-ladder monotonicity and per-method r^2 >= 0.98."""
    problems: list[str] = []
    methods = sorted({r.method for r in records})
    for method in methods:
        method_records = [r for r in records if r.method == method]
        for sensor in {r.sensor for r in method_records}:
            ladder = sorted(
                (r for r in method_records if r.sensor == sensor), key=lambda r: r.size_kb
            )
            for prev, cur in zip(ladder, ladder[1:]):
                if cur.elapsed_ms < prev.elapsed_ms:
                    problems.append(
                        f"{method}/{sensor.value}: {cur.size_kb} kb measured faster "
                        f"({cur.elapsed_ms:.3f} ms) than {prev.size_kb} kb ({prev.elapsed_ms:.3f} ms)"
                    )
        fit = fit_linear(method_records)
        if fit.r_squared < 0.98:
            problems.append(f"{method}: r^2 = {fit.r_squared:.4f} below 0.98")
    return problems


def emit_csv(records) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["method", "sensor", "size_kb", "elapsed_ms", "throughput"])
    for r in records:
        writer.writerow(
            [r.method, r.sensor.value, r.size_kb, f"{r.elapsed_ms:.3f}", f"{r.throughput_kb_per_ms:.4f}"]
        )
    return buf.getvalue().encode("utf-8")


def emit_table(records) -> str:
    """Markdown table, one row per record, reference timing alongside."""
    lines = [
        "| Method | Sensor | File Size (kb) | Measured Time (ms) | Reference Time (ms) |",
        "| --- | --- | ---: | ---: | ---: |",
    ]
    for r in records:
        ref = REFERENCE_MS.get(r.method, {}).get(r.size_kb)
        lines.append(
            f"| {r.method} | {r.sensor.value} | {r.size_kb} | {r.elapsed_ms:.1f} "
            f"| {ref if ref is not None else '-'} |"
        )
    return "\n".join(lines)
