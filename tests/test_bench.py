import math

import pytest

from claes.bench import (
    LARGE_SIZES_KB,
    METHOD_BASELINE,
    METHOD_PROPOSED,
    METHODS,
    REFERENCE_MS,
    SMALL_SIZES_KB,
    BenchRecord,
    Sensor,
    TrendFit,
    WorkloadProfile,
    check_trends,
    default_profiles,
    emit_csv,
    emit_table,
    fit_linear,
    payload_byte_count,
    run_bench,
)
from claes.errors import TooFewPoints

import oracles

# frozen from the least-squares oracle over the published reference points
REFERENCE_PROPOSED_FIT = (1.0490422914137112, 215.4739383838596, 0.9810416540499571)


def _tiny_profiles():
    return (
        WorkloadProfile(Sensor.SMOKE_DETECTOR, (2, 5)),
        WorkloadProfile(Sensor.IP_CAMERA, (8,)),
    )


def test_default_profiles_cover_both_ladders(monkeypatch):
    profiles = default_profiles()
    by_sensor = {p.sensor: p.sizes_kb for p in profiles}
    assert by_sensor[Sensor.SMOKE_DETECTOR] == SMALL_SIZES_KB
    assert by_sensor[Sensor.SMART_LIGHT] == SMALL_SIZES_KB
    assert by_sensor[Sensor.IP_CAMERA] == LARGE_SIZES_KB
    assert by_sensor[Sensor.IP_TV] == LARGE_SIZES_KB
    # every profile gets run_bench's repetitions, 10 unless asked otherwise:
    # each cell is timed that often, after one untimed warm-up pass
    import claes.bench as bench

    calls = {}
    real = bench.generate_keystream

    def counting(seed, final_key, n):
        calls[n] = calls.get(n, 0) + 1
        return real(seed, final_key, n)

    monkeypatch.setattr(bench, "generate_keystream", counting)
    run_bench(_tiny_profiles(), (METHOD_PROPOSED,), b"k")
    assert calls == {payload_byte_count(kb): 1 + 10 for kb in (2, 5, 8)}


def test_payload_byte_count_units():
    assert payload_byte_count(10) == 10 * 1000 // 8 == 1250
    assert payload_byte_count(512) == 64000


def test_run_bench_record_shape():
    records = run_bench(_tiny_profiles(), METHODS, b"bench key", repetitions=3)
    assert len(records) == len(METHODS) * 3
    for record in records:
        assert record.method in METHODS
        assert record.elapsed_ms > 0
        assert math.isclose(record.throughput_kb_per_ms, record.size_kb / record.elapsed_ms)


def test_run_bench_requires_three_repetitions():
    with pytest.raises(ValueError):
        run_bench((WorkloadProfile(Sensor.IP_TV, (2,)),), METHODS, b"k", repetitions=2)


def test_run_bench_rejects_unknown_method():
    with pytest.raises(ValueError):
        run_bench(_tiny_profiles(), ("fancyMethod",), b"k")


def test_fit_linear_exact_line():
    records = [
        BenchRecord(METHOD_PROPOSED, Sensor.IP_TV, x, 2.0 * x + 1.0, 1.0) for x in (1, 2, 3, 4, 5)
    ]
    fit = fit_linear(records)
    assert math.isclose(fit.slope, 2.0)
    assert math.isclose(fit.intercept, 1.0)
    assert math.isclose(fit.r_squared, 1.0)


def test_fit_linear_too_few_points():
    record = BenchRecord(METHOD_PROPOSED, Sensor.IP_TV, 1, 1.0, 1.0)
    with pytest.raises(TooFewPoints):
        fit_linear([record])
    with pytest.raises(TooFewPoints):
        fit_linear([record] * 3)


def test_fit_linear_on_published_reference_points():
    points = REFERENCE_MS[METHOD_PROPOSED]
    records = [
        BenchRecord(METHOD_PROPOSED, Sensor.IP_TV, size, float(ms), 1.0)
        for size, ms in sorted(points.items())
    ]
    fit = fit_linear(records)
    slope, intercept, r2 = REFERENCE_PROPOSED_FIT
    assert math.isclose(fit.slope, slope, rel_tol=1e-12)
    assert math.isclose(fit.intercept, intercept, rel_tol=1e-12)
    assert math.isclose(fit.r_squared, r2, rel_tol=1e-12)
    # cross-check against the written-out normal equations
    xs = sorted(points)
    ys = [float(points[x]) for x in xs]
    o_slope, o_intercept, o_r2 = oracles.ols_fit(xs, ys)
    assert math.isclose(fit.slope, o_slope, rel_tol=1e-9)
    assert math.isclose(fit.intercept, o_intercept, rel_tol=1e-9)
    assert math.isclose(fit.r_squared, o_r2, rel_tol=1e-9)


def test_check_trends_flags_problems():
    good = [
        BenchRecord(METHOD_BASELINE, Sensor.IP_TV, x, 2.0 * x, 1.0) for x in (1, 2, 3, 4)
    ]
    assert check_trends(good) == []
    non_monotone = good[:3] + [BenchRecord(METHOD_BASELINE, Sensor.IP_TV, 4, 1.0, 1.0)]
    problems = check_trends(non_monotone)
    assert any("faster" in p for p in problems)
    noisy = [
        BenchRecord(METHOD_BASELINE, Sensor.IP_TV, x, y, 1.0)
        for x, y in ((1, 5.0), (2, 50.0), (3, 51.0), (4, 52.0), (5, 300.0))
    ]
    assert any("r^2" in p for p in check_trends(noisy))


def test_emit_csv_header_only_when_empty():
    assert emit_csv([]) == b"method,sensor,size_kb,elapsed_ms,throughput\r\n"


def test_emit_csv_one_row_per_record():
    record = BenchRecord(METHOD_PROPOSED, Sensor.SMART_LIGHT, 10, 1.5, 6.6667)
    lines = emit_csv([record]).decode().strip().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("proposedChaos,SmartLight,10,1.500,")


def test_emit_table_one_row_per_record_with_reference():
    records = [
        BenchRecord(METHOD_BASELINE, Sensor.SMOKE_DETECTOR, 10, 3.25, 3.1),
        BenchRecord(METHOD_PROPOSED, Sensor.IP_TV, 3000, 900.0, 3.3),
        BenchRecord(METHOD_PROPOSED, Sensor.IP_TV, 7, 1.0, 7.0),
    ]
    table = emit_table(records)
    lines = table.splitlines()
    assert len(lines) == 2 + len(records)
    assert "| 19 |" in lines[2]     # published baseline value for 10 kb
    assert "| 3200 |" in lines[3]   # published proposed value for 3000 kb
    assert lines[4].endswith("| - |")  # no reference for non-ladder size


def test_work_scales_exactly_with_byte_count(monkeypatch):
    # clock-independent cost model: 4 map steps per chaos byte, one cube
    # lookup per baseline byte
    from claes.keymatrix import default_matrix
    from claes.keyschedule import (
        baseline_keystream,
        derive_key_material,
        generate_keystream,
        keystream_seed,
    )
    from claes.chaos import _step_raw
    import claes.keyschedule as ks

    km = derive_key_material(b"work counter")
    for n in (100, 200):
        seed = keystream_seed(km.key1)
        m = seed.m_raw
        generate_keystream(seed, km.final_key, n)
        for _ in range(4 * n):
            m = _step_raw(m)
        assert seed.m_raw == m

    calls = 0
    real = ks.encode_byte

    def counting(m, b):
        nonlocal calls
        calls += 1
        return real(m, b)

    monkeypatch.setattr(ks, "encode_byte", counting)
    baseline_keystream(default_matrix(), km.key1, 150)
    assert calls == 150
