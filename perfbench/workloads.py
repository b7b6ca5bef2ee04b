"""Seeded input generators for the three workloads.

Each workload yields rounds; a round is a fixed list of messages, and a run
attempts whole rounds only.  The program sees nothing but the generated
keys, nonces and plaintexts.  The same seed yields the same sequence of
rounds, so the timed and the traced pass of one run see the same messages.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Message:
    key: bytes
    nonce: bytes
    plaintext: bytes
    compress: bool


_SENSOR_KINDS = ("thermostat", "smoke", "door", "plug", "light", "motion", "leak", "air")
_SENSOR_FIELDS = ("temp", "hum", "co2", "pm25", "lux", "watts", "volts", "rssi", "bat", "state")


def _stratified(rng: random.Random, lo: int, hi: int, n: int) -> list[int]:
    """``n`` values in [lo, hi], one from each of ``n`` equal strata, shuffled.

    Each round then holds the same spread of sizes, so per-message medians
    differ little between seeds, while the sizes themselves still vary.
    """
    width = (hi - lo + 1) / n
    values = [lo + int(i * width) + rng.randrange(max(1, int(width))) for i in range(n)]
    rng.shuffle(values)
    return values


def _reading(rng: random.Random, fields: int) -> bytes:
    """A JSON sensor reading with ``fields`` values: 40 to 300 bytes."""
    kind = rng.choice(_SENSOR_KINDS)
    doc = {"dev": f"{kind}-{rng.randrange(10000):04d}", "ts": 1760000000 + rng.randrange(10**7)}
    for _ in range(fields):
        name = f"{rng.choice(_SENSOR_FIELDS)}{rng.randrange(4)}"
        doc[name] = round(rng.uniform(-50, 5000), rng.randrange(4))
    return json.dumps(doc, separators=(",", ":")).encode()


def telemetry_round(rng: random.Random) -> list[Message]:
    """16 readings of 0 to 12 values, each under a fresh 16- or 32-byte key."""
    key_sizes = [16, 32] * 8
    rng.shuffle(key_sizes)
    return [
        Message(rng.randbytes(size), rng.randbytes(12), _reading(rng, fields), True)
        for size, fields in zip(key_sizes, _stratified(rng, 0, 12, 16))
    ]


def camera_round(rng: random.Random) -> list[Message]:
    """One camera stream: four random (already compressed) 8-24 KiB frames
    under one fresh key, sent without LZ78."""
    key = rng.randbytes(16)
    return [
        Message(key, rng.randbytes(12), rng.randbytes(size), False)
        for size in _stratified(rng, 8 << 10, 24 << 10, 4)
    ]


_LOG_LEVELS = ("DEBUG", "INFO", "INFO", "INFO", "WARN", "ERROR")
_LOG_EVENTS = (
    "wifi: rssi={a} dBm channel={b} retries={c}",
    "mqtt: publish topic=home/{d}/state qos={c} bytes={a}",
    "sensor: {d} read value={a}.{b} status=ok",
    "ota: checking for update, current build {a}.{b}.{c}",
    "power: battery {b}% voltage {a} mV",
    "http: GET /api/v1/{d} -> {a} in {b} ms",
    "scheduler: task {d} ran in {a} us, next in {b} s",
)
_LOG_NAMES = ("kitchen", "hall", "garage", "porch", "bedroom", "boiler", "garden", "attic")


def _log_text(rng: random.Random, size: int) -> bytes:
    """Device log lines until at least ``size`` bytes, cut to exactly ``size``."""
    lines = []
    total = 0
    t = rng.randrange(10**6)
    while total < size:
        t += rng.randrange(1, 5000)
        event = rng.choice(_LOG_EVENTS).format(
            a=rng.randrange(-90, 5000), b=rng.randrange(100), c=rng.randrange(4), d=rng.choice(_LOG_NAMES)
        )
        line = f"{t // 1000:>9}.{t % 1000:03d} {rng.choice(_LOG_LEVELS):<5} {event}\n"
        lines.append(line)
        total += len(line)
    return "".join(lines).encode()[:size]


def log_round(rng: random.Random) -> list[Message]:
    """One device: six text logs of 2-24 KiB under one fresh key, with LZ78."""
    key = rng.randbytes(16)
    return [
        Message(key, rng.randbytes(12), _log_text(rng, size), True)
        for size in _stratified(rng, 2 << 10, 24 << 10, 6)
    ]


WORKLOADS = {
    "telemetry": telemetry_round,
    "camera_stream": camera_round,
    "log_upload": log_round,
}


def repeated_key_share(round_fn) -> float:
    """Share of a round's messages whose key an earlier message of the run used."""
    msgs = round_fn(random.Random(0))
    return 1 - len({m.key for m in msgs}) / len(msgs)


def rounds(name: str, seed: int):
    """Endless rounds of workload ``name`` from ``seed``."""
    make = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    while True:
        yield make(rng)
