"""Closed-loop seal/open benchmark of the claes message pipeline.

    python3 perfbench/run.py --workload telemetry --seed 1 --seconds 20 --trace 0

One process, one thread: each message is sealed (``encrypt_message`` +
``Envelope.encode``) and then opened (``Envelope.decode`` +
``decrypt_message``) before the next one starts.  Whole rounds of messages
run until ``--seconds`` have passed.  Every operation is timed beside the
reference loop of ``refclock`` and reported normalised to it.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
messages twice, for half the time each: untraced, then with spans around
the calls into each module (``tracing``), and prints the per-layer metrics
and the tracing overhead.  The last line of output is one JSON object.
The exit code is 1 when an operation failed its checks, 2 when the program
or its oracle cannot be loaded.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import check_oracle, check_roundtrip
from refclock import REF_MS, normalise_ms, percentile, tail_percentile, time_reference
from tracing import Tracer
from workloads import WORKLOADS, repeated_key_share, rounds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 9
# How many messages of the first round are checked against the oracle.
ORACLE_SAMPLES = {"telemetry": 4, "camera_stream": 2, "log_upload": 1}
# Map steps of burn-in that seed_from_key1 spends per seed.
BURN_IN_STEPS = 100
RAW_PREFIX = "raw wall-clock medians in ms, not metrics: "


class LoadError(Exception):
    pass


def load_claes(root: Path = ROOT):
    """Import claes from ``root/src``."""
    src = root / "src"
    if not (src / "claes" / "__init__.py").is_file():
        raise LoadError(f"no claes package under {src}")
    sys.path.insert(0, str(src))
    import claes

    if Path(claes.__file__).resolve().parent != (src / "claes").resolve():
        raise LoadError(f"claes imported from {claes.__file__}, not from {src}")
    return claes


def load_oracles(root: Path = ROOT):
    """Import the independent implementation in ``root/tests/oracles.py``."""
    oracle_file = root / "tests" / "oracles.py"
    if not oracle_file.is_file():
        raise LoadError(f"no oracle at {oracle_file}")
    spec = importlib.util.spec_from_file_location("claes_bench_oracles", oracle_file)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    return oracles


def seal(claes, msg) -> bytes:
    return claes.encrypt_message(msg.key, msg.nonce, msg.plaintext, msg.compress).encode()


def open_(claes, blob: bytes, key: bytes):
    env = claes.Envelope.decode(blob)
    return env, claes.decrypt_message(env, key)


def warm_up(claes, name: str) -> None:
    """One seal and open of a message that the timed passes never see."""
    msg = next(rounds(name, "warm-up"))[0]
    open_(claes, seal(claes, msg), msg.key)


@dataclass
class PassResult:
    seal_ms: list[float] = field(default_factory=list)
    open_ms: list[float] = field(default_factory=list)
    seal_raw_ms: list[float] = field(default_factory=list)
    open_raw_ms: list[float] = field(default_factory=list)
    ref_raw_ms: list[float] = field(default_factory=list)
    plain_bytes: int = 0
    wire_bytes: int = 0
    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    sampled: list = field(default_factory=list)


def run_pass(claes, name: str, seed: int, seconds: float, tracer: Tracer | None = None,
             sample: frozenset = frozenset()) -> PassResult:
    """Seal then open whole rounds of the workload until ``seconds`` pass.

    Messages of the first round whose index is in ``sample`` are kept, with
    their envelopes, for the oracle check.  The garbage collector stays on,
    as it is for the program's callers; it is emptied once before the pass.
    """
    res = PassResult()
    do_seal = seal if tracer is None else tracer.span("cipher.seal", seal)
    do_open = open_ if tracer is None else tracer.span("cipher.open", open_)
    gc.collect()
    deadline = time.perf_counter() + seconds
    for batch in rounds(name, seed):
        for i, msg in enumerate(batch):
            res.attempted += 1
            try:
                ref1 = time_reference()
                t0 = time.perf_counter_ns()
                blob = do_seal(claes, msg)
                t1 = time.perf_counter_ns()
                ref2 = time_reference()
                if tracer is not None:
                    tracer.commit(REF_MS * 2 / (ref1 + ref2))
                t2 = time.perf_counter_ns()
                env, opened = do_open(claes, blob, msg.key)
                t3 = time.perf_counter_ns()
                ref3 = time_reference()
                if tracer is not None:
                    tracer.commit(REF_MS * 2 / (ref2 + ref3))
            except Exception as exc:  # a failed operation is counted, not fatal
                res.failed += 1
                res.problems.append(f"round {res.rounds} message {i}: {exc!r}")
                continue
            problems = check_roundtrip(msg, blob, env, opened)
            if problems:
                res.failed += 1
                res.problems.extend(f"round {res.rounds} message {i}: {p}" for p in problems)
                continue
            res.seal_ms.append(normalise_ms(t1 - t0, (ref1 + ref2) / 2))
            res.open_ms.append(normalise_ms(t3 - t2, (ref2 + ref3) / 2))
            res.seal_raw_ms.append((t1 - t0) / 1e6)
            res.open_raw_ms.append((t3 - t2) / 1e6)
            res.ref_raw_ms.append((ref1 + ref2 + ref3) / 3e6)
            res.plain_bytes += len(msg.plaintext)
            res.wire_bytes += len(blob)
            if res.rounds == 0 and i in sample:
                res.sampled.append((msg, blob))
        res.rounds += 1
        if time.perf_counter() >= deadline:
            break
    return res


def oracle_sample(name: str, seed: int) -> frozenset:
    """Indices into the first round, chosen by the seed, checked against the oracle."""
    size = len(next(rounds(name, seed)))
    rng = random.Random(f"oracle:{name}:{seed}")
    return frozenset(rng.sample(range(size), ORACLE_SAMPLES[name]))


def check_sampled(res: PassResult, oracles) -> None:
    for msg, blob in res.sampled:
        problems = check_oracle(msg, blob, oracles.encrypt_message)
        if problems:
            res.failed += 1
            res.problems.extend(problems)


def measure_setup(name: str) -> list[float]:
    """Set-up time in reference seconds, measured in fresh processes."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name],
            capture_output=True, text=True, timeout=120, check=True,
        )
        probe = json.loads(out.stdout.strip().splitlines()[-1])
        samples.append(normalise_ms(probe["setup_ns"], probe["ref_ns"]) / 1e3)
    return samples


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(res: PassResult, setup: list[float]) -> dict:
    seal_tail = tail_percentile(len(res.seal_ms))
    open_tail = tail_percentile(len(res.open_ms))
    busy_s = (sum(res.seal_ms) + sum(res.open_ms)) / 1e3
    print(f"tail percentiles: seal p{seal_tail} of {len(res.seal_ms)}, open p{open_tail} of {len(res.open_ms)}")
    raw = {k: statistics.median(v) for k, v in
           (("seal_ms", res.seal_raw_ms), ("open_ms", res.open_raw_ms), ("ref_ms", res.ref_raw_ms))}
    print(f"{RAW_PREFIX}{json.dumps(raw)}")
    print(f"setup samples (reference s): {', '.join(f'{s:.4f}' for s in setup)}")
    return {
        "seal_ms": _metric(statistics.median(res.seal_ms), "ms"),
        "seal_ms_tail": _metric(percentile(res.seal_ms, seal_tail), "ms"),
        "open_ms": _metric(statistics.median(res.open_ms), "ms"),
        "open_ms_tail": _metric(percentile(res.open_ms, open_tail), "ms"),
        "roundtrip_mb_s": _metric(res.plain_bytes / 1e6 / busy_s, "MB/s"),
        "wire_ratio": _metric(res.wire_bytes / res.plain_bytes, "ratio"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": _metric(statistics.median(setup), "s"),
    }


def per_layer(tracer: Tracer, traced: PassResult, untraced: PassResult) -> dict:
    msgs = len(traced.seal_ms)
    common = min(msgs, len(untraced.seal_ms))
    g = tracer.get

    def per_call(*names):
        calls = g(names[0]).calls
        return _ratio(sum(g(n).total_ms for n in names), calls)

    def mb_s(name):
        return _ratio(g(name).bytes_in / 1e6, g(name).total_ms / 1e3)

    take, seeds = g("chaos.take"), g("chaos.seed_from_key1")
    overhead = statistics.median(traced.seal_ms[:common]) / statistics.median(untraced.seal_ms[:common])
    print(f"traced {msgs} messages, untraced {len(untraced.seal_ms)}; "
          f"tracing overhead on seal_ms over the first {common}: x{overhead:.4f}")
    return {
        "keymatrix.key1_ms": _metric(per_call("keymatrix.derive_key1"), "ms"),
        "keyschedule.derive_ms": _metric(per_call("keyschedule.derive_key_material"), "ms"),
        "keyschedule.key2_ms": _metric(per_call("keyschedule.derive_key2"), "ms"),
        "keyschedule.key3_ms": _metric(per_call("keyschedule.derive_key3"), "ms"),
        "keyschedule.round_keys_ms": _metric(per_call("keyschedule.derive_round_keys"), "ms"),
        "keyschedule.derive_calls_per_msg": _metric(g("keyschedule.derive_key_material").calls / msgs, "count"),
        "keyschedule.keystream_mb_s": _metric(mb_s("keyschedule.generate_keystream"), "MB/s"),
        "chaos.seed_ms": _metric(per_call("chaos.seed_from_key1"), "ms"),
        "chaos.seeds_per_msg": _metric(seeds.calls / msgs, "count"),
        "chaos.take_mb_s": _metric(mb_s("chaos.take"), "MB/s"),
        "chaos.steps_per_byte": _metric((4 * take.bytes_in + BURN_IN_STEPS * seeds.calls) / traced.plain_bytes, "count"),
        "lz78.compress_ms": _metric(per_call("lz78.compress", "lz78.encode_tokens"), "ms"),
        "lz78.decompress_ms": _metric(per_call("lz78.decompress", "lz78.decode_tokens"), "ms"),
        "lz78.ratio": _metric(_ratio(g("lz78.encode_tokens").bytes_out, g("lz78.compress").bytes_in), "ratio"),
        "cipher.seal_self_ms": _metric(g("cipher.seal").self_ms / msgs, "ms"),
        "cipher.open_self_ms": _metric(g("cipher.open").self_ms / msgs, "ms"),
        "trace.overhead": _metric(overhead, "ratio"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        claes = load_claes()
        oracles = load_oracles()
    except (LoadError, ImportError) as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    name, seed = args.workload, args.seed
    warm_up(claes, name)
    sample = oracle_sample(name, seed)

    if args.trace:
        untraced = run_pass(claes, name, seed, args.seconds / 2, sample=sample)
        tracer = Tracer()
        tracer.install(claes)
        try:
            traced = run_pass(claes, name, seed, args.seconds / 2, tracer=tracer)
        finally:
            tracer.restore()
        passes = (untraced, traced)
    else:
        untraced = run_pass(claes, name, seed, args.seconds, sample=sample)
        passes = (untraced,)
    check_sampled(untraced, oracles)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for problem in [p for res in passes for p in res.problems][:20]:
        print(f"FAILED: {problem}")
    print(
        f"workload {name} seed {seed}: {attempted} messages sealed and opened, {failed} failed, "
        f"{len(untraced.sampled)} checked against the oracle; "
        f"repeated-key share {repeated_key_share(WORKLOADS[name]):.3f}"
    )
    if failed == attempted:
        metrics = {}
    elif args.trace:
        metrics = per_layer(tracer, traced, untraced)
    else:
        metrics = end_to_end(untraced, measure_setup(name))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
