"""Spans around the calls into each layer, recorded from outside the program.

``Tracer.install`` replaces the public functions each module calls in its
neighbours with timing wrappers, by name in the namespace the caller looks
them up in, and ``restore`` puts the originals back.  The program's files
are not touched.  Each span adds its duration to its parent, so a layer's
self time is its span minus the spans of the public functions it calls.

Spans of one operation are held in ns until the benchmark calls ``commit``
with that operation's scale (reference ms per ns, from the reference loops
timed beside it), so span times are normalised the same way as the
end-to-end ones.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass
class LayerStats:
    calls: int = 0
    total_ms: float = 0.0
    self_ms: float = 0.0
    bytes_in: int = 0
    bytes_out: int = 0
    pending_total_ns: int = 0
    pending_self_ns: int = 0


def _size(x) -> int:
    return len(x) if isinstance(x, (bytes, bytearray, list)) else 0


class Tracer:
    # (span name, module attribute path, function to size the input)
    # The attribute path is where the caller looks the function up.
    SPANS = (
        ("keymatrix.derive_key1", "keyschedule.derive_key1", None),
        ("keyschedule.derive_key_material", "cipher.derive_key_material", None),
        ("keyschedule.derive_key2", "keyschedule.derive_key2", None),
        ("keyschedule.derive_key3", "keyschedule.derive_key3", None),
        ("keyschedule.derive_round_keys", "keyschedule.derive_round_keys", None),
        ("keyschedule.generate_keystream", "cipher.generate_keystream", lambda a: a[2]),
        ("chaos.seed_from_key1", "keyschedule.seed_from_key1", None),
        ("chaos.take", "chaos.ChaoticState.take", lambda a: a[1]),
        ("lz78.compress", "lz78.compress", lambda a: len(a[0])),
        ("lz78.encode_tokens", "lz78.encode_tokens", None),
        ("lz78.decode_tokens", "lz78.decode_tokens", None),
        ("lz78.decompress", "lz78.decompress", None),
    )

    def __init__(self):
        self.stats: dict[str, LayerStats] = {}
        self._stack: list[list[int]] = []
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, size_in=None):
        """``fn`` wrapped in a span named ``name``."""
        stats = self.stats.setdefault(name, LayerStats())
        stack = self._stack

        def wrapper(*args, **kwargs):
            children = [0]
            stack.append(children)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter_ns() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
            stats.calls += 1
            stats.pending_total_ns += dt
            stats.pending_self_ns += dt - children[0]
            if size_in is not None:
                stats.bytes_in += size_in(args)
            stats.bytes_out += _size(result)
            return result

        return wrapper

    def commit(self, scale: float) -> None:
        """Normalise the spans held since the last commit by ``scale``."""
        for stats in self.stats.values():
            stats.total_ms += stats.pending_total_ns * scale
            stats.self_ms += stats.pending_self_ns * scale
            stats.pending_total_ns = stats.pending_self_ns = 0

    def install(self, claes) -> None:
        for name, path, size_in in self.SPANS:
            *owner_path, attr = path.split(".")
            owner = claes
            for part in owner_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.span(name, original, size_in))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def get(self, name: str) -> LayerStats:
        return self.stats.get(name, LayerStats())
