"""The benchmark's own tests:  python3 -m pytest -q perfbench"""

from __future__ import annotations

import pytest

from checks import check_oracle, check_roundtrip
from refclock import REF_MS, TAIL_MIN_BEYOND, _rank, normalise_ms, percentile, tail_percentile
from run import load_claes, load_oracles, open_, seal
from workloads import WORKLOADS, Message, rounds


def test_normalise_is_op_over_reference_times_constant():
    assert normalise_ms(3_000_000, 1_000_000) == pytest.approx(3 * REF_MS)
    # the machine running twice as slow slows both alike and cancels
    assert normalise_ms(6_000_000, 2_000_000) == normalise_ms(3_000_000, 1_000_000)
    assert normalise_ms(1, 1) == REF_MS
    with pytest.raises(ValueError):
        normalise_ms(1, 0)


@pytest.mark.parametrize(
    "n, expected",
    [(1, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0), (999, 90.0),
     (1000, 99.0), (9999, 99.0), (10000, 99.9), (10**6, 99.9)],
)
def test_tail_percentile_by_sample_count(n, expected):
    p = tail_percentile(n)
    assert p == expected
    if p != 50.0:
        assert n - _rank(n, round(p * 10)) >= TAIL_MIN_BEYOND


def test_percentile_is_nearest_rank():
    values = list(range(1, 1001))
    assert percentile(values, 99.0) == 990
    assert percentile(values, 50.0) == 500
    assert percentile([5.0], 99.9) == 5.0


@pytest.fixture(scope="module")
def claes_and_oracles():
    return load_claes(), load_oracles()


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def sealed(request, claes_and_oracles):
    claes, _ = claes_and_oracles
    msg = next(rounds(request.param, 7))[0]
    if not msg.compress:  # keep the frame small: the test only needs its shape
        msg = Message(msg.key, msg.nonce, msg.plaintext[:300], False)
    return msg, seal(claes, msg)


def test_checks_pass_on_correct_output(claes_and_oracles, sealed):
    claes, oracles = claes_and_oracles
    msg, blob = sealed
    env, opened = open_(claes, blob, msg.key)
    assert check_roundtrip(msg, blob, env, opened) == []
    assert check_oracle(msg, blob, oracles.encrypt_message) == []


def test_check_rejects_tampered_envelope(claes_and_oracles, sealed):
    claes, oracles = claes_and_oracles
    msg, blob = sealed
    tampered = bytearray(blob)
    tampered[27 + 5] ^= 0x01  # a payload byte inside the oracle's prefix
    tampered = bytes(tampered)
    try:
        env, opened = open_(claes, tampered, msg.key)
    except claes.ClaesError:
        pass  # LZ78 decode or the length check caught it: a failed operation
    else:
        assert check_roundtrip(msg, tampered, env, opened)
    assert check_oracle(msg, tampered, oracles.encrypt_message)


def test_check_rejects_wrong_header_fields(claes_and_oracles, sealed):
    claes, _ = claes_and_oracles
    msg, blob = sealed
    env, opened = open_(claes, blob, msg.key)
    other_nonce = Message(msg.key, bytes(12), msg.plaintext, msg.compress)
    assert check_roundtrip(other_nonce, blob, env, opened)
    other_flags = Message(msg.key, msg.nonce, msg.plaintext, not msg.compress)
    assert check_roundtrip(other_flags, blob, env, opened)


def test_check_rejects_wrong_oracle_value(claes_and_oracles, sealed):
    _, oracles = claes_and_oracles
    msg, blob = sealed

    def wrong_oracle(*args):
        out = bytearray(oracles.encrypt_message(*args))
        out[30] ^= 0x80
        return bytes(out)

    assert check_oracle(msg, blob, wrong_oracle)


def test_rounds_repeat_for_a_seed_and_differ_across_seeds():
    for name in WORKLOADS:
        a, b, c = (next(rounds(name, s)) for s in (3, 3, 4))
        assert a == b
        assert a != c
