"""Command-line entry point: thin shell over the library operations."""

from __future__ import annotations

import argparse
import os
import sys

from . import bench, lz78, selftest
from ._native import kernel_path
from .cipher import DEFAULT_MAX_OUTPUT, Envelope, decrypt_message, encrypt_message
from .errors import ClaesError
from .keymatrix import default_matrix, load_matrix
from .keyschedule import derive_key_material

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_SELFTEST = 3


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1 (argparse's default would be 2, which we reserve
    # for data errors)
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _hex_bytes(text: str) -> bytes:
    try:
        return bytes.fromhex(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a hex string: {text!r}") from None


def _nonce_arg(text: str) -> bytes:
    raw = _hex_bytes(text)
    if len(raw) != 12:
        raise argparse.ArgumentTypeError("nonce must be 24 hex digits (12 bytes)")
    return raw


def _byte_count_arg(text: str) -> int:
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a byte count: {text!r}") from None
    if count < 0:
        raise argparse.ArgumentTypeError("byte count must not be negative")
    return count


def _sizes_arg(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad size list {text!r}") from None
    if len(set(sizes)) < 2 or min(sizes) <= 0:
        raise argparse.ArgumentTypeError("sizes must be two or more distinct positive integers")
    return sizes


def _add_key_options(parser, required=True):
    group = parser.add_mutually_exclusive_group(required=required)
    group.add_argument("--key", type=_hex_bytes, metavar="HEX", help="master key as hex")
    group.add_argument(
        "--key-file", metavar="PATH", help="file whose raw bytes are the master key"
    )


def _add_matrix_option(parser):
    parser.add_argument("--matrix", metavar="PATH", help="custom key-matrix config file")


def _add_max_output_option(parser, what):
    parser.add_argument(
        "--max-output",
        type=_byte_count_arg,
        default=DEFAULT_MAX_OUTPUT,
        metavar="BYTES",
        help=f"refuse {what} that decode past BYTES (default {DEFAULT_MAX_OUTPUT})",
    )


def _master_key(args) -> bytes:
    if args.key is not None:
        return args.key
    with open(args.key_file, "rb") as fh:
        return fh.read()


def _matrix(args):
    return load_matrix(args.matrix) if args.matrix else default_matrix()


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="claes", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("keygen", help="print the derived key material for a master key")
    _add_key_options(p)
    _add_matrix_option(p)
    p.set_defaults(handler=_cmd_keygen)

    p = sub.add_parser("encrypt", help="encrypt a file into an envelope")
    p.add_argument("input")
    p.add_argument("output")
    _add_key_options(p)
    _add_matrix_option(p)
    p.add_argument(
        "--nonce",
        type=_nonce_arg,
        metavar="HEX24",
        help="12-byte nonce as hex; generated and printed when omitted",
    )
    p.add_argument("--no-compress", action="store_true", help="skip LZ78 pre-compression")
    p.set_defaults(handler=_cmd_encrypt)

    p = sub.add_parser("decrypt", help="decrypt an envelope back into a file")
    p.add_argument("input")
    p.add_argument("output")
    _add_key_options(p)
    _add_matrix_option(p)
    _add_max_output_option(p, "envelopes")
    p.set_defaults(handler=_cmd_decrypt)

    p = sub.add_parser("compress", help="LZ78-compress a file to a token stream")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(handler=_cmd_compress)

    p = sub.add_parser("decompress", help="restore a file from a token stream")
    p.add_argument("input")
    p.add_argument("output")
    _add_max_output_option(p, "streams")
    p.set_defaults(handler=_cmd_decompress)

    p = sub.add_parser("bench", help="time keystream generation over the sensor workloads")
    _add_key_options(p, required=False)
    _add_matrix_option(p)
    p.add_argument("--reps", type=int, default=10, metavar="N", help="repetitions per point")
    p.add_argument(
        "--sizes",
        type=_sizes_arg,
        metavar="KB,KB,...",
        help="override the per-sensor ladders with one shared list of sizes in kilobits",
    )
    p.add_argument("--csv", metavar="PATH", help="also write records as CSV")
    p.add_argument(
        "--check",
        action="store_true",
        help="exit nonzero unless monotonicity and linearity invariants hold",
    )
    p.set_defaults(handler=_cmd_bench)

    p = sub.add_parser("selftest", help="run the built-in verification suite")
    p.set_defaults(handler=_cmd_selftest)

    return parser


def _cmd_keygen(args) -> int:
    km = derive_key_material(_master_key(args), _matrix(args))
    print(f"key1      = {km.key1.hex()}")
    print(f"key2      = {km.key2.hex()}")
    print(f"key3      = {km.key3.hex()}")
    print(f"final_key = {km.final_key.hex()}")
    return EXIT_OK


def _cmd_encrypt(args) -> int:
    with open(args.input, "rb") as fh:
        plaintext = fh.read()
    nonce = args.nonce
    if nonce is None:
        nonce = os.urandom(12)
        print(f"nonce: {nonce.hex()}", file=sys.stderr)
    env = encrypt_message(
        _master_key(args),
        nonce,
        plaintext,
        compress=not args.no_compress,
        matrix=_matrix(args),
    )
    with open(args.output, "wb") as fh:
        fh.write(env.encode())
    return EXIT_OK


def _cmd_decrypt(args) -> int:
    with open(args.input, "rb") as fh:
        blob = fh.read()
    plaintext = decrypt_message(
        Envelope.decode(blob),
        _master_key(args),
        matrix=_matrix(args),
        max_output=args.max_output,
    )
    with open(args.output, "wb") as fh:
        fh.write(plaintext)
    return EXIT_OK


def _cmd_compress(args) -> int:
    with open(args.input, "rb") as fh:
        data = fh.read()
    with open(args.output, "wb") as fh:
        fh.write(lz78.pack(data))
    return EXIT_OK


def _cmd_decompress(args) -> int:
    with open(args.input, "rb") as fh:
        blob = fh.read()
    data = lz78.unpack(blob, max_output=args.max_output)
    with open(args.output, "wb") as fh:
        fh.write(data)
    return EXIT_OK


def _cmd_bench(args) -> int:
    if args.reps < 3:
        print("claes bench: --reps must be at least 3", file=sys.stderr)
        return EXIT_USAGE
    master = _master_key(args) if (args.key is not None or args.key_file) else bench.DEFAULT_MASTER_KEY
    profiles = bench.default_profiles()
    if args.sizes:
        profiles = tuple(bench.WorkloadProfile(p.sensor, args.sizes) for p in profiles)
    print(f"kernel: {kernel_path()}")
    records = bench.run_bench(profiles, bench.METHODS, master, args.reps, matrix=_matrix(args))
    print(bench.emit_table(records))
    print()
    for method in bench.METHODS:
        fit = bench.fit_linear([r for r in records if r.method == method])
        print(
            f"{method}: slope = {fit.slope:.4f} ms/kb, intercept = {fit.intercept:.2f} ms, "
            f"r^2 = {fit.r_squared:.5f}"
        )
    if args.csv:
        with open(args.csv, "wb") as fh:
            fh.write(bench.emit_csv(records))
    if args.check:
        problems = bench.check_trends(records)
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        if problems:
            return EXIT_DATA
        print("trend checks passed")
    return EXIT_OK


def _cmd_selftest(args) -> int:
    results = selftest.run()
    failed = False
    for name, reason in results:
        if reason is None:
            print(f"ok   {name}")
        else:
            print(f"FAIL {name}: {reason}")
            failed = True
    return EXIT_SELFTEST if failed else EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse: 0 for --help, EXIT_USAGE from _Parser.error
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except ClaesError as exc:
        print(f"claes: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"claes: error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
