"""Chaos-driven key generation around an AES-128 core, with LZ78
pre-compression and a key-generation timing benchmark.

A master key expands through a byte-to-symbol lookup cube into a first key,
then through chaotic logistic-map cycles, an LFSR rotate/XOR pass, and a
triple XOR into the final key material, in which the chaotic second key
cancels out; AES round keys and the message-length keystream come from
further chaotic streams separated by domain tags.  Messages travel in a small binary envelope.
"""

from .chaos import ChaoticState, seed_from_key1
from .cipher import (
    DEFAULT_MAX_OUTPUT,
    Cipher,
    Envelope,
    block_encrypt,
    clear_key_cache,
    decrypt_message,
    encrypt_message,
    rijndael_round_keys,
)
from .errors import (
    BadIndex,
    BadMagic,
    BadVersion,
    ClaesError,
    EmptyKey,
    LengthMismatch,
    MatrixConfigError,
    MessageTooLong,
    MisplacedTerminal,
    OutputLimitExceeded,
    TooFewPoints,
    Truncated,
    UnknownFlags,
    ZeroState,
)
from .keymatrix import (
    ALPHABET,
    Matrix3D,
    default_matrix,
    derive_key1,
    encode_byte,
    load_matrix,
    parse_matrix_config,
)
from .keyschedule import (
    KeyMaterial,
    Lfsr8,
    baseline_keystream,
    derive_final_key,
    derive_key2,
    derive_key3,
    derive_key_material,
    derive_round_keys,
    fold_seed_prefix,
    generate_keystream,
    keystream_seed,
    lfsr_next,
)

__version__ = "0.1.0"

__all__ = [
    "ALPHABET",
    "BadIndex",
    "BadMagic",
    "BadVersion",
    "ChaoticState",
    "Cipher",
    "ClaesError",
    "DEFAULT_MAX_OUTPUT",
    "EmptyKey",
    "Envelope",
    "KeyMaterial",
    "LengthMismatch",
    "Lfsr8",
    "Matrix3D",
    "MatrixConfigError",
    "MessageTooLong",
    "MisplacedTerminal",
    "OutputLimitExceeded",
    "TooFewPoints",
    "Truncated",
    "UnknownFlags",
    "ZeroState",
    "baseline_keystream",
    "block_encrypt",
    "clear_key_cache",
    "decrypt_message",
    "default_matrix",
    "derive_final_key",
    "derive_key1",
    "derive_key2",
    "derive_key3",
    "derive_key_material",
    "derive_round_keys",
    "encode_byte",
    "encrypt_message",
    "fold_seed_prefix",
    "generate_keystream",
    "keystream_seed",
    "lfsr_next",
    "load_matrix",
    "parse_matrix_config",
    "rijndael_round_keys",
    "seed_from_key1",
]
