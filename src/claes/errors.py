"""Exception taxonomy shared across the package."""


class ClaesError(Exception):
    """Base class for every error raised by this package."""


class EmptyKey(ClaesError):
    """A master key (or key material derived from one) was empty."""


class ZeroState(ClaesError):
    """An LFSR was constructed with the forbidden all-zero state."""


class LengthMismatch(ClaesError):
    """Byte sequences that must have matching lengths did not."""


class BadIndex(ClaesError):
    """A compression token referenced a dictionary entry that does not exist yet."""


class Truncated(ClaesError):
    """A serialized stream ended prematurely or is otherwise malformed."""


class MisplacedTerminal(ClaesError):
    """A symbol-less compression token appeared anywhere but last."""


class MessageTooLong(ClaesError):
    """A message needs more counter blocks than one nonce can number."""


class OutputLimitExceeded(LengthMismatch):
    """Decompression produced more bytes than the caller allowed."""


class BadMagic(ClaesError):
    """An envelope did not start with the expected magic bytes."""


class BadVersion(ClaesError):
    """An envelope declared an unsupported format version."""


class UnknownFlags(ClaesError):
    """An envelope set a flag bit this version does not define."""


class TooFewPoints(ClaesError):
    """A trend fit was requested over fewer points than the minimum."""


class MatrixConfigError(ClaesError):
    """A matrix config file was rejected (bad index, duplicate cell, syntax)."""
