"""Exception taxonomy shared across the pipeline.

Every error carries a short machine-parsable ``category`` string; the CLI
prints ``error: <category>: <message>`` and exits nonzero.
"""

import numbers
import sys
from contextlib import contextmanager


class EmofuseError(Exception):
    category = "error"


class AudioFormatError(EmofuseError):
    """Malformed RIFF/WAVE container."""

    category = "format"


class UnsupportedAudioError(EmofuseError):
    """Well-formed WAV but an encoding we do not decode."""

    category = "unsupported"


class DomainError(EmofuseError):
    """Argument outside its documented domain."""

    category = "domain"


class RangeError(EmofuseError):
    """Boundary or index outside the underlying signal."""

    category = "range"


class SchemaError(EmofuseError):
    """File structure disagrees with its declared schema."""

    category = "schema"


class ParseError(EmofuseError):
    """Unparseable cell or line in a text input."""

    category = "parse"


class AlignmentError(EmofuseError):
    """Per-frame counts of annotations/audio/video disagree."""

    category = "alignment"


class CorruptionError(EmofuseError):
    """Stored blob fails its size or checksum check."""

    category = "corruption"


class ShapeError(EmofuseError):
    """Tensor shape incompatible with a layer or model."""

    category = "shape"


class CoverageError(EmofuseError):
    """Window set does not cover the frames it claims to."""

    category = "coverage"


class StateError(EmofuseError):
    """Backward called without a matching forward, or stale cache."""

    category = "state"


class DivergenceError(EmofuseError):
    """Training produced a non-finite loss."""

    category = "divergence"


@contextmanager
def schema_fields(where):
    """Report a missing or malformed field of a parsed manifest or header as a SchemaError."""
    try:
        yield
    except (LookupError, TypeError, ValueError) as exc:
        raise SchemaError(f"{where}: missing or malformed field {exc}") from None


def require_number(name, value, ok, domain, kind=numbers.Real):
    """Raise SchemaError unless ``value`` is a ``kind`` in float range, not a bool, and ``ok(value)``."""
    if (isinstance(value, bool) or not isinstance(value, kind)
            or not (abs(value) <= sys.float_info.max and ok(value))):
        raise SchemaError(f"{name} must be {domain}, got {value!r}")


@contextmanager
def utf8_text(path):
    """Report a text input that is not valid UTF-8 as a ParseError naming the file."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
