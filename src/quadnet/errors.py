"""Exception hierarchy shared by all quadnet modules, and the one reader of
input files, which reports a file that does not decode by name."""

from __future__ import annotations


class QuadnetError(Exception):
    """Base class for all errors raised by this package."""


class PhysicalityError(QuadnetError):
    """A covariance matrix violates the uncertainty relation beyond tolerance."""


class FitNonConvergenceError(QuadnetError):
    """A calibration fit objective was too flat to locate a minimum."""


class NetworkParseError(QuadnetError):
    """Base class for network-file parse errors.

    Parameters
    ----------
    message : str
        Human-readable description.
    line : int
        1-based line number of the offending token.
    column : int
        1-based column number of the offending token.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


class UnknownKeywordError(NetworkParseError):
    """A line starts with a keyword outside the network grammar."""


class UndeclaredLabelError(NetworkParseError):
    """An element references a mode label that was never declared."""


class ParameterRangeError(NetworkParseError):
    """A numeric parameter lies outside its physical range."""


class NetworkFormatError(NetworkParseError):
    """Structurally malformed network text (arity, duplicates, missing output)."""


def read_text(path, encoding: str) -> str:
    """Text of the file at ``path`` in ``encoding`` (``utf-8``, or ``utf-8-sig``
    to skip a leading BOM), with newlines translated as in text mode.  A byte that
    does not decode raises ValueError naming the file, the byte and its offset."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode(encoding)
    except UnicodeDecodeError as exc:
        offset = len(data) - len(exc.object) + exc.start  # utf-8-sig drops the BOM first
        raise ValueError(f"{path} is not UTF-8 text: byte 0x{data[offset]:02x} "
                         f"at offset {offset}") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")
