"""Exception types shared across the toolkit, and the JSON file reader
that raises them."""

import json


class SesameError(Exception):
    """Base class for all toolkit errors."""


class ConfigurationError(SesameError):
    """A scenario or model configuration is invalid (CLI exit code 1)."""


class AlignmentError(SesameError):
    """A time interval is not an integral multiple of the underlying grid."""


class RateError(SesameError):
    """A requested rate cannot be served by the interface or stream."""


class TruncationError(SesameError):
    """A stream is shorter than the requested span."""

    def __init__(self, message: str, missing: int = 0):
        super().__init__(message)
        self.missing = missing


class UnknownPredictorError(SesameError):
    """A predictor id is not present in the stream set."""


class InsufficientDataError(SesameError):
    """Not enough rows to fit a model (CLI exit code 2)."""


class DegenerateFitError(SesameError):
    """The regression problem is rank deficient or numerically degenerate."""


class SchemaError(SesameError):
    """Predictor ids or ordering do not match the model being applied."""


class ParseError(SesameError):
    """A persisted document could not be decoded."""


def read_json(path: str, what: str):
    """The JSON document in `path`; `what` names it in error messages.

    A file that cannot be opened raises ConfigurationError; bytes that are
    not UTF-8, or not JSON, or nested deeper than the decoder's recursion
    limit raise ParseError.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read {what} file: {exc}") from exc
    try:
        return json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {what} file is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: {what} file nests too deeply") from exc
