"""Exception types shared across the package, and the JSON file reader."""
import json


class FluxlineError(Exception):
    """Base class for errors raised by fluxline."""


class GeometryError(FluxlineError):
    """Invalid, degenerate, or unsupported geometry."""


class ClearanceError(FluxlineError):
    """Curves touch, or come closer than a required clearance."""


class UnderResolvedError(FluxlineError):
    """A quadrature landed too far from its quantized value to trust.

    Carries the offending partial result in `result` when available so
    callers can still report raw / rounded / residual.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class SchemaError(FluxlineError):
    """Malformed input file, config, or data layout."""


def read_json(path):
    """Parse a UTF-8 JSON file; bad text is a SchemaError, OSError passes through."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as e:
        raise SchemaError(f"{path}: line {e.lineno} column {e.colno}: {e.msg}") from e
    except UnicodeDecodeError as e:
        raise SchemaError(f"{path}: not UTF-8 text: {e.reason} at byte {e.start}") from e
