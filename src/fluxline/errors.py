"""Exception types shared across the package, the JSON file reader and writer, the number check."""
import json
from itertools import chain


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


def json_text(obj):
    """obj as JSON text with sorted keys, two-space indents and a final newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def check_numbers(path, value, what, integral=False):
    """Raise SchemaError naming path unless every leaf of value is a JSON number.

    value is parsed JSON, nested lists walked to their leaves. With integral
    set, each leaf must also be a whole number; an integral float such as 2.0
    counts. true and false are not numbers here, though Python and numpy
    read them as 1 and 0.
    """
    if _levels_are_numbers(value, integral):
        return
    stack = [value]
    while stack:
        v = stack.pop()
        if isinstance(v, list):
            stack.extend(v)
        elif type(v) not in (int, float) or (
                integral and type(v) is float and not v.is_integer()):
            kind = "integers" if integral else "numbers"
            raise SchemaError(f"{path}: {what} must be {kind}, got {json.dumps(v)}")


def _levels_are_numbers(value, integral):
    """True when every nesting level of value is all lists or, at the last
    level, all JSON numbers (all ints when integral): one C-level type pass
    a level. False leaves the leaf-by-leaf walk to name the bad leaf, or to
    pass a mix of lists and numbers in one level."""
    level = [value]
    while level:
        types = set(map(type, level))
        if types != {list}:
            return types <= {int, float} and not (integral and float in types)
        level = list(chain.from_iterable(level))
    return True
