"""The one JSON schema reader of twinmill, for the system config and the
native path format.

A value is read at its schema path `where` (`config.arm1.dh_rows[0][2]`,
`segments[0].start`). Numbers are JSON numbers only (no string, bool, null,
NaN or Infinity), objects refuse repeated, unknown and missing keys, and
every refusal raises InvalidInputError with `where` as its `path`, which
the document's reader keeps when it turns the refusal into its own error.
Both documents are decoded by `loads`, which refuses text that is not JSON
with no `path`.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import InvalidInputError
from .geometry import Pose


def _key(where, key):
    return f"{where}.{key}" if where else key


class _Object(dict):
    """A decoded JSON object; `repeated` is its first key given twice."""

    repeated = None


def _object(pairs):
    value = _Object(pairs)
    if len(value) < len(pairs):
        keys = [key for key, _ in pairs]
        value.repeated = next(key for i, key in enumerate(keys) if key in keys[:i])
    return value


def loads(text, what):
    """Decode a JSON document, keeping the first repeated key of each
    object for `obj` to refuse (json.loads alone keeps its last value).
    Text that is not JSON is refused naming the document as `what`."""
    try:
        return json.loads(text, object_pairs_hook=_object)
    except (ValueError, RecursionError) as exc:
        raise InvalidInputError(f"{what} is not valid JSON: {exc}") from exc


def obj(value, where, required, optional=()):
    """`value` as a JSON object with no repeated key, holding every key of
    `required`, and no key outside `required` and `optional`."""
    if not isinstance(value, dict):
        raise InvalidInputError(f"{where or 'document'}: expected an object", path=where)
    key = getattr(value, "repeated", None)
    if key is not None:
        raise InvalidInputError(f"{_key(where, key)}: repeated key", path=_key(where, key))
    for key in value:
        if key not in required and key not in optional:
            raise InvalidInputError(f"{_key(where, key)}: unknown key", path=_key(where, key))
    for key in required:
        if key not in value:
            raise InvalidInputError(f"missing {_key(where, key)}", path=_key(where, key))
    return value


def _real(value):
    """A JSON number as a finite float, else None."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an integer beyond the float range
            return None
        if math.isfinite(x):
            return x
    return None


def number(value, where):
    x = _real(value)
    if x is None:
        raise InvalidInputError(f"{where}: expected a finite number, got {value!r:.40}", path=where)
    return x


def positive(value, where):
    x = _real(value)
    if x is None or x <= 0:
        raise InvalidInputError(f"{where}: expected a positive finite number, got {value!r:.40}", path=where)
    return x


def count(value, where):
    """An integer >= 1; an integral float such as 50.0 counts."""
    x = _real(value)
    if x is None or x < 1 or not x.is_integer():
        raise InvalidInputError(f"{where}: expected an integer >= 1, got {value!r:.40}", path=where)
    return int(value)


def array(value, shape, where, leaf=number):
    """Nested lists of the given shape as a float array, each element read
    by `leaf` at its own path (`where[i][j]`)."""
    if not shape:
        return leaf(value, where)
    if not isinstance(value, list) or len(value) != shape[0]:
        kind = "numbers" if len(shape) == 1 else "lists"
        raise InvalidInputError(f"{where}: expected a list of {shape[0]} {kind}", path=where)
    return np.array([array(v, shape[1:], f"{where}[{i}]", leaf) for i, v in enumerate(value)])


def build(cls, where, *args, **kwargs):
    """cls(*args, **kwargs), its InvalidInputError placed at `where` alone unless it names a path."""
    try:
        return cls(*args, **kwargs)
    except InvalidInputError as exc:
        raise exc if exc.path is not None else exc.within(f"{where}: ", path=where, index=None)


def pose(value, where) -> Pose:
    """A `{"position_m": [3], "quaternion_wxyz": [4]}` object."""
    obj(value, where, ("position_m", "quaternion_wxyz"))
    return build(Pose, where,
                 array(value["position_m"], (3,), _key(where, "position_m")),
                 array(value["quaternion_wxyz"], (4,), _key(where, "quaternion_wxyz")))
