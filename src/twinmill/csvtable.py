"""The one CSV dialect of twinmill's interchange files.

A file is a leading block of `# key=value` metadata lines (blank lines and
`#` lines without `=` are allowed there), then exactly one header line of
comma-separated column names, then one row of numbers per line. A column
named `index` holds integers; every other is written with 17 significant
digits (`%.17g`), so every finite double reads back bit-exact; lines end in
LF. Data rows are parsed by one `np.loadtxt` call; any row that is not a
full row of finite numbers is rejected with an InvalidInputError naming its
line, and a metadata value read as a number that is not finite with one
naming its key.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import InvalidInputError

_BLOCK_ROWS = 256  # rows formatted per `%` operation, bounding the float objects alive at once


def write_table(meta, columns, data) -> str:
    """The metadata, the header and the rows of `data` (rows, len(columns))
    as CSV text. A column named `index` is written as integers (`%d`), every
    other column with `%.17g`, from its values as Python floats.

    A column whose value is bit-identical in every row (so -0.0 and 0.0
    differ) is formatted once and written as a literal."""
    parts = [f"# {key}={value}\n" for key, value in meta.items()]
    parts.append(",".join(columns) + "\n")
    data = np.asarray(data, dtype=float)
    fields = ["%d" if name == "index" else "%.17g" for name in columns]
    if len(data):
        bits = data.view(np.int64)
        constant = np.all(bits == bits[0], axis=0)
        for k in np.flatnonzero(constant):
            fields[k] = fields[k] % float(data[0, k])
        data = data[:, ~constant]
    row_fmt = ",".join(fields) + "\n"
    for start in range(0, len(data), _BLOCK_ROWS):
        block = data[start:start + _BLOCK_ROWS]
        parts.append((row_fmt * len(block)) % tuple(block.ravel().tolist()))
    return "".join(parts)


def _parse(lines, width):
    """The lines as a (rows, width) array of finite floats (blank lines are
    skipped; no rows gives an empty array), or None if they are not."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            table = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if table.size and not (table.shape[1] == width and np.isfinite(table).all()):
        return None
    return table


def _first_bad_line(lines, width):
    """Index of the first line that is not `width` finite numbers, given
    that `lines` as a whole do not parse. Every prefix ending before that
    line parses and every prefix holding it does not, so bisect."""
    good, bad = 0, len(lines)
    while bad - good > 1:
        mid = (good + bad) // 2
        if _parse(lines[:mid], width) is None:
            bad = mid
        else:
            good = mid
    return bad - 1


def read_table(text, columns, what):
    """Parse CSV text of the twinmill dialect with exactly the header
    `columns`; returns (meta dict of str, float array (rows, len(columns))).
    `what` names the file kind in error messages."""
    header = ",".join(columns)
    lines = text.split("\n")
    meta = {}
    for n, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        if not line.startswith("#"):
            break
        key, sep, value = line[1:].partition("=")
        if sep:
            meta[key.strip()] = value.strip()
    else:
        raise InvalidInputError(f"{what}: no header line '{header}'")
    if line != header:
        raise InvalidInputError(f"{what} line {n + 1}: expected header '{header}', found {line[:80]!r}")
    rows = lines[n + 1:]
    table = _parse(rows, len(columns))
    if table is None:
        k = _first_bad_line(rows, len(columns))
        raise InvalidInputError(f"{what} line {n + 2 + k}: expected {len(columns)} comma-separated "
                                f"finite numbers, found {rows[k][:80]!r}")
    if not table.size:
        raise InvalidInputError(f"{what}: no data rows after the header on line {n + 1}")
    return meta, table


def meta_floats(meta, key, default, what):
    """The space-separated finite numbers of metadata `key` as a list of
    floats, `default` when the key is absent."""
    if key not in meta:
        return default
    try:
        values = [float(x) for x in meta[key].split()]
    except ValueError:
        values = None
    if values is None or not all(map(math.isfinite, values)):
        raise InvalidInputError(f"{what}: metadata {key}={meta[key]!r} is not a finite number")
    return values


def meta_float(meta, key, default, what):
    """Metadata `key` as one float, `default` when the key is absent."""
    values = meta_floats(meta, key, [default], what)
    if len(values) != 1:
        raise InvalidInputError(f"{what}: metadata {key}={meta[key]!r} is not one number")
    return values[0]
