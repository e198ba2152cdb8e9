"""The one CSV dialect of twinmill's interchange files.

A file is a leading block of `# key=value` metadata lines, each key given
once (blank lines and `#` lines without `=` are allowed there), then
exactly one header line of comma-separated column names, then one row of
numbers per line. Every number is written with 17 significant digits
(`%.17g`), so every finite double reads back bit-exact; lines end in LF.
Data rows are parsed by one `np.loadtxt` call. A first column named
`index` is the codec's own on both sides: `write_table` writes the row
numbers 0, 1, 2, ... into it, from their integer digits rather than by
the float kernel below, and `read_table` checks that it counts them and
returns the table without it. An `index` column anywhere else is an
ordinary column.

Every refusal is an InvalidInputError naming the file kind and, where it
has one, its line, in the message and as `line`. A refusal at a line is
made in one place, the `Metadata` that `read_table` returns, which knows
the file kind and holds the caller's text. `read_table` refuses a
repeated key, the header, a bad row and a bad index through it, and a
reader refuses a metadata value (`error`, `number`, `numbers`), a row
(`row_error`) and a value object's row `index` (`build`, as
`jsondoc.build` does at a schema path) through it too. A row's line is
found only when it is refused.

`write_table` formats numbers with a numpy kernel whose bytes equal those
of `'%.17g' % x` for every value. It computes the 17 significant digits
exactly, with integer arithmetic on 32-bit limbs, for 2**-83 (about
1.03e-25) <= |x| < 1e17 and for +-0, then lays each text out from a table
of `%g` templates. Python's `%` formats the other values one at a time
(|x| >= 1e17, 0 < |x| < 2**-83, nan and inf) into the same text rows.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import InvalidInputError

# write_table formats about _BLOCK_VALUES values per kernel call, so the
# kernel's (values, _WIDTH) temporaries stay near 1 MB.
_BLOCK_VALUES = 4096
_GATHER_ROWS = 1024

# The kernel's exact range is 2**-83 (1.03e-25) <= |x| < 1e17, and +-0. It
# writes x = m * 2**(k - 53), 2**52 <= m < 2**53, k the np.frexp exponent,
# as n * 10**(E - 16) with 10**16 <= n < 10**17, n rounded half to even. A
# binade k holds at most two E, split at the mantissa _THRESHOLD[k]; per
# row = 2 * (k - _KMIN) + (m >= _THRESHOLD[k]), E is exact, and
# n = m * T >> 96 exactly, with T = 5**p * 2**(96 - s), p = 16 - E and
# s = 53 - k - p, held in four 32-bit limbs.
_LOW, _HIGH = 2.0 ** -83, 1e17
_KMIN, _KMAX = -82, 57
_MASK32 = 0xFFFFFFFF


def _binade_tables():
    """_THRESHOLD (the least m of binade k at or above its power of ten,
    2**53 if it holds none), _EXPONENT (E per row) and _POWERS (the limbs
    of T, (4, rows))."""
    k = np.arange(_KMIN, _KMAX + 1)
    low = np.floor((k - 1) * math.log10(2)).astype(int)  # E of 2**(k - 1); no such product is within 0.01 of an integer
    thresholds = np.full(len(k), 2 ** 53, dtype=np.uint64)
    for q in range(low[0] + 1, 18):  # 10**q lies in binade b, at m = 10**q / 2**(b - 53)
        b = (10 ** q).bit_length() if q >= 0 else 1 - (10 ** -q).bit_length()
        num, den = 10 ** max(q, 0) << max(53 - b, 0), 10 ** max(-q, 0) << max(b - 53, 0)
        if low[b - _KMIN] < q:  # 10**0 = 2**0 is the bottom of its binade
            thresholds[b - _KMIN] = -(-num // den)
    exponents = np.column_stack([low, low + 1]).ravel()
    shifts = 96 + np.repeat(k, 2) - 53 + 16 - exponents
    limbs = b"".join((5 ** (16 - E) << shift if E <= 16 else 0).to_bytes(16, "little")  # E = 17 is outside the range
                     for E, shift in zip(exponents.tolist(), shifts.tolist()))
    powers = np.frombuffer(limbs, dtype="<u4").reshape(-1, 4).T.astype(np.uint64)
    return thresholds, exponents.astype(np.int16), powers


_THRESHOLD, _EXPONENT, _POWERS = _binade_tables()
_EMIN = int(_EXPONENT.min())

# _DIGITS4[v]: the 4 ASCII digits of 0 <= v < 10**4 as one uint32; _SIG4[v]:
# how many are left when trailing zeros are stripped; _EXP_DIGITS[E - _EMIN]:
# the 2 ASCII digits of -E as one uint16.
_DIGITS = np.stack(np.meshgrid(*[np.arange(10, dtype=np.uint8)] * 4, indexing="ij"), axis=-1).reshape(-1, 4)
_DIGITS4 = (48 + _DIGITS).view(np.uint32)[:, 0]
_SIG4 = np.select([_DIGITS[:, 3] != 0, _DIGITS[:, 2] != 0, _DIGITS[:, 1] != 0, _DIGITS[:, 0] != 0],
                  [4, 3, 2, 1], 0).astype(np.int16)
_EXP_DIGITS = np.ascontiguousarray(
    48 + np.abs(np.arange(_EMIN, 18))[:, None] // [10, 1] % 10, dtype=np.uint8).view(np.uint16)[:, 0]

# A value's text is copied out of its source row of _SOURCE_WIDTH bytes:
# digits d1..d16 of n, the two digits of -E (_X), d0, then constant bytes.
# A template row lists, per byte of the text, the source byte it copies;
# texts are _WIDTH bytes, NUL-padded, wide enough for every `%.17g` text
# (-4.9406564584124654e-324 and -1.7976931348623157e+308 are the widest).
# Template rows: 374 per sign (22 exponent classes x 17 significant-digit
# counts), then 0 and -0.
_WIDTH, _SOURCE_WIDTH = 24, 24
_X, _D0, _DOT, _ZERO, _MINUS, _E, _NUL = 16, 18, 19, 20, 21, 22, 23
_CONSTANTS = np.frombuffer(b".0-e\0", dtype=np.uint8)  # source bytes 19..23
_CLASSES = 22  # E = -4..16 in fixed notation, then d.ddde-XX
_ZERO_KEY = 2 * _CLASSES * 17


def _templates():
    """The template rows of `%.17g`'s layouts: fixed notation for
    -4 <= E <= 16 with the fraction's trailing zeros and a bare '.' dropped,
    else d.ddde-XX (E < -4 within the range)."""
    s = np.arange(1, 18)[:, None]  # significant digits
    j = np.arange(_WIDTH)

    def digit(i):
        return np.where(i == 0, _D0, i - 1)

    def select(*cases):  # np.select: the value of the first true condition, else _NUL
        out = _NUL
        for condition, value in reversed(cases):
            out = np.where(condition, value, out)
        return out

    E = np.arange(-4, 0)[:, None, None]
    zeros = -E - 1
    small = select((j == 0, _ZERO), (j == 1, _DOT), (j < 2 + zeros, _ZERO), (j < 2 + zeros + s, digit(j - 2 - zeros)))
    E = np.arange(0, 17)[:, None, None]
    fixed = select((j <= E, digit(j)), ((j == E + 1) & (s > E + 1), _DOT), ((j > E + 1) & (j <= s), digit(j - 1)))
    end = np.where(s > 1, s + 1, 1)
    scientific = select((j == 0, _D0), (j == end, _E), (j == end + 1, _MINUS), (j == end + 2, _X),
                        (j == end + 3, _X + 1), (j == 1, _DOT), (j < end, digit(j - 1)))
    unsigned = np.concatenate([small, fixed, scientific[None]]).reshape(-1, _WIDTH)
    signed = np.column_stack([np.full(len(unsigned), _MINUS), unsigned[:, :-1]])
    special = [row + [_NUL] * (_WIDTH - len(row)) for row in ([_ZERO], [_MINUS, _ZERO])]
    return np.vstack([unsigned, signed, special]).astype(np.intp)


_TEMPLATES = _templates()


def _decimal(a):
    """(n, E) of each value of `a`, all within the exact range and
    positive: the 17 significant digits of a as the integer n, rounded half
    to even, and the decimal exponent of its first digit."""
    frac, k = np.frexp(a)
    m = np.ldexp(frac, 53).astype(np.uint64)
    k -= _KMIN
    row = 2 * k + (m >= np.take(_THRESHOLD, k))
    # n = m * T >> 96 in 32-bit limbs: column i sums hi(m0 t[i-1]),
    # lo(m0 t[i]), m1 t[i-1] (m1 < 2**21) and the carry, all below 2**54.
    t = np.take(_POWERS, row, axis=1)
    m0, m1 = m & _MASK32, m >> 32
    prod = m0 * t[0]
    sticky = prod & _MASK32
    acc = prod >> 32
    for i in range(1, 4):
        prod = m0 * t[i]
        acc += prod & _MASK32
        acc += m1 * t[i - 1]
        limb = acc & _MASK32
        if i == 1:
            sticky |= limb
        elif i == 2:
            half = limb >> 31
            sticky |= limb & (_MASK32 >> 1)
        acc >>= 32
        acc += prod >> 32
    acc += m1 * t[3]
    n = (acc << 32) | limb
    n += half & ((n & 1) | (sticky != 0))
    E = np.take(_EXPONENT, row)
    carry = n == 10 ** 17  # rounded up to the next power of ten
    if carry.any():
        n[carry] = 10 ** 16
        E += carry
    return n, E


def _texts(x):
    """The `%.17g` text of each value of the float vector `x` as a
    (len(x), _WIDTH) uint8 array, NUL-padded."""
    a = np.abs(x)
    exact = (a >= _LOW) & (a < _HIGH)
    n, E = _decimal(np.where(exact, a, 1.0))
    hi = n // 10 ** 8
    lo = n - hi * 10 ** 8
    d0 = hi // 10 ** 8
    hi -= d0 * 10 ** 8
    b, d = hi // 10 ** 4, lo // 10 ** 4
    groups = b, hi - b * 10 ** 4, d, lo - d * 10 ** 4
    source = np.empty((len(x), _SOURCE_WIDTH), dtype=np.uint8)
    words = source.view(np.uint32)
    for i, group in enumerate(groups):
        words[:, i] = np.take(_DIGITS4, group)
    source.view(np.uint16)[:, _X // 2] = np.take(_EXP_DIGITS, E - _EMIN)
    source[:, _D0] = d0 + 48
    source[:, _DOT:] = _CONSTANTS
    sig = 1 + np.take(_SIG4, b)
    for i, width in ((1, 5), (2, 9), (3, 13)):
        sig = np.where(groups[i], width + np.take(_SIG4, groups[i]), sig)
    sign = np.signbit(x)
    key = np.where(E < -4, _CLASSES - 1, E + 4) * 17 + (sig - 1) + sign * (_CLASSES * 17)
    key = np.where(exact, key, _ZERO_KEY + sign)  # the texts outside the range are overwritten below
    texts = np.empty((len(x), _WIDTH), dtype=np.uint8)
    for start in range(0, len(x), _GATHER_ROWS):  # the (rows, _WIDTH) intp index is the largest temporary
        index = np.take(_TEMPLATES, key[start:start + _GATHER_ROWS], axis=0)
        index += (np.arange(start, start + len(index)) * _SOURCE_WIDTH)[:, None]
        np.take(source.ravel(), index, out=texts[start:start + _GATHER_ROWS])
    outside = np.flatnonzero(~exact & (a != 0))
    if outside.size:
        fallback = b"".join((b"%.17g" % v).ljust(_WIDTH, b"\0") for v in x[outside].tolist())
        texts[outside] = np.frombuffer(fallback, dtype=np.uint8).reshape(-1, _WIDTH)
    return texts


def _row_numbers(start, count, digits):
    """The decimal texts of the row numbers start, ..., start + count - 1
    as a (count, digits) uint8 array, right-aligned after NULs, which
    `write_table` strips; `'%.17g' % k` is that text for every k < 1e17."""
    k = np.arange(start, start + count)
    texts = np.zeros((count, digits), dtype=np.uint8)
    for j in range(digits):
        place = 10 ** (digits - 1 - j)
        first = max(place - start, 0) if place > 1 else 0  # the rows before are below `place`: a leading zero
        texts[first:, j] = 48 + k[first:] // place % 10
    return texts


def _constant(data):
    """Which columns of `data` hold one value, bit for bit (so -0.0 and 0.0
    differ), in every row."""
    bits = data.view(np.int64)
    constant = bits[-1] == bits[0]  # only these columns can be constant
    if constant.any():
        constant[constant] = np.all(bits[:, constant] == bits[0, constant], axis=0)
    return constant


def _literals(row, constant, indexed, rows):
    """The text before, between and after the kernel fields of a row, after
    its index, where the `constant` columns hold `row`'s values: one uint8
    array per text, broadcast to `rows` rows."""
    literals = [""]
    for i, fixed in enumerate(constant):
        literals[-1] += "," if i or indexed else ""
        if fixed:
            literals[-1] += "%.17g" % row[i]
        else:
            literals.append("")
    literals[-1] += "\n"
    return [np.broadcast_to(np.frombuffer(text.encode(), dtype=np.uint8), (rows, len(text)))
            for text in literals]


def write_table(meta, columns, data) -> str:
    """The metadata, the header and the rows of `data` as CSV text, every
    value as `'%.17g' % x`. `data` holds one column per name of `columns`,
    except a first `index`: `write_table` writes the row numbers there.

    The rows are written a block at a time, each block about
    _BLOCK_VALUES values of the columns that vary over the whole table. A
    column whose value is bit-identical in every row of a block (so -0.0
    and 0.0 differ) is formatted once for that block and written as a
    literal, as is a simulated impact's force past its pulse, all exact
    zeros. The other values of the block are formatted by the kernel
    above.

    Metadata that `read_table` could not give back as written is refused
    with an InvalidInputError naming the key: a key or value that holds a
    line break or has surrounding whitespace, and a key that is empty or
    holds '='. So is data whose width does not match `columns`."""
    for key, value in meta.items():
        key, value = str(key), str(value)
        for text in (key, value):
            if "\n" in text or "\r" in text or text != text.strip():
                raise InvalidInputError(f"metadata {key!r}: {text!r} holds a line break or surrounding whitespace")
        if not key or "=" in key:
            raise InvalidInputError(f"metadata {key!r}: a key must be non-empty and hold no '='")
    parts = [f"# {key}={value}\n" for key, value in meta.items()]
    parts.append(",".join(columns) + "\n")
    data = np.asarray(data, dtype=float)
    if not len(data):
        return "".join(parts)
    indexed = columns[0] == "index"
    width = len(columns) - indexed
    if data.ndim != 2 or data.shape[1] != width:
        raise InvalidInputError(f"header {','.join(columns)!r} takes {width} data columns, got shape {data.shape}")
    constant = _constant(data)
    digits = len(str(len(data) - 1))
    rows = max(1, _BLOCK_VALUES // (np.count_nonzero(~constant) or 1))  # the index is not formatted by the kernel
    table_literals, kernel = _literals(data[0], constant, indexed, rows), data[:, ~constant]
    for start in range(0, len(data), rows):
        values = kernel[start:start + rows]
        fixed = _constant(values)  # the table's constant columns are constant in every block
        literals = table_literals
        if fixed.any():
            block_constant = constant.copy()
            block_constant[~constant] = fixed
            literals, values = _literals(data[start], block_constant, indexed, rows), values[:, ~fixed]
        pieces = [_row_numbers(start, len(values), digits)] if indexed else []
        pieces.append(literals[0][:len(values)])
        if len(literals) > 1:
            texts = _texts(values.ravel()).reshape(values.shape + (_WIDTH,))
            for i, literal in enumerate(literals[1:]):
                pieces += [texts[:, i], literal[:len(values)]]
        parts.append(np.concatenate(pieces, axis=1).tobytes().translate(None, b"\0").decode("ascii"))
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


def _header_line(lines):
    """Index of the header among `lines`: the first that is neither blank
    nor a `#` line, None if there is none."""
    return next((n for n, line in enumerate(lines)
                 if line.strip() and not line.strip().startswith("#")), None)


class Metadata(dict):
    """The `# key=value` lines of a file as {key: value}, with the 1-based
    line of each key in `lines` and that of the header in `header_line`.
    It refuses on its reader's behalf, naming the file kind `what`; `text`
    is split again only to find a refused row's line."""

    def __init__(self, what, text, header_line):
        super().__init__()
        self.what = what
        self.text = text
        self.lines = {}
        self.header_line = header_line

    def line_error(self, line, message):
        """A refusal at 1-based `line` alone: of `message`, or the InvalidInputError given."""
        exc = InvalidInputError(message) if isinstance(message, str) else message
        return exc.within(f"{self.what} line {line}: ", index=None, line=line)

    def row_error(self, k, message):
        """A refusal of data row k, as `line_error` makes it. Blank lines
        count towards the line but hold no row."""
        lines = self.text.split("\n")
        return self.line_error([n for n in range(self.header_line, len(lines)) if lines[n].strip()][k] + 1,
                               message)

    def error(self, key, message):
        """A refusal of metadata `key` at its line."""
        return self.line_error(self.lines[key], f"metadata {key}={self[key]!r} {message}")

    def build(self, cls, *args):
        """cls(*args), an InvalidInputError of it that names a row as
        `index` placed at that row's line instead."""
        try:
            return cls(*args)
        except InvalidInputError as exc:
            raise exc if exc.index is None else self.row_error(exc.index, exc)

    def numbers(self, key, default):
        """The space-separated finite numbers of metadata `key` as a list
        of floats, `default` when the key is absent."""
        if key not in self:
            return default
        try:
            values = [float(x) for x in self[key].split()]
        except ValueError:
            values = None
        if values is None or not all(map(math.isfinite, values)):
            raise self.error(key, "is not a finite number")
        return values

    def number(self, key, default):
        """Metadata `key` as one float, `default` when the key is absent."""
        values = self.numbers(key, [default])
        if len(values) != 1:
            raise self.error(key, "is not one number")
        return values[0]


def read_table(text, columns, what):
    """Parse CSV text of the twinmill dialect with exactly the header
    `columns`; returns (Metadata of str, float array (rows, columns)).
    `what` names the file kind in error messages. A metadata key given
    twice is refused at its second line, naming the first. Where the first
    column is `index`, the first row whose index is not its row number is
    refused, and the table is returned without that column."""
    header = ",".join(columns)
    lines = text.split("\n")
    n = _header_line(lines)
    if n is None:
        raise InvalidInputError(f"{what}: no header line '{header}'")
    meta = Metadata(what, text, n + 1)
    for number, line in enumerate(lines[:n], start=1):
        key, sep, value = line.strip()[1:].partition("=")
        key = key.strip()
        if not sep:
            continue
        if key in meta:
            raise meta.line_error(number, f"metadata {key} repeated, first given on line {meta.lines[key]}")
        meta[key] = value.strip()
        meta.lines[key] = number
    line = lines[n].strip()
    if line != header:
        raise meta.line_error(n + 1, f"expected header '{header}', found {line[:80]!r}")
    rows = lines[n + 1:]
    table = _parse(rows, len(columns))
    if table is None:
        k = _first_bad_line(rows, len(columns))
        raise meta.line_error(n + 2 + k, f"expected {len(columns)} comma-separated finite numbers, "
                                         f"found {rows[k][:80]!r}")
    if not table.size:
        raise InvalidInputError(f"{what}: no data rows after the header on line {n + 1}", line=n + 1)
    if columns[0] == "index":
        bad = np.flatnonzero(table[:, 0] != np.arange(len(table)))
        if bad.size:
            k = int(bad[0])
            raise meta.row_error(k, f"indices must count 0, 1, 2, ... in order, found {table[k, 0]:g} where {k} is due")
        table = table[:, 1:]
    return meta, table
