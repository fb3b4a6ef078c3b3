"""CSV reading/writing with exact float round-trips.

Files are UTF-8, comma-separated, LF line endings, mandatory header row, no
trailing delimiter.  Numbers are written exactly as ``'%.17g' % x``, which
reproduces the double bit pattern on parse; text cells as they are.

Cells are formatted as whole arrays, not one by one.  A finite cell with
``1e-4 <= |x| < 1e17`` is in ``%.17g``'s fixed notation (decimal exponent
-4..16); its 17 digits come from the exact Dekker product ``|x| *
10**(16 - e)`` rounded half to even, as ``%.17g`` rounds, split into groups
of 4 digits, and written from a table of the 100 digit pairs.  Each cell's
bytes are laid into a fixed-width byte matrix, and one pass deletes the unused
bytes.  Every other cell (0, -0, subnormals, ``|x| < 1e-4``, ``|x| >= 1e17``,
inf, nan, text, and the empty cells that pad a shorter or empty column) is
formatted by ``'%.17g' % x`` cell by cell.  The bytes are the same as
``'%.17g' % x`` for every cell.

Cells are parsed as whole arrays too, from the file's bytes: no line but the
header is decoded to text.  A cell such as ``%.17g`` writes,
``-?D+(.D+)?(e[+-]D{1,3})?`` with at most 19 significant digits, is read
right-aligned in three 8-byte words, gathered as one 24-byte record per cell;
its digits become an integer by SWAR arithmetic, and Eisel–Lemire's product
with a 128-bit table of 5**q rounds it to the nearest double, as ``float()``
does.  A run of lines with a CR line end, a blank line, any other cell, or a
subnormal, overflowing or too-close-to-call value is decoded as UTF-8 (a byte
that is not UTF-8 becomes a lone surrogate), split at LF, CRLF and CR as
``io.TextIOWrapper(newline=None)`` splits it, and its lines that are not blank
are parsed again: by the kernel, rejoined by LF, or else cell by cell by
numpy's ``loadtxt`` rule: a cell stripped of whitespace must be ASCII, have no
"_", and be a finite number to ``float()``.

Tables are written in pieces of whole rows of about `_PIECE_CELLS` cells,
formatted `_SLICE_CELLS` cells at a time (~90 bytes of temporaries per cell).
They are read in pieces of whole lines of about ``_PIECE_CELLS * _WINDOW``
bytes (1.5 MB) into one buffer and decoded once, in kernel runs of about
``_SLICE_CELLS * _WINDOW`` bytes (384 KB of lines, some 2**14 to 2**15 cells
at ~70 bytes of temporaries each, which stay in a 2 MB L2 cache), each a
time-major block of rows.  `read_ensemble_rows` hands the blocks on;
`read_ensemble_csv` first counts the rows from their line-end bytes, so that
its array is allocated once.  So the memory beyond a table's own arrays is
one piece and one run, not the file's text.  Every CSV file, the figure CSVs
included, is written by `write_csv`; files and strings are read by one UTF-8
byte reader, so parsing a string holds about its UTF-8 bytes and one piece.
"""

from __future__ import annotations

import contextlib
import functools
import io
import math

import numpy as np

from .errors import SchemaError
from .processes import Ensemble, TimeGrid

_PIECE_CELLS = 2 ** 16  # cells in one piece of rows: 512 KB of float64
_SLICE_CELLS = 2 ** 14  # cells formatted at once: ~90 bytes of temporaries each
_WINDOW = 24  # bytes of a cell's number before its exponent that the parse reads


def _split(a):
    """Veltkamp's split: ``a == hi + lo``, each half with at most 26 bits."""
    c = a * 134217729.0  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POWERS = 10.0 ** np.arange(21)  # 10**0 .. 10**20, all exact doubles
_POWERS_HI, _POWERS_LO = _split(_POWERS)


def _scaled(a, e):
    """``(hi, lo)``: ``a * 10**(16 - e)`` rounded to a double, and the exact
    rest (Dekker's product)."""
    p_hi, p_lo = _POWERS_HI.take(16 - e), _POWERS_LO.take(16 - e)
    hi = a * _POWERS.take(16 - e)
    a_hi, a_lo = _split(a)
    # lo = a_lo*p_lo - (((hi - a_hi*p_hi) - a_lo*p_hi) - a_hi*p_lo), in place
    lo = a_hi * p_hi
    np.subtract(hi, lo, out=lo)
    lo -= np.multiply(a_lo, p_hi, out=p_hi)
    lo -= np.multiply(a_hi, p_lo, out=a_hi)
    return hi, np.subtract(np.multiply(a_lo, p_lo, out=a_lo), lo, out=lo)


# A fixed-notation cell is laid into five 8-byte words: its sign, the "0.000"
# that leads e < 0, its leading digit and a point slot, then the other 16
# digits in four groups of four, each digit followed by a point slot; the last
# slot holds the separator.  A negative cell's digits carry its sign as an
# 18th digit (1), whose word from `_LEAD` writes "-"; a positive cell's drops
# that byte.  Which other bytes a cell drops depends only on its decimal
# exponent e (-4..16) and the place of its last nonzero digit (0..16).  A
# dropped byte is set to 0xFF, which no UTF-8 text contains, and deleted at the
# end.
_LEAD = np.frombuffer(b"".join(b"%c0.000%d." % (sign, d) for sign in b"\xff-"
                               for d in range(10)), np.uint64)
# `_PAIRS[0, p]` and `_PAIRS[1, p]`: the low and the high half of a word
# holding "d.d." of the two digits p, 0..99.
_PAIRS = np.frombuffer(b"".join(b"%c.%c." % tuple(b"%02d" % p) for p in range(100)),
                       np.uint32).astype(np.uint64) << np.uint64([[0], [32]])


@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray]:
    """``(place, drop)``, built on first use, so that runs which write no CSV
    do not hold them.  ``place[g]`` is the place (1..4) of the last nonzero
    digit of the group of four digits g, 1..9999, and -16 for g = 0, so that
    it stays below 0 when a group's offset (0..12) is added.  ``drop[(e + 4) *
    17 + last]`` has 0xFF in each byte of the five words that a cell with
    decimal exponent e and last nonzero digit at place ``last`` does not
    write."""
    place = np.full(10000, 4, np.int8)
    place[::10], place[::100], place[::1000], place[0] = 3, 2, 1, -16
    e, last = np.ogrid[-4:17, 0:17]
    keep = np.zeros((21, 17, 40), bool)
    keep[..., 1:6] = np.arange(5) < np.where(e < 0, 1 - e, 0)[..., None]
    keep[..., 6::2] = np.arange(17) <= np.maximum(e, last)[..., None]
    keep[..., 7::2] = np.arange(17) == np.where(last > e, e, -1)[..., None]
    keep[..., 0] = keep[..., -1] = True
    return place, (np.uint8(0xFF) * ~keep).reshape(-1, 40).view(np.uint64)


_FILL = np.uint64(2 ** 64 - 1)  # a word of dropped bytes


def _seventeen_digits(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(e, d)`` for each ``1e-4 <= a < 1e17``: ``d * 10**(e - 16)`` is ``a``
    rounded to 17 significant digits, half to even, with ``10**16 <= d <
    10**17``."""
    e = np.floor(np.log10(a)).astype(np.intp)
    np.clip(e, -4, 16, out=e)
    hi, lo = _scaled(a, e)
    # log10 may round across a power of ten: make e exact.
    fix = ((hi > 1e17) | (hi == 1e17) & (lo >= 0)).astype(np.int8)
    fix -= (hi < 1e16) | (hi == 1e16) & (lo < 0)
    if fix.any():
        e += fix
        hi, lo = _scaled(a, e)
    # hi >= 1e16 > 2**53 is an even integer, so rint's ties to even round
    # hi + lo as %.17g does.  No double rounds up to 10**17: the largest one
    # below a power of ten is more than 5e-17 of it below.
    d = hi.astype(np.int64)
    d += np.rint(lo, out=lo).astype(np.int64)
    return e.astype(np.int8), d


def _digit_words(d: np.ndarray, cells: np.ndarray, place: np.ndarray) -> np.ndarray:
    """Write the 17 digits ``d`` (consumed), plus 10**17 for a negative cell,
    into the last five words of ``cells``; return the place of each one's last
    nonzero digit, from `_tables`' ``place``."""
    high = d // 10 ** 8
    d -= high * 10 ** 8
    lead = high // 10 ** 8
    cells[:, -5] = _LEAD.take(lead)
    high -= lead * 10 ** 8
    del lead
    last = np.zeros(d.size, np.int8)
    for k, half in enumerate((high, d)):
        group = half // 10 ** 4
        half -= group * 10 ** 4
        for j, g in enumerate((group, half), 2 * k):
            np.maximum(last, place.take(g) + np.int8(4 * j), out=last)
            pair = g // 100
            g -= pair * 100
            pair = _PAIRS[0].take(pair)  # drops the index before the next lookup
            np.bitwise_or(pair, _PAIRS[1].take(g), out=cells[:, j - 4])
    return last


def _render(x: np.ndarray, seps: np.ndarray, words) -> bytearray:
    """The bytes of the cells ``x``, each as ``'%.17g' % x`` followed by its
    separator byte from ``seps``.  A cell whose entry in the object array
    ``words`` (or None) is a str is that text instead."""
    place, drop = _tables()  # built, once, before this slice's arrays
    a = np.abs(x)
    other = np.flatnonzero(~((a >= 1e-4) & (a < 1e17)))  # nan is one
    a[other] = 1.0
    e, d = _seventeen_digits(a)
    del a
    d += 10 ** 17 * (x < 0)
    texts = ["%.17g" % v for v in x[other].tolist()]
    if words is not None:
        texts = [t if w is None else w for t, w in zip(texts, words[other].tolist())]
    data = [text.encode("utf-8") for text in texts]
    width = max(5, max(map(len, data), default=0) // 8 + 1)  # words per cell
    out = bytearray(8 * width * x.size)
    cells = np.frombuffer(out, np.uint64).reshape(x.size, width)
    cells[:, :-5] = _FILL
    code = _digit_words(d, cells, place) + 17 * (e.astype(np.intp) + 4)
    del e, d  # before the gather's temporary, as wide as `cells`
    cells[:, -5:] |= drop.take(code, axis=0)
    if data:  # right-aligned against the separator
        cells[other] = _FILL
        lengths = np.array([len(b) for b in data])
        ends = (other + 1) * (8 * width) - 1
        at = np.arange(lengths.sum()) + np.repeat(ends - np.cumsum(lengths), lengths)
        np.frombuffer(out, np.uint8)[at] = np.frombuffer(b"".join(data), np.uint8)
    cells.view(np.uint8)[:, -1] = seps
    del code, cells  # translate takes a second buffer as long as `out`
    return out.translate(None, b"\xff")


def _table_bytes(header: list[str], columns):
    """Yield `render_csv`'s UTF-8 bytes: the header line, then each piece of
    rows a slice of cells at a time.  A 2-D array in ``columns`` is a block of
    number columns, one per row of it."""
    blocks = [column if getattr(column, "ndim", 1) == 2 else [column] for column in columns]
    flat = [column for block in blocks for column in block]
    lengths = [len(column) for column in flat]
    is_text = [len(column) > 0 and isinstance(column[0], str) for column in flat]
    n_cols, n_rows = len(flat), max(lengths)
    row_seps = np.full(n_cols, ord(","), np.uint8)
    row_seps[-1] = ord("\n")
    step = max(1, _PIECE_CELLS // n_cols)
    yield (",".join(header) + "\n").encode("utf-8")
    for lo in range(0, n_rows, step):
        hi = min(lo + step, n_rows)
        values, words = np.zeros((hi - lo, n_cols)), None
        if not any(is_text) and min(lengths) >= hi:  # numbers only: a copy per block
            j = 0
            for block in blocks:
                part = (block[:, lo:hi] if isinstance(block, np.ndarray)
                        else [block[0][lo:hi]])
                values.T[j:j + len(part)] = part
                j += len(part)
        else:  # text or padding: column by column
            words = np.full((hi - lo, n_cols), None, object)
            for j, (column, text) in enumerate(zip(flat, is_text)):
                part = column[lo:hi]
                if text:
                    words[:len(part), j] = part
                else:
                    values[:len(part), j] = part
                words[len(part):, j] = ""
        values, seps = values.reshape(-1), np.tile(row_seps, hi - lo)
        for start in range(0, values.size, _SLICE_CELLS):
            stop = min(start + _SLICE_CELLS, values.size)
            yield _render(values[start:stop], seps[start:stop],
                          None if words is None else words.reshape(-1)[start:stop])


def render_csv(header: list[str], columns) -> str:
    """Render a table given column by column: numbers as ``%.17g``, strings
    as they are, and empty cells past the end of a shorter column."""
    return "".join(piece.decode("utf-8") for piece in _table_bytes(header, columns))


def write_csv(path, header: list[str], columns) -> None:
    with open(path, "wb") as fh:
        fh.writelines(_table_bytes(header, columns))


def ensemble_table(ensemble: Ensemble) -> tuple[list[str], list]:
    """The header and columns of an ensemble's CSV: its times, then its
    values matrix as one block of columns, one per instance."""
    header = ["time"] + [f"inst_{i}" for i in range(ensemble.num_instances)]
    return header, [ensemble.grid.times, ensemble.values]


def ensemble_to_csv(ensemble: Ensemble) -> str:
    return render_csv(*ensemble_table(ensemble))


# The parse kernel reads each cell's number before its exponent right-aligned
# in a window of `_WINDOW` bytes: window place j is byte j % 8 of word j // 8.
_EACH = 0x0101010101010101  # times a byte: that byte in each byte of a word
# `_KEEP[k, i]`: 0xFF in each byte of word k from window place i on.
_KEEP = np.array([[2 ** 64 - 2 ** (8 * min(max(i - 8 * k, 0), 8))
                   for i in range(_WINDOW + 1)] for k in range(3)], np.uint64)


@functools.cache
def _pow5_limbs() -> np.ndarray:
    """Column q + 342 for q in -342..308: 5**q scaled to 128 bits, truncated
    for q >= 0 and rounded up for q < 0 as in Eisel–Lemire's table, as its high
    and low 64 bits.  Built on first use, as `_tables` is."""
    limbs = np.empty((2, 651), np.uint64)
    for q in range(-342, 309):
        z = (5 ** -q).bit_length() if q < 0 else 0
        c = (5 ** q << 128 if q >= 0 else
             2 ** (z + 127 if q >= -27 else 2 * z + 128) // 5 ** -q + 1)
        c >>= c.bit_length() - 128
        limbs[:, q + 342] = c >> 64, c & 2 ** 64 - 1
    return limbs


def _high(a, b):
    """The high 64 bits of the 128-bit products of uint64 ``a`` and ``b``
    (overwritten), from four 32 x 32-bit products."""
    a1, a0, b1 = a >> 32, a & 0xFFFFFFFF, b >> 32
    b &= 0xFFFFFFFF
    hi = a1 * b1
    a1 *= b  # the cross products, then a0 * b0 in b
    b1 *= a0
    b *= a0
    b >>= 32  # the middle 64 bits, whose high half carries into hi
    for cross in (a1, b1):
        hi += np.right_shift(cross, 32, out=a0)
        b += np.bitwise_and(cross, 0xFFFFFFFF, out=a0)
    hi += np.right_shift(b, 32, out=a0)
    return hi


_PAD = b" " * _WINDOW + b"\n"  # the bytes a window may read before the first line


def _parse_cells(data, n_columns: int, lo: int = 0, hi: int | None = None):
    """The float64 cells of the lines ``data[lo:hi]`` (bytes or bytearray, each
    line ended by LF) in file order, if each line has ``n_columns`` cells and
    each cell matches ``-?D+(.D+)?(e[+-]D{1,3})?`` with at most 19 significant
    digits and a zero or normal finite value; else None.  Values are rounded
    correctly, as loadtxt rounds them.  The lines are read in place when the
    `_WINDOW` bytes and the LF before ``lo`` are there, else behind `_PAD`."""
    hi = len(data) if hi is None else hi
    if lo <= _WINDOW or data[lo - 1] != ord("\n"):
        data, lo, hi = _PAD + data[lo:hi], len(_PAD), len(_PAD) + hi - lo
    if hi == lo or data[hi - 1] != ord("\n"):
        return None
    start = lo - 1  # the LF before the first line: byte _WINDOW of `buf`
    buf = np.frombuffer(data, np.uint8, hi - start + _WINDOW, start - _WINDOW)
    body = buf[_WINDOW:]
    seps = body == ord("\n")  # cell i lies between separators seps[i] and seps[i + 1]
    n_lines = np.count_nonzero(seps) - 1
    seps = np.flatnonzero(np.logical_or(seps, body == ord(","), out=seps))
    seps += _WINDOW
    n = seps.size - 1
    if n != n_lines * n_columns or (buf[seps[n_columns::n_columns]] != ord("\n")).any():
        return None
    lead = seps[:-1] - seps[1:] + (_WINDOW + 1)  # the window place of a cell's first byte
    negative = buf[seps[:-1] + 1] == ord("-")
    q = np.zeros(n, np.int16)  # a cell is its digits' integer w times 10**q
    if data.find(b"e", lo, hi) >= 0:  # an exponent: 'e', a sign and one to three digits
        e = np.flatnonzero(body == ord("e")) + _WINDOW
        cell = np.searchsorted(seps, e) - 1
        end, sign = seps[cell + 1], buf[e + 1]
        n_digits = end - e - 2
        digits = np.lib.stride_tricks.sliding_window_view(buf, 3)[end - 3] - ord("0")
        digits[np.arange(3) < 3 - n_digits[:, None]] = 0
        if ((n_digits < 1) | (n_digits > 3) | (sign != ord("+")) & (sign != ord("-"))
                | (digits > 9).any(axis=1)).any():
            return None
        exponent = digits @ np.array([100, 10, 1], np.int16)
        q[cell] = np.where(sign == ord("-"), -exponent, exponent)
        lead[cell] += end - e
        seps[cell + 1] = e  # the window ends before the 'e'
    bad = (lead < 0) | (lead + negative >= _WINDOW)  # longer than the window, or no digit
    lead = np.clip(lead + negative, 0, _WINDOW).astype(np.int8)  # the first digit's place
    seps -= _WINDOW
    # One record of the window's bytes per cell, then v[k, i]: word k of cell i's
    windows = np.ndarray(buf.size - _WINDOW + 1, f"V{_WINDOW}", data, start - _WINDOW, (1,))
    v = np.ascontiguousarray(windows[seps[1:]].view(np.uint64).reshape(n, 3).T)
    del seps, windows, buf, body, data
    # Digits become the bytes 0-9 and the point 0x1E, the bytes before the
    # first digit 0.  Bit j of `points` is set if window place j holds a point.
    v ^= _EACH * ord("0")
    points, t = np.zeros(n, np.uint64), np.empty(n, np.uint64)
    for k in range(3):
        v[k] &= _KEEP[k].take(lead)
        np.bitwise_xor(v[k], _EACH * 0x1E, out=t)
        t += _EACH * 0x7F  # top bit clear in a point's byte only; gather those bits
        points |= (~t & _EACH * 0x80) * 0x2040810204081 >> 56 << 8 * k
    dot = np.bitwise_count(points ^ (points - 1)) & 31  # 1 + the point's place, or 0
    bad |= (dot == lead + 1) | (dot == _WINDOW)  # no digit before or after the point
    q -= np.where(dot, _WINDOW - dot, 0)  # the digits after the point
    del points, lead
    w, above = np.zeros(n, np.uint64), np.zeros(n, np.uint64)
    for k in (2, 1, 0):
        x = v[k]  # delete the point: the bytes before it move one place on
        np.left_shift(x, 8, out=t)
        if k:
            t |= v[k - 1] >> 56
        x ^= t
        x &= _KEEP[k].take(dot)
        x ^= t
        above |= (x + _EACH * 0x76) | x  # top bit set in a byte above 9
        x *= 2561  # eight digits to an integer: pairs, then halves of four
        x >>= 8
        np.right_shift(x, 16, out=t)
        t &= 0xFF000000FF
        t *= 1 + (10000 << 32)
        x &= 0xFF000000FF
        x *= 100 + (1000000 << 32)
        x += t
        x >>= 32
        if not k:
            bad |= x >= 1000  # more than 19 digits
        w += x * 10 ** (16 - 8 * k)
    bad |= (above & _EACH * 0x80).astype(bool)
    del v, x, t, above, dot
    zero = w == 0
    w |= zero
    return _eisel_lemire(w, q, negative, zero, bad)


def _eisel_lemire(w, q, negative, zero, bad):
    """The doubles ``(-1)**negative * w * 10**q``, correctly rounded (Lemire,
    "Number parsing at a gigabyte per second", 2021), or None if `bad` or any
    nonzero one is not normal and finite or is too close to call."""
    scale = w.astype(np.float64).view(np.uint64) >> 52  # 1022 + w's bits, or 1023 +
    w <<= 1086 - scale
    fix = (w >> 63) ^ 1
    w <<= fix  # normalized: the top bit is set
    scale = (scale - fix).astype(np.int16)  # 1086 - the shift
    power = np.clip(q + 342, 0, 650)
    bad |= power != q + 342
    limbs = _pow5_limbs()
    hi = _high(w, limbs[0].take(power))
    # Bits below the mantissa that are all 1 may carry from the low half of
    # 5**q, and all 0 may be a halfway case: both are redone exactly.
    if (near := np.flatnonzero(hi + 1 & 0x1FF <= 1)).size:
        x, p, h = w[near], power[near], hi[near]
        lo = x * limbs[0].take(p)
        extra = _high(x, limbs[1].take(p)) * (h & 0x1FF == 0x1FF)
        lo += extra
        h += lo < extra
        bad[near] |= (h & 0x1FF == 0x1FF) & (lo == 2 ** 64 - 1)  # too close to call
        hi[near] = h
    upper = hi >> 63
    mantissa = np.right_shift(hi, 9 + upper, out=w)
    if near.size:  # exactly halfway between two doubles: to even, not up
        m = mantissa[near]
        tie = (lo <= 1) & (q[near] >= -4) & (q[near] <= 23) & (m & 3 == 1)
        mantissa[near] = m & ~(tie & (m << 9 + (h >> 63) == h)).astype(np.uint64)
    exponent = np.multiply(q, np.int64(217706), out=hi.view(np.int64))
    exponent >>= 16  # floor(log2(10**q))
    exponent += upper.view(np.int64)
    exponent += scale
    bad |= (exponent < 1) & ~zero
    carry = np.bitwise_and(mantissa, 1, out=upper)  # round half up to 53 bits
    mantissa += carry
    mantissa >>= 1
    np.right_shift(mantissa, 53, out=carry)
    mantissa >>= carry
    exponent += carry.view(np.int64)
    bad |= (exponent > 2046) & ~zero
    if bad.any():
        return None
    mantissa &= 2 ** 52 - 1
    mantissa |= exponent.view(np.uint64) << 52
    mantissa[zero] = 0
    mantissa[negative] |= 1 << 63
    return mantissa.view(np.float64)


def _parse_piece(piece: list, header: list[str], source: str) -> np.ndarray:
    """Parse ``(file line number, line)`` rows; raise at the first faulty one."""
    lines = [line for _, line in piece]
    data = "".join(line + "\n" for line in lines).encode("utf-8", "surrogateescape")
    if (block := _parse_cells(data, len(header))) is not None:
        return block.reshape(len(lines), len(header))
    values = []
    for number, line in piece:
        if len(cells := line.split(",")) != len(header):
            raise SchemaError(f"{source}:{number}: expected {len(header)} columns, "
                              f"got {len(cells)}")
        for name, cell in zip(header, cells):
            text = cell.strip()
            try:  # float()'s numbers without "_" or non-ASCII characters
                if not text.isascii() or "_" in text:
                    raise ValueError(text)
                value = float(text)
            except ValueError:
                raise SchemaError(f"{source}:{number}: bad value {cell!r} "
                                  f"in column {name!r}") from None
            if not math.isfinite(value):
                raise SchemaError(f"{source}:{number}: non-finite value "
                                  f"{value} in column {name!r}")
            values.append(value)
    return np.array(values).reshape(len(lines), len(header))


def _pieces(open_binary):
    """Yield ``(buf, end)`` for the binary stream ``open_binary()``, opened and
    closed here, read about ``_PIECE_CELLS * _WINDOW`` bytes at a time:
    ``buf[len(_PAD):end]`` holds whole lines, each ended by LF, CRLF or CR (an
    LF ends an unended last line), behind `_PAD`.  No piece splits a CRLF pair,
    and the next piece overwrites ``buf``."""
    start = rest = len(_PAD)
    buf = bytearray(start + _PIECE_CELLS * _WINDOW)
    buf[:start] = _PAD
    with open_binary() as fh:
        while n := fh.readinto(memoryview(buf)[rest:]):
            end = rest + n
            # after the last LF, or the last CR that a later byte shows is no CRLF
            cut = max(buf.rfind(b"\n", start, end), buf.rfind(b"\r", start, end - 1)) + 1
            if cut:
                yield buf, cut
                buf[start:start + end - cut] = buf[cut:end]
                end += start - cut
            rest = end
            if rest == len(buf):  # a line longer than the buffer
                buf = buf + bytearray(len(buf))
        if rest > start:
            if buf[rest - 1] != ord("\r"):
                buf[rest] = ord("\n")
                rest += 1
            yield buf, rest


def _rows_in(buf, end: int) -> int:
    """The lines in ``buf[len(_PAD):end]``, a piece from `_pieces`, that are not
    blank: the line ends that follow neither a line end nor the pad's LF."""
    b = np.frombuffer(buf, np.uint8, end - _WINDOW, _WINDOW)
    ends = b == ord("\n")
    if buf.find(b"\r", _WINDOW, end) >= 0:
        ends |= b == ord("\r")
    return int(np.count_nonzero(ends[1:] > ends[:-1]))


def _header(buf, end: int, source: str) -> tuple[list[str], int]:
    """The checked header, the first line of the first piece ``buf[len(_PAD):
    end]``, and where the next line starts, past its LF, CRLF or CR."""
    lf, cr = buf.find(b"\n", len(_PAD), end), buf.find(b"\r", len(_PAD), end)
    stop = min(i for i in (lf, cr) if i >= 0)  # a piece ends in a line end
    first = buf[len(_PAD):stop].decode("utf-8", "surrogateescape")
    header = first.split(",")
    if header[0] != "time" or len(header) < 2:
        raise SchemaError(
            f"{source}: expected header 'time,inst_0,...', got {first!r}")
    for i, name in enumerate(header[1:]):
        if name != f"inst_{i}":
            raise SchemaError(f"{source}: unexpected column {name!r} at position {i + 1}")
    return header, stop + 1 + (buf[stop:stop + 2] == b"\r\n")


def _time_rows(pieces, source: str, take) -> TimeGrid:
    """Parse ``pieces()`` (see `_pieces`; closed here, on an error too) in one
    decode pass; return the grid of its time column.  ``take`` gets each
    kernel run's rows below the header in turn: a time-major (rows x
    instances) float64 block, with contiguous rows, that it may overwrite."""
    header, times, number, step = None, [], 2, _SLICE_CELLS * _WINDOW
    with contextlib.closing(pieces()) as stream:
        for buf, end in stream:
            lo = len(_PAD)
            if header is None:
                header, lo = _header(buf, end, source)
            cr = buf.find(b"\r", lo, end) >= 0  # CRLF and CR lines are decoded below
            while lo < end:
                hi = buf.find(b"\n", lo + step - 1, end) + 1 or end
                block = None if cr else _parse_cells(buf, len(header), lo, hi)
                if block is not None:
                    block = block.reshape(-1, len(header))
                    number += len(block)
                else:  # decoded as `io.TextIOWrapper(newline=None)` decodes it
                    lines = buf[lo:hi].splitlines()
                    rows = [(number + i, line.decode("utf-8", "surrogateescape"))
                            for i, line in enumerate(lines) if line]
                    block = _parse_piece(rows, header, source)
                    number += len(lines)
                times.append(block[:, 0].copy())  # not a view that holds the block
                if len(block):  # a run of blank lines has no rows
                    take(block[:, 1:])
                del block  # before the next run's temporaries
                lo = hi
    if header is None:
        raise SchemaError(f"{source}: empty file")
    times = np.concatenate([np.empty(0), *times])
    if times.size < 2:
        raise SchemaError(f"{source}: need at least 2 grid rows")
    dts = np.diff(times)
    dt = float(dts[0])
    if dt <= 0.0 or np.any(np.abs(dts - dt) > 1e-9 * max(1.0, abs(dt))):
        raise SchemaError(f"{source}: time column is not a uniform grid")
    if abs(times[0]) > 1e-12:
        raise SchemaError(f"{source}: time grid must start at 0, got {times[0]}")
    return TimeGrid(dt=dt, n_steps=times.size - 1)


def _parse_lines(pieces, source: str) -> Ensemble:
    """Count the rows of ``pieces()`` (each call starts over; see `_pieces`)
    from their line ends, so that the ensemble's array is allocated once, then
    fill it from `_time_rows`."""
    n_rows = sum(_rows_in(*piece) for piece in pieces()) - 1  # the header is a row
    values, done = None, 0

    def fill(rows):
        nonlocal values, done
        if values is None:
            values = np.empty((rows.shape[1], n_rows))
        if done + len(rows) > n_rows:
            raise SchemaError(f"{source}: file changed while being read")
        values[:, done:done + len(rows)] = rows.T
        done += len(rows)

    grid = _time_rows(pieces, source, fill)
    if done != n_rows:  # the file lost rows between the two passes
        raise SchemaError(f"{source}: file changed while being read")
    return Ensemble(grid=grid, values=values, spec=None, seed=None)


def parse_ensemble_csv(text: str, source: str = "<input>") -> Ensemble:
    """Parse the `time,inst_0,...` schema back into an Ensemble.

    Every cell must be a finite number; errors in a row name its file line as
    ``source:LINE:``.  Lines end in LF, CRLF or CR, as `read_ensemble_csv`
    reads them.  The returned ensemble carries no spec/seed provenance.
    """
    data = text.encode("utf-8", "surrogatepass")
    return _parse_lines(lambda: _pieces(functools.partial(io.BytesIO, data)), source)


def read_ensemble_csv(path) -> Ensemble:
    """`parse_ensemble_csv` of a UTF-8 file; a byte that is not UTF-8 is a bad value."""
    return _parse_lines(lambda: _pieces(functools.partial(open, path, "rb")), str(path))


def read_ensemble_rows(path, take) -> TimeGrid:
    """Stream the file ``path`` to ``take`` as blocks of time rows (see
    `_time_rows`), holding no ensemble array; return its grid."""
    return _time_rows(lambda: _pieces(functools.partial(open, path, "rb")), str(path), take)
