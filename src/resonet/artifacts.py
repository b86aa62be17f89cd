"""The artifact bytes: every artifact file is written here, and every float in it formatted here.

All artifacts are written atomically (temp file, then rename) with floats
rendered at %.9g (tables by the numpy kernel _g9, single values by _fmt), so
a rerun over the same scenario reproduces byte-identical files.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from functools import cache
from pathlib import Path
from typing import Iterable, Iterator, TextIO

import numpy as np

from . import evolve

__all__ = ["trajectory_to_csv"]


def _fmt(x: float) -> str:
    return format(x, ".9g")


def _jsonable(obj):
    """Round floats through %.9g and name non-finite values, recursively."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return [_jsonable(float(obj.real)), _jsonable(float(obj.imag))]
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            return _fmt(x)
        return float(f"{x:.9g}")
    return obj


@contextlib.contextmanager
def _atomic_file(path: Path) -> Iterator[TextIO]:
    """A text file that replaces `path` when the block completes; a failed write leaves `path` as it was."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w") as fh:
            yield fh
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


def _write_text(path: Path, text: str) -> None:
    with _atomic_file(path) as fh:
        fh.write(text)


def _write_json(path: Path, payload: dict) -> None:
    _write_text(path, json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n")


def _svg_series(times: np.ndarray, values: np.ndarray, label: str, out: TextIO) -> None:
    """A single polyline on fixed 800x500 axes, written to the open text file `out`; deterministic text output.

    The points are formatted and written in evolve._blocks chunks, so only
    one chunk's text is ever held, whatever the length of the series.
    """
    width, height = 800.0, 500.0
    left, right, top, bottom = 70.0, 780.0, 30.0, 460.0
    t0, t1 = float(times[0]), float(times[-1])
    v0, v1 = float(np.min(values)), float(np.max(values))
    if t1 <= t0:
        t1 = t0 + 1.0
    if v1 - v0 < 1e-12:
        pad = max(abs(v0) * 0.1, 0.5)
        v0, v1 = v0 - pad, v1 + pad
    sx = (right - left) / (t1 - t0)
    sy = (bottom - top) / (v1 - v0)
    out.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width:g} {height:g}">\n'
        f'<rect width="{width:g}" height="{height:g}" fill="white"/>\n'
        f'<line x1="{left:g}" y1="{bottom:g}" x2="{right:g}" y2="{bottom:g}" stroke="black"/>\n'
        f'<line x1="{left:g}" y1="{top:g}" x2="{left:g}" y2="{bottom:g}" stroke="black"/>\n'
        f'<text x="{(left + right) / 2:g}" y="490" text-anchor="middle" font-size="14">time</text>\n'
        f'<text x="15" y="{(top + bottom) / 2:g}" font-size="14" '
        f'transform="rotate(-90 15 {(top + bottom) / 2:g})" text-anchor="middle">{label}</text>\n'
        f'<text x="{left:g}" y="478" text-anchor="middle" font-size="12">{_fmt(t0)}</text>\n'
        f'<text x="{right:g}" y="478" text-anchor="middle" font-size="12">{_fmt(t1)}</text>\n'
        f'<text x="{left - 6:g}" y="{bottom:g}" text-anchor="end" font-size="12">{_fmt(v0)}</text>\n'
        f'<text x="{left - 6:g}" y="{top + 4:g}" text-anchor="end" font-size="12">{_fmt(v1)}</text>\n'
        '<polyline fill="none" stroke="#1f77b4" stroke-width="1.5" points="'
    )
    sep = ""
    for rows in evolve._blocks(times.size, 2):  # two coordinates per point
        xy = np.column_stack((left + (times[rows] - t0) * sx, bottom - (values[rows] - v0) * sy))
        out.write(sep + " ".join(["%.2f,%.2f"] * len(xy)) % tuple(xy.ravel().tolist()))
        sep = " "
    out.write('"/>\n</svg>\n')


@cache
def _ascii_words() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The uint32 words, four ASCII bytes each with NUL for nothing, that _g9 assembles its text from.

    Built on the first call, so commands that write no CSV never pay for it.

    groups: 3 digits of 0..999 at v + 1000 (2 c + t).  The decimal point
    follows digit c of the group for c = 1, 2, 3; c = 0 puts the group after
    the point and c = 4 before it.  t = 1 says every later digit of the
    number is 0, so the group's trailing fraction zeros read NUL, and its
    point too when no fraction digit is left ("1.20" -> "1.2", "1.00" -> "1").
    head: [separator, sign, "0", "."] at s + 13 (negative + 2 separator),
    with "0." for s >= 9 (no integer digit) and separators ",", newline and
    none.  zeros: the fraction's leading zeros, max(0, s - 9) of them, at s.
    s = 8 - E for the decimal exponent E.  offsets[g, s]: where the groups of
    digits 1-3, 4-6 and 7-9 (g = 0, 1, 2) find their class c, and t = 1 for
    the last group, which nothing follows.
    """
    v = np.arange(1000)[:, None]
    digits = 48 + v // np.array([100, 10, 1]) % 10
    zero_from = v % np.array([1000, 100, 10]) == 0  # digits k.. of the group are all 0
    nul = np.zeros_like(v)
    groups = []
    for c in range(5):
        first = 0 if c == 0 else min(c, 3)  # the group's first fraction digit
        for t in (0, 1):
            chars = np.where(zero_from & (np.arange(3) >= first) & bool(t), 0, digits)
            if 1 <= c <= 3:
                point = np.where(t and (first == 3 or zero_from[:, first : first + 1]), 0, 46 + nul)
                groups.append(np.hstack([chars[:, :c], point, chars[:, c:]]))
            else:
                groups.append(np.hstack([chars, nul]))
    s = np.arange(13)
    point = np.where((s >= 9)[:, None], [48, 46], 0)
    head = [
        np.hstack([np.full((13, 1), sep), np.full((13, 1), sign), point])
        for sep in (44, 10, 0)
        for sign in (0, 45)
    ]
    zeros = np.where(np.arange(4) < np.maximum(0, s - 9)[:, None], 48, 0)
    offsets = 2000 * np.clip(9 - np.array([[0], [3], [6]]) - s, 0, 4) + np.array([[0], [0], [1000]])
    words = (np.concatenate(w).astype(np.uint8).view(np.uint32).ravel() for w in (groups, head, [zeros]))
    return (*words, offsets)


_POW10 = np.array([10**k for k in range(14)], dtype=float)  # exact doubles


def _g9(values: np.ndarray, column: int, width: int) -> str:
    """The text of "%.9g" % v for each value, each followed by "," or, at a row's last column, "\\n".

    values (1-D, nonempty) starts at `column` of rows `width` values wide,
    so a piece may begin or end inside a row.  Each value gets five 4-byte
    words from the tables of _ascii_words, padded with NUL, which are
    dropped at the end.  The first word holds the separator that precedes
    the value (none for values[0]) and the sign; the separator after the
    last value is appended.

    A finite value in [9e-5, 9.99e8) whose rounded decimal exponent E lies
    in [-4, 8] is printed in fixed notation from the 9 significant digits
    m = rint(|x| 10^s), s = 8 - E, 10^8 <= m < 10^9: 10^s <= 10^14 is an
    exact double, so the product has one rounding, below 1.2e-7 for
    m < 10^9.  s comes from floor(log10 |x|), and m = 10^9 carries into
    E + 1.  A value whose product lands outside [10^8, 10^9) (floor(log10)
    one off next to a power of ten) or within 1e-6 of a half-integer (where
    that rounding could decide the last digit), and every other value (0,
    -0, inf, nan, exponent notation), is formatted by "%.9g" itself, so the
    text is exactly Python's, value by value.
    """
    groups, heads, zeros, offsets = _ascii_words()
    count = values.size
    a = np.abs(values)
    fast = (a >= 9e-5) & (a < 9.99e8)
    np.copyto(a, 1.0, where=~fast)  # keeps log10 finite; these are formatted by "%.9g"
    s = (8.0 - np.floor(np.log10(a))).astype(np.intp)  # in [0, 13] for a in [9e-5, 9.99e8)
    y = a * _POW10[s]
    m = np.rint(y)
    # outside [10^8, 10^9) floor(log10) was one off, next to a power of ten
    fast &= (y >= 1e8) & (y < 1e9) & (np.abs(y - m) < 0.5 - 1e-6)
    carry = m == 1e9
    m[carry] = 1e8
    s -= carry
    fast &= s <= 12
    slow = ~fast
    np.copyto(m, 1e8, where=slow)
    np.copyto(s, 0, where=slow)
    digits = m.astype(np.int64)
    a_digits = digits // 1_000_000
    rest = digits - 1_000_000 * a_digits
    b_digits = rest // 1000
    c_digits = rest - 1000 * b_digits
    head = s + 13 * (values < 0.0)
    head[(width - column) % width :: width] += 26  # a row's first value follows a newline
    head[0] = head[0] % 26 + 52  # none before values[0]: the previous piece ended with it
    r = np.empty((count, 5), dtype=np.uint32)
    r[:, 0] = heads[head]
    r[:, 1] = zeros[s]
    r[:, 2] = groups[a_digits + offsets[0, s] + 1000 * (rest == 0)]
    r[:, 3] = groups[b_digits + offsets[1, s] + 1000 * (c_digits == 0)]
    r[:, 4] = groups[c_digits + offsets[2, s]]
    slow = np.flatnonzero(slow)
    if slow.size:  # after the separator byte
        text = b"".join(("%.9g" % v).encode().ljust(19, b"\0") for v in values[slow].tolist())
        r.view(np.uint8)[slow, 1:] = np.frombuffer(text, dtype=np.uint8).reshape(-1, 19)
    last = "\n" if (column + count) % width == 0 else ","
    return r.tobytes().translate(None, b"\0").decode("ascii") + last


def _csv_header(terms: int, n: int) -> str:
    """The CSV header line; its terms (terms - 1) / 2 coherence names live only while it is built."""
    first, second = np.triu_indices(terms, 1)
    header = ["time", *(f"occ_{m + 1}" for m in range(n)), "occ_total", "purity", "fidelity"]
    return ",".join(header + [f"coh_{a}_{b}" for a, b in zip(first, second)]) + "\n"


def trajectory_to_csv(blocks: Iterable[evolve.Block], out: TextIO) -> Iterator[evolve.Block]:
    """Write a label stream as CSV: time, per-resonator and total occupation, purity, fidelity, |c_rs| pairs.

    Each block is yielded on once its rows are written to the open text file
    `out`, so the caller sees the stream as it passes; nothing is written
    until the result is iterated.  Coherence columns cover ordered pairs
    r < s (0-based indices in the header), selected by an upper-triangle
    mask; every float is printed exactly as "%.9g" prints it, by a numpy
    kernel (_g9).  Each piece of text is formatted at once from the whole
    rows that evolve._blocks gives for the row width; a row wider than
    evolve._BLOCK_ELEMENTS is cut instead at the upper-triangle coefficient
    rows that evolve._blocks gives for terms per row, so neither the block size nor the
    row width sets how much is held.
    """
    spans = None
    for block in blocks:
        if spans is None:
            terms, n = block.coeffs.shape[-1], block.occupations.shape[-1]
            upper = np.triu(np.ones((terms, terms), dtype=bool), 1)
            out.write(_csv_header(terms, n))
            width = n + 4 + terms * (terms - 1) // 2
            spans = [slice(0, terms)] if width <= evolve._BLOCK_ELEMENTS else list(evolve._blocks(terms, terms))
        columns = (block.times, block.occupations, block.total_occupation, block.purity, block.fidelity)
        columns = [np.reshape(c, (block.times.size, -1)) for c in columns]
        for rows in evolve._blocks(block.times.size, width):
            head = [c[rows] for c in columns]
            column = 0  # of the piece's first value, when a row is cut
            for span in spans:
                # no view of the coefficients outlives the loop, so the next block forms without them
                values = np.hstack(head + [np.abs(block.coeffs[rows, span][:, upper[span]])])
                if values.size:  # the last coefficient row has no upper entry
                    out.write(_g9(values.ravel(), column, width))
                column += values.shape[1]
                head = []
        yield block
