"""CSV engine of the package: rows rendered from word tables, files written all or
nothing.

Each value reads as ``"%.6f" % x`` gives it.  :func:`_fixed_rows` renders a block of
rows from four tables of 4-byte ASCII words when it can prove the rounding exact, and
:func:`_rows` %-formats a block it declines.  :func:`_write` writes every CSV the
package writes, in the blocks its caller cuts, under temporary names, and renames them
once the last block is written.  The CLI imports this module only where it writes a
CSV, so ``validate`` and ``matrix`` never compile it.
"""

from __future__ import annotations

import contextlib
import errno
import functools
import os
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

_CSV_ROW = "%.6f,%.6f,%.6f,%.6f\n"
#: |x| below this keeps |x|*1e6 under 2**52, where one ulp is at most 0.5
_FIXED_MAX = 4.5e9


def _ascii_words(form, values=range(1000)):
    """One uint32 word per ``form % value``, each 4 ASCII bytes, spaces read as NULs."""
    import numpy as np

    text = form * len(values) % tuple(values)
    return np.frombuffer(text.replace(" ", "\0").encode("ascii"), dtype=np.uint32)


@functools.cache
def _csv_tables():
    """The word tables of _fixed_rows: units, high, fraction_high, fraction_low."""
    import numpy as np

    # one 3-digit group of the whole part: 2000*sign + value when every higher
    # group is 0 (no padding, the sign before the first digit), 2000*sign + 1000
    # + value otherwise (zero-padded, no sign)
    padded = _ascii_words("\0%03d")
    negated = _ascii_words("%4d", range(0, -1000, -1))
    units = np.concatenate([_ascii_words("%4d"), padded, negated, padded])
    units[2000] = _ascii_words("%4s", ["-0"])[0]  # "%4d" % -0 reads "   0"
    # the same above the units group, where a leading 0 shows nothing, not even the sign
    high = units.copy()
    high[[0, 2000]] = 0
    fraction_high = _ascii_words(".%03d")
    fraction_low = np.concatenate([_ascii_words("%03d,"), _ascii_words("%03d\n")])
    return units, high, fraction_high, fraction_low


def _fixed_rows(angles: np.ndarray, coords: np.ndarray) -> bytes | None:
    """CSV text of the rows ``(angles[i], *coords[:, i])``, each value as ``"%.6f" % x``
    gives it.

    Rounds |x|*1e6 to an integer count u of millionths and renders it from the word
    tables.  Below 2**52 both |x|*1e6 and u are multiples of one ulp (at most 0.5),
    and the exact product lies within half an ulp, so a distance under 0.5 proves u
    is the correctly rounded one.  u < 4.5e15, so u / 1e6 < 2**33, and half an ulp
    of that quotient (at most 4.8e-7) is less than its 1e-6 distance from the next
    integer: flooring it splits off the whole part exactly, and the same holds for
    the smaller quotients by 1e3 below.  Returns None when the rows hold a value
    where the proof fails: a non-finite value, |x| >= _FIXED_MAX, or a tie
    |x|*1e6 = k + 0.5.
    """
    import numpy as np

    scaled = np.empty((4, angles.size))  # one row per CSV column
    scaled[0] = angles
    scaled[1:] = coords
    # the max and the min are NaN when any value is, and fail the test
    if not (scaled.max() < _FIXED_MAX and -scaled.min() < _FIXED_MAX):
        return None
    sign = np.signbit(scaled) * np.int16(2000)  # where a negative value's words start
    scaled *= 1e6
    np.abs(scaled, out=scaled)
    units = np.rint(scaled)
    np.subtract(scaled, units, out=scaled)
    np.abs(scaled, out=scaled)
    if not scaled.max() < 0.5:
        return None
    whole = scaled
    np.divide(units, 1e6, out=whole)
    np.floor(whole, out=whole)
    whole *= 1e6  # exact: an integer below 2**53, and so is its quotient by 1e6
    units -= whole  # the fraction's millionths
    whole /= 1e6
    units_group, high_group, fraction_high, fraction_low = _csv_tables()
    groups = (len(str(int(whole.max()))) + 2) // 3  # of the widest whole part
    words = np.empty((angles.size, 4, groups + 2), dtype=np.uint32)
    index = np.empty(words.shape[:2], dtype=np.intp)  # of the words' (row, column) order
    column = index.T  # in the order of scaled
    # each quotient is non-negative, so the cast to index truncates it to its floor
    np.divide(units, 1e3, out=column, casting="unsafe")
    words[..., groups] = fraction_high[index]
    column *= -1000
    np.add(column, units, out=column, casting="unsafe")
    column[3] += 1000  # the last column ends in the row's newline, the others in a comma
    words[..., groups + 1] = fraction_low[index]
    # the 3-digit groups of the whole part from the units up, each zero-padded when a
    # nonzero group follows; the top one is below 1000 and never padded
    for k in range(groups - 1):
        np.divide(whole, 1e3, out=column, casting="unsafe")
        column *= -1000
        np.add(column, whole, out=column, casting="unsafe")
        column += (whole >= 1000) * np.int16(1000)
        column += sign
        words[..., groups - 1 - k] = (high_group if k else units_group)[index]
        np.divide(whole, 1e3, out=whole)
        np.floor(whole, out=whole)
    np.add(whole, sign, out=column, casting="unsafe")
    words[..., 0] = (high_group if groups > 1 else units_group)[index]
    # each array goes before the next copy of the text is made, so that at most two
    # copies are held at a time
    del scaled, whole, units, index, column, sign
    text = words.tobytes()
    del words
    return text.translate(None, b"\0")


def _rows(angles, block) -> bytes:
    """The CSV rows ``angles[i], *block[:, i]``: those of :func:`_fixed_rows`, or
    %-formatted where it declines.  Both give the bytes of ``f"{x:.6f}"``, ``-0.000000``
    included."""
    text = _fixed_rows(angles, block)
    if text is None:
        import numpy as np

        values = np.column_stack([angles, block.T]).ravel().tolist()
        text = (_CSV_ROW * angles.size % tuple(values)).encode("ascii")
    return text


def _write(out, files, chunks) -> list[str]:
    """Write one CSV in ``out`` per ``(name, header)`` of ``files``, its rows those of the
    matching (3, n) block of each ``(angles, [block, ...])`` that ``chunks`` yields, and
    return the ``wrote <path>`` lines for the caller's report.  Every CSV the package
    writes goes through here; each block is rendered by one :func:`_rows` call.

    All or nothing: a destination that is a directory is refused before anything is
    made; each CSV is written under a temporary name and renamed once the last chunk is
    written.  On any other failure, making ``out`` or computing a chunk included, the
    temporaries, the CSVs already renamed and the directories this call created are
    removed before the error propagates.
    """
    made = []  # the directories makedirs creates, innermost first
    head = os.path.abspath(out)
    while not os.path.exists(head):
        made.append(head)
        head = os.path.dirname(head)
    paths = [os.path.join(out, name) for name, _ in files]
    for path in paths:
        if os.path.isdir(path):  # a rename onto it would fail after older CSVs were replaced
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    temps = [os.path.join(out, f".{name}.tmp") for name, _ in files]
    done = []
    try:
        os.makedirs(out, exist_ok=True)
        with contextlib.ExitStack() as stack:
            handles = [stack.enter_context(open(temp, "wb")) for temp in temps]
            for handle, (_, header) in zip(handles, files):
                handle.write(header.encode("ascii") + b"\n")
            for angles, blocks in chunks:
                # each block is dropped once written: the heap reuses its memory for the
                # blocks after it instead of returning it, and the next chunk starts empty
                for handle in handles:
                    handle.write(_rows(angles, blocks.pop(0)))
                del angles
        for temp, path in zip(temps, paths):
            os.replace(temp, path)
            done.append(path)
    except BaseException:
        for path in temps + done:
            with contextlib.suppress(OSError):
                os.remove(path)
        for path in made:
            with contextlib.suppress(OSError):
                os.rmdir(path)
        raise
    return [f"wrote {path}" for path in paths]
