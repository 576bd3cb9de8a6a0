"""The one writer behind every CSV export."""

from __future__ import annotations

import numpy as np


def emit(header, columns, path_or_buf=None) -> str | None:
    """CSV text: one ``header`` line, then one row per entry of equal-length ``columns``.

    Comma-separated with no quoting and LF line endings.  Each column is read
    by ``tolist()``, so integers print in plain form, floats by ``repr`` (which
    reads back to the same double) and strings as they are, each distinct bit
    pattern once.  The text is returned when no target is given; else it is
    written to a path (opened and closed here) or to a file object (left open).
    """
    cells = []
    for col in map(np.asarray, columns):   # gains repeat over fading blocks, levels over pools
        keys = col.view(f"u{col.itemsize}") if col.dtype.kind in "biuf" else col
        keys, index = np.unique(keys, return_inverse=True)
        texts = np.array([str(v) for v in keys.view(col.dtype).tolist()], dtype=object)
        cells.append(texts[index].tolist())
    text = ",".join(header) + "\n" + "".join(",".join(row) + "\n" for row in zip(*cells))
    if path_or_buf is None:
        return text
    if isinstance(path_or_buf, (str, bytes)) or hasattr(path_or_buf, "__fspath__"):
        with open(path_or_buf, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        path_or_buf.write(text)
    return None
