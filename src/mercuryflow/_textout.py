"""The one writer behind every CSV export."""

from __future__ import annotations


def emit(text: str, path_or_buf=None) -> str | None:
    """Return ``text`` when no target is given; else write it to a path or file object.

    A path is opened and closed here; a file object is written and left open.
    """
    if path_or_buf is None:
        return text
    if isinstance(path_or_buf, (str, bytes)) or hasattr(path_or_buf, "__fspath__"):
        with open(path_or_buf, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        path_or_buf.write(text)
    return None
