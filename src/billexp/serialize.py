"""Artifact bytes: the one place results become JSON or CSV files.

JSON artifacts have sorted keys, a two-space indent and a trailing newline;
floats are written as Python's shortest round-trip ``repr``.  CSV artifacts
have a header line, ``\\n`` line endings and floats written with ``%.17g``;
both spellings read back to the same double bit for bit.  An empty CSV cell
(JSON ``null``) marks a depth past a component explosion, which has no sum.
NaN and Infinity appear nowhere: a non-finite float raises ValueError
instead of reaching a file.  Files are written through a unique temp file
plus a rename, so partial output never lands under the final name; a JSON
artifact streams to its temp file in pieces (``json_pieces``), written
by a direct encoder that gives ``json.dumps``' text.
"""

from __future__ import annotations

import math
import os
import tempfile
from json.encoder import encode_basestring_ascii


def json_pieces(doc):
    """The JSON artifact for doc as str pieces: the text of ``json.dumps(doc,
    sort_keys=True, indent=2, allow_nan=False)``, each piece ending at the
    chunk that takes it past 32,768 characters (about 50 report rows), then
    a newline; so a report need not be held as text, which with an indent
    costs many times its size."""
    piece, size = [], 0
    for chunk in _chunks(doc, "\n", {}):
        piece.append(chunk)
        size += len(chunk)
        if size >= 32_768:
            yield "".join(piece)
            piece, size = [], 0
    piece.append("\n")
    yield "".join(piece)


def json_bytes(doc) -> bytes:
    """The JSON artifact for doc."""
    return "".join(json_pieces(doc)).encode()


def _float(x) -> str:
    if x != x or x in (math.inf, -math.inf):
        raise ValueError(
            f"Out of range float values are not JSON compliant: {x!r}")
    return float.__repr__(x)


def _key(k) -> str:
    """A dict key as ``json`` writes it, before quoting."""
    if isinstance(k, str):
        return k
    if isinstance(k, float):
        return _float(k)
    if k is True or k is False or k is None:
        return _leaf(k, "")
    if isinstance(k, int):
        return int.__repr__(k)
    raise TypeError(f"keys must be str, int, float, bool or None, not "
                    f"{k.__class__.__name__}")


def _leaf(o, newline):
    """The text of o when it is a scalar, a non-empty list of plain ints
    and floats, or a non-empty dict of such values and lists, else None;
    ``newline`` is a newline and the indent of o's line.  A list of numbers
    is joined at once: a non-finite float spells "inf" or "nan", and no
    finite float or int has an "n" in it."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None or o is True or o is False:
        return "null" if o is None else "true" if o else "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float(o)
    if not isinstance(o, (list, tuple, dict)):
        raise TypeError(f"Object of type {o.__class__.__name__} "
                        "is not JSON serializable")
    if not o:
        return None
    inner = newline + "  "
    if isinstance(o, dict):
        items = []
        for k, v in sorted(o.items()):
            text = None if isinstance(v, dict) else _leaf(v, inner)
            if text is None:
                return None
            items.append(encode_basestring_ascii(_key(k)) + ": " + text)
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if not all(type(x) is int or type(x) is float for x in o):
        return None
    text = ("," + inner).join(map(repr, o))
    if "n" in text:
        for x in o:
            if type(x) is float:
                _float(x)
    return "[" + inner + text + newline + "]"


def _chunks(o, newline, open_ids):
    """The text of o as ``json``'s indenting encoder writes it, in chunks;
    ``newline`` is a newline and the indent of o's line, and ``open_ids``
    the containers o lies in, for the encoder's circular-reference check.
    The encoder's choices are kept: its order of type tests, sorted items,
    ``float.__repr__`` and ``int.__repr__``.  A ``_leaf``, such as one row
    of a report, is one chunk."""
    text = _leaf(o, newline)
    if text is not None:
        yield text
        return
    if not o:
        yield "{}" if isinstance(o, dict) else "[]"
        return
    if id(o) in open_ids:
        raise ValueError("Circular reference detected")
    open_ids[id(o)] = o
    inner = newline + "  "
    if isinstance(o, dict):
        sep, close = "{", "}"
        items = ((encode_basestring_ascii(_key(k)) + ": ", v)
                 for k, v in sorted(o.items()))
    else:
        sep, close = "[", "]"
        items = (("", v) for v in o)
    for head, v in items:
        text = _leaf(v, inner)
        if text is None:
            yield sep + inner + head
            yield from _chunks(v, inner, open_ids)
        else:
            yield sep + inner + head + text
        sep = ","
    yield newline + close
    del open_ids[id(o)]


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        if not math.isfinite(v):
            raise ValueError(f"non-finite float {v!r} in CSV output")
        return "%.17g" % v
    return str(v)


def csv_text(header, rows) -> str:
    """The CSV artifact for the given column names and rows of values."""
    lines = [",".join(header)]
    lines.extend(",".join(map(_cell, row)) for row in rows)
    return "\n".join(lines) + "\n"


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


def write_atomic(path: str, data) -> None:
    """Write data (bytes, a str, or an iterable of str pieces, str as UTF-8)
    to path through a unique temp file in the same directory and a rename;
    the temp file is removed on failure, also one raised by the pieces."""
    if isinstance(data, (str, bytes)):
        data = [data]
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as f:
            for piece in data:
                f.write(piece.encode() if isinstance(piece, str) else piece)
        # mkstemp creates the file 0600; give it the mode open() would
        os.chmod(tmp, 0o666 & ~_umask())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
