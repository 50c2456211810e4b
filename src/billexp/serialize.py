"""Artifact bytes: the one place results become JSON or CSV files.

JSON artifacts have sorted keys, a two-space indent and a trailing newline;
floats are written as Python's shortest round-trip ``repr``.  CSV artifacts
have a header line, ``\\n`` line endings and floats written with ``%.17g``;
both spellings read back to the same double bit for bit.  An empty CSV cell
(JSON ``null``) marks a depth past a component explosion, which has no sum.
NaN and Infinity appear nowhere: a non-finite float raises ValueError
instead of reaching a file.  Files are written through a unique temp file
plus a rename, so partial output never lands under the final name; a JSON
artifact streams to its temp file in pieces (``json_pieces``).
"""

from __future__ import annotations

import itertools
import json
import math
import os
import tempfile


def json_pieces(doc):
    """The JSON artifact for doc as str pieces: the text of ``json.dumps(doc,
    sort_keys=True, indent=2, allow_nan=False)``, a few thousand of its
    encoder's small chunks to a piece, then a newline; so a report need not
    be held as text, which with an indent costs many times its size."""
    chunks = json.JSONEncoder(sort_keys=True, indent=2,
                              allow_nan=False).iterencode(doc)
    while piece := "".join(itertools.islice(chunks, 4096)):
        yield piece
    yield "\n"


def json_bytes(doc) -> bytes:
    """The JSON artifact for doc."""
    return "".join(json_pieces(doc)).encode()


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
