"""Canonical, byte-stable emission of JSON and CSV artifacts.

Every float is rendered with %.17g so a value survives a round trip exactly;
dict keys are sorted.  Writers go through a temp file plus rename so partial
output never lands under the final name.
"""

from __future__ import annotations

import json
import math
import os
import tempfile


def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("non-finite float in canonical output")
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return format(x, ".17g")


def canon_dumps(obj, indent: int = 0) -> str:
    """Deterministic JSON text: sorted keys, 17-significant-digit floats."""
    pad = " " * indent
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for k in sorted(obj):
            if not isinstance(k, str):
                raise TypeError(f"non-string key {k!r}")
            items.append(f"{pad}  {json.dumps(k)}: "
                         + canon_dumps(obj[k], indent + 2))
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [pad + "  " + canon_dumps(v, indent + 2) for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    # numpy scalars and the like
    if hasattr(obj, "item"):
        return canon_dumps(obj.item(), indent)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


def write_atomic(path: str, data) -> None:
    """Write data (str as UTF-8) to path through a unique temp file in the
    same directory and a rename; the temp file is removed on failure."""
    if isinstance(data, str):
        data = data.encode()
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        # mkstemp creates the file 0600; give it the mode open() would
        os.chmod(tmp, 0o666 & ~_umask())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def csv_text(header, rows) -> str:
    """Flat CSV with canonical float formatting and \\n line endings."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, float):
                cells.append(_fmt_float(v))
            elif isinstance(v, bool):
                cells.append("1" if v else "0")
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
