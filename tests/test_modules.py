"""Package structure: billexp modules use only each other's public names."""

import ast
import pathlib

import billexp

SRC = pathlib.Path(billexp.__file__).parent
MODULES = {p.stem for p in SRC.glob("*.py")}


def _package_module(node):
    """For an import from billexp, the module path below the package ('' for
    the package itself); None for an import from elsewhere."""
    if node.level == 1:
        return node.module or ""
    head, _, rest = (node.module or "").partition(".")
    return rest if node.level == 0 and head == "billexp" else None


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def private_uses(path):
    """(line, 'module._name') of each private name of another billexp module
    that the file imports or reads as an attribute."""
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases = {}          # local name -> the billexp module bound to it
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = _package_module(node)
        if module is None:
            continue
        for a in node.names:
            if module == "" and a.name in MODULES:
                aliases[a.asname or a.name] = a.name
            elif _private(a.name):
                found.append((node.lineno, f"{module}.{a.name}"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            found.append((node.lineno,
                          f"{aliases[node.value.id]}.{node.attr}"))
    return sorted(found)


def test_no_private_cross_imports():
    bad = {p.name: uses for p in sorted(SRC.glob("*.py"))
           if (uses := private_uses(p))}
    assert bad == {}


def test_private_use_detector(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from . import flow\n"
                     "from .flow import _cw_from, reflect\n"
                     "from billexp import tables as t\n"
                     "from billexp.bmap import _fly\n"
                     "x = flow._corner_wall_frames\n"
                     "y = t._arc_between\n"
                     "z = flow.reflect, flow.__name__\n")
    assert private_uses(probe) == [(2, "flow._cw_from"), (4, "bmap._fly"),
                                   (5, "flow._corner_wall_frames"),
                                   (6, "tables._arc_between")]
