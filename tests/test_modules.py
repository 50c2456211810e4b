"""Package structure: billexp modules and the demos use only the public names
of other billexp modules."""

import ast
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import billexp

SRC = pathlib.Path(billexp.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"
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
    files = sorted(SRC.glob("*.py")) + sorted(DEMOS.glob("*.py"))
    bad = {f"{p.parent.name}/{p.name}": uses for p in files
           if (uses := private_uses(p))}
    assert bad == {}


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def public_definitions(path):
    """The public functions and classes defined at the top of the file, as
    'name', and the public methods and properties in the bodies of its
    classes, as 'Class.name'."""
    tree = ast.parse(path.read_text(), filename=str(path))
    out = {node.name for node in tree.body
           if isinstance(node, (*_FUNCTIONS, ast.ClassDef))
           and not node.name.startswith("_")}
    out.update(f"{node.name}.{m.name}" for node in tree.body
               if isinstance(node, ast.ClassDef) for m in node.body
               if isinstance(m, _FUNCTIONS) and not m.name.startswith("_"))
    return out


def named(path):
    """Every name the file's code reads, as a name, an attribute or an
    import; docstrings and comments name nothing."""
    tree = ast.parse(path.read_text(), filename=str(path))
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update(a.name.rpartition(".")[2] for a in node.names)
    return out


def dead_public_names(files, package=SRC):
    """'module.name' of each public function or class of a module in the
    package directory that no file names and ``billexp.__all__`` does not
    list, and 'module.Class.name' of each public method or property that no
    file names.  A definition does not name itself."""
    used = set().union(*map(named, files))
    return {f"{p.stem}.{name}" for p in files if p.parent == package
            for name in public_definitions(p)
            if name.rpartition(".")[2] not in used
            and name not in billexp.__all__}


def test_no_dead_public_names():
    files = sorted(SRC.glob("*.py")) + sorted(DEMOS.glob("*.py"))
    assert dead_public_names(files) == set()


def test_dead_name_detector(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    \"\"\"dead is named here, in a docstring\"\"\"\n"
        "def dead():\n    pass\n"
        "class Kind:\n"
        "    def called(self):\n        return self.size\n"
        "    @property\n    def size(self):\n        return 1\n"
        "    def unused(self):\n        pass\n"
        "    def _private(self):\n        pass\n"
        "def _private():\n    pass\n"
        "def forward():\n    pass\n")
    (tmp_path / "b.py").write_text("from .a import used\nx = m.Kind\n"
                                   "y = x().called()\n")
    assert dead_public_names(sorted(tmp_path.glob("*.py")), tmp_path) \
        == {"a.dead", "a.Kind.unused"}


# record fields that nothing in the package or the demos reads, kept on
# purpose, each with its reason
UNREAD_ON_PURPOSE = {
    "singularities.SectorPortrait.full_circle":
        "a public record field that the gates and the portrait tests read",
    "singularities.ComplexityRecord.quadrant_counts":
        "a public record field that the gates and the portrait tests read",
    "ucurves.FittedConstants.k_complexity":
        "written to the report by asdict",
}


def _is_record(node):
    """Whether the class is a @dataclass or a NamedTuple."""
    def last(e):
        e = e.func if isinstance(e, ast.Call) else e
        return e.attr if isinstance(e, ast.Attribute) else getattr(e, "id", "")

    return ("dataclass" in map(last, node.decorator_list)
            or "NamedTuple" in map(last, node.bases))


def record_fields(path):
    """'module.Class.field' of each annotated name in the body of a
    @dataclass or NamedTuple class that the file defines."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return {f"{path.stem}.{node.name}.{s.target.id}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and _is_record(node)
            for s in node.body
            if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)}


def read_names(path):
    """Every name the file loads as an attribute, and every string constant
    of its code; docstrings read nothing."""
    tree = ast.parse(path.read_text(), filename=str(path))
    docs = {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, *_FUNCTIONS))
            and node.body and isinstance(node.body[0], ast.Expr)}
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docs):
            out.add(node.value)
    return out


def unread_fields(files, package=SRC):
    """Each record field of a module in the package directory whose name no
    file reads (``read_names``)."""
    read = set().union(*map(read_names, files))
    return {name for p in files if p.parent == package
            for name in record_fields(p)
            if name.rpartition(".")[2] not in read}


def test_no_unread_record_fields():
    files = sorted(SRC.glob("*.py")) + sorted(DEMOS.glob("*.py"))
    assert unread_fields(files) == set(UNREAD_ON_PURPOSE)


def test_unread_field_detector(tmp_path):
    (tmp_path / "a.py").write_text(
        "from dataclasses import dataclass\n"
        "import dataclasses, typing\n"
        "@dataclass(frozen=True)\n"
        "class Rec:\n"
        "    \"\"\"gone\"\"\"\n"
        "    loaded: int\n"
        "    stored: int\n"
        "    keyed: int = 0\n"
        "    gone: int = 0\n"
        "    LIMIT = 3\n"
        "@dataclasses.dataclass\n"
        "class Other:\n"
        "    spelled: str\n"
        "class Pair(typing.NamedTuple):\n"
        "    left: float\n"
        "    right: float\n"
        "class Plain:\n"
        "    hint: int\n"
        "def f(rec, pair):\n"
        "    \"\"\"spelled, right\"\"\"\n"
        "    rec.stored = 1\n"
        "    return getattr(rec, 'keyed'), pair.left\n")
    (tmp_path / "b.py").write_text(
        "def g(rec):\n    return rec.loaded\n")
    assert unread_fields(sorted(tmp_path.glob("*.py")), tmp_path) \
        == {"a.Rec.stored", "a.Rec.gone", "a.Other.spelled", "a.Pair.right"}


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


def function_imports(path):
    """(line, statement) of each import of a billexp module inside a
    function body; a module imports the package's modules at its top, so
    that every import shows which way the layers point."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, _FUNCTIONS):
            continue
        for node in ast.walk(fn):
            if (isinstance(node, ast.ImportFrom)
                    and _package_module(node) is not None
                    or isinstance(node, ast.Import) and any(
                        a.name.partition(".")[0] == "billexp"
                        for a in node.names)):
                found.add((node.lineno, ast.unparse(node)))
    return sorted(found)


def test_no_function_level_package_imports():
    bad = {p.name: found for p in sorted(SRC.glob("*.py"))
           if (found := function_imports(p))}
    assert bad == {}


def test_function_import_detector(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from . import flow\n"
                     "import os\n"
                     "def f():\n"
                     "    from . import bmap\n"
                     "    from concurrent.futures import ThreadPoolExecutor\n"
                     "    import json, billexp.tables\n"
                     "    def g():\n"
                     "        from billexp.flow import reflect\n"
                     "        import math\n"
                     "    return bmap, g\n"
                     "class Kind:\n"
                     "    def m(self):\n"
                     "        from .errors import OutOfRange\n"
                     "        return OutOfRange\n")
    assert function_imports(probe) == [
        (4, "from . import bmap"), (6, "import json, billexp.tables"),
        (8, "from billexp.flow import reflect"),
        (13, "from .errors import OutOfRange")]


def unused_imports(path):
    """(line, name) of each name that the file imports and its code never
    loads.  ``__future__`` imports, the names that the file's ``__all__``
    lists and the imports on a line marked ``# noqa: F401`` are exempt."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text, filename=str(path))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read.update(ast.literal_eval(node.value))
    found = []
    for node in ast.walk(tree):
        if (not isinstance(node, (ast.Import, ast.ImportFrom))
                or getattr(node, "module", None) == "__future__"
                or any("# noqa: F401" in line
                       for line in lines[node.lineno - 1:node.end_lineno])):
            continue
        found.extend((node.lineno, name) for a in node.names
                     if (name := a.asname or a.name.partition(".")[0])
                     not in read)
    return sorted(found)


def test_no_unused_imports():
    files = [p for d in (SRC, DEMOS, ROOT / "tests", ROOT / "tools")
             for p in sorted(d.glob("*.py"))]
    bad = {f"{p.parent.name}/{p.name}": found for p in files
           if (found := unused_imports(p))}
    assert bad == {}


def test_unused_import_detector(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from __future__ import annotations\n"
                     "import os, sys as system\n"
                     "import numpy.linalg\n"
                     "from json import (dumps,\n"
                     "                  loads)\n"
                     "from math import pi  # noqa: F401\n"
                     "from re import (  # noqa: F401\n"
                     "    sub)\n"
                     "from math import tau, e\n"
                     "__all__ = ['tau']\n"
                     "def f():\n"
                     "    \"\"\"dumps\"\"\"\n"
                     "    return os.sep, numpy.linalg.norm, loads\n"
                     "system = 'e'\n")
    assert unused_imports(probe) == [(2, "system"), (4, "dumps"), (9, "e")]


def _fresh_run(cwd, argv):
    """The status of ``cli.run(argv)`` in a fresh interpreter started in
    cwd, and the names of the modules loaded after it."""
    code = ("import json, sys\n"
            "from billexp import cli\n"
            f"status = cli.run({argv!r})\n"
            "print(json.dumps([status, sorted(sys.modules)]))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def _within(modules, packages):
    """The modules that are one of the packages or lie inside one."""
    return [m for m in modules
            if any(m == p or m.startswith(p + ".") for p in packages)]


def test_an_expansion_run_loads_no_scipy(tmp_path):
    """scipy is a test-only oracle: importing the CLI and running a small
    expansion in a fresh interpreter loads no scipy module."""
    status, modules = _fresh_run(tmp_path, [
        "expansion", "--table", "tri", "--N", "2", "--samples", "8",
        "--seed", "61", "--out", "e.json"])
    assert status == 0 and _within(modules, ["scipy"]) == []


def test_an_expansion_run_loads_only_numpys_core(tmp_path):
    """A fitted expansion run loads neither numpy's random streams
    (``bmap.Stream`` ports them), nor numpy.ma, nor concurrent.futures,
    which only ``--threads`` above 1 imports; with 2 threads it writes the
    same bytes."""
    argv = ["expansion", "--table", "tri", "--fit", "--N", "auto",
            "--samples", "8", "--seed", "61"]
    status, modules = _fresh_run(tmp_path, argv + ["--out", "one.json"])
    assert status == 0
    assert _within(modules, ["numpy.random", "numpy.ma",
                             "concurrent.futures"]) == []
    status, _ = _fresh_run(tmp_path, argv + ["--threads", "2",
                                             "--out", "two.json"])
    assert status == 0
    assert (tmp_path / "two.json").read_bytes() \
        == (tmp_path / "one.json").read_bytes()


def numpy_random_uses(path):
    """(line, name) of each import of numpy.random or of a name in it, and
    of each ``random`` attribute of ``np`` or ``numpy``, in the file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value,
                                                             ast.Name):
            head = "numpy" if node.value.id == "np" else node.value.id
            names = [f"{head}.{node.attr}"]
        else:
            continue
        found.extend((node.lineno, name) for name in names
                     if name == "numpy.random"
                     or name.startswith("numpy.random."))
    return sorted(found)


def test_the_package_names_no_numpy_random():
    bad = {p.name: uses for p in sorted(SRC.glob("*.py"))
           if (uses := numpy_random_uses(p))}
    assert bad == {}


def test_numpy_random_detector(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import numpy as np\n"
                     "import numpy.random\n"
                     "from numpy import random as r, pi\n"
                     "from numpy.random import default_rng\n"
                     "x = np.random.default_rng(1)\n"
                     "y = numpy.random\n"
                     "z = rng.random(), np.pi, random.random()\n")
    assert numpy_random_uses(probe) == [
        (2, "numpy.random"), (3, "numpy.random"),
        (4, "numpy.random.default_rng"), (5, "numpy.random"),
        (6, "numpy.random")]


def third_party_imports(files):
    """The top-level names of the modules that the files import, anywhere
    in their code, other than the standard library's and billexp's."""
    out = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                out.update(a.name.partition(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                out.add(node.module.partition(".")[0])
    return out - set(sys.stdlib_module_names) - {"billexp"}


def test_runtime_imports_are_the_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower()
                for dep in project["dependencies"]}
    assert third_party_imports(sorted(SRC.glob("*.py"))) == declared
