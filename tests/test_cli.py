import contextlib
import io
import json
import pathlib
import tempfile
import xml.etree.ElementTree as ET

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from billexp import cli, geometry, singularities, tables, ucurves
from billexp.errors import SingularSeed, ValidationError


def run(*argv):
    return cli.run(list(argv))


@pytest.fixture(autouse=True)
def _workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


# ---------------------------------------------------------------------------
# exit codes

def test_validate_builtin_ok(capsys):
    assert run("validate", "--table", "tri") == 0
    out = capsys.readouterr().out
    assert "ok" in out and "tau_max" in out and "kappa" in out


def test_validate_unbounded_horizon(tmp_path, capsys):
    spec = {"ambient": "torus",
            "walls": [{"center": [0.5, 0.5], "radius": 0.25,
                       "theta_start": 0.0, "theta_end": 0.0,
                       "orientation": -1}]}
    path = tmp_path / "torus1.json"
    path.write_text(json.dumps(spec))
    assert run("validate", "--table", str(path)) == 2
    assert "UnboundedHorizon" in capsys.readouterr().err


def test_usage_errors(capsys):
    assert run() == 1
    assert run("no-such-command") == 1
    assert run("expansion", "--table", "tri", "--N", "2") == 1  # no seed
    assert "--seed" in capsys.readouterr().err
    assert run("orbit", "--table", "tri", "--r", "0.5") == 1    # no phi
    assert run("grazing-sum", "--table", "tri", "--seed", "1",
               "--samples", "-3") == 1
    assert run("expansion", "--table", "tri", "--seed", "1",
               "--N", "zero") == 1
    assert run("orbit", "--r", "0.5", "--phi", "0.1") == 1      # no table
    for n in ("0", "13"):    # depths outside 1..N_CAP
        assert run("evolve", "--table", "tri", "--r", "0.9", "--phi", "0.1",
                   "--n", n) == 1
    assert run("expansion", "--table", "tri", "--seed", "1",
               "--N", "13") == 1
    # the strip cap is fixed, neither a flag nor a config key
    capsys.readouterr()
    assert run("expansion", "--table", "tri", "--seed", "1",
               "--k-cap", "10000") == 1
    assert capsys.readouterr().err.startswith("billexp: usage error")
    pathlib.Path("kcap.json").write_text(json.dumps({"k_cap": 10000}))
    assert run("grazing-sum", "--table", "tri", "--seed", "1",
               "--config", "kcap.json") == 1
    assert capsys.readouterr().err.startswith("billexp: usage error")


def test_missing_table_file_is_validation_failure(capsys):
    assert run("validate", "--table", "nowhere.json") == 2


def _tri_with(**wall0):
    spec = tables.make_tri_spec()
    spec["walls"][0].update(wall0)
    return spec


@pytest.mark.parametrize("spec", [
    {"walls": [{"radius": 1}]}, [], _tri_with(radius="x"),
    {"ambient": "plane", "walls": "abc"}, _tri_with(radius=float("nan")),
    _tri_with(orientation=-1.5),
    # a lone disk scatterer: no boundary loop encloses the table
    {"ambient": "plane", "walls": [{"center": [0, 0], "radius": 1,
                                    "theta_start": 0, "theta_end": 0,
                                    "orientation": -1}]},
], ids=["missing-keys", "not-an-object", "radius-text", "walls-text",
        "radius-nan", "orientation-fraction", "unenclosed-disk"])
def test_malformed_table_spec_is_validation_failure(tmp_path, capsys,
                                                    monkeypatch, spec):
    def no_sampling(*args, **kwargs):
        raise AssertionError("validate sampled orbits of a refused table")

    monkeypatch.setattr(cli, "estimate_constants", no_sampling)
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    assert run("validate", "--table", "spec.json") == 2
    assert capsys.readouterr().err.startswith("billexp: ")
    with pytest.raises(ValidationError):
        geometry.build_table(spec)


# ---------------------------------------------------------------------------
# artifacts

def test_orbit_csv_deterministic(tmp_path):
    args = ("orbit", "--table", "tri", "--wall", "0", "--r", "0.7",
            "--phi", "0.3", "--n", "12", "--out", "o.csv")
    assert run(*args) == 0
    first = (tmp_path / "o.csv").read_bytes()
    lines = first.decode().splitlines()
    assert lines[0] == "step,wall_id,r,phi,tau,kind,properness,branch_label"
    assert len(lines) == 14
    kinds = {l.split(",")[5] for l in lines[1:]}
    assert kinds <= {"start", "regular", "corner", "grazing", "singular"}
    assert run(*args) == 0
    assert (tmp_path / "o.csv").read_bytes() == first


def test_write_is_atomic_and_cleans_up(tmp_path, monkeypatch, capsys):
    args = ("orbit", "--table", "tri", "--wall", "0", "--r", "0.7",
            "--phi", "0.3", "--n", "3", "--out", "o.csv")
    assert run(*args) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["o.csv"]
    with open(tmp_path / "plain", "w"):
        pass
    assert (tmp_path / "o.csv").stat().st_mode \
        == (tmp_path / "plain").stat().st_mode
    (tmp_path / "plain").unlink()
    first = (tmp_path / "o.csv").read_bytes()

    def refuse(src, dst):
        raise OSError("rename refused")

    with monkeypatch.context() as m:
        m.setattr("os.replace", refuse)
        assert run(*args[:-1], "other.csv") == 1
    assert "cannot write other.csv: rename refused" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["o.csv"]
    assert (tmp_path / "o.csv").read_bytes() == first


def test_singularities_csv_and_phase_svg(tmp_path):
    assert run("singularities", "--table", "tri", "--level", "-1",
               "--resolution", "120", "--out", "s.csv") == 0
    header = (tmp_path / "s.csv").read_text().splitlines()[0]
    assert header == "wall_id,r,phi,k"
    assert run("render", "--kind", "phase", "--input", "s.csv",
               "--table", "tri", "--out", "a.svg") == 0
    assert run("render", "--kind", "phase", "--input", "s.csv",
               "--table", "tri", "--out", "b.svg") == 0
    a = (tmp_path / "a.svg").read_bytes()
    assert a == (tmp_path / "b.svg").read_bytes()
    assert a.startswith(b"<svg ") and a.endswith(b"</svg>\n")


def test_portrait_json_and_svg(tmp_path):
    assert run("portrait", "--table", "tri", "--wall", "0",
               "--r", "1e-6", "--phi", "0.0", "--out", "p.json") == 0
    doc = json.loads((tmp_path / "p.json").read_text())
    assert set(doc) == {"center", "rho_hat", "order", "k0", "sectors"}
    assert run("render", "--kind", "portrait", "--input", "p.json",
               "--out", "p.svg") == 0
    svg = (tmp_path / "p.svg").read_bytes()
    assert b"path" in svg


@pytest.mark.parametrize("fmt", ["json", "svg"])
def test_portrait_partial_artifact_follows_format(tmp_path, monkeypatch,
                                                  fmt):
    # one halving cannot confirm a decomposition: the portrait aborts
    monkeypatch.setattr(singularities, "MAX_HALVINGS", 1)
    assert run("portrait", "--table", "tri", "--wall", "0", "--r", "1.31",
               "--phi", "-0.28", "--format", fmt) == 3
    text = (tmp_path / f"portrait.{fmt}").read_text()
    if fmt == "json":
        doc = json.loads(text, parse_constant=_refuse_constant)
        assert "did not stabilize" in doc["aborted"]
        first, last = doc["candidates"]
        assert last["rho_hat"] == 0.5 * first["rho_hat"]
        for cand in (first, last):
            assert set(cand) == {"center", "rho_hat", "order", "k0",
                                 "sectors"}
            assert cand["sectors"]
    else:
        assert ET.fromstring(text).tag.endswith("svg")


def test_portrait_active_shading_differs(tmp_path):
    doc = {"center": {"wall_id": 0, "r": 0.5, "phi": 0.0},
           "rho_hat": 1e-3, "order": 1, "k0": 30,
           "sectors": [
               {"theta_lo": 0.0, "theta_hi": 1.2,
                "itinerary": ["w1:regular:0"], "regular": True,
                "active": True, "type": "A"},
               {"theta_lo": 1.2, "theta_hi": 2.0, "itinerary": [],
                "regular": False, "active": False, "type": None}]}
    (tmp_path / "q.json").write_text(json.dumps(doc))
    assert run("render", "--kind", "portrait", "--input", "q.json",
               "--out", "q.svg") == 0
    svg = (tmp_path / "q.svg").read_text()
    assert 'fill="#cccccc"' in svg        # inactive: pale, dashed
    assert "stroke-dasharray" in svg
    assert 'fill-opacity="0.550000"' in svg   # active: solid type color


def test_evolve_json_and_csv(tmp_path):
    base = ("evolve", "--table", "tri", "--wall", "0", "--r", "1.0",
            "--phi", "0.3", "--length", "1e-4", "--n", "2")
    assert run(*base, "--out", "e.json") == 0
    doc = json.loads((tmp_path / "e.json").read_text())
    assert doc["expansion_sums"][0] == 1.0
    assert doc["components"][0] == 1
    assert len(doc["components"]) == 3
    assert run(*base, "--format", "csv", "--out", "e.csv") == 0
    header = (tmp_path / "e.csv").read_text().splitlines()[0]
    assert header == "wall_id,r,phi,k"


@pytest.mark.parametrize("fmt", ["json", "csv", "svg"])
def test_evolve_partial_artifact_follows_format(tmp_path, monkeypatch, fmt):
    monkeypatch.setattr(ucurves, "LEAF_CAP", 0)
    assert run("evolve", "--table", "tri", *_PT, "--n", "2",
               "--format", fmt) == 3
    text = (tmp_path / f"evolve.{fmt}").read_text()
    if fmt == "json":
        doc = json.loads(text, parse_constant=_refuse_constant)
        assert "exceeded 0 at depth 1" in doc["aborted"]
        assert doc["n"] == 1 and len(doc["expansion_sums"]) == 2
    elif fmt == "csv":
        assert text.splitlines()[0] == "wall_id,r,phi,k"
        _check_artifact(tmp_path / "evolve.csv")
    else:
        assert text.startswith("<svg ") and text.endswith("</svg>\n")


def test_format_table(tmp_path, capsys):
    # each command writes only its own formats, by default to
    # <command>.<format>; any other format is a usage error
    assert cli._parse(["expansion", "--table", "tri", "--format", "csv"])[
        "out"] == "expansion.csv"
    assert cli._parse(["orbit", "--table", "tri"])["out"] == "orbit.csv"
    assert cli._parse(["validate", "--table", "tri"])["out"] is None
    for cmd in cli.COMMANDS:
        assert cli._parse([cmd])["format"] == cli.FORMATS[cmd][0]
    refused = [("orbit", "json"), ("singularities", "json"),
               ("portrait", "csv"), ("grazing-sum", "svg"),
               ("expansion", "svg"), ("render", "json"),
               ("validate", "csv")]
    for cmd, fmt in refused:
        assert fmt not in cli.FORMATS[cmd]
        assert run(cmd, "--table", "tri", "--format", fmt) == 1
        assert "invalid choice" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    assert run("orbit", "--table", "tri", *_PT, "--n", "3",
               "--format", "svg") == 0
    assert (tmp_path / "orbit.svg").read_text().startswith("<svg ")


def test_render_unknown_kind(capsys):
    assert run("render", "--kind", "hologram", "--table", "tri") == 2
    assert "UnknownKind" in capsys.readouterr().err


def test_render_orbit_overlay(tmp_path):
    assert run("orbit", "--table", "torus2", "--wall", "0", "--r", "0.3",
               "--phi", "0.2", "--n", "8", "--out", "t.csv") == 0
    assert run("render", "--kind", "table", "--table", "torus2",
               "--input", "t.csv", "--out", "t.svg") == 0
    svg = (tmp_path / "t.svg").read_text()
    assert svg.count("<polyline") > 10   # walls + wrapped flight segments


# ---------------------------------------------------------------------------
# scans

def test_grazing_sum_deterministic(tmp_path):
    args = ("grazing-sum", "--table", "tri", "--samples", "20",
            "--seed", "11", "--out", "g.json")
    assert run(*args) == 0
    first = (tmp_path / "g.json").read_bytes()
    doc = json.loads(first)
    assert doc["used"] == 20 and doc["sup"] >= 0.0
    assert run(*args) == 0
    assert (tmp_path / "g.json").read_bytes() == first


def test_expansion_given_depth_and_threads(tmp_path):
    base = ("expansion", "--table", "tri", "--samples", "12",
            "--seed", "5", "--N", "2")
    assert run(*base, "--out", "r1.json", "--threads", "1") == 0
    assert run(*base, "--out", "r2.json", "--threads", "4") == 0
    r1 = (tmp_path / "r1.json").read_bytes()
    assert r1 == (tmp_path / "r2.json").read_bytes()
    doc = json.loads(r1)
    assert doc["verdict"]
    assert doc["n_source"] == "given"
    assert len(doc["sup_e"]) == 3
    assert "threads" not in doc

    assert run(*base, "--format", "csv", "--out", "r.csv") == 0
    header = (tmp_path / "r.csv").read_text().splitlines()[0]
    assert header == ("sample_id,curve_length,n,leaf_count,k_n,e_n,"
                      "grazing_sum")


def _skip_first_draw(monkeypatch):
    draw = ucurves._draw_curve

    def skip(*args, **kwargs):
        monkeypatch.setattr(ucurves, "_draw_curve", draw)
        raise SingularSeed("forced skip")

    monkeypatch.setattr(ucurves, "_draw_curve", skip)


def test_skipped_sample_has_no_csv_line(tmp_path, monkeypatch):
    base = ("--table", "tri", "--seed", "5", "--samples", "4",
            "--format", "csv")

    def lines(name):
        return (tmp_path / name).read_text().splitlines()[1:]

    _skip_first_draw(monkeypatch)
    assert run("expansion", *base, "--N", "1", "--out", "e.csv") == 0
    assert {line.split(",")[0] for line in lines("e.csv")} == {"1", "2", "3"}

    assert run("grazing-sum", *base, "--out", "all.csv") == 0
    _skip_first_draw(monkeypatch)
    assert run("grazing-sum", *base, "--out", "g.csv") == 0
    assert lines("g.csv") == lines("all.csv")[1:]


def test_expansion_auto_depth(tmp_path):
    assert run("expansion", "--table", "tri", "--samples", "8",
               "--seed", "5", "--out", "auto.json") == 0
    doc = json.loads((tmp_path / "auto.json").read_text())
    assert doc["n_source"] in ("select", "empirical")
    assert 1 <= doc["n_steps"] <= 12


# ---------------------------------------------------------------------------
# config file

def test_config_file_defaults_and_override(tmp_path):
    (tmp_path / "run.json").write_text(json.dumps(
        {"table": "tri", "samples": 20, "seed": 11}))
    assert run("grazing-sum", "--config", "run.json",
               "--out", "c1.json") == 0
    doc = json.loads((tmp_path / "c1.json").read_text())
    assert doc["samples"] == 20 and doc["seed"] == 11

    # explicit flag beats the config value
    assert run("grazing-sum", "--config", "run.json", "--samples", "10",
               "--out", "c2.json") == 0
    assert json.loads((tmp_path / "c2.json").read_text())["samples"] == 10


def test_config_unknown_key(tmp_path, capsys):
    (tmp_path / "bad.json").write_text(json.dumps({"tabel": "tri"}))
    assert run("grazing-sum", "--config", "bad.json", "--seed", "1") == 1
    assert "unknown config key" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# numeric input contract

def _refuse_constant(token):
    raise ValueError(f"non-JSON constant {token}")


def _check_artifact(path):
    text = path.read_text()
    if path.suffix == ".json":
        json.loads(text, parse_constant=_refuse_constant)
    else:
        lines = text.splitlines()
        width = len(lines[0].split(","))
        assert all(len(line.split(",")) == width for line in lines[1:])


_PT = ("--wall", "0", "--r", "0.9", "--phi", "0.1")
_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("argv,config,code", [
    (("portrait", "--table", "tri", "--rho", "nan", *_PT), None, 1),
    (("orbit", "--table", "tri", "--wall", "0", "--r", "nan",
      "--phi", "0.1"), None, 1),
    (("evolve", "--table", "tri", *_PT, "--length", "0.5"), None, 1),
    (("evolve", "--table", "tri", *_PT, "--length", "nan"), None, 1),
    (("expansion", "--table", "tri", "--seed", "1", "--delta", "0.05"),
     None, 1),
    (("expansion", "--table", "tri", "--seed", "1", "--delta", "inf"),
     None, 1),
    (("grazing-sum", "--table", "tri", "--seed", "1", "--delta", "nan"),
     None, 1),
    (("orbit", "--table", "tri", "--wall", "3", "--r", "0.9",
      "--phi", "0.1"), None, 2),
    (("orbit", "--table", "tri", "--wall", "-1", "--r", "0.9",
      "--phi", "0.1"), None, 2),
    (("orbit", "--table", "tri", "--wall", "0", "--r", "0.9",
      "--phi", "2"), None, 2),
    (("validate", "--table", "tri", "--out", "v.json"), {"samples": "10"},
     1),
    (("evolve", "--table", "tri", *_PT), {"k0": 2.5}, 1),
    (("expansion", "--table", "tri", "--seed", "1"), {"delta": _NAN}, 1),
    (("expansion", "--table", "tri", "--seed", "1"), {"fit": 1}, 1),
    (("evolve", "--table", "tri", *_PT, "--length", "1e-300"), None, 2),
])
def test_bad_numeric_input_is_refused(tmp_path, capsys, argv, config, code):
    if config is not None:
        (tmp_path / "run.json").write_text(json.dumps(config))
        argv = (*argv, "--config", "run.json")
    assert run(*argv) == code
    assert capsys.readouterr().err.startswith("billexp: ")
    assert sorted(p.name for p in tmp_path.iterdir()) \
        == (["run.json"] if config is not None else [])


_NUMBER = st.one_of(
    st.floats(), st.integers(),
    st.sampled_from([0, 0.0, -0.0, -1, _NAN, _INF, -_INF, 1e300, 10**40]))
_WRONG_TYPE = st.one_of(st.text(max_size=4), st.booleans(),
                        st.lists(st.integers(), max_size=2),
                        st.dictionaries(st.text(max_size=2), st.integers(),
                                        max_size=1))
# a valid sample count is a run of that length, not an error: keep the ones
# that parse small, and spell the huge ones as floats
_SAMPLES = st.one_of(st.integers(max_value=25), st.floats())
_VALUES = {"wall": _NUMBER, "r": _NUMBER, "phi": _NUMBER, "rho": _NUMBER,
           "length": _NUMBER, "delta": _NUMBER, "k0": _NUMBER,
           "samples": _SAMPLES}
_CONTRACT_RUNS = {
    "orbit": (("orbit", *_PT, "--n", "3"), ("wall", "r", "phi"), ".csv"),
    "evolve": (("evolve", *_PT, "--n", "1"),
               ("wall", "r", "phi", "length", "k0"), ".json"),
    "portrait": (("portrait", *_PT), ("wall", "r", "phi", "rho", "k0"),
                 ".json"),
    "validate": (("validate", "--samples", "20"), ("samples",), ".json"),
    "grazing-sum": (("grazing-sum", "--samples", "2", "--seed", "1"),
                    ("delta", "k0", "samples"), ".json"),
    "expansion": (("expansion", "--samples", "2", "--N", "1", "--seed", "1"),
                  ("delta", "k0", "samples"), ".json"),
}


@st.composite
def _invocations(draw):
    cmd = draw(st.sampled_from(sorted(_CONTRACT_RUNS)))
    keys = st.sampled_from(_CONTRACT_RUNS[cmd][1])
    flags = {k: draw(_VALUES[k]) for k in draw(st.lists(keys, unique=True))}
    config = {k: draw(_VALUES[k] | _WRONG_TYPE)
              for k in draw(st.lists(keys, unique=True))}
    return cmd, flags, config


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_invocations())
@example(("portrait", {"rho": _NAN}, {}))
@example(("orbit", {"r": _NAN}, {}))
@example(("evolve", {"length": 0.5}, {}))
@example(("evolve", {"length": _NAN}, {}))
@example(("evolve", {"length": 1e-300}, {}))
@example(("expansion", {"delta": 0.05}, {}))
@example(("grazing-sum", {"delta": _INF}, {}))
@example(("expansion", {"delta": _NAN}, {}))
@example(("orbit", {"wall": 3}, {}))
@example(("orbit", {"wall": -1}, {}))
@example(("validate", {}, {"samples": "10"}))
@example(("evolve", {}, {"k0": 2.5}))
def test_cli_exit_codes_and_artifacts(invocation):
    cmd, flags, config = invocation
    base, _, suffix = _CONTRACT_RUNS[cmd]
    with tempfile.TemporaryDirectory() as d:
        d = pathlib.Path(d)
        (d / "run.json").write_text(json.dumps(config))
        argv = [*base, "--table", "tri", "--config", str(d / "run.json"),
                "--out", str(d / f"artifact{suffix}")]
        argv += [f"--{k}={v}" for k, v in flags.items()]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(argv)
        assert code in (0, 1, 2, 3)
        written = [p for p in d.iterdir() if p.name != "run.json"]
        assert [p.name for p in written] in ([], [f"artifact{suffix}"])
        assert written or code != 0
        for path in written:
            _check_artifact(path)


# ---------------------------------------------------------------------------
# generated table specs

_ODD = st.one_of(
    st.sampled_from([_NAN, _INF, -_INF, 1e300, -1e7, 10**40, 0, -1.5, 2]),
    _WRONG_TYPE)


@st.composite
def _arc_walls(draw):
    # theta_start == theta_end draws a closed circle
    theta = st.one_of(st.just(0.0), st.floats(-7.0, 7.0))
    return {"center": [draw(st.floats(-1.5, 1.5)), draw(st.floats(-1.5, 1.5))],
            "radius": draw(st.floats(0.05, 4.0)),
            "theta_start": draw(theta), "theta_end": draw(theta),
            "orientation": draw(st.sampled_from([-1, 1, -1.0]))}


@st.composite
def _table_specs(draw):
    """tri or 0-4 random arcs in either ambient, with up to two walls given
    a missing key or an odd value, and odd walls lists or specs."""
    if draw(st.booleans()):
        spec = tables.make_tri_spec()
    else:
        spec = {"ambient": draw(st.sampled_from(["plane", "torus"])),
                "walls": draw(st.lists(_arc_walls(), max_size=4))}
    walls = spec["walls"]
    for _ in range(draw(st.integers(0, 2)) if walls else 0):
        wall = walls[draw(st.integers(0, len(walls) - 1))]
        key = draw(st.sampled_from(geometry.WALL_KEYS))
        if draw(st.booleans()):
            wall.pop(key, None)
        else:
            wall[key] = draw(_ODD | st.lists(_ODD, max_size=3))
    shape = draw(st.sampled_from(["spec", "spec", "walls", "top"]))
    if shape == "walls":
        spec["walls"] = draw(_ODD)
    elif shape == "top":
        spec = draw(_ODD | st.just(walls))
    return spec


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_table_specs())
@example(tables.make_tri_spec())
@example({"ambient": "plane", "walls": [
    {"center": [0.0, 0.0], "radius": 1.0, "theta_start": 0.0,
     "theta_end": 0.0, "orientation": -1}]})
def test_table_spec_builds_or_is_refused(spec):
    try:
        geometry.build_table(spec)
        built = True
    except ValidationError:
        built = False
    with tempfile.TemporaryDirectory() as d:
        path = pathlib.Path(d) / "spec.json"
        path.write_text(json.dumps(spec))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(["validate", "--table", str(path), "--samples",
                            "20", "--out", str(pathlib.Path(d) / "v.json")])
        assert code in ((0, 2) if built else (2,))
        if code == 0:
            _check_artifact(pathlib.Path(d) / "v.json")
