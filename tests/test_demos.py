"""The demos that write files regenerate demos/out byte for byte."""

import importlib.util
import pathlib

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name, files", [
    ("tables_and_orbits", ["torus2_orbit.svg", "tri_orbit.svg",
                           "tri_phase.svg"]),
    ("sector_portraits", ["junction_portrait.json", "junction_portrait.svg"]),
])
def test_demo_regenerates_its_output(name, files, tmp_path, capsys):
    spec = importlib.util.spec_from_file_location(f"demo_{name}",
                                                  DEMOS / f"{name}.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    demo.OUT = str(tmp_path)
    demo.main()
    assert sorted(p.name for p in tmp_path.iterdir()) == files
    for f in files:
        assert (tmp_path / f).read_bytes() == (DEMOS / "out" / f).read_bytes(), f
