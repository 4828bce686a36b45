import importlib.util
from pathlib import Path

from csg_ldpc.constructions import generalized_petersen

SCRIPTS_DIR = Path(__file__).resolve().parent.parent / "scripts"


def load_build_catalog():
    spec = importlib.util.spec_from_file_location("build_catalog", SCRIPTS_DIR / "build_catalog.py")
    build_catalog = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(build_catalog)
    return build_catalog


def test_build_catalog_regenerates_shipped_data(data_dir, tmp_path, monkeypatch):
    build_catalog = load_build_catalog()
    monkeypatch.setattr(build_catalog, "DATA_DIR", tmp_path)
    assert build_catalog.main() == 0
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in data_dir.iterdir())
    for name in written:
        assert (tmp_path / name).read_bytes() == (data_dir / name).read_bytes(), name


def test_build_catalog_refuses_a_failing_recipe(tmp_path, monkeypatch, capsys):
    build_catalog = load_build_catalog()
    monkeypatch.setattr(build_catalog, "DATA_DIR", tmp_path)
    source, _, so, lcd, recipe = build_catalog.LCF_RECIPES["14A"]
    monkeypatch.setitem(build_catalog.LCF_RECIPES, "14A", (source, (7, 3, 5, 6), so, lcd, recipe))
    # the Petersen graph is cubic but not bipartite: analyze_graph raises
    monkeypatch.setitem(
        build_catalog.EDGE_RECIPES, "10A",
        (lambda: generalized_petersen(5, 2), (5, 0, 5, 5), False, True, "Petersen graph"),
    )
    assert build_catalog.main() == 1
    out = capsys.readouterr().out
    assert "FAIL 14A: parameters (7, 3, 4, 6) != expected (7, 3, 5, 6) (not shipped)" in out
    assert "FAIL 10A: " in out
    written = {p.name for p in tmp_path.iterdir()}
    assert "14A.lcf" not in written and "10A.edges" not in written
    assert {"6A.lcf", "90A.lcf", "56C.edges", "manifest.json"} <= written
