import importlib.util
from pathlib import Path

SCRIPTS_DIR = Path(__file__).resolve().parent.parent / "scripts"


def test_build_catalog_regenerates_shipped_data(data_dir, tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("build_catalog", SCRIPTS_DIR / "build_catalog.py")
    build_catalog = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(build_catalog)
    monkeypatch.setattr(build_catalog, "DATA_DIR", tmp_path)
    assert build_catalog.main() == 0
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in data_dir.iterdir())
    for name in written:
        assert (tmp_path / name).read_bytes() == (data_dir / name).read_bytes(), name
