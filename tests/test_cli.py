import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import csg_ldpc
from csg_ldpc.alist import parse_alist
from csg_ldpc.cli import CATALOG_HEADER, SIMULATE_HEADER, VARIANCE_HEADER, main


def lcf_file(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text + "\n")
    return str(path)


@pytest.fixture()
def heawood_path(tmp_path):
    return lcf_file(tmp_path, "14A.lcf", "[5,-5]^7")


def test_analyze_text(heawood_path, capsys):
    assert main(["analyze", heawood_path]) == 0
    out = capsys.readouterr().out
    assert "[7, 3, 4]" in out
    assert "girth:            6" in out
    assert "self-orthogonal:  yes" in out
    assert "lcd:              no" in out


def test_analyze_json(heawood_path, capsys):
    assert main(["analyze", heawood_path, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["graph_id"] == "14A"
    assert (payload["n"], payload["k"], payload["d"]) == (7, 3, 4)
    assert payload["girth"] == 6
    assert payload["bounds"]["clique_number"] == 7
    assert payload["warnings"] == []


def test_analyze_missing_file(capsys):
    assert main(["analyze", "/no/such/file.lcf"]) == 1
    assert "error:" in capsys.readouterr().err


def test_analyze_invalid_graph(tmp_path, capsys):
    path = tmp_path / "bad.edges"
    path.write_text("0 1\n1 2\n2 0\n")  # a triangle: cubic fails first
    assert main(["analyze", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_analyze_ceiling_gives_exit_2(heawood_path, capsys):
    assert main(["analyze", heawood_path, "--format", "json", "--k-ceiling", "2"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["d"] is None
    assert any("ceiling" in w for w in payload["warnings"])


def test_catalog_over_data_directory(data_dir, capsys):
    assert main(["catalog", str(data_dir)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == CATALOG_HEADER
    assert len(lines) == 15  # header + the 14 shipped graphs
    assert lines[1].startswith("6A,3,2,2,4,")
    assert lines[-1].startswith("90A,45,11,10,10,")


def test_catalog_skips_corrupt_file(tmp_path, capsys):
    lcf_file(tmp_path, "14A.lcf", "[5,-5]^7")
    (tmp_path / "junk.lcf").write_text("[5,-5\n")
    assert main(["catalog", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert "skipping junk.lcf" in captured.err
    assert "14A,7,3,4,6" in captured.out


def test_export_alist_round_trip(heawood_path, tmp_path, capsys):
    out = tmp_path / "h.alist"
    assert main(["export-alist", heawood_path, str(out)]) == 0
    h = parse_alist(out.read_text())
    assert (h.nrows, h.ncols) == (7, 7)


def test_simulate_requires_seed(heawood_path):
    with pytest.raises(SystemExit) as excinfo:
        main([
            "simulate", heawood_path, "--channel", "bsc", "--param", "0.1",
            "--decoder", "gallager-a", "--trials", "10",
        ])
    assert excinfo.value.code == 2


def test_simulate_noiseless(heawood_path, capsys):
    code = main([
        "simulate", heawood_path, "--channel", "bsc", "--param", "0.0",
        "--decoder", "gallager-a", "--trials", "20", "--seed", "1",
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == SIMULATE_HEADER
    fields = lines[1].split(",")
    assert fields[0] == "bsc"
    assert float(fields[5]) == 0.0  # ber
    assert float(fields[6]) == 0.0  # fer


def test_simulate_bad_param(heawood_path, capsys):
    code = main([
        "simulate", heawood_path, "--channel", "bsc", "--param", "0.9",
        "--decoder", "gallager-a", "--trials", "5", "--seed", "1",
    ])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_simulate_writes_csv_and_meta(heawood_path, tmp_path):
    out = tmp_path / "run.csv"
    code = main([
        "simulate", heawood_path, "--channel", "awgn", "--param", "0.8,1.0",
        "--decoder", "sum-product", "--trials", "50", "--seed", "9",
        "--out", str(out),
    ])
    assert code == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == SIMULATE_HEADER
    assert len(rows) == 3
    meta = json.loads((tmp_path / "run.csv.meta.json").read_text())
    assert meta["seed"] == 9
    assert meta["params"] == [0.8, 1.0]
    assert "rng_family" in meta


def test_simulate_sidecar_outcomes_ignore_worker_count(heawood_path, tmp_path):
    runs = {}
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}.csv"
        assert main([
            "simulate", heawood_path, "--channel", "bsc", "--param", "0.1,0.2",
            "--decoder", "gallager-a", "--trials", "300", "--seed", "4",
            "--max-iter", "1", "--workers", workers, "--out", str(out),
        ]) == 0
        meta = json.loads((tmp_path / f"w{workers}.csv.meta.json").read_text())
        runs[workers] = (out.read_text(), meta["outcomes"])
    assert runs["1"] == runs["2"]
    outcomes = runs["1"][1]
    assert [o["param"] for o in outcomes] == [0.1, 0.2]
    assert all(set(o) == {"param", "detected", "undetected"} for o in outcomes)
    assert all(o["detected"] > 0 and o["undetected"] > 0 for o in outcomes)


def test_variance_rows(heawood_path, capsys):
    code = main([
        "variance", heawood_path, "--rho", "0.0,0.1", "--trials", "500",
        "--seed", "3",
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == VARIANCE_HEADER
    assert len(lines) == 3
    zero_row = lines[1].split(",")
    assert float(zero_row[1]) == 0.0 and float(zero_row[2]) == 0.0
    assert lines[1].endswith(",")  # girth 6: no flag


def test_variance_flags_short_girth(tmp_path, capsys):
    path = lcf_file(tmp_path, "6A.lcf", "[3,-3]^3")
    assert main(["variance", path, "--rho", "0.1", "--trials", "200", "--seed", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1].endswith(",girth<6")


def test_extend_report(heawood_path, capsys, tmp_path):
    alist_out = tmp_path / "ext.alist"
    code = main([
        "extend", heawood_path, "--bits", "7", "--format", "json",
        "--alist-out", str(alist_out),
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["graph_id"] == "14A+7"
    assert (payload["n"], payload["k"], payload["d"]) == (14, 7, 4)
    assert payload["bounds"] is None
    h = parse_alist(alist_out.read_text())
    assert (h.nrows, h.ncols) == (7, 14)


def test_extend_bad_l(heawood_path, capsys):
    assert main(["extend", heawood_path, "--bits", "0"]) == 1
    assert "error:" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0


def test_module_entry_point_runs(data_dir):
    src = str(Path(csg_ldpc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "csg_ldpc.cli", "analyze", str(data_dir / "14A.lcf")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0
    assert "[7, 3, 4]" in proc.stdout
