import errno
import gc
import json
import os
import select
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import csg_ldpc
from csg_ldpc import cli, codes, experiments
from csg_ldpc.analysis import MAX_GRAPH_BYTES, load_graph_file
from csg_ldpc.cli import CATALOG_HEADER, SIMULATE_HEADER, VARIANCE_HEADER, main
from csg_ldpc.gf2 import BitMatrix
from csg_ldpc.graphs import MAX_VERTICES, parse_lcf
from csg_ldpc.sweep import MAX_TRIAL_POINTS

from oracles import parse_alist


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


def test_analyze_oversized_vertex_index_exits_1(run_capped, tmp_path):
    path = tmp_path / "huge.edges"
    path.write_text("0 3000000000\n")
    proc = run_capped(f"import sys\nfrom csg_ldpc.cli import main\nsys.exit(main(['analyze', {str(path)!r}]))\n")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and "MemoryError" not in proc.stderr


def test_unknown_extension_is_refused_before_any_read(run_capped):
    # /dev/zero never ends: reading it first runs into the address-space cap
    proc = run_capped("import sys\nfrom csg_ldpc.cli import main\nsys.exit(main(['analyze', '/dev/zero']))\n")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: /dev/zero: unknown extension"), proc.stderr


def test_extend_k_ceiling_is_capped(run_capped, data_dir):
    # k = 30 here; without the cap --k-ceiling 60 starts a 2^30-step walk
    proc = run_capped(
        "import sys\nfrom csg_ldpc.cli import main\n"
        f"sys.exit(main(['extend', {str(data_dir / '90A.lcf')!r}, '--bits', '30', '--k-ceiling', '60']))\n"
    )
    assert proc.returncode == 2
    assert "k=30 exceeds ceiling 28" in proc.stdout


def test_large_k_ceiling_still_reports_distance(heawood_path, capsys):
    assert main(["analyze", heawood_path, "--format", "json", "--k-ceiling", "60"]) == 0
    assert json.loads(capsys.readouterr().out)["d"] == 4


def test_catalog_over_data_directory(data_dir, capsys):
    assert main(["catalog", str(data_dir)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == CATALOG_HEADER
    assert len(lines) == 15  # header + the 14 shipped graphs
    assert lines[1].startswith("6A,3,2,2,4,")
    assert lines[-1].startswith("90A,45,11,10,10,")


def test_second_catalog_pass_leaves_no_reference_cycles(data_dir, capsys):
    assert main(["catalog", str(data_dir)]) == 0  # builds the parser once
    gc.disable()
    try:
        gc.collect()
        assert main(["catalog", str(data_dir)]) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert capsys.readouterr().out.count("\n") == 2 * 15


def test_catalog_skips_corrupt_file(tmp_path, capsys):
    lcf_file(tmp_path, "14A.lcf", "[5,-5]^7")
    (tmp_path / "junk.lcf").write_text("[5,-5\n")
    assert main(["catalog", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert "skipping junk.lcf" in captured.err
    assert "14A,7,3,4,6" in captured.out


def test_catalog_skips_graphs_with_no_vertices(tmp_path, capsys):
    lcf_file(tmp_path, "14A.lcf", "[5,-5]^7")
    (tmp_path / "empty.edges").write_text("n=0\n")
    (tmp_path / "comment.edges").write_text("# no edges\n")
    assert main(["catalog", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert "warning: skipping comment.edges" in captured.err
    assert "warning: skipping empty.edges" in captured.err
    assert captured.out.splitlines() == [CATALOG_HEADER, "14A,7,3,4,6,true,true,false"]


def test_catalog_skips_a_second_file_of_one_stem(tmp_path, data_dir, capsys):
    # a row's id is its file's stem: x.edges (40A) is read first, and x.lcf
    # (14A) would print a second row with id x
    (tmp_path / "x.edges").write_text((data_dir / "40A.edges").read_text())
    lcf_file(tmp_path, "x.lcf", "[5,-5]^7")
    assert main(["catalog", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == "warning: skipping x.lcf: id x already read from x.edges\n"
    assert [line.split(",")[:2] for line in captured.out.splitlines()] == [CATALOG_HEADER.split(",")[:2], ["x", "20"]]
    # a file that fails to load takes no id: the next file of its stem is read
    (tmp_path / "x.edges").write_text("0 0\n")
    assert main(["catalog", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert captured.err.startswith("warning: skipping x.edges: ")
    assert captured.out.splitlines() == [CATALOG_HEADER, "x,7,3,4,6,true,true,false"]


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


def _refuse(*_args, **_kwargs):
    raise AssertionError("work started before every input was checked")


def test_simulate_checks_every_param_before_decoding(heawood_path, monkeypatch, capsys):
    # 0.05 is valid; 0.7 is not, and must stop the run before 0.05 is decoded
    monkeypatch.setattr(experiments, "run_experiments", _refuse)
    code = main([
        "simulate", heawood_path, "--channel", "bsc", "--param", "0.05,0.7",
        "--decoder", "gallager-a", "--trials", "5", "--seed", "1", "--workers", "2",
    ])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--rho", "0.1,0.7", "--trials", "50", "--seed", "1"],
    ["--rho", "0.1", "--trials", "1", "--seed", "1"],
    ["--rho", "0.1", "--trials", "50", "--seed", "-1"],
], ids=["second-rho", "one-trial", "negative-seed"])
def test_variance_checks_every_input_before_sampling(heawood_path, monkeypatch, capsys, flags):
    # every rho is checked up front; the trial count and the seed are
    # refused by the first syndrome_statistics call, before it draws noise
    monkeypatch.setattr(experiments, "transmit", _refuse)
    assert main(["variance", heawood_path, *flags]) == 1
    assert "error:" in capsys.readouterr().err


def _options(defaults, flags):
    return [item for name, value in {**defaults, **flags}.items() for item in (f"--{name.replace('_', '-')}", value)]


def simulate_argv(path="{g}", **flags):
    defaults = {"channel": "bsc", "param": "0.1", "decoder": "gallager-a", "trials": "5", "seed": "1"}
    return ["simulate", path, *_options(defaults, flags)]


def variance_argv(path="{g}", **flags):
    return ["variance", path, *_options({"rho": "0.1", "trials": "50", "seed": "1"}, flags)]


AWGN_INF = dict(channel="awgn", param="inf", decoder="sum-product")
# sigma^2 overflows: 1e308 made nan LLRs, 1e200 all-zero LLRs and BER 0
AWGN_HUGE = dict(channel="awgn", param="1e308", decoder="sum-product")
AWGN_SQUARE_INF = dict(channel="awgn", param="1e200", decoder="sum-product")

def _with(rows, placeholder, value):
    """``rows`` with ``placeholder`` replaced by ``value`` in every argv."""
    return [(name, [arg.replace(placeholder, value) for arg in argv], *rest) for name, argv, *rest in rows]


# (command, argv, the work function it must not reach, as the handler looks
# it up) for an output path "{o}"
OUTPUT_ARGV = [
    ("catalog", ["catalog", "{dir}", "--out", "{o}"], "csg_ldpc.cli.code_report"),
    ("export-alist", ["export-alist", "{g}", "{o}"], "csg_ldpc.cli.export_alist"),
    ("simulate", simulate_argv(out="{o}"), "csg_ldpc.experiments.run_experiments"),
    ("variance", variance_argv(out="{o}"), "csg_ldpc.cli.syndrome_statistics"),
    ("extend", ["extend", "{g}", "--bits", "2", "--alist-out", "{o}"], "csg_ldpc.cli.code_report"),
]
OUT_IN_MISSING_DIR = _with(OUTPUT_ARGV, "{o}", "{nodir}")
OUT_IS_DIR = _with(OUTPUT_ARGV, "{o}", "{dir}")
# a device that accepts the open and fails every write with ENOSPC; the
# catalog reads a directory of valid graphs, so no warning comes first
FULL_DEVICE = "/dev/full"
OUT_IS_FULL = _with(_with(OUTPUT_ARGV, "{o}", FULL_DEVICE), "{dir}", "{gdir}")

# (command, argv) for every subcommand that reads one graph file "{x}"
INPUT_ARGV = [
    ("analyze", ["analyze", "{x}"]),
    ("export-alist", ["export-alist", "{x}", "{out}"]),
    ("simulate", simulate_argv("{x}")),
    ("variance", variance_argv("{x}")),
    ("extend", ["extend", "{x}", "--bits", "2"]),
]

# (id, argv); "{g}" is a valid graph file, "{bad}" a triangle, "{empty}" a
# graph with no vertices, "{missing}" a path that does not exist, "{dir}" a
# directory holding those graph files, "{gdir}" a directory holding only
# "{g}" and "{nodir}" a file in a missing directory.  Every case must be a
# declared error.
BAD_INPUTS = [
    ("analyze-missing-file", ["analyze", "{missing}"]),
    ("analyze-bad-graph", ["analyze", "{bad}"]),
    ("analyze-bad-format", ["analyze", "{g}", "--format", "xml"]),
    ("analyze-k-ceiling-text", ["analyze", "{g}", "--k-ceiling", "many"]),
    ("analyze-k-ceiling-negative", ["analyze", "{g}", "--k-ceiling", "-5"]),
    ("catalog-k-ceiling-negative", ["catalog", "{gdir}", "--k-ceiling", "-1"]),
    ("catalog-not-a-directory", ["catalog", "{missing}"]),
    ("export-alist-missing-file", ["export-alist", "{missing}", "{out}"]),
    ("export-alist-bad-graph", ["export-alist", "{bad}", "{out}"]),
    ("simulate-missing-file", simulate_argv("{missing}")),
    ("simulate-workers-0", simulate_argv(workers="0")),
    ("simulate-trials-0", simulate_argv(trials="0")),
    ("simulate-max-iter-negative", simulate_argv(max_iter="-1")),
    ("simulate-max-iter-huge", simulate_argv(max_iter="1000000000")),
    ("simulate-seed-negative", simulate_argv(seed="-1")),
    ("simulate-empty-param", simulate_argv(param="")),
    ("simulate-param-text", simulate_argv(param="0.1,abc")),
    ("simulate-bsc-param-nan", simulate_argv(param="nan")),
    ("simulate-bsc-second-param", simulate_argv(param="0.05,0.7")),
    # rho = 1/2 gives all-zero LLRs, which sum-product decoded to BER 0
    ("simulate-bsc-half-sum-product", simulate_argv(param="0.45,0.5", decoder="sum-product")),
    ("simulate-awgn-inf", simulate_argv(**AWGN_INF)),
    ("simulate-awgn-inf-w2", simulate_argv(**AWGN_INF, workers="2")),
    ("simulate-awgn-zero", simulate_argv(**{**AWGN_INF, "param": "0"})),
    ("simulate-awgn-square-overflow", simulate_argv(**AWGN_HUGE)),
    ("simulate-awgn-square-overflow-w2", simulate_argv(**AWGN_HUGE, workers="2")),
    ("simulate-awgn-square-inf", simulate_argv(**AWGN_SQUARE_INF)),
    ("simulate-awgn-square-inf-w2", simulate_argv(**AWGN_SQUARE_INF, workers="2")),
    ("simulate-unknown-decoder", simulate_argv(decoder="turbo")),
    ("simulate-trial-points-over-ceiling", simulate_argv(param="0.1,0.2", trials=str(MAX_TRIAL_POINTS // 2 + 1))),
    ("variance-missing-file", variance_argv("{missing}")),
    ("variance-rho-out-of-range", variance_argv(rho="0.7")),
    ("variance-empty-rho", variance_argv(rho="")),
    ("variance-one-trial", variance_argv(trials="1")),
    ("variance-seed-negative", variance_argv(seed="-1")),
    ("variance-trial-points-over-ceiling", variance_argv(trials=str(10**18))),
    ("extend-missing-file", ["extend", "{missing}", "--bits", "2"]),
    ("extend-bits-negative", ["extend", "{g}", "--bits", "-1"]),
    ("extend-bits-past-n", ["extend", "{g}", "--bits", "8"]),
    ("extend-k-ceiling-negative", ["extend", "{g}", "--bits", "2", "--k-ceiling", "-1"]),
    *[(f"{command}-out-in-missing-dir", argv) for command, argv, _ in OUT_IN_MISSING_DIR],
    *[(f"{command}-out-is-dir", argv) for command, argv, _ in OUT_IS_DIR],
    *[(f"{command}-out-is-full", argv) for command, argv, _ in OUT_IS_FULL],
    *[(f"{command}-input-is-dir", argv) for command, argv in _with(INPUT_ARGV, "{x}", "{dir}")],
    *[(f"{command}-empty-graph", argv) for command, argv in _with(INPUT_ARGV, "{x}", "{empty}")],
]


def _fill(argv, heawood_path, tmp_path):
    bad = tmp_path / "bad.edges"
    bad.write_text("0 1\n1 2\n2 0\n")
    empty = tmp_path / "empty.edges"
    empty.write_text("n=0\n")
    gdir = tmp_path / "graphs"
    gdir.mkdir(exist_ok=True)
    (gdir / Path(heawood_path).name).write_text(Path(heawood_path).read_text())
    paths = {
        "g": heawood_path,
        "empty": str(empty),
        "missing": str(tmp_path / "none.lcf"),
        "bad": str(bad),
        "out": str(tmp_path / "h.alist"),
        "dir": str(tmp_path),
        "gdir": str(gdir),
        "nodir": str(tmp_path / "none" / "out.csv"),
    }
    return [arg.format(**paths) for arg in argv]


# the subcommands that read only H: eliminating it for the code would be
# wasted work, most of their time at the vertex cap
H_ONLY = [(command, argv) for command, argv, _ in OUTPUT_ARGV if command in ("export-alist", "simulate", "variance")]


def _eliminate(*_args, **_kwargs):
    raise AssertionError("an H-only subcommand eliminated H")


@pytest.mark.parametrize("argv", [argv for _, argv in H_ONLY], ids=[command for command, _ in H_ONLY])
def test_h_only_commands_never_eliminate(heawood_path, tmp_path, monkeypatch, argv):
    written = []
    for run in ("free", "patched"):
        (tmp_path / run).mkdir()
        assert main([arg.format(g=heawood_path, o=str(tmp_path / run / "out")) for arg in argv]) == 0
        written.append({p.name: p.read_bytes() for p in (tmp_path / run).iterdir()})
        monkeypatch.setattr(codes, "code_from_parity_check", _eliminate)
    assert written[0] == written[1] and "out" in written[0]


# every subcommand on one graph "{g}": catalog reads a directory "{d}"
# holding only that graph, export-alist writes "{o}"
EVERY_SUBCOMMAND = [
    ["analyze", "{g}"],
    ["catalog", "{d}"],
    ["export-alist", "{g}", "{o}"],
    simulate_argv(decoder="gallager-a"),
    simulate_argv(decoder="sum-product"),
    variance_argv(),
    ["extend", "{g}", "--bits", "2"],
]


def _dense_copy(*_args, **_kwargs):
    raise AssertionError("a subcommand made a dense copy of H")


@pytest.mark.parametrize("graph", ["48A.edges", "6A.lcf"])
def test_no_subcommand_makes_a_dense_copy_of_h(data_dir, tmp_path, monkeypatch, capsys, graph):
    # numpy code reads H through BitMatrix.supports() alone, so each run
    # prints the same with BitMatrix.to_numpy replaced by a raiser
    (tmp_path / "graphs").mkdir()
    path = tmp_path / "graphs" / graph
    path.write_text((data_dir / graph).read_text())
    out = tmp_path / "h.alist"

    def run_all():
        printed = []
        for argv in EVERY_SUBCOMMAND:
            assert main([arg.format(g=path, d=path.parent, o=out) for arg in argv]) == 0, argv
            printed.append(capsys.readouterr().out)
        return printed, out.read_bytes()

    free = run_all()
    monkeypatch.setattr(BitMatrix, "to_numpy", _dense_copy)
    assert run_all() == free


@pytest.mark.parametrize("argv", [argv for _, argv in BAD_INPUTS], ids=[name for name, _ in BAD_INPUTS])
def test_bad_input_is_a_declared_error(heawood_path, tmp_path, capsys, argv):
    if FULL_DEVICE in argv and not os.path.exists(FULL_DEVICE):
        pytest.skip(f"{FULL_DEVICE} does not exist")
    try:
        code = main(_fill(argv, heawood_path, tmp_path))
    except SystemExit as exc:  # argparse rejects the command line itself
        code = exc.code
    err = capsys.readouterr().err
    assert code in (1, 2)
    assert "Traceback" not in err
    assert err.startswith("error:" if code == 1 else "usage:")


@pytest.mark.parametrize(
    "argv, work", [(argv, work) for _, argv, work in OUT_IN_MISSING_DIR], ids=[c for c, _, _ in OUT_IN_MISSING_DIR]
)
def test_missing_output_directory_stops_before_any_work(heawood_path, tmp_path, monkeypatch, capsys, argv, work):
    monkeypatch.setattr(work, _refuse)
    assert main(_fill(argv, heawood_path, tmp_path)) == 1
    assert capsys.readouterr().err.startswith("error: no such directory")
    assert not (tmp_path / "none").exists()


@pytest.mark.parametrize("argv, work", [(argv, work) for _, argv, work in OUT_IS_DIR], ids=[c for c, _, _ in OUT_IS_DIR])
def test_directory_output_path_stops_before_any_work(heawood_path, tmp_path, monkeypatch, capsys, argv, work):
    monkeypatch.setattr(work, _refuse)
    assert main(_fill(argv, heawood_path, tmp_path)) == 1
    assert capsys.readouterr().err.startswith("error: output path is a directory")


@pytest.mark.parametrize(
    "argv", [argv for name, argv in BAD_INPUTS if name.endswith("-k-ceiling-negative")], ids=["analyze", "catalog", "extend"]
)
def test_negative_k_ceiling_stops_before_any_graph_is_read(heawood_path, tmp_path, monkeypatch, capsys, argv):
    monkeypatch.setattr(cli, "load_graph_file", _refuse)
    assert main(_fill(argv, heawood_path, tmp_path)) == 1
    assert capsys.readouterr().err.startswith("error: k-ceiling must be non-negative")


@pytest.mark.parametrize("make_argv", [
    lambda trials: simulate_argv(param="0.1,0.2", trials=str(trials // 2)),
    lambda trials: variance_argv(rho="0.1,0.2", trials=str(trials // 2)),
], ids=["simulate", "variance"])
def test_trial_point_ceiling_stops_before_any_graph_is_read(heawood_path, tmp_path, monkeypatch, capsys, make_argv):
    monkeypatch.setattr(cli, "load_graph_file", _refuse)
    # one trial-point past the ceiling is refused; at it the run goes on to read the graph
    assert main(_fill(make_argv(MAX_TRIAL_POINTS + 2), heawood_path, tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and f"ceiling of {MAX_TRIAL_POINTS}" in err
    with pytest.raises(AssertionError, match="work started"):
        main(_fill(make_argv(MAX_TRIAL_POINTS), heawood_path, tmp_path))


@pytest.mark.skipif(not os.path.exists(FULL_DEVICE), reason=f"{FULL_DEVICE} does not exist")
@pytest.mark.parametrize("argv", [argv for _, argv, _ in OUT_IS_FULL], ids=[c for c, _, _ in OUT_IS_FULL])
def test_failed_write_names_the_output_path(heawood_path, tmp_path, capsys, argv):
    # the OSError of a failed flush carries no file name of its own
    assert main(_fill(argv, heawood_path, tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {FULL_DEVICE}: ") and err.count("\n") == 1
    assert "None" not in err


# every writing subcommand with its output "{o}" a FIFO; catalog reads
# "{gdir}", which holds only the valid graph
OUT_IS_FIFO = _with(OUTPUT_ARGV, "{dir}", "{gdir}")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
def test_fifo_output_with_no_reader_is_a_declared_error(run_capped, heawood_path, tmp_path):
    # opening a FIFO for writing blocks until a reader comes.  One child
    # runs every writing subcommand against a FIFO nobody reads, each under
    # a 10 s alarm, so a command that waits kills the child in seconds
    # rather than at its 120 s cap
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    argvs = [_fill(argv, heawood_path, tmp_path) for _, argv, _ in _with(OUT_IS_FIFO, "{o}", str(fifo))]
    proc = run_capped(
        "import contextlib, io, json, signal\n"
        "from csg_ldpc.cli import main\n"
        f"for argv in {argvs!r}:\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    signal.alarm(10)\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        code = main(argv)\n"
        "    signal.alarm(0)\n"
        "    print(json.dumps([code, err.getvalue()]))\n"
    )
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines()]
    assert results == [[1, f"error: {fifo}: {os.strerror(errno.ENXIO)}\n"]] * len(OUTPUT_ARGV)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
@pytest.mark.parametrize("argv", [argv for _, argv, _ in OUT_IS_FIFO], ids=[c for c, _, _ in OUT_IS_FIFO])
def test_fifo_output_with_a_reader_gets_the_file_bytes(heawood_path, tmp_path, argv):
    regular, fifo = tmp_path / "out", tmp_path / "out.fifo"
    assert main(_fill([arg.replace("{o}", str(regular)) for arg in argv], heawood_path, tmp_path)) == 0
    os.mkfifo(fifo)
    # the read end opens first, non-blocking, so the writer finds a reader;
    # the thread waits until a writer has come, then reads to end of file
    fd = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    received = []

    def drain():
        select.select([fd], [], [], 60)
        os.set_blocking(fd, True)
        while chunk := os.read(fd, 1 << 16):
            received.append(chunk)

    reader = threading.Thread(target=drain)
    reader.start()
    try:
        assert main(_fill([arg.replace("{o}", str(fifo)) for arg in argv], heawood_path, tmp_path)) == 0
    finally:
        reader.join(60)
        os.close(fd)
    assert not reader.is_alive()
    assert b"".join(received) == regular.read_bytes()


def test_simulate_checks_the_sidecar_path_before_decoding(heawood_path, tmp_path, monkeypatch, capsys):
    # a sidecar path that is a directory used to fail only after every
    # trial was decoded and the CSV written
    out = tmp_path / "x.csv"
    (tmp_path / "x.csv.meta.json").mkdir()
    monkeypatch.setattr(experiments, "run_experiments", _refuse)
    assert main(simulate_argv(heawood_path, out=str(out))) == 1
    assert capsys.readouterr().err.startswith("error: output path is a directory")
    assert not out.exists()


# (file name, how to make it) for special files a graph path may name: a
# FIFO blocks its open until a writer comes, and /dev/zero, here behind a
# .lcf symlink, never ends a read
SPECIAL_GRAPHS = {
    "fifo": ("g.edges", os.mkfifo),
    "dev-zero-symlink": ("z.lcf", lambda path: path.symlink_to("/dev/zero")),
}


@pytest.mark.parametrize("kind", SPECIAL_GRAPHS)
def test_special_graph_file_is_refused_before_it_is_opened(run_capped, heawood_path, tmp_path, capsys, kind):
    name, make = SPECIAL_GRAPHS[kind]
    graphs = tmp_path / "special"
    graphs.mkdir()
    (graphs / "14A.lcf").write_text(Path(heawood_path).read_text())
    assert main(["catalog", str(graphs)]) == 0
    valid_table = capsys.readouterr().out
    special = graphs / name
    make(special)
    argvs = [_fill(argv, heawood_path, tmp_path) for _, argv in _with(INPUT_ARGV, "{x}", str(special))]
    # one child runs every command, the catalog of the directory last, and
    # prints each one's exit code, stdout and stderr
    proc = run_capped(
        "import contextlib, io, json\n"
        "from csg_ldpc.cli import main\n"
        f"for argv in {[*argvs, ['catalog', str(graphs)]]!r}:\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        code = main(argv)\n"
        "    print(json.dumps([code, out.getvalue(), err.getvalue()]))\n"
    )
    assert proc.returncode == 0, proc.stderr
    *commands, catalog = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(commands) == len(INPUT_ARGV)
    for argv, (code, _, err) in zip(argvs, commands):
        assert (code, err) == (1, f"error: {special}: not a regular file\n"), argv
    # the catalog warns, skips the file and still prints the valid graph's row
    assert catalog == [0, valid_table, f"warning: skipping {name}: {special}: not a regular file\n"]


def test_graph_file_byte_cap(tmp_path):
    # the largest graph the loaders take, as an edge list, fits well inside
    g = parse_lcf(f"[5,-5]^{MAX_VERTICES // 2}")
    edges = [f"{u} {v}\n" for u, nbrs in enumerate(g.adjacency) for v in nbrs if u < v]
    largest = tmp_path / "largest.edges"
    largest.write_text(f"n={MAX_VERTICES}\n" + "".join(edges))
    assert largest.stat().st_size * 4 < MAX_GRAPH_BYTES
    assert load_graph_file(largest) == g
    # a valid LCF line padded with a comment to the cap, then one byte past it
    lcf = tmp_path / "14A.lcf"
    line = "[5,-5]^7\n"
    lcf.write_text(line + "#" * (MAX_GRAPH_BYTES - len(line)))
    assert load_graph_file(lcf).vertex_count == 14
    with lcf.open("a") as f:
        f.write("#")
    with pytest.raises(ValueError, match=f"{MAX_GRAPH_BYTES + 1} bytes, above the {MAX_GRAPH_BYTES}-byte cap"):
        load_graph_file(lcf)


def test_other_exceptions_keep_their_traceback(heawood_path, monkeypatch):
    # only ValueError and OSError are declared errors; anything else is a fault
    monkeypatch.setattr(cli, "analyze_graph", _refuse)
    with pytest.raises(AssertionError, match="work started"):
        main(["analyze", heawood_path])


@pytest.mark.filterwarnings("error")
def test_simulate_awgn_tiny_sigma_is_silent(heawood_path, capsys):
    # sigma^2 is subnormal at 1e-155 and 0 at 1e-200: every LLR clamps, nothing warns
    for sigma in ("1e-155", "1e-200"):
        assert main(simulate_argv(heawood_path, channel="awgn", param=sigma, decoder="sum-product", trials="10")) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[1].split(",")[5:7] == ["0.0", "0.0"]  # ber, fer


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


def test_extend_eliminates_the_parity_check_once(heawood_path, monkeypatch, capsys):
    # the report needs the extended code only, so the 7 x 7 base H is never
    # eliminated; the one other elimination is the duality flags' rank of
    # G G^T, which is k x k with k = 3
    shapes = []
    rref = codes.BitMatrix.rref
    monkeypatch.setattr(codes.BitMatrix, "rref", lambda self: shapes.append((self.nrows, self.ncols)) or rref(self))
    assert main(["extend", heawood_path, "--bits", "3"]) == 0
    assert "[10, 3, 4]" in capsys.readouterr().out
    assert sorted(shapes) == [(3, 3), (7, 10)]


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


@pytest.mark.parametrize("argv", [
    ["catalog", "data"],
    ["analyze", "data/6A.lcf"],
    # a seed of 2^64 + 5, three uint32 words, through the sweep's seeding
    ["simulate", "data/48A.edges", "--channel", "awgn", "--param", "0.5,0.6,0.7", "--decoder", "sum-product",
     "--trials", "300", "--seed", "18446744073709551621"],
], ids=["catalog", "analyze-girth-4", "simulate-48A-awgn-multiword-seed"])
def test_optimized_python_prints_the_same(argv):
    # python -O strips asserts, so no check may live in one
    root = Path(__file__).resolve().parents[1]
    src = str(Path(csg_ldpc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}

    def run(*flags):
        return subprocess.run(
            [sys.executable, *flags, "-m", "csg_ldpc.cli", *argv],
            capture_output=True, text=True, env=env, cwd=root, timeout=120,
        )

    plain, optimized = run(), run("-O")
    assert plain.returncode == optimized.returncode == 0
    assert optimized.stdout == plain.stdout and plain.stdout
    assert optimized.stderr == plain.stderr
