import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import csg_ldpc
from csg_ldpc.analysis import load_graph_file
from csg_ldpc.codes import build_code
from csg_ldpc.graphs import parse_lcf

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def catalog(data_dir):
    """graph id -> (Graph, manifest entry) for every shipped catalog file."""
    manifest = json.loads((data_dir / "manifest.json").read_text())["graphs"]
    return {
        gid: (load_graph_file(data_dir / entry["file"]), entry)
        for gid, entry in manifest.items()
    }


@pytest.fixture(scope="session")
def heawood_code():
    return build_code(parse_lcf("[5,-5]^7"))


@pytest.fixture(scope="session")
def run_capped():
    """Run python source in a child process whose address space is capped
    at 1.5 GB and whose run is cut at 120 s, so an input that makes the
    code allocate or loop without bound fails the test instead of taking
    the machine's memory or hanging the suite."""
    src = str(Path(csg_ldpc.__file__).resolve().parents[1])
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))),
        "OPENBLAS_NUM_THREADS": "1",
    }
    prelude = "import resource\nresource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))\n"

    def run(source: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-c", prelude + source], capture_output=True, text=True, env=env, timeout=120
        )

    return run
