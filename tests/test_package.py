"""The package's import graph and public surface: the root re-exports
nothing, so each module loads only what it imports, and every public name
has one home and a caller outside the tests."""

import ast
import importlib
import pkgutil
from pathlib import Path

import csg_ldpc

# __main__ runs the CLI when imported
MODULES = sorted(m.name for m in pkgutil.iter_modules(csg_ldpc.__path__) if m.name != "__main__")


def loaded_after(run_capped, statement: str) -> list[str]:
    """The numpy and package modules a fresh interpreter holds after
    ``statement``."""
    proc = run_capped(
        "import sys\n"
        f"{statement}\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'csg_ldpc')))\n"
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_importing_the_package_loads_no_module_and_no_numpy(run_capped):
    assert loaded_after(run_capped, "import csg_ldpc") == ["csg_ldpc"]


def test_graphs_loads_no_later_stage(run_capped):
    loaded = loaded_after(run_capped, "import csg_ldpc.graphs")
    assert "csg_ldpc.graphs" in loaded
    later = {f"csg_ldpc.{name}" for name in ("channel", "decoders", "experiments", "bounds", "analysis")}
    assert later.isdisjoint(loaded)


def test_every_public_name_resolves_and_has_one_home():
    homes: dict[str, list[str]] = {}
    for name in MODULES:
        module = importlib.import_module(f"csg_ldpc.{name}")
        for public in module.__all__:
            assert hasattr(module, public), (name, public)
            homes.setdefault(public, []).append(name)
    assert {public: found for public, found in homes.items() if len(found) > 1} == {}


def test_every_public_name_has_a_caller_outside_the_tests():
    # every name, attribute and imported name in the package, its scripts
    # and perfbench; a public name none of them uses belongs in tests/
    root = Path(__file__).resolve().parents[1]
    used: set[str] = set()
    for path in (p for top in ("src", "scripts", "perfbench") for p in (root / top).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    unused = {
        name: sorted(set(importlib.import_module(f"csg_ldpc.{name}").__all__) - used) for name in MODULES
    }
    assert {name: names for name, names in unused.items() if names} == {}
