"""The package's import graph, read from the source with ast."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "raneycf"
TESTS = Path(__file__).resolve().parent


def _imports(path):
    """The modules that path's import statements name, anywhere in the
    file: a relative import as ".name" ("." for "from . import"), an
    absolute one by its dotted name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.add("." * node.level + (node.module or ""))
    return found


def _package_imports(path):
    """The package's own modules that path imports, by module name."""
    own = set()
    for name in _imports(path):
        if name.startswith("."):
            own.add(name.lstrip(".") or "raneycf")
        elif name.split(".")[0] == "raneycf":
            own.add(name.partition(".")[2] or "raneycf")
    return own


def test_the_oracle_imports_only_matrices():
    """surds is the oracle that checks the transducer, so it imports nothing
    from the package but the matrix type."""
    assert _package_imports(SRC / "surds.py") == {"matrices"}


def test_bounds_imports_only_matrices():
    """S_n's closed form needs the divisor list and the Euclid step count;
    the walk side of S_n is a test reference."""
    assert _package_imports(SRC / "bounds.py") == {"matrices"}


def test_src_imports_nothing_from_tests():
    paths = sorted(SRC.glob("*.py"))
    assert {"__init__", "bounds", "cli", "matrices", "surds", "transducer", "words"} <= {p.stem for p in paths}
    test_modules = {"tests"} | {p.stem for p in TESTS.glob("*.py")}
    for path in paths:
        roots = {name.split(".")[0] for name in _imports(path) if not name.startswith(".")}
        assert not roots & test_modules, (path.name, roots & test_modules)


def test_the_package_root_is_its_docstring_alone():
    """Each name has one import path, the module that defines it: the root
    re-exports nothing and holds no statement past its docstring."""
    root = ast.parse((SRC / "__init__.py").read_text())
    assert len(root.body) == 1 and ast.get_docstring(root)


def test_only_the_cli_imports_report_formats():
    """The library computes and the CLI writes: json, csv and io are
    imported by cli alone."""
    writers = {
        path.stem for path in SRC.glob("*.py")
        if {name.split(".")[0] for name in _imports(path)} & {"json", "csv", "io"}
    }
    assert writers == {"cli"}
