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


def _defined(path):
    """Every name that path defines: functions and classes at any depth,
    methods as Class.method, and module-level assignments."""
    tree = ast.parse(path.read_text(), str(path))
    names = {
        target.id
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        if isinstance(node, ast.ClassDef):
            names.update(
                f"{node.name}.{item.name}" for item in node.body if isinstance(item, ast.FunctionDef)
            )
    return names


# What only the tests call left src/: the paper's vocabulary (sigma,
# sigma_c, star and star_letter, the associate), the empty word and the
# validated word constructors are in tests/references.py; factorize_to_DB,
# word_of_matrix and _peel, which restated the kernel, are gone.
TEST_ONLY = {
    "factorize_to_DB", "word_of_matrix", "_peel", "sigma", "sigma_c", "star",
    "star_letter", "associated", "EPSILON", "_canonical", "LRWord.from_runs",
    "LRWord.from_letters", "LRWord.letters", "LRWord.__add__", "LRWord.__str__",
}


def test_src_defines_no_test_only_name():
    for path in sorted(SRC.glob("*.py")):
        assert not _defined(path) & TEST_ONLY, (path.name, _defined(path) & TEST_ONLY)


def test_every_reference_lives_in_references():
    """No test module defines a _reference* or *brute* helper, at any
    depth (a test may name the reference it checks against): each
    comparison's reference has its one home in tests/references.py.  Nor
    does a test module import another."""
    test_modules = {p.stem for p in TESTS.glob("test_*.py")}
    for path in sorted(TESTS.glob("test_*.py")):
        names = {name.rpartition(".")[2] for name in _defined(path)}
        misplaced = {
            name for name in names
            if not name.startswith("test") and (name.startswith("_reference") or "brute" in name)
        }
        assert not misplaced, (path.name, misplaced)
        assert not _imports(path) & test_modules, (path.name, _imports(path) & test_modules)


def test_references_define_no_test():
    """pytest does not collect tests/references.py, so a test function
    there would never run."""
    names = {name.rpartition(".")[2] for name in _defined(TESTS / "references.py")}
    assert not {name for name in names if name.startswith("test")}


def test_every_reference_says_why_it_is_independent():
    """Each _reference* or *brute* helper in tests/references.py ends its
    docstring with a paragraph that says why it does not lean on the src/
    code it checks."""
    tree = ast.parse((TESTS / "references.py").read_text())
    references = [
        node for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and (node.name.startswith("_reference") or "brute" in node.name)
    ]
    assert len(references) >= 10
    for node in references:
        last = (ast.get_docstring(node) or "").split("\n\n")[-1]
        assert last.startswith("Independent:"), node.name
