import ast
import re
from pathlib import Path

import selfoc

#: The package's public names; a name added to or dropped from ``__all__``
#: is an API decision and must be made here too.
PUBLIC = [
    "MODE_INDEX_CAP",
    "CapExceededError",
    "ConvergenceError",
    "CouplingMatrix",
    "CouplingTensor",
    "NotPositiveDefiniteError",
    "NumericOverflowError",
    "OscillatorFrame",
    "OverlapKernel",
    "PartialResultError",
    "SchmidtReport",
    "Spectrum",
    "Transition1D",
    "Waveguide2D",
    "build_kernel",
    "coupled_tensor",
    "coupling_matrix",
    "fc_candidates",
    "fc_estimate",
    "overlap_closed",
    "overlap_coupled",
    "overlap_quad",
    "scaled_hermite_table",
    "schmidt_report",
    "spectrum1d",
    "spectrum2d_separable",
]


#: Names taken out of ``selfoc`` with no alias: the normal-mode wrapper is
#: private to ``coupling2d``, and the Hermite and quadrature building blocks
#: are read from ``selfoc.hermite`` and ``selfoc.quadrature``.
REMOVED = ["NormalModes", "normal_modes", "hermite_scaled", "gauss_hermite", "QuadratureRule"]


def library_example() -> str:
    """The Python block of README's ``## Library`` section."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", library, re.S).group(1)


def test_public_surface_is_pinned():
    assert selfoc.__all__ == PUBLIC
    for name in PUBLIC:
        getattr(selfoc, name)
    # README's library example imports public names only
    imports = re.search(r"from selfoc import \((.*?)\)", library_example(), re.S).group(1)
    names = re.findall(r"\w+", imports)
    assert names and set(names) <= set(PUBLIC)


def test_init_imports_exactly_the_public_names():
    # a name dropped from __all__ cannot stay behind as a stray import
    init = Path(selfoc.__file__).read_text()
    imported = {
        alias.asname or alias.name
        for node in ast.parse(init).body
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    assert imported == set(selfoc.__all__)
    assert [name for name in REMOVED if hasattr(selfoc, name)] == []


def test_readme_library_example_runs():
    # the whole example, not only its import line: a call or attribute it
    # reads that was removed or renamed fails here
    exec(compile(library_example(), "README.md (## Library)", "exec"), {})


def test_every_import_is_read():
    # a module's imports are its dependencies: one it never reads is dead
    # weight that hides which modules really depend on which (__init__
    # imports to re-export)
    unread = {}
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "selfoc").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if imported - read:
            unread[path.name] = sorted(imported - read)
    assert unread == {}


def test_table_rows_have_one_fill():
    # rows n >= 1 of the Hermite table come from one row step,
    # ``_TableBuilder._rows``, whichever rows a builder keeps: no other code
    # calls the array forms of ``_dd``, so no second fill can grow beside it
    forms = {"split_into", "mul_into", "sub_into"}
    callers = set()

    def visit(node, scope, module):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in forms:
                    callers.add((module, scope, name))
            visit(child, inner, module)

    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "selfoc").glob("*.py")):
        visit(ast.parse(path.read_text()), "", path.name)
    assert callers == {("hermite.py", "_TableBuilder._rows", name) for name in forms}
