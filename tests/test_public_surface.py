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
    "NormalModes",
    "NotPositiveDefiniteError",
    "NumericOverflowError",
    "OscillatorFrame",
    "OverlapKernel",
    "PartialResultError",
    "QuadratureRule",
    "SchmidtReport",
    "Spectrum",
    "Transition1D",
    "Waveguide2D",
    "build_kernel",
    "coupled_tensor",
    "coupling_matrix",
    "fc_candidates",
    "fc_estimate",
    "gauss_hermite",
    "hermite_scaled",
    "normal_modes",
    "oscillator_psi",
    "overlap_closed",
    "overlap_coupled",
    "overlap_quad",
    "scaled_hermite_table",
    "schmidt_report",
    "spectrum1d",
    "spectrum2d_separable",
]


def test_public_surface_is_pinned():
    assert selfoc.__all__ == PUBLIC
    for name in PUBLIC:
        getattr(selfoc, name)
    # README's library example imports public names only
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    names = re.findall(r"\w+", re.search(r"from selfoc import \((.*?)\)", library, re.S).group(1))
    assert names and set(names) <= set(PUBLIC)


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
