"""The package's public surface and the imports of ``src/``.

Every name a module exports in ``__all__`` resolves on it, once.  A public
function stays public only while a caller outside its own module needs it:
the CLI, an acceptance criterion, the benchmark or another src module.  The
benchmark's files are read, never changed.  No src module imports a name it
does not use, unless the import carries ``# noqa: F401``.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

import shiftop

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(shiftop.__file__).resolve().parent
LAYERS = ("wiener", "operators", "invertibility", "process")

# names deleted or made private; none may come back on the package
REMOVED = (
    "add",
    "monomial",
    "save_coefficients",
    "from_json_dict",
    "build_bilateral",
    "formal_ar_coefficients",
    "OperatorKind",
    "TruncatedOperator",
    "compression_norm",
    "predicted_norm",
)


@pytest.mark.parametrize(
    "name",
    ["shiftop", "shiftop.wiener", "shiftop.operators", "shiftop.invertibility", "shiftop.process"],
)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert len(set(module.__all__)) == len(module.__all__)


def _references(path: Path, layer: str) -> set[str]:
    """Names ``path`` takes from module ``layer``: ``<layer>.name`` (also as
    ``x.<layer>.name``) and ``from ...<layer> import name``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute):
            base = node.value
            base = base.id if isinstance(base, ast.Name) else getattr(base, "attr", None)
            if base == layer:
                names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == layer:
            names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("layer", LAYERS)
def test_public_functions_have_a_caller(layer):
    callers = [SRC / "cli.py", ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "bench").rglob("*.py"))]
    callers += [p for p in SRC.glob("*.py") if p.stem not in (layer, "__init__")]
    called = set().union(*(_references(path, layer) for path in callers))
    module = importlib.import_module(f"shiftop.{layer}")
    # types, exceptions and constants are exempt
    functions = [n for n in module.__all__ if inspect.isfunction(getattr(module, n))]
    assert [n for n in functions if n not in called] == []


def test_removed_names_stay_gone():
    modules = [shiftop] + [importlib.import_module(f"shiftop.{layer}") for layer in LAYERS]
    assert [(m.__name__, n) for m in modules for n in REMOVED if hasattr(m, n)] == []
    assert not hasattr(shiftop.WienerElement, "min_index")
    assert not hasattr(shiftop.WideFloat, "log10")
    cli = importlib.import_module("shiftop.cli")
    assert [n for n in ("SEED_ENV_VAR", "INVERT_MAX_LEN", "InputError") if hasattr(cli, n)] == []
    process = importlib.import_module("shiftop.process")
    assert [n for n in ("_pairwise_leaves", "_pairwise_total") if hasattr(process, n)] == []
    invertibility = importlib.import_module("shiftop.invertibility")
    assert [n for n in ("_certified_length", "_TAIL_BLOCK") if hasattr(invertibility, n)] == []


_NOQA_F401 = re.compile(r"#\s*noqa(?!:)|#\s*noqa:[\w\s,]*\bF401\b")


def _unused_imports(path: Path) -> list[str]:
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        # an imported module read as ``module.attr`` is a Name too; names
        # re-exported through ``__all__`` count as used
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        if any(_NOQA_F401.search(line) for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used:
                unused.append(f"{path.name}:{node.lineno} {bound}")
    return unused


def test_src_has_no_unused_imports():
    assert [u for path in sorted(SRC.glob("*.py")) for u in _unused_imports(path)] == []


def test_unused_import_check_sees_a_stray_import(tmp_path):
    path = tmp_path / "stray.py"
    path.write_text(
        "import os\nimport sys  # noqa: F401\nfrom math import pi, tau\n"
        "from re import (\n    compile,  # noqa: F401\n)\n__all__ = ['tau']\nprint(pi)\n"
    )
    assert _unused_imports(path) == ["stray.py:1 os"]
