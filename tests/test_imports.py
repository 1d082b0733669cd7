"""The package imports only numpy and the standard library, in Python 3.10 syntax.

scipy, hypothesis and pytest are test dependencies (the ``test`` extra in
``pyproject.toml``); an import of one of them under ``src/sealsim`` would
make the installed package fail without that extra.  Every module is read
with ``ast``, so an import inside a function is caught as well, and is
parsed as Python 3.10, the oldest version ``pyproject.toml`` accepts.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sealsim"
ALLOWED = {"numpy", "sealsim"} | set(sys.stdlib_module_names)


def imported_roots(path: Path) -> list[tuple[int, str]]:
    """(line, top-level module) of every absolute import in the file at ``path``."""
    roots = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            roots += [(node.lineno, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.append((node.lineno, node.module.split(".")[0]))
    return roots


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.rglob("*.py")), ids=lambda path: str(path.relative_to(PACKAGE))
)
def test_the_package_imports_only_numpy_and_the_standard_library(path):
    outside = [(line, root) for line, root in imported_roots(path) if root not in ALLOWED]
    assert outside == [], f"{path.name} imports {outside}"


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.rglob("*.py")), ids=lambda path: str(path.relative_to(PACKAGE))
)
def test_the_package_is_python_3_10_syntax(path):
    """pyproject.toml declares requires-python >= 3.10, and tier-1 may run on a newer one."""
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_the_syntax_check_sees_newer_syntax():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))


def test_the_check_sees_a_third_party_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("import math\nfrom . import qubit\n\ndef f():\n    from scipy import stats\n")
    assert [root for _, root in imported_roots(module) if root not in ALLOWED] == ["scipy"]
