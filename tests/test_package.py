"""The package exports what the library, the bench and the README use."""
import ast
import re
from pathlib import Path

import pytest

import volterra2d

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "volterra2d"


def _users():
    """The text of every module but __init__, every bench script and the
    README: where an exported name must be used."""
    paths = [*sorted(PACKAGE.glob("*.py")), *sorted(ROOT.glob("bench/*.py")),
             ROOT / "README.md"]
    return [path.read_text() for path in paths
            if path != PACKAGE / "__init__.py"]


@pytest.mark.parametrize("name", volterra2d.__all__)
def test_export_is_an_attribute(name):
    assert hasattr(volterra2d, name)


@pytest.mark.parametrize("name", volterra2d.__all__)
def test_export_has_a_user(name):
    """A use is any mention but the name's own def or class line and a
    module's __all__ entry."""
    use = re.compile(rf'(?<![\w"])(?<!def )(?<!class ){name}\b(?!")')
    assert any(use.search(text) for text in _users())


def test_init_exports_every_public_name_it_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    public = {name for name in imported if not name.startswith("_")}
    assert public <= set(volterra2d.__all__)
