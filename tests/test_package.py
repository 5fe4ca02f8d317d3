import ast
import re
from pathlib import Path

import coolspec

ROOT = Path(__file__).resolve().parents[1]


def _names_used_in_package() -> set[str]:
    """Every Name and Attribute the package's modules read, __init__.py aside."""
    used = set()
    for path in (ROOT / "src" / "coolspec").glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def _names_in_library_use() -> set[str]:
    """Identifiers in the inline backtick spans of the README's "Library use" section."""
    readme = (ROOT / "README.md").read_text()
    section = re.search(r"^## Library use\n(.*?)(?=^## |\Z)", readme, re.S | re.M).group(1)
    prose = re.sub(r"```.*?```", "", section, flags=re.S)
    return {name for span in re.findall(r"`([^`]+)`", prose) for name in re.findall(r"\w+", span)}


def test_every_export_has_a_user():
    # an exported name that neither the program reads (strings and
    # docstrings do not count) nor the README documents serves only tests
    unused = set(coolspec.__all__) - _names_used_in_package() - _names_in_library_use()
    assert not unused, f"exported, read by no module, absent from README: {sorted(unused)}"
