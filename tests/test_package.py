import ast
import inspect
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


def _library_use_spans() -> list[str]:
    """The inline backtick spans of the README's "Library use" section, code blocks aside."""
    readme = (ROOT / "README.md").read_text()
    section = re.search(r"^## Library use\n(.*?)(?=^## |\Z)", readme, re.S | re.M).group(1)
    prose = re.sub(r"```.*?```", "", section, flags=re.S)
    return re.findall(r"`([^`]+)`", prose)


def _names_in_library_use() -> set[str]:
    """Identifiers in the inline backtick spans of the README's "Library use" section."""
    return {name for span in _library_use_spans() for name in re.findall(r"\w+", span)}


def test_every_export_has_a_user():
    # an exported name that neither the program reads (strings and
    # docstrings do not count) nor the README documents serves only tests
    unused = set(coolspec.__all__) - _names_used_in_package() - _names_in_library_use()
    assert not unused, f"exported, read by no module, absent from README: {sorted(unused)}"


def test_library_use_signatures_match_the_code():
    # a call form of an export whose arguments are bare names, each with or
    # without a default, such as `rate_table(eig, bath, shifts=False)`,
    # names the export's leading parameters in order
    checked = set()
    for span in _library_use_spans():
        call = re.fullmatch(r"(\w+)\((.*)\)", " ".join(span.split()))
        if call is None or call.group(1) not in coolspec.__all__:
            continue
        args = [re.fullmatch(r"(\w+)(=.+)?", arg.strip()) for arg in call.group(2).split(",")]
        if not all(args):
            continue
        names = [arg.group(1) for arg in args]
        parameters = list(inspect.signature(getattr(coolspec, call.group(1))).parameters)
        assert parameters[:len(names)] == names, f"README `{span}`; the code has {parameters}"
        checked.add(call.group(1))
    assert {"total_liouvillian", "TclPropagator", "rate_table", "rate_a", "shift_b"} <= checked


def test_no_module_calls_kron_or_einsum():
    # superoperators come from sandwich_superoperator's one broadcasting
    # matmul: only the test oracles (tests/conftest.py) call np.kron, and
    # no module calls einsum
    calls = []
    for path in (ROOT / "src" / "coolspec").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                if name in ("kron", "einsum"):
                    calls.append(f"{path.name}:{node.lineno} {name}")
    assert not calls, f"kron or einsum called in src/: {calls}"
