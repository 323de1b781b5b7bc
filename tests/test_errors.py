"""Every error and warning type in ``wscluster.errors`` is in use.

A type that no site raises or warns with is dead surface: no handler ever
sees it, yet readers must still learn it. These checks read the package
source with ``ast``, so a type that loses its last raise site fails here.
"""

import ast
from pathlib import Path

import pytest

from wscluster import errors

PACKAGE = Path(errors.__file__).resolve().parent


def _defined_classes():
    tree = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    return [node.name for node in tree.body if isinstance(node, ast.ClassDef)]


def _names(node):
    """Names that ``node`` refers to directly, whether bare or called."""
    if isinstance(node, ast.Call):
        node = node.func
    return {node.id} if isinstance(node, ast.Name) else set()


def _raised_and_warned():
    raised, warned = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                raised |= _names(node.exc)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "warn"):
                categories = node.args[1:2] + [kw.value for kw in node.keywords
                                               if kw.arg == "category"]
                for arg in categories:
                    warned |= _names(arg)
    return raised, warned


CLASSES = _defined_classes()
EXCEPTIONS = [c for c in CLASSES if not issubclass(getattr(errors, c), Warning)]
WARNINGS = [c for c in CLASSES if issubclass(getattr(errors, c), Warning)]
RAISED, WARNED = _raised_and_warned()


@pytest.mark.parametrize("name", CLASSES)
def test_every_class_is_a_package_error_or_a_warning(name):
    assert issubclass(getattr(errors, name), (errors.WsclusterError, Warning))


@pytest.mark.parametrize("name", [c for c in EXCEPTIONS if c != "WsclusterError"])
def test_every_exception_is_raised_somewhere(name):
    assert name in RAISED


@pytest.mark.parametrize("name", WARNINGS)
def test_every_warning_is_warned_somewhere(name):
    assert name in WARNED
