"""errors.py keeps its own rule: a subclass of TwinmillError exists only
where a caller catches it or where it carries data.

Each class errors.py defines, other than TwinmillError, is named by an
`except` clause somewhere in src/twinmill (alone or in a tuple), or defines
its own `__init__`. Checked on the source with `ast`, so a class that
neither code nor data tells apart from its base fails here by name.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "twinmill"


def parse(path):
    return ast.parse(path.read_text(), str(path))


def caught_names():
    """The names every `except` clause in the package's modules catches."""
    names = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                names.update(c.attr if isinstance(c, ast.Attribute) else c.id for c in caught)
    return names


def error_classes():
    """(name, defines its own __init__) of each class errors.py defines."""
    return [
        (node.name, any(isinstance(item, ast.FunctionDef) and item.name == "__init__" for item in node.body))
        for node in parse(PACKAGE / "errors.py").body if isinstance(node, ast.ClassDef)
    ]


def test_every_error_subclass_is_caught_or_carries_data():
    caught = caught_names()
    idle = [name for name, own_init in error_classes()
            if name != "TwinmillError" and not own_init and name not in caught]
    assert idle == [], f"neither caught in src/twinmill nor carrying data: {', '.join(idle)}"


def test_the_check_sees_every_class():
    """The rule is checked on all six classes, TwinmillError included."""
    assert [name for name, _ in error_classes()] == [
        "TwinmillError", "InvalidInputError", "UnreachableTargetError",
        "SingularConfigurationError", "ClosureError", "ConfigError",
    ]
