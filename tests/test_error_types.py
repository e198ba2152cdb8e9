"""errors.py keeps its own rule: a subclass of TwinmillError exists only
where a caller catches it or where it carries data, and no two classes are
caught at exactly the same places.

Each class errors.py defines, other than TwinmillError, is named by an
`except` clause somewhere in src/twinmill (alone or in a tuple), or defines
its own `__init__`. No two caught classes are named by the same set of
`except` clauses, each clause being its (file, line). Checked on the source
with `ast`, so a class that neither code nor data tells apart from its base,
or one that every handler treats as another, fails here by name.
"""

import ast
from collections import defaultdict
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "twinmill"


def parse(path):
    return ast.parse(path.read_text(), str(path))


def catching_clauses():
    """Each name an `except` clause in the package's modules catches, with
    the set of (file, line) of the clauses that catch it."""
    clauses = defaultdict(set)
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                for c in caught:
                    clauses[c.attr if isinstance(c, ast.Attribute) else c.id].add((path.name, node.lineno))
    return clauses


def error_classes():
    """(name, defines its own __init__) of each class errors.py defines."""
    return [
        (node.name, any(isinstance(item, ast.FunctionDef) and item.name == "__init__" for item in node.body))
        for node in parse(PACKAGE / "errors.py").body if isinstance(node, ast.ClassDef)
    ]


def test_every_error_subclass_is_caught_or_carries_data():
    caught = catching_clauses()
    idle = [name for name, own_init in error_classes()
            if name != "TwinmillError" and not own_init and name not in caught]
    assert idle == [], f"neither caught in src/twinmill nor carrying data: {', '.join(idle)}"


def test_no_two_error_classes_are_caught_at_the_same_places():
    clauses = catching_clauses()
    by_places = defaultdict(list)
    for name, _ in error_classes():
        if name in clauses:
            by_places[frozenset(clauses[name])].append(name)
    twins = [names for names in by_places.values() if len(names) > 1]
    assert twins == [], f"caught by exactly the same except clauses: {'; '.join(map(', '.join, twins))}"


def test_the_check_sees_every_class():
    """The rules are checked on all five classes, TwinmillError included."""
    assert [name for name, _ in error_classes()] == [
        "TwinmillError", "InvalidInputError", "UnreachableTargetError", "DomainError", "ConfigError",
    ]
