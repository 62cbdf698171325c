"""A guard against constructors that only restate ``_fields``.

``Frozen`` stores the fields that a subclass names in ``_fields``.  A
subclass constructor whose parameters are exactly those fields, in order and
without defaults, and whose body only stores each one with
``object.__setattr__``, says the field list a second time.  Such a
constructor is flagged unless its class is one of the named exceptions.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "logcy3"

# Built most often, so they keep a hand-written constructor, which is faster
# than the generic one (the reason and measurement are in boundary.py).
EXCEPTIONS = ("ExceptionalClass", "LooijengaComponent")


def _fields(node):
    for statement in node.body:
        if isinstance(statement, ast.Assign) and ast.unparse(statement.targets[0]) == "_fields":
            return tuple(ast.literal_eval(statement.value))
    return None


def _stored(statement):
    """The field an ``object.__setattr__(self, "name", name)`` line stores."""
    if not (isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Call)):
        return None
    call = statement.value
    if ast.unparse(call.func) != "object.__setattr__" or call.keywords or len(call.args) != 3:
        return None
    target, name, value = call.args
    if (
        isinstance(target, ast.Name)
        and target.id == "self"
        and isinstance(name, ast.Constant)
        and isinstance(value, ast.Name)
        and value.id == name.value
    ):
        return name.value
    return None


def _restates_fields(init, fields):
    args = init.args
    if args.vararg or args.kwarg or args.kwonlyargs or args.posonlyargs or args.defaults:
        return False
    if tuple(arg.arg for arg in args.args[1:]) != fields:
        return False
    stored = [_stored(statement) for statement in init.body]
    return None not in stored and sorted(stored) == sorted(fields)


def plain_constructors(paths):
    """Names of the ``Frozen`` subclasses whose constructor restates ``_fields``."""
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            if "Frozen" not in [ast.unparse(base).rpartition(".")[2] for base in node.bases]:
                continue
            fields = _fields(node)
            for child in node.body:
                if (
                    isinstance(child, ast.FunctionDef)
                    and child.name == "__init__"
                    and fields is not None
                    and _restates_fields(child, fields)
                ):
                    found.append(node.name)
    return sorted(found)


def test_only_the_named_exceptions_restate_their_fields():
    assert plain_constructors(sorted(PACKAGE.glob("*.py"))) == sorted(EXCEPTIONS)


def test_the_guard_flags_a_restating_constructor(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "class Plain(Frozen):\n"
        "    _fields = ('a', 'b')\n"
        "\n"
        "    def __init__(self, a, b):\n"
        "        object.__setattr__(self, 'a', a)\n"
        "        object.__setattr__(self, 'b', b)\n"
        "\n"
        "\n"
        "class Converts(Frozen):\n"
        "    _fields = ('a', 'b')\n"
        "\n"
        "    def __init__(self, a, b):\n"
        "        object.__setattr__(self, 'a', a)\n"
        "        object.__setattr__(self, 'b', str(b))\n"
        "\n"
        "\n"
        "class Defaults(Frozen):\n"
        "    _fields = ('a', 'b')\n"
        "\n"
        "    def __init__(self, a, b=None):\n"
        "        object.__setattr__(self, 'a', a)\n"
        "        object.__setattr__(self, 'b', b)\n"
    )
    assert plain_constructors([source]) == ["Plain"]
