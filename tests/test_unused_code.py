"""A guard against code that nothing runs.

Every function, class and method defined in the package (``fixtures.py``
aside, which exists for the tests and benchmarks) must be named somewhere
else in the package or the benchmark scripts: called, read as an
attribute, imported, or given as a string, as the tracer names what it
wraps.  A method counts only as an attribute (``x.name``) or a string, so
a local variable of the same name does not keep it alive.  Mentions in
docstrings and comments do not count.  A method hidden by another class's
method of the same name is not caught.  The names on
``PUBLIC_API`` are the exceptions: public, documented in the README, and
kept although nothing in the package calls them.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "logcy3"

PUBLIC_API = (
    # Paper outputs and the document writers.
    "complexity",
    "correspondence_to_document",
    "pair_to_document",
    "reconstruct_fan",
    "torus_translate",
    # Accessors of the number, fan, pair and period types.
    "basis_vectors",
    "canonical_class",
    "canonical_form",
    "conjugate",
    "exceptional_class",
    "fan_isomorphism",
    "is_isomorphic",
    "norm",
    "scale_marking",
    "to_ray_vector",
    "vector_triple",
)

_DOTTED_NAME = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _names_used(paths):
    """Names used bare, and names used as an attribute or a string."""
    bare, attributes = set(), set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                bare.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                bare.add(node.name.rpartition(".")[2])
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and _DOTTED_NAME.fullmatch(node.value)
            ):
                attributes.update(node.value.split("."))
    return bare, attributes


def _names_defined(paths):
    """Names of the functions, classes and methods, and of the methods alone."""
    defined, methods = set(), set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")):
                    defined.add(name)
            if isinstance(node, ast.ClassDef):
                methods.update(
                    child.name
                    for child in node.body
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                )
    return defined, methods


def test_every_definition_is_used_or_public():
    modules = sorted(PACKAGE.glob("*.py"))
    bare, attributes = _names_used(modules + sorted((ROOT / "benchmarks").glob("*.py")))
    defined, methods = _names_defined(m for m in modules if m.name != "fixtures.py")
    unused = {
        name
        for name in defined
        if name not in attributes and (name in methods or name not in bare)
    }
    assert sorted(unused - set(PUBLIC_API)) == [], "defined but never used"
    assert sorted(set(PUBLIC_API) - unused) == [], "on PUBLIC_API but used or gone"
