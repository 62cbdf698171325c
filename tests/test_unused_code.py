"""A guard against code that nothing runs.

Every function, class and method defined in the package (``fixtures.py``
aside, which exists for the tests and benchmarks) must be named somewhere
else in the package or the benchmark scripts: called, read as an
attribute, imported, or given as a string, as the tracer names what it
wraps.  Mentions in docstrings and comments do not count.  The names on
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


def _names_used(paths) -> set:
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rpartition(".")[2])
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and _DOTTED_NAME.fullmatch(node.value)
            ):
                used.update(node.value.split("."))
    return used


def _names_defined(paths) -> set:
    defined = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")):
                    defined.add(name)
    return defined


def test_every_definition_is_used_or_public():
    modules = sorted(PACKAGE.glob("*.py"))
    used = _names_used(modules + sorted((ROOT / "benchmarks").glob("*.py")))
    defined = _names_defined(m for m in modules if m.name != "fixtures.py")
    unused = defined - used
    assert sorted(unused - set(PUBLIC_API)) == [], "defined but never used"
    assert sorted(set(PUBLIC_API) - unused) == [], "on PUBLIC_API but used or gone"
