"""Every annotation in the package names something its module binds.

With postponed evaluation an annotation is a string, and a name that the
module imports only inside a function reads nowhere until
``typing.get_type_hints`` evaluates it and raises ``NameError``.  This
resolves the hints of every function, method and property defined in
``src/logcy3``.
"""

import importlib
import pkgutil
import typing

import logcy3
from logcy3.gaussian import held_property


def _functions(cls):
    """The functions behind the methods and properties a class defines."""
    for value in vars(cls).values():
        if isinstance(value, (staticmethod, classmethod)):
            value = value.__func__
        elif isinstance(value, held_property):
            value = value.compute
        if isinstance(value, property):
            # A field getter is an ``operator.attrgetter``, with no annotations.
            yield from (f for f in (value.fget, value.fset) if hasattr(f, "__code__"))
        elif hasattr(value, "__code__"):
            yield value


def package_functions():
    """Every function, method and property defined in the package's modules."""
    for info in pkgutil.iter_modules(logcy3.__path__):
        module = importlib.import_module(f"logcy3.{info.name}")
        for value in vars(module).values():
            if getattr(value, "__module__", None) != module.__name__:
                continue
            if isinstance(value, type):
                yield from _functions(value)
            elif hasattr(value, "__code__"):
                yield value


def test_every_annotation_resolves():
    functions = list(package_functions())
    assert len(functions) > 250
    unresolved = []
    for function in functions:
        try:
            typing.get_type_hints(function)
        except NameError as exc:
            unresolved.append(f"{function.__module__}.{function.__qualname__}: {exc}")
    assert unresolved == []
