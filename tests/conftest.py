"""Shared test configuration.

Hypothesis runs derandomized, so every run of the suite draws the same
examples and a failure reproduces on the next run.  Run
``pytest --hypothesis-profile=default`` for fresh random draws.  The
``power_products`` fixture counts the work of the period stages.
"""

import sys

import pytest
from hypothesis import settings

from logcy3 import gaussian

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture
def power_products(monkeypatch):
    """The exponents of every ``power_product`` call, patched in every module.

    Each module of the package that holds ``gaussian.power_product`` gets a
    wrapper that records the exponent vector of each call, in call order.
    """
    calls = []
    original = gaussian.power_product

    def counted(values, exponents):
        calls.append(tuple(exponents))
        return original(values, exponents)

    for name, module in list(sys.modules.items()):
        if name == "logcy3" or name.startswith("logcy3."):
            if getattr(module, "power_product", None) is original:
                monkeypatch.setattr(module, "power_product", counted)
    return calls
