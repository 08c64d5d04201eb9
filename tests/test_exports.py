"""Every exported name resolves, so a deletion cannot leave a stale ``__all__`` behind."""

import pytest

MODULES = ("rmsphase", *(f"rmsphase.{name}" for name in (
    "berry", "cli", "errors", "oscillator", "perturbation", "quadrature", "specfun", "validate")))


@pytest.mark.parametrize("module", MODULES)
def test_star_import_resolves(module):
    # a star import raises AttributeError on a name in __all__ that the module lacks
    exec(f"from {module} import *", {})
