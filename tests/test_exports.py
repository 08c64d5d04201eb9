"""Every exported name resolves, so a deletion cannot leave a stale ``__all__``
behind, and the package exports exactly what the README documents."""

import doctest
import re
from pathlib import Path

import pytest

import rmsphase
from rmsphase import oscillator, validate

MODULES = ("rmsphase", *(f"rmsphase.{name}" for name in (
    "berry", "cli", "errors", "oscillator", "perturbation", "quadrature", "specfun", "validate")))

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("module", MODULES)
def test_star_import_resolves(module):
    # a star import raises AttributeError on a name in __all__ that the module lacks
    exec(f"from {module} import *", {})


def test_exports_are_the_readme_python_api():
    # one "- `name` -- ..." line per export in the README's "Python API" section
    section = README.read_text().split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    documented = re.findall(r"^- `(\w+)` -- ", section, flags=re.MULTILINE)
    assert documented == rmsphase.__all__


def test_readme_example_runs():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0 and result.failed == 0


def test_validate_reexports_the_oscillator_certificate():
    # the build certificate and the reference frequencies live in oscillator
    for name in ("ROW_FREQUENCIES_MHZ", "EXACT_NODES", "EXACTNESS_BOUND"):
        assert getattr(validate, name) is getattr(oscillator, name), name
