"""pytest plugin: run any selection of tests under one catalogued mutant.

    PYTHONPATH=src python -m pytest -p tests.mutants.plugin --mutant NAME [TESTS]

A test that fails under ``--mutant NAME`` kills that mutant.  Property tests
then run derandomized and unshrunk: a kill is the same on every run, and
nobody reads the minimal counterexample.
"""

import pytest
from hypothesis import Phase, settings

from tests.mutants import apply, by_name


def pytest_addoption(parser):
    parser.addoption("--mutant", default=None, metavar="NAME",
                     help="install this catalogued mutant for the whole session")


def pytest_configure(config):
    name = config.getoption("mutant")
    if name:
        settings.register_profile("mutant", derandomize=True, database=None,
                                  phases=(Phase.explicit, Phase.generate))
        settings.load_profile("mutant")
        patch = config._mutant_patch = pytest.MonkeyPatch()
        apply(by_name(name), patch)


def pytest_unconfigure(config):
    patch = getattr(config, "_mutant_patch", None)
    if patch is not None:
        patch.undo()
