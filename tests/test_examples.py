"""Every script under ``examples/`` runs to completion.

They are the README's worked uses of the public API (systems, runtimes, the
view tracer, view inference, ``run_app``); a refactor that breaks one breaks
a documented call.  Each asserts its own results where it has any.
"""

import pathlib
import runpy

import pytest

EXAMPLES = sorted((pathlib.Path(__file__).parent.parent / "examples").glob("*.py"))


def test_examples_are_discovered():
    assert len(EXAMPLES) == 6


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()  # each prints its findings
