"""The registry of ``scripts/mutants.py`` still applies to the code and tests.

The mutant run itself (``python scripts/mutants.py``) is outside Tier-1;
this only checks that each mutant can be made and names real tests.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_snippet_occurs_once_and_tests_exist(mutant):
    assert (ROOT / mutant.path).read_text().count(mutant.snippet) == 1
    assert mutant.replacement != mutant.snippet
    assert mutant.tests
    for test_id in mutant.tests:
        path, *scope = test_id.split("::")
        text = (ROOT / path).read_text()
        assert f"def {scope[-1]}(" in text
        assert all(f"class {name}" in text for name in scope[:-1])
