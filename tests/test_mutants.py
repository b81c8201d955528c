"""The recorded mutation checks stay in step with the code they mutate.

``mutants/run.py`` makes each defect and runs its tests, which takes a
subprocess per defect; this guard only reads ``mutants/mutants.json``, so
a refactor that leaves a defect stale fails the suite as well.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = json.loads((ROOT / "mutants" / "mutants.json").read_text())


def test_mutant_ids_are_unique():
    assert len({mutant["id"] for mutant in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[mutant["id"] for mutant in MUTANTS])
def test_mutant_is_not_stale(mutant):
    """Its old text occurs exactly once in its file and differs from the
    new one, and every test it names is a function of an existing test
    file (parameter ids are not checked here; ``mutants/run.py``'s
    baseline runs them)."""
    text = (ROOT / mutant["file"]).read_text()
    assert text.count(mutant["old"]) == 1 and mutant["new"] != mutant["old"]
    assert mutant["tests"]
    for test in mutant["tests"]:
        path, _, name = test.partition("::")
        source = ROOT / path
        assert source.is_file(), test
        function = re.escape(name.partition("[")[0])
        assert re.search(rf"^def {function}\(", source.read_text(), re.MULTILINE), test
