"""Mutation checks: each recorded mutant must fail the tests it names.

Run from the root of a checkout (standard library and the test suite's
own dependencies only):

    python mutants/run.py              # every mutant in mutants/mutants.json
    python mutants/run.py --selftest   # a no-op mutant survives, a missing text is stale

Each entry of the data file names a mutant ("id"), a file relative to the
root ("file"), an exact text that must occur in it exactly once ("old"),
its replacement ("new") and the test ids that must fail once it is made
("tests").  First every named test runs on an unmutated copy and must
pass, so a misspelt or failing id cannot count as a kill.  Then each
mutant is made in a fresh temporary copy of src/, tests/ and
pyproject.toml, and only its named tests run there.  A mutant is killed
when every test it names fails; otherwise it survived.  An old text that
does not occur exactly once is stale.  The exit code is 0 only if every
mutant is killed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "mutants" / "mutants.json"


def _copy(dst: Path) -> None:
    """The parts of the checkout the tests read, without caches."""
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dst / name, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dst)


def _pytest(root: Path, ids: list) -> tuple[set, set]:
    """The named tests run in the copy at root: the ids that passed and the
    ids that failed or errored, from pytest's short summary."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    cmd = [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider", *ids]
    out = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=600)
    passed, failed = set(), set()
    for line in out.stdout.splitlines():
        word, _, rest = line.partition(" ")
        if word in ("PASSED", "FAILED", "ERROR"):
            (passed if word == "PASSED" else failed).add(rest.split(" - ")[0])
    return passed, failed


def _mutate(root: Path, mutant: dict) -> str | None:
    """Make the mutant in the copy at root; the reason it is stale, if so."""
    path = root / mutant["file"]
    text = path.read_text() if path.is_file() else ""
    count = text.count(mutant["old"])
    if count != 1:
        return f"old text found {count} times in {mutant['file']}"
    path.write_text(text.replace(mutant["old"], mutant["new"]))
    return None


def check(mutants: list) -> dict:
    """Each mutant's verdict by id: "killed", "survived: ..." or "stale:
    ...", after a baseline on an unmutated copy, whose failures come back
    under the id "baseline"."""
    ids = sorted({test for mutant in mutants for test in mutant["tests"]})
    with tempfile.TemporaryDirectory() as tmp:
        _copy(Path(tmp))
        passed, _ = _pytest(Path(tmp), ids)
    if missing := [test for test in ids if test not in passed]:
        return {"baseline": f"failed: {', '.join(missing)} did not pass unmutated"}
    verdicts = {}
    for mutant in mutants:
        with tempfile.TemporaryDirectory() as tmp:
            _copy(Path(tmp))
            if stale := _mutate(Path(tmp), mutant):
                verdicts[mutant["id"]] = f"stale: {stale}"
                continue
            _, failed = _pytest(Path(tmp), mutant["tests"])
        alive = [test for test in mutant["tests"] if test not in failed]
        verdicts[mutant["id"]] = f"survived: {', '.join(alive)} passed" if alive else "killed"
    return verdicts


def selftest() -> bool:
    """A no-op mutant of the first recorded one must read as surviving and
    a text that is not in its file as stale."""
    first = json.loads(DATA.read_text())[0]
    verdicts = check(
        [
            {**first, "id": "no-op", "new": first["old"]},
            {**first, "id": "missing", "old": first["old"] + "\n# not in the file\n"},
        ]
    )
    for name, verdict in verdicts.items():
        print(f"{name}: {verdict}")
    return verdicts.get("no-op", "").startswith("survived") and verdicts.get(
        "missing", ""
    ).startswith("stale")


def main(argv: list) -> int:
    if argv not in ([], ["--selftest"]):
        print("\n\n".join(__doc__.split("\n\n")[1:3]), file=sys.stderr)
        return 2
    if argv:
        ok = selftest()
        print("selftest passed" if ok else "selftest FAILED")
        return 0 if ok else 1
    mutants = json.loads(DATA.read_text())
    verdicts = check(mutants)
    for name, verdict in verdicts.items():
        print(f"{name}: {verdict}")
    killed = sum(verdict == "killed" for verdict in verdicts.values())
    print(f"{killed} of {len(mutants)} mutants killed")
    return 0 if killed == len(mutants) == len(verdicts) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
