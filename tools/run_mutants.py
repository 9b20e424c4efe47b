"""Apply each mutant of tests/mutants.py to a temporary copy of the source,
one at a time, run the tests it names, and report the survivors.

    python tools/run_mutants.py

Each copy holds the repository's src/ and tests/ and pyproject.toml, with
the compiled scan kernel's cache, so no copy rebuilds it.  The named tests
first run on an unmutated copy and must pass there.  A mutant is killed
when its tests fail on its copy, and survives when they pass.  Exit status
0 when every mutant is killed, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from mutants import MUTANTS  # noqa: E402


def _copy(tree: Path) -> None:
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, tree / name, ignore=shutil.ignore_patterns("*.pyc", ".hypothesis"))
    shutil.copy2(ROOT / "pyproject.toml", tree)


def _passes(tree: Path, tests: list[str]) -> bool:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=tree, env=env, capture_output=True).returncode == 0


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        base = Path(tmp) / "base"
        _copy(base)
        if not _passes(base, sorted({t for m in MUTANTS for t in m.tests})):
            print("the mutants' tests fail on the unmutated source")
            return 1
        survivors = []
        for i, mutant in enumerate(MUTANTS):
            tree = Path(tmp) / f"mutant-{i}"
            _copy(tree)
            path = tree / mutant.file
            text = path.read_text()
            if text.count(mutant.snippet) != 1:
                print(f"{mutant.name}: the snippet does not occur exactly once in {mutant.file}")
                return 1
            path.write_text(text.replace(mutant.snippet, mutant.replacement))
            killed = not _passes(tree, list(mutant.tests))
            print(f"{'killed' if killed else 'SURVIVED'}  {mutant.name}", flush=True)
            if not killed:
                survivors.append(mutant.name)
            shutil.rmtree(tree)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    for name in survivors:
        print(f"survivor: {name}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
