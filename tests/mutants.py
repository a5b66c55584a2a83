"""Mutation checks for the tier-1 tests.

Each row of MUTANTS breaks the program in one small way and names the test
file that must catch it.  For every row this script copies src/ and tests/
into a temporary directory, requires the old text to occur exactly once in
the named source file (so a refactor that moves the code fails here, and
the row is updated with it), applies the edit, runs that test file with
``pytest -x`` against the copy and requires a test failure (pytest exit 1).

    python tests/mutants.py

Exits 1 when a mutant survives or its old text does not occur exactly once.
pytest does not collect this file, since its name does not start with test_.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (source file in src/necfix, exact old text, new text, test file in tests)
MUTANTS = [
    # Census candidates: x images of exact order m_i, glides weighted twice.
    ("census.py", "for k in units(m)]", "for k in units(m)[1:]]", "test_census.py"),
    ("census.py", "for k in units(m)]", "for k in range(1, m)]", "test_census.py"),
    ("census.py", "glide = 2 if", "glide = 1 if", "test_census.py"),
    # Signature search: a period no smaller than the last, and the period cap.
    ("census.py", "for j in range(i, bisect", "for j in range(i + 1, bisect", "test_census.py"),
    ("census.py", "bisect.bisect_right(costs, left)", "bisect.bisect_left(costs, left)",
     "test_census.py"),
    ("census.py", "(MAX_PERIODS + 1) * costs[0]", "MAX_PERIODS * costs[0]", "test_census.py"),
    ("census.py", "(MAX_PERIODS + 1) * costs[0]", "(MAX_PERIODS + 2) * costs[0]",
     "test_census.py"),
    # validate: the preserving subgroup and the sizes of subgroups.
    ("epimorphism.py", "*(r0 + r for r in reversing)", "*(r0 + r for r in reversing[:2])",
     "test_epimorphism.py"),
    ("epimorphism.py", "*(r0 + r for r in reversing)", "*(r0 + r for r in reversing[1:])",
     "test_epimorphism.py"),
    ("epimorphism.py", "reversing = (*epi.c_images, *glides)",
     "reversing = (*epi.c_images, *epi.orient_images)", "test_epimorphism.py"),
    ("epimorphism.py", "math.gcd(modulus, *exponents)", "math.gcd(modulus, *exponents[:1])",
     "test_epimorphism.py"),
    # Reports: the cache key keeps the e images; the oval count; report fields.
    ("fixedpoints.py",
     "@functools.lru_cache(maxsize=32)\ndef _report(sig, order, e_images):\n",
     "def _report(sig, order, e_images, _first={}):\n"
     "    return _first.setdefault((sig, order), _build(sig, order, e_images))\n\n\n"
     "def _build(sig, order, e_images):\n",
     "test_fixedpoints.py"),
    ("fixedpoints.py", "count = math.gcd(half, v)", "count = math.gcd(half, v) + 1",
     "test_oracle.py"),
    ("fixedpoints.py", "    involution: InvolutionReport | None\n",
     "    involution: InvolutionReport | None\n\n"
     "    def __post_init__(self):\n"
     "        object.__setattr__(self, 'note', None)\n",
     "test_census.py"),
    # Parser: the lower bound on the first period of a list.
    ("signature.py", "values.append(integer(what, 2))\n            while",
     "values.append(integer(what))\n            while", "test_signature.py"),
]


def run_mutant(name, old, new, test, workdir):
    """Apply one mutant in a fresh copy under workdir.  Return (caught, note):
    the note names the first failing test, or says what went wrong."""
    shutil.copytree(ROOT / "src", workdir / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "tests", workdir / "tests", ignore=shutil.ignore_patterns("__pycache__"))
    path = workdir / "src" / "necfix" / name
    text = path.read_text(encoding="utf-8")
    if text.count(old) != 1:
        return False, f"old text occurs {text.count(old)} times"
    path.write_text(text.replace(old, new), encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", f"tests/{test}"],
        cwd=workdir,
        env=dict(os.environ, PYTHONPATH=str(workdir / "src")),
        capture_output=True,
        text=True,
    )
    if result.returncode == 0:
        return False, "survived: every test passed"
    if result.returncode != 1:
        return False, f"pytest exited {result.returncode}, not with a test failure"
    failed = [line.split()[1] for line in result.stdout.splitlines() if line.startswith("FAILED ")]
    return True, failed[0] if failed else test


def main():
    start = time.perf_counter()
    survivors = 0
    for name, old, new, test in MUTANTS:
        row_start = time.perf_counter()
        with tempfile.TemporaryDirectory(prefix="necfix-mutant-") as tmp:
            caught, note = run_mutant(name, old, new, test, Path(tmp))
        edit = next(line.strip() for line in new.splitlines()
                    if line.strip() and line not in old.splitlines())
        print(f"{'caught' if caught else 'FAILED'}  {name}: {edit}")
        print(f"        {note} ({time.perf_counter() - row_start:.1f} s)")
        survivors += not caught
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants caught "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
