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
    ("census.py", "(0 if plus else 2,)", "(0 if plus else 1,)", "test_census.py"),
    # Signature search: a period no smaller than the last, and one running
    # count that weighs each period tuple by its length, which caps the
    # period count, and each kept signature by its candidate maps.
    ("census.py", "range(i, bisect", "range(i + 1, bisect", "test_census.py"),
    ("census.py", "bisect.bisect_right(costs, left)", "bisect.bisect_left(costs, left)",
     "test_census.py"),
    ("census.py", "(len(level[0][0]) + 1) *", "1 *", "test_census.py"),
    ("census.py", "1 + candidate_count(genus, sign, periods, cycles, order)", "1",
     "test_census.py"),
    # Signature search in integers: p >= 3, and the genus left at the start.
    ("census.py", "left <= max_genus - 3", "left <= max_genus - 2", "test_census.py"),
    ("census.py", "max_genus - 2 - order * (", "max_genus - 1 - order * (", "test_census.py"),
    # validate: the preserving subgroup and the sizes of subgroups.
    ("epimorphism.py", "*[r0 + r for r in reversing])", "*[r0 + r for r in reversing[:2]])",
     "test_epimorphism.py"),
    ("epimorphism.py", "*[r0 + r for r in reversing])", "*[r0 + r for r in reversing[1:]])",
     "test_epimorphism.py"),
    ("epimorphism.py", "reversing = (*cs, *glides)", "reversing = (*cs, *epi.orient_images)",
     "test_epimorphism.py"),
    ("epimorphism.py", "math.gcd(modulus, *exponents)", "math.gcd(modulus, *exponents[:1])",
     "test_epimorphism.py"),
    # Reports: the cache key keeps the e images; the oval count.
    ("fixedpoints.py",
     "@functools.lru_cache(maxsize=32)\ndef _report(sig, order, e_images, genus):\n",
     "def _report(sig, order, e_images, genus, _first={}):\n"
     "    return _first.setdefault((sig, order), _build(sig, order, e_images, genus))\n\n\n"
     "def _build(sig, order, e_images, genus):\n",
     "test_fixedpoints.py"),
    ("fixedpoints.py", "count = math.gcd(half, v)", "count = math.gcd(half, v) + 1",
     "test_oracle.py"),
    # One power table per (signature, M), never per M alone.
    ("fixedpoints.py",
     "@functools.lru_cache(maxsize=32)\ndef _powers(sig, order):\n",
     "def _powers(sig, order, _first={}):\n"
     "    return _first.setdefault(order, _build(sig, order))\n\n\n"
     "def _build(sig, order):\n",
     "test_fixedpoints.py"),
    # Odd orders take no period cycles.
    ("census.py", "if order % 2 == 0 else 1)", "if order % 2 == 0 else 2)", "test_census.py"),
    # Each user-facing result is assembled once: analyze's exit code, the
    # map text's empty sections and the invalid-map error.
    ("cli.py", "return EXIT_OK if validation.valid else EXIT_INVALID", "return EXIT_OK",
     "test_cli.py"),
    ("epimorphism.py", "for key, count in sections if count])",
     "for key, count in sections])", "test_cli.py"),
    ("epimorphism.py", "if not self.valid:", "if False:", "test_fixedpoints.py"),
    # Shared verdicts and report text: each cache key holds every value its
    # result depends on, each line keeps its signature, and the long
    # relation weighs each image.
    ("epimorphism.py",
     "@functools.lru_cache(maxsize=256)\n"
     "def _verdict(sig, order, c_images, bad, total, size, plus_size):\n",
     "def _verdict(sig, order, c_images, bad, total, size, plus_size, _first={}):\n"
     "    return _first.setdefault(\n"
     "        (sig, order), _build(sig, order, c_images, bad, total, size, plus_size))\n\n\n"
     "def _build(sig, order, c_images, bad, total, size, plus_size):\n",
     "test_epimorphism.py"),
    # A map keeps the verdict of its own first validate, never one that its
    # signature holds for every map of it.
    ("epimorphism.py",
     "    report = epi._validation\n"
     "    if report is None:\n"
     "        report = _checks(epi)\n"
     '        object.__setattr__(epi, "_validation", report)\n',
     '    report = getattr(epi.sig, "_validation", None)\n'
     "    if report is None:\n"
     "        report = _checks(epi)\n"
     '        object.__setattr__(epi.sig, "_validation", report)\n',
     "test_epimorphism.py"),
    ("census.py",
     "shared.get(epi.e_images)\n            if middle is None:\n"
     "                middle = shared[epi.e_images] =",
     "shared.get(None)\n            if middle is None:\n"
     "                middle = shared[None] =",
     "test_census.py"),
    ("census.py", ', "signature": {signature}}}', "}}", "test_census.py"),
    # The one encoder: a record type's format takes its fields sorted, a
    # bool is written true or false, a non-int field is encoded, not just
    # put in as its str(), and a tuple goes through one format in one pass
    # only when every item is of one record type.
    ("census.py", "sorted(fields(kind), key=lambda field: field.name)", "fields(kind)",
     "test_census.py"),
    ("census.py", '_BOOLS = ("false", "true")', '_BOOLS = ("False", "True")', "test_census.py"),
    ("census.py", "map(_json, values[j :: len(names)])", "map(str, values[j :: len(names)])",
     "test_census.py"),
    ("census.py", " and len(set(map(type, items))) == 1:", ":", "test_census.py"),
    # The shadow key sorts the x images unless the periods strictly
    # increase, the e images and the (a, b) pairs as pairs, and the map
    # text writes the a images before the b images.
    ("census.py", "sorted(epi.e_images)", "epi.e_images", "test_census.py"),
    ("census.py", "all(m < n for m, n", "all(m <= n for m, n", "test_census.py"),
    ("census.py", "chain.from_iterable(sorted(zip(orient[::2], orient[1::2])))",
     "chain.from_iterable(zip(orient[::2], orient[1::2]))", "test_census.py"),
    ("epimorphism.py",
     "*range(start, start + n, 2),\n"
     "                                       *range(start + 1, start + n, 2))",
     "*range(start, start + n))", "test_census.py"),
    # A block's text is written once it passes WRITE_CHUNK, never held whole,
    # and a CSV block's line format is what csv.writer writes of the
    # map-text format, so map text with a comma is quoted.
    ("census.py", "if size >= WRITE_CHUNK:", "if False:", "test_census.py"),
    ("census.py", 'modulus, text, "%s", "%s"))\n    line = out.getvalue()\n',
     'modulus, "@", "%s", "%s"))\n    line = out.getvalue().replace("@", text)\n',
     "test_cli.py"),
    ("census.py", "sum(map(operator.mul, weights, free))", "sum(free)", "test_census.py"),
    # The solved image: sign '-' without cycles still has maps, the odd-order
    # root halves the rest, and an even rest has two roots.
    ("census.py", "or (plus and not cycles)", "or not cycles", "test_census.py"),
    ("census.py", "rest * (order + 1) // 2 % order", "rest * (order // 2) % order",
     "test_census.py"),
    ("census.py", "(rest // 2, rest // 2 + order // 2)", "(rest // 2,)", "test_census.py"),
    # A constructor keeps only tuples already reduced into [0, modulus).
    ("epimorphism.py", "max(images) < modulus)", "max(images) <= modulus)",
     "test_epimorphism.py"),
    # One path from census arguments to bytes: --up-to-aut is decided by
    # the one enumeration, which skips a non-canonical map before validate,
    # each written row takes its report from full_report, and --output is
    # replaced rather than appended to.
    ("census.py", "epis = list(_iter_epimorphisms(sig, order, up_to_aut))",
     "epis = list(_iter_epimorphisms(sig, order))", "test_cli.py"),
    ("census.py", "if up_to_aut and not is_canonical(epi):", "if False:", "test_cli.py"),
    ("census.py",
     "            report = full_report(epi)\n"
     "            middle = shared.get(epi.e_images)\n            if middle is None:\n",
     "            middle = shared.get(epi.e_images)\n            if middle is None:\n"
     "                report = full_report(epi)\n",
     "test_fixedpoints.py"),
    ("cli.py", 'open(args.output, "w"', 'open(args.output, "a"', "test_cli.py"),
    # The table's middle, written by census.py like the CSV and JSON ones:
    # its equality marker reads the report's Scherrer equality, F and V are
    # the involution's isolated points and ovals, and an odd order has no
    # involution.
    ("census.py", '" *" if involution.scherrer_equality',
     '" *" if not involution.scherrer_equality', "test_cli.py"),
    ("census.py", "F={involution.isolated_total} V={involution.oval_total}",
     "F={involution.oval_total} V={involution.isolated_total}", "test_cli.py"),
    ("census.py",
     '    if involution is None:\n        return f"p={report.kernel_genus} no involution"\n', "",
     "test_cli.py"),
    # The CLI is built once: a one-worker start-up loads no process pool, and
    # each subcommand's parser dispatches to its own handler.
    ("census.py", "import os\nfrom dataclasses",
     "import os\nfrom concurrent.futures import ProcessPoolExecutor\nfrom dataclasses",
     "test_cli.py"),
    ("cli.py", "_add_format(_p, _cmd_census)", "_add_format(_p, _cmd_enumerate)", "test_cli.py"),
    # A signature with too many candidates exits 2 before building any, a
    # census disagreement names its order, and map text keeps every a/b image.
    ("census.py", "check_budget(size,", "check_budget(0,", "test_cli.py"),
    ("census.py", " M={order} {format_map_text(epi)}", " {format_map_text(epi)}", "test_cli.py"),
    ("epimorphism.py", "if len(a) != len(b):", "if False:", "test_epimorphism.py"),
    # Parser: the lower bound on the first period of a list.
    ("signature.py", "values.append(integer(what, 2))\n            while",
     "values.append(integer(what))\n            while", "test_signature.py"),
    # The oracle's exponents are their definitions, walked in lanes of one
    # int: a lane has a bit above M's for the carry, delta stops at N as
    # well as at 0, and a lane keeps the first delta it takes.  It reports
    # a twist disagreement and an Euler one; the signature search counts
    # what it builds.
    ("oracle.py", "    w = b + 1\n", "    w = b\n", "test_oracle.py"),
    ("oracle.py", "(zero | at_half) & no_delta", "zero & no_delta", "test_oracle.py"),
    ("oracle.py", " & no_delta", "", "test_oracle.py"),
    ("oracle.py", "if twisted != formula.twisted:", "if False:", "test_cli.py"),
    ("oracle.py", "if euler != quotient:", "if False:", "test_cli.py"),
    ("census.py", "check_budget(built,", "check_budget(0,", "test_census.py"),
    # Riemann-Hurwitz in integers: a link period counts half a period, a
    # kernel genus is refused unless the division is exact, and alpha is 2
    # for sign '+'.
    ("signature.py", "den // 2 - den // (2 * n)", "den - den // n", "test_signature.py"),
    ("signature.py", "    if rest:\n", "    if False:\n", "test_signature.py"),
    ("signature.py", "2 if self is Sign.PLUS else 1", "1 if self is Sign.PLUS else 2",
     "test_signature.py"),
    # The canonical walk: the units fixing the prefix narrow with each entry,
    # an entry's orbit under them keeps its residue mod r, and an entry equal
    # to its orbit's least is kept.
    ("census.py", "q = math.lcm(q, n)", "q = 1", "test_census.py"),
    ("census.py", "b += r", "b += 1", "test_census.py"),
    ("census.py", "if g * b < a:", "if g * b <= a:", "test_census.py"),
    # A wrong isolated-point count and a wrong kernel genus; each also makes
    # census --order 4 --max-genus 12 --verify exit 3.
    ("fixedpoints.py", "sig.periods if m % d == 0", "sig.periods[1:] if m % d == 0",
     "test_cli.py"),
    ("signature.py", "+ 2 * measure.denominator", "+ 3 * measure.denominator", "test_cli.py"),
    # The report a row prints: its V sums every cycle's ovals and its F is
    # that of t^N.  The oracle checks the report against its own counts, so
    # each also makes census --order 4 --max-genus 12 --verify exit 3.
    ("fixedpoints.py", "sum(c.oval_count for c in per_cycle)",
     "sum(c.oval_count for c in per_cycle[1:])", "test_oracle.py"),
    ("fixedpoints.py", "per_power[order // 2 - 1]", "per_power[order // 2 - 2]",
     "test_oracle.py"),
    # The oracle reads every power row of the report, not only that of t^N,
    # and a report whose power rows or cycle records do not line up with the
    # powers and the e images is a disagreement, not a shorter comparison.
    ("oracle.py", "if numbered and total !=", "if numbered and i == order // 2 and total !=",
     "test_oracle.py"),
    ("oracle.py", "numbered = [row.i for row in rows] == list(range(1, order))",
     "numbered = True", "test_oracle.py"),
    ("oracle.py", "if record_vs != epi.e_images:", "if False:",
     "test_oracle.py"),
    # phi keeps the prime left above the square root.
    ("census.py", "if rest > 1 else", "if rest > 2 else", "test_census.py"),
    # The closure grows by doubling an M-bit set: its rotation keeps no bit
    # at or above the modulus and wraps each bit by exactly modulus - step.
    ("epimorphism.py", "(members << step | members >> (modulus - step)) & full",
     "members << step | members >> (modulus - step)", "test_epimorphism.py"),
    ("epimorphism.py", "members >> (modulus - step)", "members >> (modulus - step + 1)",
     "test_oracle.py"),
    # Each coset is fixed by the i = x - c for x in it.  The sign flip
    # (c - x) is no row: C - c is a subgroup, closed under negation, so
    # that mutant is equivalent and would survive.
    ("oracle.py", "fixed[(x - c) % order] += 1", "fixed[x] += 1", "test_oracle.py"),
    ("oracle.py", "fixed[(x - c) % order] += 1", "fixed[(x - c) % order] = 1", "test_oracle.py"),
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
        edit = next((line.strip() for line in new.splitlines()
                     if line.strip() and line not in old.splitlines()),
                    f"(deleted) {old.strip()}")
        print(f"{'caught' if caught else 'FAILED'}  {name}: {edit}")
        print(f"        {note} ({time.perf_counter() - row_start:.1f} s)")
        survivors += not caught
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants caught "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
