import argparse
import csv
import errno
import hashlib
import json
import math
import os
import random
import re
import signal
import subprocess
import sys
import time
import tracemalloc

import pytest

from necfix.cli import _PARSER, main
from strategies import LADDER_ACTIONS, ladder_signature


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_example1_table(capsys):
    code, out, err = run_cli(
        capsys, "analyze", "(0;+;[2,7];{()})", "--order", "14", "--map", "x=7,2;e=5"
    )
    assert code == 0
    assert "kernel genus 7" in out
    assert "F=7 V=1" in out
    assert "c1:1t" in out
    assert "Scherrer 9 <= 9 (equality)" in out


def test_analyze_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "analyze", "(0;+;[2,7];{()})", "--order", "14", "--map", "x=7,2;e=5",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["validation"]["valid"] is True
    assert payload["report"]["kernel_genus"] == 7
    inv = payload["report"]["involution"]
    assert inv["isolated_total"] == 7
    assert inv["oval_total"] == 1
    assert inv["per_cycle"][0]["twisted"] is True
    assert inv["scherrer_lhs"] == inv["scherrer_rhs"] == 9


def test_analyze_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "analyze", "(0;+;[2,7];{()})", "--order", "14", "--map", "x=7,2;e=5",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("signature,M,images,p,F,V")
    assert "x=7,2;e=5;c=7" in lines[1]


def test_analyze_invalid_map_exits_4(capsys):
    code, out, err = run_cli(
        capsys, "analyze", "(0;+;[2,7];{()})", "--order", "14", "--map", "x=7,3;e=4"
    )
    assert code == 4
    assert err == ""
    # The six checks and nothing else: no report table follows them.
    assert [line[:4] + " " + line.split()[1] for line in out.splitlines()] == [
        "ok   REFLECTIONS",
        "FAIL SMOOTH-ELLIPTIC",
        "ok   LONG-RELATION",
        "ok   SURJECTIVE",
        "ok   KERNEL-NON-ORIENTABLE",
        "ok   GENUS",
    ]


def test_analyze_huge_measure_genus_text_is_written_by_size(capsys):
    # The measure over the first 2,000 primes has a denominator of about 7,482
    # digits, beyond the 4,300 that str() writes, so its parts print as 10^x.
    primes = [n for n in range(2, 17390) if all(n % d for d in range(2, math.isqrt(n) + 1))]
    assert len(primes) == 2000
    code, out, err = run_cli(
        capsys,
        "analyze", f"(0;+;[{','.join(map(str, primes))}];{{()}})", "--order", "2",
        "--map", f"x={','.join(['1'] * 2000)};e=1",
    )
    assert code == 4
    assert err == ""
    genus = [line for line in out.splitlines() if line.startswith("FAIL GENUS")]
    assert len(genus) == 1
    assert re.search(r" kernel genus 10\^[0-9.]+/10\^[0-9.]+ is not an integer; "
                     r"no index-2 surface kernel$", genus[0])


def test_analyze_csv_invalid_map_keeps_stdout_empty(capsys):
    code, out, err = run_cli(
        capsys,
        "analyze", "(0;+;[2,7];{()})", "--order", "14", "--map", "x=7,3;e=4",
        "--format", "csv",
    )
    assert code == 4
    assert out == ""
    assert "FAIL SMOOTH-ELLIPTIC" in err


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_analyze_validates_its_map_twice(capsys, monkeypatch, fmt):
    # Once for the check table, once inside full_report: the CSV line takes
    # its report from full_report itself, so analyze takes none for it.
    import necfix.cli as cli
    import necfix.fixedpoints as fixedpoints

    calls = []
    for module in (cli, fixedpoints):
        original = module.validate
        monkeypatch.setattr(module, "validate",
                            lambda epi, original=original: calls.append(epi) or original(epi))
    code, out, _ = run_cli(capsys, "analyze", "(0;+;[2,7];{()})", "--order", "14",
                           "--map", "x=7,2;e=5", "--format", fmt)
    assert code == 0
    assert out
    assert len(calls) == 2


def test_analyze_odd_order_table_has_no_involution(capsys):
    code, out, err = run_cli(
        capsys, "analyze", "(1;-;[5,5];{})", "--order", "5", "--map", "x=1,2;d=1"
    )
    assert code == 0
    assert err == ""
    assert out.splitlines()[-7:] == [
        "signature (1;-;[5,5];{})  order 5  kernel genus 5",
        "power  order  isolated",
        *[f"t^{i}        5         2" for i in range(1, 5)],
        "no involution (odd order)",
    ]


def test_analyze_parse_error_exits_2(capsys):
    code, out, err = run_cli(capsys, "analyze", "(0;+;[1];{})", "--order", "14")
    assert code == 2
    assert out == ""
    assert "position 7" in err


def test_analyze_non_decimal_digit_is_a_parse_error(capsys):
    # '²' is a digit to str.isdigit but not a decimal digit, so it is no integer.
    code, out, err = run_cli(capsys, "analyze", "(²;+;[];{})", "--order", "2")
    assert code == 2
    assert out == ""
    assert err == "parse error: expected genus (position 2)\n"


def test_enumerate_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "enumerate", "(0;+;[2,7];{()})", "--order", "14", "--up-to-aut",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 1
    assert payload["maps"][0]["map"] == "x=7,2;e=5;c=7"


EXAMPLE1_MAPS = ["x=7,2;e=5;c=7", "x=7,4;e=3;c=7", "x=7,6;e=1;c=7",
                 "x=7,8;e=13;c=7", "x=7,10;e=11;c=7", "x=7,12;e=9;c=7"]


@pytest.mark.parametrize("fmt, lines", [
    ("csv", ["signature,M,images",
             *[f'"(0;+;[2,7];{{()}})",14,"{m}"' for m in EXAMPLE1_MAPS]]),
    ("table", ["6 valid map(s) for (0;+;[2,7];{()}) onto C_14",
               *[f"  {m}" for m in EXAMPLE1_MAPS]]),
])
def test_enumerate_csv_and_table(capsys, fmt, lines):
    code, out, err = run_cli(
        capsys, "enumerate", "(0;+;[2,7];{()})", "--order", "14", "--format", fmt
    )
    assert code == 0
    assert err == ""
    assert out.splitlines() == lines


PRIME = 2**61 - 1


@pytest.mark.parametrize("signature, order, size", [
    ("(0;+;[2,2];{()()})", "100000000", 100000000),
    ("(3;+;[2];{()})", "12", 2985984),
    ("(0;+;[3000000,3000000];{()})", "3000000", 800000**2),
    (f"(0;+;[{PRIME},{PRIME},2];{{()}})", str(2 * PRIME), None),
    # str() refuses an integer of over 4300 digits: it is written by its size.
    ("(5000;-;[];{})", "10", "10^4999"),
    # A count that large is compared by its size, from logarithms, before
    # its power is built, and its exponent is never in exponent notation.
    ("(600000;-;[];{})", "100", "10^1199998"),
])
def test_enumerate_over_the_candidate_bound_exits_2_at_once(capsys, monkeypatch,
                                                           signature, order, size):
    import necfix.census as census

    # Without the bound, product would first copy range(10**8) into a tuple;
    # failing there keeps a missing bound from allocating gigabytes here.
    # The count takes phi of each period from its prime factors, never
    # listing its units; a prime period's trial division (size None) is
    # itself refused, at about sqrt(period) steps.
    def no_product(*slots):
        raise AssertionError("candidates were built past the bound")

    monkeypatch.setattr(census, "product", no_product)
    start = time.perf_counter()
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "enumerate", signature, "--order", order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < 1_000_000
    assert code == 2
    assert out == ""
    what = (f"{signature} has {size} candidate maps at order {order}" if size
            else f"trial division of {PRIME} takes {math.isqrt(PRIME)} steps")
    assert err == f"error: {what}, above the limit of 1000000\n"


@pytest.mark.parametrize("argv", [
    ("analyze", "(0;+;[];{()^100000000})", "--order", "2", "--map", ""),
    ("verify", "(0;+;[];{()^100000000})", "--order", "2", "--map", ""),
    ("enumerate", "(0;+;[];{()^100000000})", "--order", "2"),
])
def test_a_signature_with_too_many_generators_exits_2_at_once(capsys, monkeypatch, argv):
    import necfix.census as census
    import necfix.cli as cli

    # "()^k" expands to k cycles of two generators each.  Their count is
    # refused right after parsing, before a map's image list or the
    # signature's text, each as long as that count, is built.
    def too_late(*args):
        raise AssertionError("a list or text as long as the signature was built")

    monkeypatch.setattr(cli, "parse_map_text", too_late)
    monkeypatch.setattr(census, "format_signature", too_late)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == "error: the signature has 200000000 generators, above the limit of 1000000\n"


def test_a_long_signature_is_written_by_its_length_in_its_refusal(capsys):
    # 999,998 generators pass the generator count, but 2^499998 candidate
    # maps do not; the refusal names the signature's text by its start and
    # its length, as it names a count of 100 digits or more by its size.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "enumerate", "(0;+;[];{()^499999})", "--order", "2")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert len(err.encode("utf-8")) < 1024
    assert err == (f"error: (0;+;[];{{{'()' * 15}(... (1000009 characters) has 10^150514 "
                   "candidate maps at order 2, above the limit of 1000000\n")


def test_census_and_max_order_share_the_candidate_bound(tmp_path, capsys, monkeypatch):
    import necfix.census as census

    # The signature search at order 5 up to genus 5 counts 14 starts, period
    # entries and signatures, within a bound of 15, but the 16 candidate maps
    # of (1;-;[5,5];{}) take its count to 31, so the census is refused
    # before any map is built.
    monkeypatch.setattr(census, "MAX_CANDIDATES", 15)
    path = tmp_path / "rows.csv"
    path.write_bytes(b"#trailer,rows=0,sha256=old\n")
    code, out, err = run_cli(
        capsys, "census", "--order", "5", "--max-genus", "5", "--format", "csv",
        "--output", str(path),
    )
    assert code == 2
    assert out == ""
    assert err == ("error: the signature search at order 5 up to max genus 5 counts at least "
                   "31 starts, period entries and candidate maps, above the limit of 15\n")
    assert path.read_bytes() == b"#trailer,rows=0,sha256=old\n"
    # max-order's first search, at order 8, counts 7 starts and 3 tuples of
    # one period: the search bound refuses it before any signature's maps.
    monkeypatch.setattr(census, "MAX_CANDIDATES", 2)
    code, out, err = run_cli(capsys, "max-order", "3")
    assert code == 2
    assert out == ""
    assert err == ("error: the signature search at order 8 up to max genus 3 counts at least "
                   "10 starts, period entries and candidate maps, above the limit of 2\n")


@pytest.mark.parametrize("order", ["0", "-4"])
def test_enumerate_rejects_non_positive_order(capsys, order):
    code, out, err = run_cli(capsys, "enumerate", "(0;+;[2,7];{()})", "--order", order)
    assert code == 2
    assert out == ""
    assert f"order must be positive, got {order}" in err


def test_census_csv_stdout(capsys):
    code, out, _ = run_cli(
        capsys, "census", "--order", "4", "--max-genus", "6", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "signature,M,images,p,F,V,twists,scherrer_slack,canonical"
    assert lines[-1].startswith("#trailer,rows=")
    assert len(lines) >= 3


def test_census_verify_agrees(capsys):
    code, out, _ = run_cli(
        capsys,
        "census", "--order", "6", "--max-genus", "6", "--verify", "--format", "json",
    )
    assert code == 0


def test_census_output_file_and_workers(tmp_path, capsys):
    paths = []
    for workers in ("1", "2"):
        path = tmp_path / f"census-{workers}.csv"
        code, _, _ = run_cli(
            capsys,
            "census", "--order", "6", "--max-genus", "8",
            "--format", "csv", "--workers", workers, "--output", str(path),
        )
        assert code == 0
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_verify_all_v(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--order", "28", "--all-v", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["agreement"] is True
    assert len(payload["entries"]) == 28


def test_verify_single_map(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "(0;+;[2,7];{()})", "--order", "14", "--map", "x=7,2;e=5",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["agreement"] is True
    assert payload["per_cycle"][0]["delta"] == 7


@pytest.mark.parametrize(
    "argv, line",
    [
        (("--order", "28", "--all-v"), "order 28: swept v=0..27, agreement=True"),
        (("(0;+;[2,7];{()})", "--order", "14", "--map", "x=7,2;e=5"),
         "(0;+;[2,7];{()}) M=14: agreement=True"),
    ],
    ids=["all-v", "single-map"],
)
def test_verify_table_line(capsys, argv, line):
    assert run_cli(capsys, "verify", *argv) == (0, line + "\n", "")


def test_verify_invalid_map_exits_2(capsys):
    code, out, err = run_cli(
        capsys, "verify", "(0;+;[2,7];{()})", "--order", "14", "--map", "x=7,3;e=4"
    )
    assert code == 2
    assert out == ""
    assert "invalid epimorphism (failed checks: SMOOTH-ELLIPTIC" in err


def test_verify_all_v_odd_order_rejected(capsys):
    code, _, err = run_cli(capsys, "verify", "--order", "27", "--all-v")
    assert code == 2
    assert "even" in err


@pytest.mark.parametrize("order", ["0", "-4"])
def test_verify_all_v_order_below_two_rejected(capsys, order):
    code, out, err = run_cli(capsys, "verify", "--order", order, "--all-v", "--format", "json")
    assert code == 2
    assert out == ""
    assert "at least 2" in err


@pytest.mark.parametrize(
    "extra",
    [
        pytest.param(("(0;+;[2,7];{()})",), id="signature"),
        pytest.param(("--map", "x=1,3;e=0"), id="map"),
    ],
)
def test_verify_all_v_rejects_signature_and_map(capsys, extra):
    code, out, err = run_cli(capsys, "verify", *extra, "--order", "4", "--all-v")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: --all-v")


def test_verify_without_signature_or_sweep(capsys):
    code, _, err = run_cli(capsys, "verify", "--order", "14")
    assert code == 2
    assert err.startswith("error: ")


def test_max_order(capsys):
    code, out, _ = run_cli(capsys, "max-order", "5", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"genus": 5, "max_order": 10}


def test_max_order_cap(capsys):
    code, _, err = run_cli(capsys, "max-order", "40")
    assert code == 2
    assert "capped" in err


def test_verify_disagreement_exits_3(capsys, monkeypatch):
    import necfix.cli as cli
    from necfix.oracle import SweepTranscript

    broken = SweepTranscript(14, (), False, ("v=5: double-coset 2, N/delta 1, gcd 1",))
    monkeypatch.setattr(cli, "involution_sweep", lambda order: broken)
    code, out, err = run_cli(capsys, "verify", "--order", "14", "--all-v")
    assert code == 3
    assert "first disagreement" in err
    assert "v=5" in err


@pytest.mark.parametrize(
    "order, workers, message",
    [
        pytest.param("4", "0", "workers", id="0"),
        pytest.param("4", "-3", "workers", id="-3"),
        # An order that run_census rejects leaves no file either.
        pytest.param("0", "1", "order", id="order-0"),
    ],
)
def test_census_rejects_workers_below_one(tmp_path, capsys, order, workers, message):
    path = tmp_path / "rows.csv"
    existing = tmp_path / "old.csv"
    existing.write_bytes(b"#trailer,rows=0,sha256=old\n")
    for target in (path, existing):
        code, out, err = run_cli(
            capsys,
            "census", "--order", order, "--max-genus", "6", "--workers", workers,
            "--output", str(target),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and message in err
    assert not path.exists()
    assert existing.read_bytes() == b"#trailer,rows=0,sha256=old\n"


@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_census_unwritable_output_exits_2(tmp_path, capsys, monkeypatch, target):
    import necfix.cli as cli

    def no_census(*args, **kwargs):
        raise AssertionError("the census ran before --output was opened")

    # The path is opened before the census runs, so the census never starts.
    monkeypatch.setattr(cli, "run_census", no_census)
    path = tmp_path / "missing" / "x.csv" if target == "missing-dir" else tmp_path
    code, out, err = run_cli(
        capsys,
        "census", "--order", "4", "--max-genus", "6", "--format", "csv",
        "--output", str(path),
    )
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: cannot write --output ")
    assert not (tmp_path / "missing").exists()


def test_census_output_replaces_existing_file(tmp_path, capsys):
    path = tmp_path / "rows.csv"
    path.write_text("stale\n" * 5000)
    args = ("census", "--order", "4", "--max-genus", "6", "--format", "csv")
    code, _, _ = run_cli(capsys, *args, "--output", str(path))
    assert code == 0
    _, out, _ = run_cli(capsys, *args)
    assert path.read_text(encoding="utf-8") == out


def test_census_output_to_a_non_regular_file(capsys):
    # The rows are written through a fresh open, never truncated in place,
    # so a device such as /dev/null is a valid target.
    code, out, err = run_cli(
        capsys,
        "census", "--order", "4", "--max-genus", "6", "--format", "csv", "--output", os.devnull,
    )
    assert code == 0
    assert out == ""
    assert err == ""


@pytest.mark.parametrize(
    "order, equalities, digest",
    [
        (6, 54, "0ad4b2ae8fe3644779956bc0a654287cf8bf8d638d00c29f4b7b6f7a66e0df03"),
        (5, 0, "aae629e02629e768756f2fc7297a0715b6e2f87b753a3f4ec2ef44131c1ff6eb"),
    ],
)
def test_census_table_lines_read_the_csv_fields(capsys, order, equalities, digest):
    args = ("census", "--order", str(order), "--max-genus", "8")
    code, table, _ = run_cli(capsys, *args)
    assert code == 0
    assert hashlib.sha256(table.encode()).hexdigest() == digest
    _, out, _ = run_cli(capsys, *args, "--format", "csv")
    records = list(csv.DictReader(out.splitlines()[:-1]))
    header, *lines = table.splitlines()
    assert header == f"census: order {order}, max genus 8, {len(records)} row(s)"
    assert len(lines) == len(records)
    for line, r in zip(lines, records):
        fv = f"F={r['F']} V={r['V']}" if r["F"] else "no involution"
        star = " *" if r["scherrer_slack"] == "0" else ""
        assert line == f"  {r['signature']} M={r['M']} {r['images']} p={r['p']} {fv}{star}"
    starred = [line.endswith(" *") for line in lines]
    assert starred == [r["scherrer_slack"] == "0" for r in records]
    assert sum(starred) == equalities
    if order % 2:
        assert all(line.endswith(" no involution") for line in lines)


def test_census_interrupted_run_keeps_existing_output(tmp_path, monkeypatch):
    import necfix.cli as cli

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "run_census", interrupted)
    path = tmp_path / "rows.csv"
    path.write_bytes(b"#trailer,rows=0,sha256=old\n")
    with pytest.raises(KeyboardInterrupt):
        main(["census", "--order", "4", "--max-genus", "6", "--output", str(path)])
    assert path.read_bytes() == b"#trailer,rows=0,sha256=old\n"


def test_census_with_too_many_periods_exits_2_at_once(tmp_path, capsys):
    # Genus 100000 at order 4 leaves room for 50,003 periods and 468,825,003
    # (sign, genus, cycle count) starts; the search refuses on its first
    # count, before building a signature, and --output keeps its bytes.
    path = tmp_path / "rows.csv"
    path.write_bytes(b"#trailer,rows=0,sha256=old\n")
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "census", "--order", "4", "--max-genus", "100000", "--output", str(path)
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err == ("error: the signature search at order 4 up to max genus 100000 counts at "
                   "least 468825005 starts, period entries and candidate maps, above the "
                   "limit of 1000000\n")
    assert path.read_bytes() == b"#trailer,rows=0,sha256=old\n"


# Each is refused by one count, before the work it counts is done.  Order
# 10^18 would scan 10^9 divisor candidates; every other grid is refused by
# the search's running count of starts, period entries and kept signatures'
# candidate maps.  At orders 720720 (239 divisors), 5040 and 2 the period
# entries, and at (2, 30) with the candidate maps, are over the bound.
# Order 1 has no periods: up to genus 10^8 its 1.5*10^8 starts are over it,
# and up to genus 600000 its 900,001 starts and about 100,000 signatures.
# Order 2 up to genus 10^8 has 1.9*10^15 starts, counted in closed form.
# Each text is formatted with the order and max genus.
def _search(count):
    return ("the signature search at order {} up to max genus {} counts at least "
            f"{count} starts, period entries and candidate maps")


HOSTILE_CENSUS = {
    ("720720", "3000000"): _search(6969516),
    ("1", "100000000"): _search(150000001),
    ("1", "600000"): _search(1000001),
    ("2", "100000000"): _search(1875000150000004),
    ("5040", "10000"): _search(2320338),
    ("2", "40"): _search(1056131),
    (str(10**18), "12"): "trial division of {} takes 1000000000 steps",
    ("2", "30"): _search(1000632),
}


@pytest.mark.parametrize("order, max_genus", list(HOSTILE_CENSUS))
def test_census_over_the_search_bound_exits_2_at_once(capsys, order, max_genus):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "census", "--order", order, "--max-genus", max_genus)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    what = HOSTILE_CENSUS[order, max_genus].format(order, max_genus)
    assert err == f"error: {what}, above the limit of 1000000\n"


HUGE = 10**7
HUGE_ACTION = ("(0;+;[10000000,10000000,2];{()})", "--order", str(HUGE),
               "--map", f"x=1,1,{HUGE // 2};e={HUGE // 2 - 2}")


@pytest.mark.parametrize("argv, message", [
    (("verify", "--all-v", "--order", "100000000"),
     "the oracle at order 100000000 takes about 10000000000000000 steps"),
    (("verify", *HUGE_ACTION), f"the oracle at order {HUGE} takes about {HUGE ** 2} steps"),
    (("analyze", *HUGE_ACTION), f"a report at order {HUGE} has {HUGE - 1} power rows"),
    # An integer of 100 digits or more is written by its size, 10^log10: str()
    # refuses one of over 4300 digits.
    (("verify", "--all-v", "--order", str(10**2500)),
     "the oracle at order 10^2500 takes about 10^5000 steps"),
    (("verify", "--all-v", "--order", str(3 * 10**150)),
     "the oracle at order 10^150.477 takes about 10^300.954 steps"),
    (("verify", "--all-v", "--order", str(10**50)),
     f"the oracle at order {10**50} takes about 10^100 steps"),
], ids=["verify-all-v", "verify", "analyze", "by-size", "by-size-rounded", "by-size-edge"])
def test_verify_and_analyze_refuse_huge_orders_at_once(capsys, argv, message):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err == f"error: {message}, above the limit of 1000000\n"


def test_verify_and_analyze_bounds_are_exact(capsys, monkeypatch):
    import necfix.census as census

    # verify takes about M^2 oracle steps, analyze reports M - 1 powers.
    monkeypatch.setattr(census, "MAX_CANDIDATES", 16)
    assert run_cli(capsys, "verify", "--all-v", "--order", "4")[0] == 0
    assert run_cli(capsys, "verify", "--all-v", "--order", "6")[0] == 2
    action = ("(0;+;[2,7];{()})", "--order", "14", "--map", "x=7,2;e=5")
    monkeypatch.setattr(census, "MAX_CANDIDATES", 13)
    assert run_cli(capsys, "analyze", *action)[0] == 0
    monkeypatch.setattr(census, "MAX_CANDIDATES", 12)
    code, out, err = run_cli(capsys, "analyze", *action)
    assert (code, out) == (2, "")
    assert err == "error: a report at order 14 has 13 power rows, above the limit of 12\n"


def test_up_to_aut_builds_no_unit_group_at_the_order(capsys, monkeypatch):
    import necfix.census as census

    # is_canonical walks each key with the units fixing its prefix, held as
    # a modulus, so --up-to-aut lists the units of a period at most, never
    # those of Z_M: an order far above the budget runs at once.
    units = census.units
    listed = []

    def recording_units(order):
        listed.append(order)
        return units(order)

    monkeypatch.setattr(census, "units", recording_units)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "enumerate", "(0;+;[2,2,2];{()})", "--order", "10000000",
                             "--up-to-aut")
    assert (code, out, err) == (0, "0 valid map(s) for (0;+;[2,2,2];{()}) onto C_10000000\n", "")
    # The census has candidate maps, such as those of (0;+;[2,3];{()}), but
    # none of them generates Z_3000000.
    code, out, err = run_cli(capsys, "census", "--order", "3000000", "--max-genus", "1000002",
                             "--up-to-aut")
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (0, "census: order 3000000, max genus 1000002, 0 row(s)\n", "")
    assert listed and not {10000000, 3000000} & set(listed)


def test_analyze_order_zero_exits_2(capsys):
    code, out, err = run_cli(capsys, "analyze", "(0;+;[2,7];{()})", "--order", "0",
                             "--map", "x=7,2;e=5")
    assert (code, out, err) == (2, "", "error: modulus must be positive, got 0\n")


def test_verify_reports_twist_and_epsilon_disagreements(capsys, monkeypatch, formula_patch):
    import necfix.fixedpoints as fixedpoints
    import necfix.oracle as oracle
    from necfix.fixedpoints import CycleOvals, cycle_ovals

    def flipped(order, v):
        right = cycle_ovals(order, v)
        return CycleOvals(v, right.oval_count, not right.twisted)

    # The report's gcd criterion is inverted: the twist check fails.
    formula_patch.setattr(fixedpoints, "cycle_ovals", flipped)
    code, out, err = run_cli(capsys, "verify", "(0;+;[2,7];{()})", "--order", "14",
                             "--map", "x=7,2;e=5")
    assert code == 3
    assert out == "(0;+;[2,7];{()}) M=14: agreement=False\n"
    assert err == ("first disagreement: cycle 1 (v=5): twist oracle True, "
                   "gcd criterion False\n")
    formula_patch.undo()

    # epsilon = 3*delta: the exponent law fails before the twist does.
    exponents = oracle.exponents
    monkeypatch.setattr(oracle, "exponents",
                        lambda order, vs: [(delta, 3 * delta) for delta, _ in exponents(order, vs)])
    code, out, err = run_cli(capsys, "verify", "--all-v", "--order", "4")
    assert code == 3
    assert out == "order 4: swept v=0..3, agreement=False\n"
    assert err == "first disagreement: v=0: epsilon 3 not in {delta, 2*delta}\n"


def test_census_disagreement_exits_3(capsys, formula_patch):
    import necfix.fixedpoints as fixedpoints
    from necfix.fixedpoints import CycleOvals, cycle_ovals

    def off_by_one(order, v):
        right = cycle_ovals(order, v)
        return CycleOvals(v, right.oval_count + 1, right.twisted)

    # The formula behind the census's reports is off by one.
    formula_patch.setattr(fixedpoints, "cycle_ovals", off_by_one)
    code, out, err = run_cli(capsys, "census", "--order", "4", "--max-genus", "6", "--verify")
    assert code == 3
    assert out.startswith("census: order 4, max genus 6, 132 row(s)\n")
    assert err == ("oracle disagreement: (0;+;[2,4];{()}) M=4 x=2,1;e=1;c=2: "
                   "cycle 1 (v=1): double-coset 1, N/delta 1, gcd formula 2\n")


def test_census_euler_disagreement_exits_3(capsys, monkeypatch):
    import necfix.epimorphism as epimorphism

    # Every kernel genus is one too high: only the Euler identity sees it.
    kernel_genus = epimorphism.kernel_genus
    monkeypatch.setattr(epimorphism, "kernel_genus",
                        lambda sig, order: kernel_genus(sig, order) + 1)
    epimorphism._verdict.cache_clear()
    try:
        code, out, err = run_cli(capsys, "census", "--order", "4", "--max-genus", "8",
                                 "--verify")
    finally:
        monkeypatch.undo()
        epimorphism._verdict.cache_clear()
    assert code == 3
    assert out.startswith("census: order 4, max genus 8, 318 row(s)\n")
    assert err == ("oracle disagreement: (0;+;[2,4];{()}) M=4 x=2,1;e=1;c=2: "
                   "Euler: 2 - p + fixed points = 3, M(2 - alpha*g - k) = 4\n")


def test_census_orbit_disagreement_exits_3(capsys, monkeypatch):
    import necfix.census as census

    # Every map claims to be canonical: each two-map orbit at order 4 then
    # counts two canonical rows, which only the orbit count sees.
    monkeypatch.setattr(census, "is_canonical", lambda epi: True)
    code, out, err = run_cli(capsys, "census", "--order", "4", "--max-genus", "6", "--verify")
    assert code == 3
    assert out.startswith("census: order 4, max genus 6, 132 row(s)\n")
    assert err == ("oracle disagreement: (0;+;[2,4];{()}) M=4: "
                   "2 rows, not 2 units x 2 canonical\n")


@pytest.mark.parametrize("order, max_genus", [("1000000007", "3"), ("720720", "12")])
def test_census_at_a_large_prime_order_finishes(order, max_genus):
    # A prime order near 10^9: the divisor search must stop at its square
    # root, not scan every integer up to the order.  720720 has 240 divisors
    # and no signature with kernel genus in [3, 12], but the walk still
    # extends every tuple of measure <= 0, such as (0;+;[2,2,m];{}) for each
    # divisor m, so it must stay cheap per tuple.
    result = subprocess.run(
        [
            sys.executable, "-m", "necfix.cli",
            "census", "--order", order, "--max-genus", max_genus, "--format", "csv",
        ],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert result.returncode == 0
    assert result.stdout.splitlines()[-1].startswith("#trailer,rows=0,")


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="platform has no SIGPIPE")
def test_census_into_a_closed_pipe_ends_quietly():
    # The JSON rows (about 168 KB) overfill a pipe buffer, so the census is
    # still writing when the reader goes away, as with `| head -1`.
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "necfix.cli",
            "census", "--order", "6", "--max-genus", "8", "--format", "json",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=30) == -signal.SIGPIPE
    assert err == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="platform has no /dev/full")
@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize(
    "argv, target",
    [
        (("census", "--order", "4", "--max-genus", "6", "--format", "csv",
          "--output", "/dev/full"), "--output /dev/full"),
        (("census", "--order", "4", "--max-genus", "6", "--format", "csv"), "stdout"),
        (("analyze", "(0;+;[2,7];{()})", "--order", "14", "--map", "x=7,2;e=5",
          "--format", "json"), "stdout"),
    ],
)
def test_a_failed_write_exits_2(argv, target, unbuffered):
    # /dev/full refuses every write with ENOSPC.  Buffered or not, the run
    # ends with one error line naming the target, and nothing is written
    # again at exit.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    with open("/dev/full", "w") as full:
        result = subprocess.run([sys.executable, "-m", "necfix.cli", *argv], stdout=full,
                                stderr=subprocess.PIPE, text=True, env=env, timeout=30)
    assert result.returncode == 2
    assert result.stderr == f"error: cannot write {target}: {os.strerror(errno.ENOSPC)}\n"


# What the seeded argv fuzz draws for each argument the parser takes, by
# its dest; --workers never starts a pool.
FUZZ_VALUES = {
    "order": [*range(-2, 31), 10**8, 10**18],
    "max_genus": [*range(-2, 11), 10**5, 10**8],
    "genus": [*range(-2, 11), 10**5, 10**8],
    "cap": [*range(-2, 11), 10**5, 10**8],
    "workers": [-1, 0, 1],
    "signature": ["(0;+;[2,7];{()})", "(0;+;[2,2];{()()})", "(1;-;[];{})", "(2;+;[];{})",
                  "(5000;-;[];{})", "(0;+;[1];{})", "(0;+;[2,7];{(2,2)})", "(0;+"],
    "map_text": ["", "x=7,2;e=5", "x=1", "d=1", "e=1;c=1", "x=;e=", "y=3"],
}


def test_seeded_argv_fuzz_exits_with_a_contract_code(tmp_path, capsys):
    # 300 argvs, each a subcommand of the real parser with its arguments
    # drawn at random: a required one is left out one time in ten, any
    # other one time in two, and --help 49 times in 50.  Each call returns
    # 0, 2, 3 or 4, raises nothing and prints no traceback.  The draws can
    # also give census --order 1 --max-genus 100000, which the budget admits
    # and which runs for hours; seed 0 does not draw it.
    subcommands = next(action.choices for action in _PARSER._actions
                       if isinstance(action, argparse._SubParsersAction))
    rng = random.Random(0)
    codes = set()
    for _ in range(300):
        name = rng.choice(sorted(subcommands))
        argv = [name]
        for action in subcommands[name]._actions:
            skip = 0.98 if isinstance(action, argparse._HelpAction) else 0.1 if action.required else 0.5
            if rng.random() < skip:
                continue
            if action.nargs == 0:
                argv.append(action.option_strings[0])
                continue
            if action.dest == "output":
                value = tmp_path / "rows"
            else:
                value = rng.choice(action.choices or FUZZ_VALUES[action.dest])
            argv += [*action.option_strings[:1], str(value)]
        code, out, err = run_cli(capsys, *argv)
        assert code in (0, 2, 3, 4), argv
        assert "Traceback" not in out + err, argv
        codes.add(code)
    assert codes == {0, 2, 4}


def test_unknown_flag_exits_2(capsys):
    assert main(["analyze", "--nope"]) == 2


@pytest.mark.parametrize("sub, options", [
    ("analyze", ["--help", "--order", "--map", "--format"]),
    ("enumerate", ["--help", "--order", "--up-to-aut", "--format"]),
    ("census", ["--help", "--order", "--max-genus", "--up-to-aut", "--verify", "--workers",
                "--output", "--format"]),
    ("verify", ["--help", "--order", "--map", "--all-v", "--format"]),
    ("max-order", ["--help", "--cap", "--format"]),
])
def test_subcommand_help_lists_its_options_in_order(capsys, sub, options):
    code, out, _ = run_cli(capsys, sub, "--help")
    assert code == 0
    assert out.startswith(f"usage: necfix {sub} ")
    listed = [m.group(1) for m in map(re.compile(r"  (?:-h, )?(--[\w-]+)").match,
                                      out.splitlines()) if m]
    assert listed == options


def test_requests_reuse_one_parser(capsys, monkeypatch):
    def no_new_parser(*args, **kwargs):
        raise AssertionError("a request built a parser")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", no_new_parser)
    assert run_cli(capsys, "max-order", "3")[:2] == (0, "max cyclic order at genus 3: 6\n")
    assert main(["census", "--order", "4"]) == 2


def test_cli_import_loads_no_process_pool():
    # A one-worker census never starts a pool, so start-up skips its modules.
    import necfix

    code = ("import sys, necfix.cli\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.startswith(('multiprocessing', 'concurrent.futures'))))\n")
    src = os.path.dirname(os.path.dirname(necfix.__file__))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src}, check=True)
    assert result.stdout == "[]\n"


def test_console_script_end_to_end():
    result = subprocess.run(
        [
            sys.executable, "-m", "necfix.cli",
            "analyze", "(0;+;[2,7];{()})", "--order", "14",
            "--map", "x=7,2;e=5", "--format", "json",
        ],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["report"]["kernel_genus"] == 7


README_ACTION = ("(0;+;[2,7];{()})", "--order", "14", "--map", "x=7,2;e=5", "--format", "json")


# (argv, exit code, sha256 of stdout)
PINNED_STDOUT = [
    (
        ("analyze", *README_ACTION),
        0,
        "a73e5ef850598024abf9c5242e0b1489c55fb7c915e02519dd18bacf1f153db2",
    ),
    (
        ("verify", *README_ACTION),
        0,
        "1e332dea13cf596c34e7af0503905401fd5d334e2e7afa0651f1a353d9008e4c",
    ),
    (
        ("verify", "--all-v", "--order", "12", "--format", "json"),
        0,
        "dd3fb2a8d07fd8efc6ef946e24e5eb1e70135329f5a1e8b05fabb86fb3f44934",
    ),
    # Every census field, its order and its formatting: 264 rows at
    # order 6, 23 canonical rows at order 12.
    (
        ("census", "--order", "6", "--max-genus", "8", "--format", "csv"),
        0,
        "a37bd79c8b5a6a41da411f9476df24f91a7149c3c02cbad1fc29ed72b4733254",
    ),
    (
        ("census", "--order", "6", "--max-genus", "8", "--format", "json"),
        0,
        "f174faad3b6c8d14a40d45246d88e9108de6ca2d9f5310d6a6351539e0028363",
    ),
    (
        ("census", "--order", "12", "--max-genus", "10", "--up-to-aut", "--verify",
         "--format", "csv"),
        0,
        "57c43bdcf2ab617cf14ccf76237370fe5c0cafcaa782a9dec8c5d77476fd07e3",
    ),
    (
        ("analyze", *README_ACTION[:-1], "csv"),
        0,
        "70ca583210e61a60ad709303840f6cd63ce616bbb300557e63ad7471ff86e51d",
    ),
    # An invalid map (exit 4, "report": null), an odd-order census
    # (60 rows, "involution": null) and a sign - action with a glide image.
    (
        ("analyze", "(0;+;[3,3,3];{})", "--order", "3", "--map", "x=1,1,1",
         "--format", "json"),
        4,
        "6a62a0436ff81312bf10a75490cb2b7a8908f583ec23fd6900b15ae507a87096",
    ),
    (
        ("census", "--order", "5", "--max-genus", "8", "--format", "json"),
        0,
        "f6d7dd75da539a86159b766334d963e3043738e87e519ddcb6acd2d5dd10ac0f",
    ),
    (
        ("verify", "(1;-;[5,5];{})", "--order", "5", "--map", "x=1,2;d=1",
         "--format", "json"),
        0,
        "bdf96d1b32aec1c0c3e48901d119e808f14843582aa9768157894732bba1be78",
    ),
    # Glides where 2d = r has two roots (480 rows), and an odd composite
    # order whose units are not 1..M-1 (186 rows).
    (
        ("census", "--order", "8", "--max-genus", "10", "--format", "csv"),
        0,
        "9f38fa2f80d7ba34891d8bb176d28ea5f1b75eb811cf0544d639741b8e40ae1c",
    ),
    (
        ("census", "--order", "9", "--max-genus", "12", "--format", "csv"),
        0,
        "972cb62262f5469c36a67ab95b4765decdf84f97ac0152aa167beef57ff24cb5",
    ),
    # Every failure detail of validate, all exit 4: link periods, no
    # reversing generator and a non-positive measure; a reflection image
    # other than M/2; two elliptic failures joined by "; "; reflections at
    # odd order and a non-integer genus; an orientable kernel via a glide.
    (
        ("analyze", "(0;+;[2];{(2)})", "--order", "4", "--map", "x=2",
         "--format", "json"),
        4,
        "e0e43576479fef1f88f5dd6deae9e68eb762b5f1804ce1bc68b9073632e88cf1",
    ),
    (
        ("analyze", "(0;+;[2,7];{()})", "--order", "14", "--map", "x=7,2;e=5;c=3",
         "--format", "json"),
        4,
        "8304b6af68e27806602fa8e3ca8dbd58735484ef18aff37b58b63e0610f5680d",
    ),
    (
        ("analyze", "(0;+;[2,7];{()})", "--order", "14", "--map", "x=1,1;e=5",
         "--format", "json"),
        4,
        "b726ee6fb403ee161dd1ebf8f94a0a9e568202c2144cb31ac711b3b1f3642ba1",
    ),
    (
        ("analyze", "(0;+;[2,7];{()})", "--order", "7", "--map", "x=0,2;e=5;c=3",
         "--format", "json"),
        4,
        "d1e0d8915adcaa3bd0e483423d6433878726700f46bc2aa58c876ac05d0bccca",
    ),
    (
        ("analyze", "(1;-;[];{})", "--order", "2", "--map", "d=1", "--format", "json"),
        4,
        "adf95d83207ff5d67b7053b03c23cb2d9b9bb15b6326e68e09e7ae54f8102294",
    ),
    # Three connecting images whose exponent walks end at different steps
    # (epsilon = 1, 4 and 12).
    (
        ("verify", "(0;+;[3];{()()()})", "--order", "12", "--map", "x=4;e=0,3,5;c=6,6,6",
         "--format", "json"),
        0,
        "fb65323ed2686378a3ef68219d2cc6083636d3ddf1ff95bf4faeaebe70c3276a",
    ),
]


# Ids are "argv<n>-<digest>", independent of the other columns.
@pytest.mark.parametrize(
    "argv, exit_code, digest",
    [pytest.param(*case, id=f"argv{n}-{case[2]}") for n, case in enumerate(PINNED_STDOUT)],
)
def test_json_stdout_is_pinned(capsys, argv, exit_code, digest):
    # The json and csv stdout is a contract: any change to these bytes is a
    # change to the documented output, not a refactor.
    code, out, _ = run_cli(capsys, *argv)
    assert code == exit_code
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest



# sha256 of verify's json stdout: the sweep at a spread of even orders, up
# to 1000, the largest the budget admits, among them 126, 254 and 510, just
# below a power of two, where 2^b - M is 2, its smallest; and one map of
# (0;+;[M,M,2];{()}) at each order action-ladder in perfbench sends.
PINNED_SWEEPS = {
    2: "d7ca2074591903e26928e33a5a91898532314660dc15e1e0e99c772c56cd6f00",
    4: "486b7d09b86c48fa2a9584ee195e11edcfc5276a641b73dc47a0e2d662706216",
    6: "96270ccccbc69ebfada6e8cd0a8c496206262fd6583421800dfd8a057212c2e9",
    10: "ca178a377dacc50a9a8561d8940ceaae8f52382d3016d91a65b63311a82b87cc",
    30: "0f2cf1fa050119fa02813c8fdb2cb57c2a2187a2e96b58e1d568b8e48f269b15",
    64: "e55f5b8ca51e5e325df2700df88a0876d1a05e2da4edc5097e2a17e25fa120c4",
    100: "c49a5e77d7404c27c182d31e76d62bd27e4011359dd5c0d56741e9c04a602eb7",
    126: "5ddf7c944eb60030c2eda93fa2e6a8c68942c3bfc51a88539422d5e4ad5ec369",
    210: "794cc3dc41882a8f759f49af3d0e2d99352101cfb93fa467b3ef6909d13b13d4",
    254: "6ec0d935e3e6d9b6cdd805a8afce1dea11d07d94008e91282a170827695dfec3",
    360: "5f659e82c1eccbcc606005e45c91b2eb899d16e08dac1586d62071bfcb6723cf",
    510: "75f7e62e4357118a83eb7a678555a98c2ae86e65b9a92291e719c728711721bd",
    512: "5055649515979e754508c759296d59c6bb8638a0a6a19de3b152ea1827dd7f0a",
    1000: "9625a1645299906af1865667ba3a687deee1d8ebc292a67a960dff809d87188d",
}
PINNED_LADDER_MAPS = {
    32: "183e5ded2ba547d856d0d5424dcff5185e643447f3f47bb9e17f03e19db01762",
    48: "babc0b0ef5a9a64a07396b17d49e4dbb2d57c84516afb2b52f4d888c2386a85c",
    64: "4dbc24e39bf279f3425ed6e8d22678a318aa156baa6aac5dc21d584e56a1681a",
    96: "1198dc4cd73527dd039fb16d96874a4a72e596924101d98824713267863d019b",
    128: "af904103e19ca12e90aa45c172fcf2b72e2bf464c1ada8ef64700f2efddf267a",
    192: "adfb146703771b4d56415ffed338308cef0db582272ff77c35827c0619f157ef",
    256: "e8d983c68d0dc98c5210aece230b17a25690524a6fddb1d39afc253bd4dfd845",
    384: "f01d1f339b234335b2a69e5b5803323eebb606d931066515da54a96d30d3e393",
    512: "b8b28eba268490cf24e9d341452e351a881ef3a27bff36f320221df26acc41b3",
}


# sha256 of analyze's json stdout for the nine action-ladder maps, whose
# reports carry M - 1 power rows each.
PINNED_LADDER_REPORTS = {
    32: "56c69f1f3e2a0e0a13eb01506e02b767aa2dcece246307e412eee33a84fa78a2",
    48: "a00510ef3d83774331c90486e8f0ecf68b78a19fb247da0bf9d99e3890f9e8b6",
    64: "3ac6e85a7be2c2fb20ac44850cbdaf196db1b390f0d46bdafa5486e36bcac6b5",
    96: "48e92aa6ad3b0b9e208d7319687c4d9807f0ceef915fb0126f4aebdedaaa44ba",
    128: "ae415995bb63f8a0fe05fcea2c036a914ecd196eb1e1acb1ef5238b6dc121fa2",
    192: "978c916245c695bb8d9eaa8c961a87a40a3f6b61dcfc99576188c496fbb58591",
    256: "c5557db6d8ce47e14e9cdfc3acee9121360e8f6ff3797a2ed958f5b7b568bf18",
    384: "79973fb36deac217684754cfd706c00cb5cc26da1841a6e19c12739c4ba56c1b",
    512: "69d1f2a716253913175fe5c2ddfc977581ee49a758c24f94804dbcefdfd9167a",
}


@pytest.mark.parametrize("order", PINNED_SWEEPS)
def test_verify_all_v_transcript_is_pinned(capsys, order):
    code, out, err = run_cli(capsys, "verify", "--all-v", "--order", str(order), "--format", "json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PINNED_SWEEPS[order]


@pytest.mark.parametrize("order", PINNED_LADDER_MAPS)
def test_verify_ladder_transcript_is_pinned(capsys, order):
    # x = 5, 7 (units at these orders), M/2; the long relation fixes e.
    half = order // 2
    code, out, err = run_cli(
        capsys, "verify", f"(0;+;[{order},{order},2];{{()}})", "--order", str(order),
        "--map", f"x=5,7,{half};e={-(12 + half) % order}", "--format", "json",
    )
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PINNED_LADDER_MAPS[order]


@pytest.mark.parametrize("order", PINNED_LADDER_REPORTS)
def test_analyze_ladder_report_is_pinned(capsys, order):
    code, out, err = run_cli(
        capsys, "analyze", ladder_signature(order), "--order", str(order),
        "--map", LADDER_ACTIONS[order], "--format", "json",
    )
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PINNED_LADDER_REPORTS[order]
