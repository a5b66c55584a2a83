import dataclasses
import io
import itertools
import json
import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import necfix.census
from necfix import (
    CyclicEpimorphism,
    NecSignature,
    Sign,
    cross_check,
    enumerate_epimorphisms,
    enumerate_signatures,
    format_map_text,
    format_signature,
    full_report,
    involution_sweep,
    kernel_genus,
    max_cyclic_order,
    orbifold_measure,
    parse_map_text,
    parse_signature,
    run_census,
    validate,
)
from necfix.census import (
    candidate_count,
    is_canonical,
    shadow_key,
    to_json,
    units,
    write_census_csv,
    write_census_jsonl,
)
from necfix.epimorphism import CheckResult
from necfix.fixedpoints import CycleOvals, PowerFixedPoints
from necfix.oracle import OracleTranscript, PowerCosetCount, SweepTranscript
from fractions import Fraction

from strategies import (
    LADDER_ACTIONS,
    POOL_ORDERS,
    SIG_POOL,
    VALID_POOL_MAPS,
    all_assignments,
    census_row_record,
    image_slots,
    ladder_signature,
)

EXAMPLE1_ODD = parse_signature("(0;+;[2,7];{()})")
EXAMPLE2 = parse_signature("(0;+;[2,2,4,4];{()})")


def test_enumerate_signatures_contains_examples():
    assert EXAMPLE1_ODD in enumerate_signatures(14, 7)
    assert EXAMPLE2 in enumerate_signatures(4, 8)


def test_enumerate_signatures_respects_genus_bound():
    sigs = enumerate_signatures(4, 3)
    assert EXAMPLE2 not in sigs
    assert sigs
    for sig in sigs:
        assert orbifold_measure(sig) == Fraction(1, 4)
        assert kernel_genus(sig, 4) == 3


def test_enumerate_signatures_periods_divide_order():
    for sig in enumerate_signatures(12, 6):
        assert all(12 % m == 0 for m in sig.periods)
        assert not sig.nonempty_cycles
        assert 3 <= kernel_genus(sig, 12) <= 6


def test_enumerate_signatures_deterministic():
    assert enumerate_signatures(8, 9) == enumerate_signatures(8, 9)


def _reference_signatures(order, max_genus):
    # Every nondecreasing tuple of divisors, under loose bounds on the
    # measure plus 2 (each genus unit and each cycle adds at least 1, each
    # period at least 1/2), filtered by kernel_genus and sorted into the
    # documented output order.  It shares no arithmetic with the walk,
    # which counts genus left in integers and never calls kernel_genus.
    divisors = [m for m in range(2, order + 1) if order % m == 0]
    budget = Fraction(max_genus - 2, order) + 2
    found = []
    for sign in Sign:
        for genus in range(sign is Sign.MINUS, int(budget) + 1):
            for cycles in range(int(budget - genus) + 1 if order % 2 == 0 else 1):
                for r in range(int(2 * (budget - genus - cycles)) + 1):
                    for periods in itertools.combinations_with_replacement(divisors, r):
                        sig = NecSignature(genus, sign, periods, cycles)
                        try:
                            p = kernel_genus(sig, order)
                        except ValueError:
                            continue
                        if 3 <= p <= max_genus:
                            found.append(sig)
    return sorted(
        found,
        key=lambda s: (s.sign is Sign.MINUS, s.genus, s.empty_cycles, len(s.periods), s.periods),
    )


@pytest.mark.parametrize("max_genus", [3, 6, 9, 12])
def test_enumerate_signatures_matches_reference(max_genus):
    for order in [*range(1, 25), 30, 36, 48, 60]:
        assert enumerate_signatures(order, max_genus) == _reference_signatures(order, max_genus)


def test_enumerate_signatures_caps_the_period_count():
    # A period tuple of length L counts its L entries, so the search's count
    # grows with the square of the period count.  At order 2 each period
    # costs 1: up to genus 26 the search runs and 28 periods fit, and at
    # genus 27 it is refused.  At order 8 it runs up to genus 34.
    assert max(len(sig.periods) for sig in enumerate_signatures(2, 26)) == 28
    with pytest.raises(ValueError, match=re.escape(
            "the signature search at order 2 up to max genus 27 counts at least 1003785 starts, "
            "period entries and candidate maps, above the limit of 1000000")):
        enumerate_signatures(2, 27)
    assert NecSignature(5, Sign.MINUS) in enumerate_signatures(8, 34)
    with pytest.raises(ValueError, match=re.escape("up to max genus 35 counts at least 1000284")):
        enumerate_signatures(8, 35)


def _reference_search_count(order, max_genus):
    # The search counts one per start, the L entries of each period tuple of
    # length L it builds, and 1 + candidate_count for each signature it
    # keeps.  It builds every tuple (sign, genus, cycles, nondecreasing
    # divisors) with kernel genus p <= max_genus, p >= 3 or not: each starts
    # at p <= max_genus (the empty tuple, one per start) and extends only
    # while p stays there.  Counted here from the orbifold measure,
    # p = M*measure + 2, under the loose bounds of _reference_signatures.
    divisors = [m for m in range(2, order + 1) if order % m == 0]
    budget = Fraction(max_genus - 2, order) + 2
    count = 0
    for sign in Sign:
        for genus in range(sign is Sign.MINUS, int(budget) + 1):
            for cycles in range(int(budget - genus) + 1 if order % 2 == 0 else 1):
                for r in range(int(2 * (budget - genus - cycles)) + 1):
                    for periods in itertools.combinations_with_replacement(divisors, r):
                        sig = NecSignature(genus, sign, periods, cycles)
                        p = order * orbifold_measure(sig) + 2
                        if p <= max_genus:
                            count += r or 1
                        if 3 <= p <= max_genus:
                            count += 1 + candidate_count(genus, sign, periods, cycles, order)
    return count


@pytest.mark.parametrize("order, max_genus",
                         [(1, 30), (4, 16), (6, 12), (9, 20), (15, 16), (12, 20)])
def test_enumerate_signatures_bounds_the_tuples_it_builds(monkeypatch, order, max_genus):
    # The bound is exact: the search runs when its count is MAX_CANDIDATES
    # and is refused, before any signature is built, at one fewer.
    size = _reference_search_count(order, max_genus)
    expected = enumerate_signatures(order, max_genus)
    monkeypatch.setattr(necfix.census, "MAX_CANDIDATES", size)
    assert enumerate_signatures(order, max_genus) == expected
    monkeypatch.setattr(necfix.census, "MAX_CANDIDATES", size - 1)

    def no_signature(*args):
        raise AssertionError("a signature was built past the bound")

    monkeypatch.setattr(necfix.census, "NecSignature", no_signature)
    message = (f"the signature search at order {order} up to max genus {max_genus} counts at "
               f"least {size} starts, period entries and candidate maps, above the limit of "
               f"{size - 1}")
    with pytest.raises(ValueError, match=re.escape(message)):
        enumerate_signatures(order, max_genus)


def test_candidate_count_takes_phi_from_prime_factors():
    # (0;+;[m];{()}) at order 2m has one free x image per unit of Z_m.
    for m in range(2, 400):
        assert candidate_count(0, Sign.PLUS, (m,), 1, 2 * m) == len(units(m))
    # The signatures _iter_epimorphisms skips count 0.
    for text, order in [("(0;+;[2,3];{})", 6), ("(1;-;[4];{()})", 6), ("(1;-;[2];{()})", 3)]:
        sig = parse_signature(text)
        assert candidate_count(sig.genus, sig.sign, sig.periods, sig.empty_cycles, order) == 0


def test_enumerate_signatures_rejects_non_positive_order():
    with pytest.raises(ValueError, match="order must be positive, got 0"):
        enumerate_signatures(0, 10)


def test_census_at_order_one():
    rows, _ = run_census(1, 20)
    assert len(rows) == 18
    assert {epi.sig.periods for epi in rows} == {()}
    # Odd orders take no period cycles: (g;+;[];{}) for g = 2..1000 and
    # (g;-;[];{}) for g = 3..2000, not every (g, k) with alpha*g + k <= 2000.
    assert len(enumerate_signatures(1, 2000)) == 999 + 1998
    for order in range(1, 26, 2):
        assert not any(sig.empty_cycles for sig in enumerate_signatures(order, 12))


def test_enumerate_epimorphisms_example1_single_class():
    epis = enumerate_epimorphisms(EXAMPLE1_ODD, 14, up_to_aut=True)
    assert len(epis) == 1
    assert epis[0].x_images == (7, 2)
    assert epis[0].e_images == (5,)
    assert epis[0].c_images == (7,)
    raw = enumerate_epimorphisms(EXAMPLE1_ODD, 14)
    assert len(raw) == 6


def test_enumerate_epimorphisms_tests_no_orbit_without_up_to_aut(monkeypatch):
    # Only a census row carries the canonical flag; a plain enumeration
    # never asks for it.
    tested = []
    monkeypatch.setattr(necfix.census, "is_canonical",
                        lambda epi: tested.append(epi) or is_canonical(epi))
    assert len(enumerate_epimorphisms(EXAMPLE1_ODD, 14)) == 6
    assert tested == []
    assert len(enumerate_epimorphisms(EXAMPLE1_ODD, 14, up_to_aut=True)) == 1
    assert len(tested) == 6


def test_enumerate_epimorphisms_example2_odd_r():
    # With the connecting generators sent to the identity, an odd number of
    # order-two periods forces the two order-4 images to be equal; the
    # unequal pattern only survives with a non-identity connecting image.
    sig = parse_signature("(0;+;[2,2,2,4,4];{()})")
    rows = enumerate_epimorphisms(sig, 4)
    assert rows
    identity_e = [epi for epi in rows if epi.e_images == (0,)]
    assert identity_e
    for epi in identity_e:
        assert epi.x_images[3] == epi.x_images[4]
        assert epi.x_images[3:] != (1, 3) and epi.x_images[3:] != (3, 1)


def test_enumerate_epimorphisms_empty_cases():
    assert enumerate_epimorphisms(parse_signature("(1;-;[];{})"), 2) == []
    # odd order with a period cycle: no reflection image exists
    assert enumerate_epimorphisms(EXAMPLE1_ODD, 7) == []
    # link periods never admit a cyclic target
    assert enumerate_epimorphisms(parse_signature("(1;+;[2];{(2,2)})"), 4) == []


def test_enumeration_is_lexicographic():
    raw = enumerate_epimorphisms(EXAMPLE1_ODD, 14)
    keys = [(e.x_images, e.e_images, e.orient_images) for e in raw]
    assert keys == sorted(keys)


# Tuple spaces above this many assignments are skipped to keep the brute
# force below about two seconds.
BRUTE_FORCE_CAP = 10_000
BRUTE_FORCE_SIGS = [
    *SIG_POOL,
    parse_signature("(1;+;[2];{})"),
    parse_signature("(1;-;[3,9];{})"),
    parse_signature("(0;+;[];{()()})"),
    # The last glide is solved after the e images; sign '+' with no cycle is skipped.
    parse_signature("(1;-;[];{()})"),
    parse_signature("(2;-;[];{()})"),
    parse_signature("(1;-;[2];{()()})"),
    parse_signature("(2;+;[];{})"),
]


def _brute_force_epimorphisms(sig, order):
    # Every image over Z_M, reflection images included, kept by validate alone.
    found = [epi for epi in all_assignments(sig, order) if validate(epi).valid]
    return sorted(found, key=lambda e: (e.x_images, e.e_images, e.orient_images))


def test_enumeration_matches_brute_force(monkeypatch):
    reports = []

    def recording_validate(epi):
        reports.append(validate(epi))
        return reports[-1]

    monkeypatch.setattr(necfix.census, "validate", recording_validate)
    mismatches = []
    for sig in BRUTE_FORCE_SIGS:
        for order in range(1, 9):
            if order ** image_slots(sig) > BRUTE_FORCE_CAP:
                continue
            if enumerate_epimorphisms(sig, order) != _brute_force_epimorphisms(sig, order):
                mismatches.append((format_signature(sig), order))
    assert mismatches == []
    # The generator itself satisfies the first three checks; validate only
    # has surjectivity, the kernel's orientability and the genus left to reject.
    first_failures = {r.failed()[0] for r in reports if not r.valid}
    assert not first_failures & {"REFLECTIONS", "SMOOTH-ELLIPTIC", "LONG-RELATION"}
    assert reports


def _unit_multiple(epi, unit):
    # Built as a whole assignment, reflection images included, so the orbit
    # does not rest on the tuple arithmetic inside is_canonical.
    scale = lambda images: tuple(unit * v for v in images)
    return CyclicEpimorphism(
        epi.sig,
        epi.modulus,
        scale(epi.x_images),
        scale(epi.e_images),
        scale(epi.c_images),
        scale(epi.orient_images),
    )


@st.composite
def image_maps(draw):
    # Arbitrary images, not only valid maps: r x, k e and n glide images.
    order = draw(st.integers(min_value=1, max_value=60))
    r, k, n = (draw(st.integers(min_value=0, max_value=3)) for _ in range(3))
    images = st.integers(min_value=0, max_value=order - 1)
    sig = NecSignature(n, Sign.MINUS if n else Sign.PLUS, (2,) * r, k)
    return CyclicEpimorphism(sig, order, *(tuple(draw(images) for _ in range(count))
                                           for count in (r, k, k, n)))


def _image_map(order, xs, es=(), glides=()):
    sig = NecSignature(len(glides), Sign.MINUS if glides else Sign.PLUS, (2,) * len(xs), len(es))
    return CyclicEpimorphism(sig, order, xs, es, (0,) * len(es), glides)


@settings(max_examples=400, deadline=None)
@given(image_maps())
# Order 1, whose one unit fixes everything; a leading 0, fixed by every unit,
# before an entry that a unit lowers; 3 then 4 at order 12, after which only
# the unit 1 fixes the prefix, so the last entry is never compared; 0, 3 at
# order 12, fixed by the unit 5, which lowers the 8 after them to 4; and 3, 7
# at order 12, where 3's units 1 and 5 send 7 only to 11, so 7 is least
# although 5 is a smaller unit.
@example(_image_map(1, (0,), (0,), (0,)))
@example(_image_map(12, (0, 5)))
@example(_image_map(12, (3,), (4,), (11,)))
@example(_image_map(12, (0, 3), (8,), (7,)))
@example(_image_map(12, (3, 7)))
def test_is_canonical_is_least_under_every_unit(epi):
    order = epi.modulus
    unit_group = [u for u in range(1, order + 1) if math.gcd(u, order) == 1]
    key = (*epi.x_images, *epi.e_images, *epi.orient_images)
    assert is_canonical(epi) == all(key <= tuple(u * v % order for v in key) for u in unit_group)


def test_unit_orbits_partition_valid_maps():
    for order in range(1, 13):
        unit_group = units(order)
        for sig in enumerate_signatures(order, 8):
            raw = enumerate_epimorphisms(sig, order)
            canonical = [e for e in raw if is_canonical(e)]
            orbit_reps = set()
            for epi in raw:
                orbit = {_unit_multiple(epi, u) for u in unit_group}
                reps = [e for e in orbit if is_canonical(e)]
                assert len(reps) == 1
                assert reps[0] in raw
                orbit_reps.add(reps[0])
            assert orbit_reps == set(canonical)


def test_up_to_aut_skips_non_canonical_maps_before_validate(monkeypatch):
    # Units keep validity, so skipping a non-canonical map before validate
    # leaves exactly the canonical rows of the full enumeration.
    seen = []

    def recording_validate(epi):
        seen.append(epi)
        return validate(epi)

    monkeypatch.setattr(necfix.census, "validate", recording_validate)
    for order in [*range(1, 17), 24, 30]:
        for sig in enumerate_signatures(order, 8):
            full = enumerate_epimorphisms(sig, order)
            seen.clear()
            reduced = enumerate_epimorphisms(sig, order, up_to_aut=True)
            assert reduced == [e for e in full if is_canonical(e)]
            assert all(is_canonical(e) for e in seen)


def test_high_genus_rows_exist_for_minus_signatures():
    sig = parse_signature("(3;-;[];{})")
    epis = enumerate_epimorphisms(sig, 3)
    assert epis
    assert all(e.sig.sign.value == "-" for e in epis)


def test_rows_carry_reports_and_flags():
    # A row is its map; its report and its flag are taken from the map.
    rows, _ = run_census(4, 8)
    assert all(type(epi) is CyclicEpimorphism for epi in rows)
    rows = [epi for epi in rows if epi.sig == EXAMPLE2]
    assert rows
    for epi in rows:
        record = census_row_record(epi)
        report = full_report(epi)
        assert record["signature"] == format_signature(epi.sig)
        assert record["modulus"] == epi.modulus == report.modulus
        assert record["kernel_genus"] == report.kernel_genus
        assert record["scherrer_equality"] == report.involution.scherrer_equality
        assert record["shadow_key"] == shadow_key(epi)
        assert record["canonical"] == is_canonical(epi)


def test_shadow_key_ignores_period_order():
    a = parse_map_text(EXAMPLE2, 4, "x=2,2,1,3;e=0")
    b = parse_map_text(EXAMPLE2, 4, "x=2,2,3,1;e=0")
    assert shadow_key(a) == shadow_key(b)



def reference_map_text(epi):
    # format_map_text as one f-string join per section, before its layout.
    orient = epi.orient_images
    if epi.sig.sign is Sign.PLUS:
        genus_sections = [("a", orient[0::2]), ("b", orient[1::2])]
    else:
        genus_sections = [("d", orient)]
    sections = [("x", epi.x_images), ("e", epi.e_images), ("c", epi.c_images), *genus_sections]
    return ";".join([f"{key}=" + ",".join(map(str, images))
                     for key, images in sections if images])


def reference_shadow_key(epi):
    # shadow_key as sorted zips and joins, before its layout.
    sig = epi.sig
    xs = ",".join([f"{m}:{u}" for m, u in sorted(zip(sig.periods, epi.x_images))])
    es = ",".join(map(str, sorted(epi.e_images)))
    if sig.sign is Sign.PLUS:
        pairs = sorted(zip(epi.orient_images[0::2], epi.orient_images[1::2]))
        orient = ",".join([f"{a}.{b}" for a, b in pairs])
    else:
        orient = ",".join(map(str, sorted(epi.orient_images)))
    return f"M{epi.modulus}|g{sig.genus}{sig.sign.value}|x[{xs}]|e[{es}]|o[{orient}]"


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from([Sign.PLUS, Sign.MINUS]),
    st.integers(min_value=0, max_value=3),
    st.lists(st.sampled_from([2, 3, 4, 6, 12]), max_size=5),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=1, max_value=60),
    st.lists(st.integers(min_value=0, max_value=10**4), min_size=17, max_size=17),
    st.booleans(),
)
@example(Sign.PLUS, 0, [4, 2, 4], 2, 12, [7, 3, 5, 1, 4, 5, 0, 1] + [0] * 9, True)
@example(Sign.PLUS, 3, [2, 2], 0, 60, [30, 30, 9, 4, 9, 2, 1, 8] + [0] * 9, False)
@example(Sign.MINUS, 2, [4, 2, 4], 1, 8, [3, 4, 1, 6, 5, 7, 2] + [0] * 10, True)
@example(Sign.PLUS, 0, [], 0, 1, [0] * 17, False)
@example(Sign.PLUS, 2, [2, 3, 4], 1, 12, [6, 8, 3, 5, 6, 7, 2, 3, 9] + [0] * 8, True)
def test_map_text_and_shadow_key_match_their_reference_texts(sign, genus, periods, cycles, order,
                                                             images, with_c):
    # Unsorted, repeated and strictly increasing periods, empty sections,
    # genus 0, unsorted (a, b) pairs and c images other than M/2: map text
    # and shadow key read as their reference joins, and the map text parses
    # back to its map.
    genus = max(genus, 1 if sign is Sign.MINUS else 0)
    sig = NecSignature(genus, sign, tuple(periods), cycles)
    r, n = len(periods), sign.alpha * genus
    xs, es, cs = images[:r], images[r : r + cycles], images[r + cycles : r + 2 * cycles]
    orient = images[r + 2 * cycles : r + 2 * cycles + n]
    sections = {"x": xs, "e": es, **({"c": cs} if with_c else {})}
    sections.update({"a": orient[0::2], "b": orient[1::2]} if sign is Sign.PLUS else {"d": orient})
    epi = parse_map_text(sig, order, ";".join(f"{key}={','.join(map(str, values))}"
                                              for key, values in sections.items()))
    assert format_map_text(epi) == reference_map_text(epi)
    assert shadow_key(epi) == reference_shadow_key(epi)
    assert parse_map_text(sig, order, format_map_text(epi)) == epi

def _scherrer_extremal(order, max_genus):
    """Rows up to Aut(C_M) where the involution attains |F| + 2|V| = p + 2."""
    rows, _ = run_census(order, max_genus, up_to_aut=True)
    return [epi for epi in rows if full_report(epi).involution.scherrer_equality]


def test_scherrer_extremal_contains_examples():
    rows = _scherrer_extremal(4, 8)
    keys = {(format_signature(e.sig), e.x_images, e.e_images) for e in rows}
    assert ("(0;+;[2,2,4,4];{()})", (2, 2, 1, 3), (0,)) in keys

    rows = _scherrer_extremal(14, 7)
    keys = {(format_signature(e.sig), e.x_images) for e in rows}
    assert ("(0;+;[2,7];{()})", (7, 2)) in keys


def test_scherrer_extremal_order_eight_family():
    # Doubling the two largest periods keeps the bound attained: the
    # signature (0;+;[8,8];{()}) at order 8 gives F=2, V=4, p=8.
    rows = _scherrer_extremal(8, 8)
    match = [e for e in rows if format_signature(e.sig) == "(0;+;[8,8];{()})"]
    assert match
    inv = full_report(match[0]).involution
    assert inv.isolated_total == 2
    assert inv.oval_total == 4


def test_census_rows_all_validate_and_hold_scherrer():
    rows, disagreements = run_census(4, 10, verify=True)
    assert not disagreements
    assert rows
    for epi in rows:
        report = full_report(epi)
        inv = report.involution
        assert inv.scherrer_lhs <= inv.scherrer_rhs
        assert 3 <= report.kernel_genus <= 10
        # At i = N the per-power formula restricts to the even periods.
        assert inv.isolated_total == sum(
            4 // m for m in epi.sig.periods if m % 2 == 0
        )


def test_census_deterministic_bytes():
    def render():
        rows, _ = run_census(6, 8)
        csv_buf, jsonl_buf = io.StringIO(), io.StringIO()
        write_census_csv(rows, csv_buf)
        write_census_jsonl(rows, jsonl_buf)
        return csv_buf.getvalue(), jsonl_buf.getvalue()

    assert render() == render()


def test_census_trailer_checksum():
    import csv as csv_mod
    import hashlib

    rows, _ = run_census(4, 6)
    buf = io.StringIO()
    count = write_census_csv(rows, buf)
    lines = buf.getvalue().splitlines(keepends=True)
    trailer = next(csv_mod.reader([lines[-1]]))
    assert trailer[0] == "#trailer"
    assert trailer[1] == f"rows={count}"
    body = "".join(lines[:-1]).encode("utf-8")
    assert trailer[2] == f"sha256={hashlib.sha256(body).hexdigest()}"
    assert count == len(rows) == len(lines) - 2


def test_census_jsonl_trailer():
    rows, _ = run_census(4, 6)
    buf = io.StringIO()
    write_census_jsonl(rows, buf)
    lines = buf.getvalue().splitlines()
    trailer = json.loads(lines[-1])
    assert trailer["type"] == "trailer"
    assert trailer["rows"] == len(lines) - 1
    record = json.loads(lines[0])
    assert {"signature", "modulus", "images", "kernel_genus", "report"} <= set(record)


@pytest.mark.parametrize("order, max_genus", [(4, 10), (6, 8), (3, 10)])
def test_census_jsonl_lines_equal_the_one_encoder(order, max_genus, monkeypatch):
    # Each line joins its row's own fields to the text its signature block
    # shares; it must read exactly as the record encoded whole.  At odd
    # order every report has "involution": null.
    rows, _ = run_census(order, max_genus)
    encoded = []
    monkeypatch.setattr(necfix.census, "to_json", lambda obj: encoded.append(obj) or to_json(obj))
    buf = io.StringIO()
    write_census_jsonl(rows, buf)
    lines = buf.getvalue().splitlines()[:-1]
    assert lines == [to_json(census_row_record(epi)) for epi in rows]
    # A report is encoded once per signature and e images, and a signature
    # once per block, however many rows share them.
    reports = [obj for obj in encoded if isinstance(obj, dict) and "report" in obj]
    assert len(reports) == len({(epi.sig, epi.e_images) for epi in rows}) < len(rows)
    texts = [obj for obj in encoded if isinstance(obj, str) and obj.startswith("(")]
    assert texts == list(dict.fromkeys(format_signature(epi.sig) for epi in rows))
    if order % 2:
        assert len(rows) == 292
        assert all(full_report(epi).involution is None for epi in rows)


@pytest.mark.parametrize("write, head", [(write_census_jsonl, 0), (write_census_csv, 1)],
                         ids=["jsonl", "csv"])
def test_census_block_is_written_in_pieces_of_the_write_chunk(monkeypatch, write, head):
    # A block is one write unless its text passes WRITE_CHUNK; at a chunk of
    # one character every line is its own write.  Bytes and trailer do not
    # depend on how a block is cut.  The CSV header is one write of its own.
    rows, _ = run_census(6, 8)

    def written(chunk):
        monkeypatch.setattr(necfix.census, "WRITE_CHUNK", chunk)
        writes = []
        buf = io.StringIO()
        buf.write = lambda text: writes.append(text) or len(text)
        write(rows, buf)
        return "".join(writes), len(writes) - head - 1

    whole, whole_writes = written(10**9)
    assert whole_writes == len({epi.sig for epi in rows}) < len(rows)
    assert written(1) == (whole, len(rows))
    assert written(necfix.census.WRITE_CHUNK)[0] == whole


def assert_encodes_as_asdict(obj):
    # The reference is the deep asdict copy that to_json does without.
    assert to_json(obj) == json.dumps(dataclasses.asdict(obj), sort_keys=True)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_to_json_matches_asdict_reference(data):
    epi = data.draw(st.sampled_from(VALID_POOL_MAPS))
    report = full_report(epi)
    for obj in (validate(epi), report, cross_check(epi)):
        assert_encodes_as_asdict(obj)
    record = census_row_record(epi)
    reference = {**record, "report": dataclasses.asdict(report)}
    assert to_json(record) == json.dumps(reference, sort_keys=True)

    # Random images: almost always an invalid map, with failed checks.
    sig = data.draw(st.sampled_from(SIG_POOL))
    order = data.draw(st.sampled_from(POOL_ORDERS))
    images = st.integers(min_value=0, max_value=order - 1)
    n_orient = 2 * sig.genus if sig.sign is Sign.PLUS else sig.genus
    drawn = CyclicEpimorphism(
        sig,
        order,
        tuple(data.draw(images) for _ in sig.periods),
        tuple(data.draw(images) for _ in range(sig.empty_cycles)),
        tuple(data.draw(images) for _ in range(sig.empty_cycles)),
        tuple(data.draw(images) for _ in range(n_orient)),
    )
    assert_encodes_as_asdict(validate(drawn))


@pytest.mark.parametrize("order", [*range(2, 25, 2), 126, 512, 1000])
def test_to_json_matches_asdict_reference_on_sweeps(order):
    assert_encodes_as_asdict(involution_sweep(order))


def assert_analyze_record_encodes_as_asdict(epi):
    # analyze --format json prints this record; report is None when invalid.
    validation = validate(epi)
    report = full_report(epi) if validation.valid else None
    reference = {
        "validation": dataclasses.asdict(validation),
        "report": report and dataclasses.asdict(report),
    }
    text = to_json({"validation": validation, "report": report})
    assert text == json.dumps(reference, sort_keys=True)
    return text


@pytest.mark.parametrize("order", LADDER_ACTIONS)
def test_to_json_matches_asdict_reference_on_ladder_maps(order):
    epi = parse_map_text(parse_signature(ladder_signature(order)), order, LADDER_ACTIONS[order])
    assert_encodes_as_asdict(cross_check(epi))
    assert_analyze_record_encodes_as_asdict(epi)


def test_to_json_writes_an_odd_order_report_without_involution():
    epi = parse_map_text(parse_signature("(1;-;[5,5];{})"), 5, "x=1,2;d=1")
    text = assert_analyze_record_encodes_as_asdict(epi)
    assert '"involution": null' in text
    assert_encodes_as_asdict(cross_check(epi))


def test_to_json_writes_disagreements_and_empty_tuples():
    transcript = OracleTranscript(
        modulus=6,
        per_cycle=(),
        per_power_fixed=(PowerCosetCount(1, 0, 2), PowerCosetCount(2, 1, 0)),
        agreement=False,
        disagreements=('v=3: "twisted" by the oracle, \u00e9 by the formula', "euler\tsum"),
    )
    assert_encodes_as_asdict(transcript)
    assert '"per_cycle": []' in to_json(transcript)
    assert_encodes_as_asdict(SweepTranscript(4, (), True))
    assert to_json(()) == to_json([]) == "[]"
    assert to_json({}) == "{}"


def test_to_json_writes_a_tuple_of_mixed_records_item_by_item():
    # Flat types with the same field count, with and without bools.
    mixed = (
        PowerFixedPoints(1, 4, 2),
        PowerCosetCount(1, 0, 3),
        CycleOvals(2, 1, True),
        CycleOvals(1, 1, False),
        PowerFixedPoints(3, 4, 2),
    )
    reference = [dataclasses.asdict(item) for item in mixed]
    assert to_json(mixed) == json.dumps(reference, sort_keys=True)
    assert to_json([*mixed, None, "x", 7]) == json.dumps([*reference, None, "x", 7],
                                                         sort_keys=True)
    # Tuples of one record type whose fields are not all ints take the
    # one-pass path too: reports with a nested tuple and a None or record
    # field, and checks with str and bool fields, one text needing escapes.
    reports = tuple(full_report(parse_map_text(parse_signature(text), order, images))
                    for text, order, images in (("(1;-;[5,5];{})", 5, "x=1,2;d=1"),
                                                ("(0;+;[2,7];{()})", 14, "x=7,2;e=5")))
    assert reports[0].involution is None and reports[1].involution is not None
    invalid = parse_map_text(EXAMPLE1_ODD, 14, "x=7,3;e=4")
    checks = (*validate(invalid).checks, CheckResult('say "\u00e9"', True, "tab\there"))
    for records in (reports, checks, checks[:1]):
        reference = [dataclasses.asdict(item) for item in records]
        assert to_json(records) == json.dumps(reference, sort_keys=True)


@pytest.mark.parametrize("value", [{1, 2}, frozenset(), object(), {1: "int key"}, CycleOvals])
def test_to_json_refuses_a_type_no_record_holds(value):
    with pytest.raises(TypeError):
        to_json(value)
    with pytest.raises(TypeError):
        to_json({"report": (PowerFixedPoints(1, 2, 0), value)})


def test_census_workers_agree():
    serial, _ = run_census(6, 9, workers=1)
    parallel, _ = run_census(6, 9, workers=2)
    assert serial == parallel


def test_census_pool_is_clamped_to_tasks_and_cpus(monkeypatch):
    import concurrent.futures

    import necfix.census as census

    sizes = []

    class RecordingPool:
        """Records the requested pool size and runs the tasks in-process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    tasks = len(enumerate_signatures(4, 6))
    serial, _ = run_census(4, 6)
    for cpus in (3, 10_000, None):
        monkeypatch.setattr(census.os, "cpu_count", lambda: cpus)
        assert run_census(4, 6, workers=10_000)[0] == serial
    assert sizes == [3, tasks]


@pytest.mark.parametrize("genus, expected", [(3, 6), (5, 10), (7, 14), (9, 18), (11, 22)])
def test_max_cyclic_order_odd(genus, expected):
    assert max_cyclic_order(genus, cap=12) == expected


@pytest.mark.parametrize("genus, expected", [(4, 6), (6, 10), (8, 14), (10, 18), (12, 22)])
def test_max_cyclic_order_even(genus, expected):
    assert max_cyclic_order(genus, cap=12) == expected


def test_max_cyclic_order_bounds():
    with pytest.raises(ValueError, match="at least 3"):
        max_cyclic_order(2)
    with pytest.raises(ValueError, match="capped"):
        max_cyclic_order(13, cap=12)
