import dataclasses
import io
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import necfix.census
from necfix import (
    CyclicEpimorphism,
    NecSignature,
    Sign,
    cross_check,
    enumerate_epimorphisms,
    enumerate_signatures,
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
    CensusRow,
    census_row_record,
    is_canonical,
    shadow_key,
    to_json,
    units,
    write_census_csv,
    write_census_jsonl,
)
from fractions import Fraction

from strategies import POOL_ORDERS, SIG_POOL, VALID_POOL_MAPS

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
    # documented output order.
    divisors = [m for m in range(2, order + 1) if order % m == 0]
    budget = Fraction(max_genus - 2, order) + 2
    found = []
    for sign in Sign:
        for genus in range(sign is Sign.MINUS, int(budget) + 1):
            for cycles in range(int(budget - genus) + 1):
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
    for order in range(1, 25):
        assert enumerate_signatures(order, max_genus) == _reference_signatures(order, max_genus)


def test_enumerate_signatures_caps_the_period_count(monkeypatch):
    # At order 2 every period costs 1/2, so bound 63 leaves room for 65
    # periods; it also puts (32;-;[];{}) and its 2**32 image tuples in range.
    with pytest.raises(ValueError, match="more than 64 periods"):
        enumerate_signatures(2, 63)
    # The cap is exact: at order 2, bound 4 fits 6 periods and bound 5 fits 7.
    monkeypatch.setattr(necfix.census, "MAX_PERIODS", 6)
    assert max(len(sig.periods) for sig in enumerate_signatures(2, 4)) == 6
    with pytest.raises(ValueError, match="more than 6 periods"):
        enumerate_signatures(2, 5)
    # Order 1 has no divisors, so no period fits and the cap never applies.
    assert NecSignature(38, Sign.MINUS) in enumerate_signatures(1, 40)


def test_census_at_order_one():
    rows, _ = run_census(1, 20)
    assert len(rows) == 18
    assert {row.epi.sig.periods for row in rows} == {()}


def test_enumerate_epimorphisms_example1_single_class():
    epis = enumerate_epimorphisms(EXAMPLE1_ODD, 14, up_to_aut=True)
    assert len(epis) == 1
    assert epis[0].x_images == (7, 2)
    assert epis[0].e_images == (5,)
    assert epis[0].c_images == (7,)
    raw = enumerate_epimorphisms(EXAMPLE1_ODD, 14)
    assert len(raw) == 6


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
]


def _brute_force_epimorphisms(sig, order):
    # Every image over Z_M, reflection images included, kept by validate alone.
    k = sig.empty_cycles
    n_orient = 2 * sig.genus if sig.sign is Sign.PLUS else sig.genus
    r = len(sig.periods)
    found = []
    for images in itertools.product(range(order), repeat=r + 2 * k + n_orient):
        epi = CyclicEpimorphism(
            sig, order, images[:r], images[r : r + k], images[r + k : r + 2 * k],
            images[r + 2 * k :],
        )
        if validate(epi).valid:
            found.append(epi)
    return sorted(found, key=lambda e: (e.x_images, e.e_images, e.orient_images))


def test_enumeration_matches_brute_force(monkeypatch):
    reports = []

    def recording_validate(epi):
        reports.append(validate(epi))
        return reports[-1]

    monkeypatch.setattr(necfix.census, "validate", recording_validate)
    mismatches = []
    for sig in BRUTE_FORCE_SIGS:
        slots = len(sig.periods) + 2 * sig.empty_cycles + sig.genus * (
            2 if sig.sign is Sign.PLUS else 1
        )
        for order in range(1, 9):
            if order**slots > BRUTE_FORCE_CAP:
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


def test_unit_orbits_partition_valid_maps():
    for order in range(1, 13):
        for sig in enumerate_signatures(order, 8):
            raw = enumerate_epimorphisms(sig, order)
            canonical = [e for e in raw if is_canonical(e)]
            orbit_reps = set()
            for epi in raw:
                orbit = {_unit_multiple(epi, u) for u in units(order)}
                reps = [e for e in orbit if is_canonical(e)]
                assert len(reps) == 1
                assert reps[0] in raw
                orbit_reps.add(reps[0])
            assert orbit_reps == set(canonical)


def test_high_genus_rows_exist_for_minus_signatures():
    sig = parse_signature("(3;-;[];{})")
    epis = enumerate_epimorphisms(sig, 3)
    assert epis
    assert all(e.sig.sign.value == "-" for e in epis)


def test_rows_carry_reports_and_flags():
    assert [f.name for f in dataclasses.fields(CensusRow)] == ["epi", "report", "canonical"]
    rows, _ = run_census(4, 8)
    rows = [row for row in rows if row.epi.sig == EXAMPLE2]
    assert rows
    for row in rows:
        record = census_row_record(row)
        assert record["signature"] == format_signature(row.epi.sig)
        assert record["modulus"] == row.epi.modulus == row.report.modulus
        assert record["kernel_genus"] == row.report.kernel_genus
        assert record["scherrer_equality"] == row.report.involution.scherrer_equality
        assert record["shadow_key"] == shadow_key(row.epi)
        assert record["canonical"] == row.canonical == is_canonical(row.epi)


def test_shadow_key_ignores_period_order():
    a = parse_map_text(EXAMPLE2, 4, "x=2,2,1,3;e=0")
    b = parse_map_text(EXAMPLE2, 4, "x=2,2,3,1;e=0")
    assert shadow_key(a) == shadow_key(b)


def _scherrer_extremal(order, max_genus):
    """Rows up to Aut(C_M) where the involution attains |F| + 2|V| = p + 2."""
    rows, _ = run_census(order, max_genus, up_to_aut=True)
    return [row for row in rows if row.report.involution.scherrer_equality]


def test_scherrer_extremal_contains_examples():
    rows = _scherrer_extremal(4, 8)
    keys = {(format_signature(r.epi.sig), r.epi.x_images, r.epi.e_images) for r in rows}
    assert ("(0;+;[2,2,4,4];{()})", (2, 2, 1, 3), (0,)) in keys

    rows = _scherrer_extremal(14, 7)
    keys = {(format_signature(r.epi.sig), r.epi.x_images) for r in rows}
    assert ("(0;+;[2,7];{()})", (7, 2)) in keys


def test_scherrer_extremal_order_eight_family():
    # Doubling the two largest periods keeps the bound attained: the
    # signature (0;+;[8,8];{()}) at order 8 gives F=2, V=4, p=8.
    rows = _scherrer_extremal(8, 8)
    match = [
        r
        for r in rows
        if format_signature(r.epi.sig) == "(0;+;[8,8];{()})"
    ]
    assert match
    inv = match[0].report.involution
    assert inv.isolated_total == 2
    assert inv.oval_total == 4


def test_census_rows_all_validate_and_hold_scherrer():
    rows, disagreements = run_census(4, 10, verify=True)
    assert not disagreements
    assert rows
    for row in rows:
        inv = row.report.involution
        assert inv.scherrer_lhs <= inv.scherrer_rhs
        assert 3 <= row.report.kernel_genus <= 10
        # At i = N the per-power formula restricts to the even periods.
        assert inv.isolated_total == sum(
            4 // m for m in row.epi.sig.periods if m % 2 == 0
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
    record = census_row_record(CensusRow(epi, report, is_canonical(epi)))
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


@pytest.mark.parametrize("order", range(2, 25, 2))
def test_to_json_matches_asdict_reference_on_sweeps(order):
    assert_encodes_as_asdict(involution_sweep(order))


def test_census_workers_agree():
    serial, _ = run_census(6, 9, workers=1)
    parallel, _ = run_census(6, 9, workers=2)
    assert serial == parallel


def test_census_pool_is_clamped_to_tasks_and_cpus(monkeypatch):
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

    monkeypatch.setattr(census, "ProcessPoolExecutor", RecordingPool)
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
