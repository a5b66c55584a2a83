import gc
import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from necfix import (
    full_report,
    isolated_fixed_points,
    kernel_genus,
    parse_map_text,
    parse_signature,
    run_census,
)
from necfix.census import write_census_jsonl
from necfix.fixedpoints import FixedPointReport, _report, cycle_ovals, twists_field
from strategies import VALID_POOL_MAPS

EXAMPLE1_ODD = parse_signature("(0;+;[2,7];{()})")
EXAMPLE1_EVEN = parse_signature("(0;+;[2,10];{()})")
EXAMPLE2 = parse_signature("(0;+;[2,2,4,4];{()})")


def example1_odd_epi():
    return parse_map_text(EXAMPLE1_ODD, 14, "x=7,2;e=5")


def example1_even_epi():
    return parse_map_text(EXAMPLE1_EVEN, 10, "x=5,1;e=4")


def example2_epi(cycles=1):
    sig = parse_signature("(0;+;[2,2,4,4];" + "{" + "()" * cycles + "})")
    return parse_map_text(sig, 4, "x=2,2,1,3;e=" + ",".join("0" * cycles))


# Valid map with no period cycles on an even-order group: two glides whose
# images differ by an odd amount keep the kernel non-orientable.
def no_cycle_epi():
    sig = parse_signature("(2;-;[3];{})")
    return parse_map_text(sig, 6, "x=2;d=1,4")


@pytest.mark.parametrize(
    "sig, order, i, expected",
    [
        (EXAMPLE1_ODD, 14, 7, 7),
        (EXAMPLE2, 4, 2, 6),
        (EXAMPLE1_ODD, 14, 2, 2),
        (EXAMPLE1_ODD, 14, 1, 0),
    ],
)
def test_isolated_fixed_points(sig, order, i, expected):
    assert isolated_fixed_points(sig, order, i) == expected


def test_isolated_fixed_points_rejects_identity():
    with pytest.raises(ValueError, match="identity"):
        isolated_fixed_points(EXAMPLE1_ODD, 14, 0)
    with pytest.raises(ValueError, match="identity"):
        isolated_fixed_points(EXAMPLE1_ODD, 14, 28)


def per_cycle(epi):
    return [(c.oval_count, c.twisted) for c in full_report(epi).involution.per_cycle]


def test_oval_count_examples():
    assert full_report(example1_odd_epi()).involution.oval_total == 1
    assert per_cycle(example2_epi(cycles=2)) == [(2, False), (2, False)]
    assert full_report(example2_epi(cycles=2)).involution.oval_total == 4
    assert per_cycle(no_cycle_epi()) == []
    assert full_report(no_cycle_epi()).involution.oval_total == 0


def test_oval_count_rejects_invalid():
    epi = parse_map_text(EXAMPLE1_ODD, 14, "x=7,3;e=4")
    with pytest.raises(ValueError, match="SMOOTH-ELLIPTIC"):
        full_report(epi)


def test_oval_count_rejects_odd_order():
    with pytest.raises(ValueError, match="odd"):
        cycle_ovals(3, 1)


def test_twist_classification_examples():
    assert per_cycle(example1_odd_epi()) == [(1, True)]
    assert per_cycle(example1_even_epi()) == [(1, False)]
    assert per_cycle(example2_epi()) == [(2, False)]


def test_twist_dichotomy_exhaustive():
    # gcd(2N, v) is gcd(N, v) or twice it; never anything else.
    for half in range(1, 51):
        for v in range(2 * half):
            g1 = math.gcd(half, v)
            g2 = math.gcd(2 * half, v)
            assert g2 in (g1, 2 * g1)


def test_full_report_example1():
    report = full_report(example1_odd_epi())
    inv = report.involution
    assert report.kernel_genus == 7
    assert inv.isolated_total == 7
    assert inv.oval_total == 1
    assert inv.per_cycle[0].twisted
    assert inv.scherrer_lhs == inv.scherrer_rhs == 9
    assert inv.scherrer_equality


def test_full_report_example2():
    report = full_report(example2_epi())
    inv = report.involution
    assert report.kernel_genus == 8
    assert inv.isolated_total == 6
    assert inv.oval_total == 2
    assert not inv.per_cycle[0].twisted
    assert inv.scherrer_equality


def test_full_report_fixed_point_free_involution():
    report = full_report(no_cycle_epi())
    inv = report.involution
    assert inv.isolated_total == 0
    assert inv.oval_total == 0
    assert not inv.scherrer_equality


def test_full_report_covers_every_power():
    report = full_report(example1_odd_epi())
    assert [row.i for row in report.per_power] == list(range(1, 14))
    by_i = {row.i: row for row in report.per_power}
    assert by_i[7].order == 2 and by_i[7].isolated_count == 7
    assert by_i[2].order == 7 and by_i[2].isolated_count == 2
    assert by_i[1].order == 14 and by_i[1].isolated_count == 0


def test_full_report_odd_order_has_no_involution():
    sig = parse_signature("(3;-;[];{})")
    report = full_report(parse_map_text(sig, 3, "d=1,1,1"))
    assert report.involution is None
    assert len(report.per_power) == 2


def test_involution_matches_even_period_formula():
    # At i = N the general formula restricts to the even periods.
    for epi in (example1_odd_epi(), example1_even_epi(), example2_epi()):
        order = epi.modulus
        half = order // 2
        expected = sum(order // m for m in epi.sig.periods if m % 2 == 0)
        assert isolated_fixed_points(epi.sig, order, half) == expected


def test_counts_do_not_depend_on_images():
    a = parse_map_text(EXAMPLE1_ODD, 14, "x=7,2;e=5")
    b = parse_map_text(EXAMPLE1_ODD, 14, "x=7,4;e=3")
    ra, rb = full_report(a), full_report(b)
    assert ra.per_power == rb.per_power


def test_report_shared_by_maps_with_equal_key():
    # Equal signature, order and e images: different x images, then
    # different glide images.
    pairs = [
        (example2_epi(), parse_map_text(EXAMPLE2, 4, "x=2,2,3,1;e=0")),
        (no_cycle_epi(), parse_map_text(no_cycle_epi().sig, 6, "x=2;d=2,3")),
    ]
    for a, b in pairs:
        assert a != b
        assert full_report(a) is full_report(b)
    # Another e image changes the twist types, so it gets its own report.
    other_e = full_report(parse_map_text(EXAMPLE2, 4, "x=2,2,1,1;e=2")).involution
    assert [(c.oval_count, c.twisted) for c in other_e.per_cycle] == [(2, True)]
    assert per_cycle(example2_epi()) == [(2, False)]


def test_reports_of_one_signature_and_order_share_one_power_table():
    # Macbeath's count reads only the signature and M: maps with other e
    # images get their own reports but one power table.
    handle = parse_signature("(1;+;[2];{()})")
    a, b = example2_epi(), parse_map_text(EXAMPLE2, 4, "x=2,2,1,1;e=2")
    assert full_report(a) is not full_report(b)
    assert full_report(a).per_power is full_report(b).per_power
    # Another order, or another signature at the same order, has its own.
    at_4 = full_report(parse_map_text(handle, 4, "x=2;e=2;a=0;b=1"))
    at_8 = full_report(parse_map_text(handle, 8, "x=4;e=4;a=0;b=1"))
    assert at_4.per_power is not at_8.per_power
    assert at_4.per_power is not full_report(a).per_power
    assert at_4.per_power != full_report(a).per_power
    # An odd order still has no involution block.
    odd = full_report(parse_map_text(parse_signature("(2;-;[3];{})"), 9, "x=3;d=1,2"))
    assert odd.involution is None
    assert [row.i for row in odd.per_power] == list(range(1, 9))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(VALID_POOL_MAPS))
def test_shared_report_equals_uncached(epi):
    genus = kernel_genus(epi.sig, epi.modulus)
    assert full_report(epi) == _report.__wrapped__(epi.sig, epi.modulus, epi.e_images, genus)


def test_invalid_map_raises_when_its_key_is_cached():
    full_report(example1_odd_epi())
    invalid = parse_map_text(EXAMPLE1_ODD, 14, "x=7,3;e=5")
    with pytest.raises(ValueError, match="SMOOTH-ELLIPTIC"):
        full_report(invalid)


def test_census_keeps_at_most_32_reports():
    # A row holds its map, not its report: the writer takes one report per
    # row from full_report, so a census keeps only the cache's reports alive.
    _report.cache_clear()
    rows, _ = run_census(4, 16)
    assert _report.cache_info().currsize == 0
    write_census_jsonl(rows, io.StringIO())
    info = _report.cache_info()
    assert 0 < info.currsize <= 32
    # Rows of one signature arrive together, so most rows share a report.
    assert info.hits + info.misses == len(rows)
    assert info.misses < len(rows) / 4
    gc.collect()
    assert sum(isinstance(obj, FixedPointReport) for obj in gc.get_objects()) <= 32


@pytest.mark.parametrize(
    "make_epi, fixed, ovals, genus, equality",
    [
        (example1_odd_epi, 7, 1, 7, True),
        (example2_epi, 6, 2, 8, True),
        (no_cycle_epi, 0, 0, 6, False),
    ],
    ids=["example1", "example2", "no-cycle"],
)
def test_full_report_scherrer_fields(make_epi, fixed, ovals, genus, equality):
    # Scherrer's bound |F| + 2|V| <= p + 2; equality exactly when lhs == rhs.
    inv = full_report(make_epi()).involution
    assert (inv.isolated_total, inv.oval_total) == (fixed, ovals)
    assert inv.scherrer_lhs == fixed + 2 * ovals
    assert inv.scherrer_rhs == genus + 2
    assert inv.scherrer_equality is equality


def test_twists_field_flattening():
    assert twists_field(full_report(example2_epi(cycles=2))) == "c1:2u;c2:2u"
    assert twists_field(full_report(example1_odd_epi())) == "c1:1t"
