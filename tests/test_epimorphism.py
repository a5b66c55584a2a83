import dataclasses
import io
import math
import pickle
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from necfix import (
    CyclicEpimorphism,
    Sign,
    format_map_text,
    image_order,
    parse_map_text,
    parse_signature,
    validate,
)
from necfix.census import run_census, write_census_jsonl
from necfix.epimorphism import _verdict

from strategies import SIG_POOL, all_assignments, closure_set

EXAMPLE1_ODD = parse_signature("(0;+;[2,7];{()})")
EXAMPLE2_R3 = parse_signature("(0;+;[2,2,2,4,4];{()})")


def check(report, name):
    return next(c for c in report.checks if c.name == name)


@pytest.mark.parametrize("order, u, expected", [(14, 7, 2), (14, 2, 7), (4, 0, 1)])
def test_image_order(order, u, expected):
    assert image_order(order, u) == expected


def test_subgroup_generated_examples():
    assert closure_set(12, [8]) == {0, 4, 8}
    assert closure_set(14, [7, 2]) == set(range(14))
    assert closure_set(4, []) == {0}
    # Modulus 1, no generators, zero, multiples of the modulus and negatives.
    assert closure_set(1, []) == closure_set(1, [0]) == closure_set(1, [1, -7]) == {0}
    assert closure_set(12, []) == closure_set(12, [0, 12, -24]) == {0}
    assert closure_set(12, [-8]) == {0, 4, 8}
    assert closure_set(12, [-3, 0]) == {0, 3, 6, 9}
    assert closure_set(12, [-1]) == set(range(12))
    assert closure_set(6, [4, -3]) == set(range(6))


@given(
    st.integers(min_value=1, max_value=60),
    st.lists(st.integers(min_value=-100, max_value=100), max_size=4),
)
def test_subgroup_generated_is_a_subgroup(order, gens):
    member = closure_set(order, gens)
    assert 0 in member
    assert order % len(member) == 0
    assert all((a + b) % order in member for a in member for b in member)


@given(
    st.integers(min_value=1, max_value=100),
    st.lists(st.integers(min_value=-200, max_value=200), max_size=4),
)
def test_cyclic_subgroup_size_against_gcd(order, gens):
    assert image_order(order, *gens) == len(closure_set(order, gens))


def test_validate_example1_odd():
    epi = parse_map_text(EXAMPLE1_ODD, 14, "x=7,2;e=5;c=7")
    report = validate(epi)
    assert report.valid
    assert report.kernel_genus == 7
    assert all(c.passed for c in report.checks)
    assert [c.name for c in report.checks] == [
        "REFLECTIONS",
        "SMOOTH-ELLIPTIC",
        "LONG-RELATION",
        "SURJECTIVE",
        "KERNEL-NON-ORIENTABLE",
        "GENUS",
    ]


def test_validate_example2_odd_r_fails_long_relation():
    epi = parse_map_text(EXAMPLE2_R3, 4, "x=2,2,2,1,3;e=0")
    report = validate(epi)
    assert not report.valid
    assert report.failed() == ["LONG-RELATION"]
    assert report.kernel_genus is None


def test_validate_example2_odd_r_repair():
    epi = parse_map_text(EXAMPLE2_R3, 4, "x=2,2,2,1,1;e=0")
    report = validate(epi)
    assert report.valid
    assert report.kernel_genus == 10


def test_reflection_image_must_be_half():
    epi = parse_map_text(EXAMPLE1_ODD, 14, "x=7,2;e=5;c=3")
    report = validate(epi)
    assert not check(report, "REFLECTIONS").passed


def test_reflections_need_even_order():
    sig = parse_signature("(0;+;[3,3];{()})")
    epi = CyclicEpimorphism(sig, 9, (3, 3), (3,), (0,))
    assert not check(validate(epi), "REFLECTIONS").passed


def test_link_periods_rejected():
    sig = parse_signature("(1;+;[2];{(2,2)})")
    epi = CyclicEpimorphism(sig, 4, (2,), (), (), (1, 0))
    result = check(validate(epi), "REFLECTIONS")
    assert not result.passed
    assert "link periods" in result.detail


def test_smoothness_failure():
    epi = parse_map_text(EXAMPLE1_ODD, 14, "x=7,3;e=4")
    report = validate(epi)
    assert not report.valid
    assert report.failed() == ["SMOOTH-ELLIPTIC"]


def test_surjectivity_failure():
    sig = parse_signature("(0;+;[2,4];{()})")
    epi = parse_map_text(sig, 12, "x=6,3;e=3")
    report = validate(epi)
    assert not check(report, "SURJECTIVE").passed


def test_orientable_kernel_detected_for_minus_sign():
    # Surjective, smooth, but the orientation-preserving part only maps onto
    # the even subgroup, so the kernel would be an orientable surface group.
    sig = parse_signature("(1;-;[2,4];{})")
    epi = parse_map_text(sig, 8, "x=4,6;d=3")
    report = validate(epi)
    assert check(report, "SURJECTIVE").passed
    assert not check(report, "KERNEL-NON-ORIENTABLE").passed


def test_all_generators_orientation_preserving_fails():
    sig = parse_signature("(1;+;[2,2];{})")
    epi = CyclicEpimorphism(sig, 2, (1, 1), (), (), (1, 0))
    result = check(validate(epi), "KERNEL-NON-ORIENTABLE")
    assert not result.passed
    assert "orientable" in result.detail


def test_genus_check_rejects_small_and_nonintegral():
    sig = parse_signature("(1;-;[];{})")
    report = validate(CyclicEpimorphism(sig, 2, (), (), (), (1,)))
    assert not check(report, "GENUS").passed
    sig = parse_signature("(0;+;[2,7];{()})")
    report = validate(CyclicEpimorphism(sig, 7, (0, 2), (5,), (3,)))
    assert not check(report, "GENUS").passed


def test_valid_maps_of_one_signature_share_their_report():
    first = validate(parse_map_text(EXAMPLE1_ODD, 14, "x=7,2;e=5;c=7"))
    second = validate(parse_map_text(EXAMPLE1_ODD, 14, "x=7,4;e=3;c=7"))
    assert first.valid
    assert second is first


def test_invalid_map_after_a_valid_one_keeps_its_failures():
    assert validate(parse_map_text(EXAMPLE1_ODD, 14, "x=7,2;e=5;c=7")).valid
    report = validate(parse_map_text(EXAMPLE1_ODD, 14, "x=7,3;e=5;c=3"))
    assert not report.valid
    assert report.kernel_genus is None
    assert [(c.name, c.detail) for c in report.checks if not c.passed] == [
        ("REFLECTIONS", "reflection images [3] must all equal 7"),
        ("SMOOTH-ELLIPTIC", "image 3 has order 14, period is 7"),
        ("LONG-RELATION", "defining product maps to 1 (mod 14)"),
    ]


# x, e and reflection images; glides; and a/b images with no reversing
# generator at all.  The first has valid maps at order 4, the second at
# orders 3 and 6.
VERDICT_SIGS = [
    parse_signature("(0;+;[2,4];{()})"),
    parse_signature("(2;-;[3];{})"),
    parse_signature("(1;+;[2];{})"),
]


def verdict_maps():
    return [epi for sig in VERDICT_SIGS for order in range(2, 9)
            for epi in all_assignments(sig, order)]


def test_shared_verdicts_do_not_depend_on_the_order_of_calls():
    # A cache key that missed a value the checks read would hand a map the
    # report of whichever map with the same key came first.  Each pass
    # validates maps of its own: a map keeps its first verdict, so the same
    # objects would only read the forward pass back.
    _verdict.cache_clear()
    forward = [validate(epi) for epi in verdict_maps()]
    _verdict.cache_clear()
    backward = [validate(epi) for epi in reversed(verdict_maps())]
    assert forward == backward[::-1]
    assert {r.valid for r in forward} == {True, False}


def test_a_map_keeps_its_verdict(monkeypatch):
    # A census validates each candidate once: the writer's full_report reads
    # the verdict its row's map keeps, so _verdict is not reached again.
    import necfix.census as census
    import necfix.epimorphism as epimorphism

    verdicts, candidates = [], []
    monkeypatch.setattr(epimorphism, "_verdict",
                        lambda *values: verdicts.append(values) or _verdict(*values))
    validate_candidate = census.validate
    monkeypatch.setattr(census, "validate",
                        lambda epi: candidates.append(epi) or validate_candidate(epi))
    rows, _ = run_census(4, 6)
    write_census_jsonl(rows, io.StringIO())
    assert len(verdicts) == len(candidates) > len(rows) > 0

    # A new map of the same signature, as dataclasses.replace builds one,
    # takes its own verdict, not the one of the map it was built from.
    epi = rows[0]
    report = validate(epi)
    assert report.valid
    broken = dataclasses.replace(epi, x_images=(0,) * len(epi.x_images))
    assert "SMOOTH-ELLIPTIC" in validate(broken).failed()
    assert validate(epi) is report

    # A worker's rows arrive pickled, with their verdicts.
    reached = len(verdicts)
    arrived = pickle.loads(pickle.dumps(epi))
    assert validate(arrived) == report
    assert len(verdicts) == reached

    # The verdict is not a field: a validated map and an unvalidated copy
    # are equal, hash alike and read alike.
    fresh = CyclicEpimorphism(*(getattr(epi, f.name) for f in dataclasses.fields(epi)))
    assert "_validation" not in vars(fresh)
    assert epi == fresh and fresh == epi
    assert hash(epi) == hash(fresh)
    assert repr(epi) == repr(fresh)
    assert [f.name for f in dataclasses.fields(epi)] == [
        "sig", "modulus", "x_images", "e_images", "c_images", "orient_images"]


def test_constructor_rejects_wrong_lengths():
    with pytest.raises(ValueError, match="x images"):
        CyclicEpimorphism(EXAMPLE1_ODD, 14, (7,), (5,), (7,))
    with pytest.raises(ValueError, match="e images"):
        CyclicEpimorphism(EXAMPLE1_ODD, 14, (7, 2), (), (7,))
    with pytest.raises(ValueError, match="glide images"):
        CyclicEpimorphism(parse_signature("(1;-;[];{})"), 2, (), (), (), ())
    with pytest.raises(ValueError, match="^expected 1 c images, got 2$"):
        CyclicEpimorphism(EXAMPLE1_ODD, 14, (7, 2), (5,), (7, 7))
    with pytest.raises(ValueError, match="^expected 0 a/b images, got 2$"):
        CyclicEpimorphism(EXAMPLE1_ODD, 14, (7, 2), (5,), (7,), (1, 1))


def test_images_reduced_mod_order():
    epi = CyclicEpimorphism(EXAMPLE1_ODD, 14, (21, -12), (19,), (7,))
    assert epi.x_images == (7, 2)
    assert epi.e_images == (5,)


@pytest.mark.parametrize(
    "x, e, c",
    [
        ([7, 2], [0], [7]),
        ((7, 2), (14,), (7,)),
        ((21, 16), (28,), (-7,)),
        ((-7, -12), (-14,), (7,)),
    ],
)
def test_constructor_stores_reduced_tuples(x, e, c):
    # Lists, images at or above the order and negative images are rebuilt;
    # the map then equals, and hashes like, the one given reduced tuples.
    reduced = CyclicEpimorphism(EXAMPLE1_ODD, 14, (7, 2), (0,), (7,))
    epi = CyclicEpimorphism(EXAMPLE1_ODD, 14, x, e, c)
    assert (epi.x_images, epi.e_images, epi.c_images, epi.orient_images) == (
        (7, 2), (0,), (7,), ())
    assert all(type(images) is tuple for images in (epi.x_images, epi.e_images, epi.c_images))
    assert epi == reduced
    assert hash(epi) == hash(reduced)


@settings(max_examples=150)
@given(st.data())
def test_validity_is_unit_equivariant(data):
    sig = data.draw(st.sampled_from(SIG_POOL))
    order = data.draw(st.sampled_from([2, 4, 6, 8, 12, 14]))
    images = st.integers(min_value=0, max_value=order - 1)
    n_orient = 2 * sig.genus if sig.sign is Sign.PLUS else sig.genus
    epi = CyclicEpimorphism(
        sig,
        order,
        tuple(data.draw(images) for _ in sig.periods),
        tuple(data.draw(images) for _ in range(sig.empty_cycles)),
        (order // 2,) * sig.empty_cycles,
        tuple(data.draw(images) for _ in range(n_orient)),
    )
    unit = data.draw(st.sampled_from([u for u in range(1, order) if math.gcd(u, order) == 1]))
    scaled = CyclicEpimorphism(
        sig,
        order,
        tuple(unit * v % order for v in epi.x_images),
        tuple(unit * v % order for v in epi.e_images),
        tuple(unit * v % order for v in epi.c_images),
        tuple(unit * v % order for v in epi.orient_images),
    )
    assert validate(epi).valid == validate(scaled).valid


def preserving_image_by_parity(order, letters):
    """Images of the words with an even number of orientation-reversing letters.

    letters holds (image, reverses_orientation) pairs.  The closure runs in
    Z_order x Z_2, whose second coordinate counts reversing letters mod 2.
    """
    gens = [(u % order, int(rev)) for u, rev in letters]
    seen = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        a, parity = frontier.pop()
        for u, rev in gens:
            nxt = ((a + u) % order, parity ^ rev)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return {a for a, parity in seen if parity == 0}


def orientation_letters(epi):
    """(image, reverses_orientation) for every generator letter of the map:
    reflections reverse orientation, and so do the glide reflections of a
    non-orientable (sign -) signature; elliptic, connecting and sign +
    hyperbolic letters preserve it."""
    glides_reverse = epi.sig.sign is Sign.MINUS
    return (
        [(u, False) for u in epi.x_images]
        + [(u, False) for u in epi.e_images]
        + [(u, True) for u in epi.c_images]
        + [(u, glides_reverse) for u in epi.orient_images]
    )


@pytest.mark.parametrize(
    "sig_text, order, images, size",
    [
        # The glide image 3 is odd and the elliptic images are even, so the
        # words with an even number of glides reach only the even residues.
        ("(1;-;[2,4];{})", 8, "x=4,6;d=3", 4),
        ("(1;-;[2,4];{})", 4, "x=2,1;d=1", 4),
        # With sign +, a and b preserve orientation; only the reflection
        # reverses.  Counting a and b as reversing would give size 1.
        ("(1;+;[];{()})", 2, "e=0;a=1;b=1", 2),
        # Three or more reversing images r0, r1, ...: the pair sums reach all
        # of Z_6, but without 2 r0 they reach only {0, 3}, and without the
        # sums after r0 + r1 only {0, 2, 4}.
        ("(1;+;[];{()()()})", 6, "e=0,0,0;c=1,5,2;a=0;b=0", 6),
        ("(2;-;[];{()()})", 6, "e=0,0;c=1,5;d=2,5", 6),
    ],
)
def test_preserving_image_by_parity_known_answers(sig_text, order, images, size):
    epi = parse_map_text(parse_signature(sig_text), order, images)
    letters = orientation_letters(epi)
    assert len(preserving_image_by_parity(order, letters)) == size
    detail = check(validate(epi), "KERNEL-NON-ORIENTABLE").detail
    assert f"subgroup of size {size} of {order}" in detail


def check_subgroups_against_closure(data, pool):
    # validate sizes subgroups by gcd; recount them by closure.
    sig = data.draw(st.sampled_from(pool))
    order = data.draw(st.integers(min_value=1, max_value=16))
    images = st.integers(min_value=0, max_value=order - 1)
    n_orient = 2 * sig.genus if sig.sign is Sign.PLUS else sig.genus
    epi = CyclicEpimorphism(
        sig,
        order,
        tuple(data.draw(images) for _ in sig.periods),
        tuple(data.draw(images) for _ in range(sig.empty_cycles)),
        tuple(data.draw(images) for _ in range(sig.empty_cycles)),
        tuple(data.draw(images) for _ in range(n_orient)),
    )
    report = validate(epi)

    all_images = [*epi.x_images, *epi.e_images, *epi.c_images, *epi.orient_images]
    size = len(closure_set(order, all_images))
    surjective = check(report, "SURJECTIVE")
    assert surjective.passed == (size == order)
    assert surjective.detail == f"images generate a subgroup of size {size} of {order}"

    letters = orientation_letters(epi)
    assert any(rev for _, rev in letters)  # else validate reports no subgroup size
    size = len(preserving_image_by_parity(order, letters))
    plus = check(report, "KERNEL-NON-ORIENTABLE")
    assert plus.passed == (size == order)
    assert plus.detail == (
        f"orientation-preserving part maps onto a subgroup of size {size} of {order}"
        + ("" if size == order else "; kernel would be orientable")
    )


@settings(max_examples=150)
@given(st.data())
def test_subgroup_checks_against_closure(data):
    check_subgroups_against_closure(data, SIG_POOL)


# SIG_POOL has at most two orientation-reversing generators, too few to
# tell the preserving subgroup's generators from a subset of them.  These
# have three or more; they stay out of SIG_POOL, whose brute-force census
# test would slow down.
MANY_REVERSING = [
    parse_signature("(2;-;[];{()()})"),
    parse_signature("(1;+;[];{()()()})"),
    parse_signature("(3;-;[2];{()})"),
]


@settings(max_examples=150)
@given(st.data())
def test_subgroup_checks_with_many_reversing_generators(data):
    check_subgroups_against_closure(data, MANY_REVERSING)


def test_validity_invariant_under_permuting_equal_periods():
    sig = parse_signature("(0;+;[2,2,4,4];{()})")
    base = parse_map_text(sig, 4, "x=2,2,1,3;e=0")
    assert validate(base).valid
    seen = set()
    for perm in permutations(range(4)):
        if tuple(sig.periods[i] for i in perm) != sig.periods:
            continue
        permuted = CyclicEpimorphism(
            sig,
            4,
            tuple(base.x_images[i] for i in perm),
            base.e_images,
            base.c_images,
        )
        seen.add(permuted.x_images)
        assert validate(permuted).valid
    assert (2, 2, 3, 1) in seen


def test_map_text_round_trip():
    epi = parse_map_text(EXAMPLE1_ODD, 14, "x=7,2; e=5; c=7")
    assert format_map_text(epi) == "x=7,2;e=5;c=7"
    assert parse_map_text(EXAMPLE1_ODD, 14, format_map_text(epi)) == epi


def test_map_text_allows_empty_sections():
    epi = parse_map_text(EXAMPLE1_ODD, 14, "x=7,2; e=5; c=7; d=")
    assert epi.orient_images == ()
    # A trailing ';' leaves an empty chunk, which is skipped.
    assert parse_map_text(EXAMPLE1_ODD, 14, "x=7,2;e=5;") == epi


def test_map_text_defaults_reflections_to_half():
    epi = parse_map_text(EXAMPLE1_ODD, 14, "x=7,2;e=5")
    assert epi.c_images == (7,)


def test_map_text_negative_entries_reduced():
    sig = parse_signature("(0;+;[2,2,4,4];{()})")
    epi = parse_map_text(sig, 4, "x=2,2,1,-1;e=0")
    assert epi.x_images == (2, 2, 1, 3)


def test_map_text_minus_sign_sections():
    sig = parse_signature("(2;-;[3];{})")
    epi = parse_map_text(sig, 6, "x=2;d=1,4")
    assert epi.orient_images == (1, 4)
    assert format_map_text(epi) == "x=2;d=1,4"


def test_map_text_plus_sign_interleaves_ab():
    sig = parse_signature("(1;+;[2];{()})")
    epi = parse_map_text(sig, 4, "x=2;e=1;a=1;b=3")
    assert epi.orient_images == (1, 3)
    assert format_map_text(epi) == "x=2;e=1;c=2;a=1;b=3"


@pytest.mark.parametrize(
    "text, message",
    [
        ("x=7,2;e=5;q=1", "unknown map section"),
        ("x=7,2;x=7,2;e=5", "duplicate map section"),
        ("x=7,two;e=5", "non-integer"),
        ("x 7", "not of the form"),
        # Genus 0 takes no pair, so zip would drop the image unnoticed.
        ("x=7,2;e=5;a=1", "'a' and 'b' sections differ in length"),
        ("x=7,2;e=5;b=1,2", "'a' and 'b' sections differ in length"),
    ],
)
def test_map_text_errors(text, message):
    with pytest.raises(ValueError, match=message):
        parse_map_text(EXAMPLE1_ODD, 14, text)


def test_map_text_rejects_wrong_sign_sections():
    with pytest.raises(ValueError, match="sign '-'"):
        parse_map_text(EXAMPLE1_ODD, 14, "x=7,2;e=5;d=1")
    with pytest.raises(ValueError, match="sign '\\+'"):
        parse_map_text(parse_signature("(2;-;[3];{})"), 6, "x=2;a=1;b=1")
