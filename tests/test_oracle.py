import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from necfix import (
    cross_check,
    enumerate_epimorphisms,
    enumerate_signatures,
    exponents,
    involution_sweep,
    isolated_fixed_points,
    oval_classes_doublecoset,
    parse_map_text,
    parse_signature,
)
from necfix.oracle import PowerCosetCount

from strategies import SIG_POOL, VALID_POOL_MAPS, closure_set, exponent_walks

EXAMPLE1_ODD = parse_signature("(0;+;[2,7];{()})")
EXAMPLE2 = parse_signature("(0;+;[2,2,4,4];{()})")


@pytest.mark.parametrize("order, v, expected", [(14, 5, 1), (4, 0, 2), (12, 6, 6)])
def test_oval_classes_doublecoset(order, v, expected):
    assert oval_classes_doublecoset(order, v) == expected


@pytest.mark.parametrize(
    "order, v, delta, epsilon",
    [(14, 5, 7, 14), (4, 0, 1, 1), (10, 4, 5, 5), (2, 1, 1, 2)],
)
def test_exponents(order, v, delta, epsilon):
    assert exponents(order, [v]) == [(delta, epsilon)]


@settings(max_examples=200, deadline=None)
@given(exponent_walks())
def test_exponents_match_their_definitions(walk):
    order, vs = walk
    half = order // 2
    expected = [
        (next(d for d in range(1, order + 1) if d * v % order in (0, half)),
         next(d for d in range(1, order + 1) if d * v % order == 0))
        for v in vs
    ]
    assert exponents(order, vs) == expected


def test_exponent_lanes_are_independent():
    # Lanes of every v at the largest order the budget admits end at every
    # epsilon dividing 1000; each must read as it does alone.
    assert exponents(1000, range(1000)) == [exponents(1000, [v])[0] for v in range(1000)]


def test_exponents_of_no_images():
    assert exponents(4, []) == []
    with pytest.raises(ValueError, match="odd"):
        exponents(9, [])


@pytest.mark.parametrize("order, v, twisted", [(14, 5, True), (10, 4, False), (4, 0, False)])
def test_twist_oracle(order, v, twisted):
    # Twisted iff the delta-th power of the connecting element maps to the
    # involution, i.e. epsilon = 2*delta.
    [(delta, epsilon)] = exponents(order, [v])
    assert (epsilon == 2 * delta) is twisted


@pytest.mark.parametrize("func, v", [(oval_classes_doublecoset, 3), (exponents, [3])],
                         ids=["oval_classes_doublecoset", "exponents"])
def test_odd_order_rejected(func, v):
    with pytest.raises(ValueError, match="odd"):
        func(9, v)


@pytest.mark.parametrize(
    "sig, order, x_images, i, expected",
    [
        (EXAMPLE1_ODD, 14, [7, 2], 7, 7),
        (EXAMPLE1_ODD, 14, [7, 2], 2, 2),
        (EXAMPLE2, 4, [2, 2, 1, 1], 2, 6),
    ],
)
def test_coset_orbit_fixed_points(sig, order, x_images, i, expected):
    # cross_check's coset recount at power i, summed over the cone points.
    epi = next(e for e in enumerate_epimorphisms(sig, order) if e.x_images == tuple(x_images))
    transcript = cross_check(epi)
    assert sum(c.fixed_cosets for c in transcript.per_power_fixed if c.i == i) == expected


def test_coset_orbit_rejects_smoothness_violation():
    with pytest.raises(ValueError, match="SMOOTH-ELLIPTIC"):
        cross_check(parse_map_text(EXAMPLE1_ODD, 14, "x=7,3;e=4"))


def test_cross_check_example1():
    transcript = cross_check(parse_map_text(EXAMPLE1_ODD, 14, "x=7,2;e=5"))
    assert transcript.agreement
    assert transcript.disagreements == ()
    (cycle,) = transcript.per_cycle
    assert (cycle.delta, cycle.epsilon) == (7, 14)
    assert cycle.class_count_doublecoset == cycle.class_count_exponent == 1
    assert cycle.twisted_by_theta_prime


def test_cross_check_example2():
    transcript = cross_check(parse_map_text(EXAMPLE2, 4, "x=2,2,1,3;e=0"))
    assert transcript.agreement
    (cycle,) = transcript.per_cycle
    assert cycle.class_count_doublecoset == 2
    assert not cycle.twisted_by_theta_prime


def test_cross_check_per_power_entries():
    transcript = cross_check(parse_map_text(EXAMPLE1_ODD, 14, "x=7,2;e=5"))
    by_power = {}
    for entry in transcript.per_power_fixed:
        by_power.setdefault(entry.i, 0)
        by_power[entry.i] += entry.fixed_cosets
    assert by_power[7] == 7
    assert by_power[2] == 2
    assert set(by_power) == set(range(1, 14))


def test_cross_check_rejects_invalid():
    with pytest.raises(ValueError, match="invalid"):
        cross_check(parse_map_text(EXAMPLE1_ODD, 14, "x=7,3;e=4"))


def test_exponent_laws_small_sweep():
    # The acceptance suite sweeps to 100; keep a quick version here.
    for order in range(2, 41, 2):
        half = order // 2
        for v, (delta, epsilon) in enumerate(exponents(order, range(order))):
            assert epsilon in (delta, 2 * delta)
            assert oval_classes_doublecoset(order, v) == math.gcd(half, v) == half // delta
            assert (epsilon == 2 * delta) == (math.gcd(order, v) == math.gcd(half, v))


def test_involution_sweep_agreement():
    transcript = involution_sweep(28)
    assert transcript.agreement
    assert len(transcript.entries) == 28
    assert transcript.disagreements == ()


def test_oracle_catches_an_off_by_one_formula(formula_patch, capsys):
    import necfix.fixedpoints as fixedpoints
    import necfix.oracle as oracle
    from necfix.cli import main
    from necfix.fixedpoints import CycleOvals, cycle_ovals

    def off_by_one(order, v):
        right = cycle_ovals(order, v)
        return CycleOvals(v, right.oval_count + 1, right.twisted)

    # The reports' formula, and the one involution_sweep compares with.
    formula_patch.setattr(fixedpoints, "cycle_ovals", off_by_one)
    formula_patch.setattr(oracle, "cycle_ovals", off_by_one)
    transcript = cross_check(parse_map_text(EXAMPLE1_ODD, 14, "x=7,2;e=5"))
    assert not transcript.agreement
    assert transcript.disagreements == (
        "cycle 1 (v=5): double-coset 1, N/delta 1, gcd formula 2",
        "report: F, V, F + 2V, p + 2 (7, 2, 11, 9), oracle (7, 1, 9, 9)",
    )
    sweep = involution_sweep(12)
    assert not sweep.agreement
    assert len(sweep.disagreements) == 12
    assert sweep.disagreements[0] == "v=0: double-coset 6, N/delta 6, gcd formula 7"
    for argv in (
        ["verify", "(0;+;[2,7];{()})", "--order", "14", "--map", "x=7,2;e=5"],
        ["verify", "--order", "12", "--all-v"],
    ):
        assert main(argv) == 3
        assert "gcd formula" in capsys.readouterr().err

    # The power loop is what the coset-count tests rely on.
    formula_patch.setattr(
        fixedpoints,
        "isolated_fixed_points",
        lambda sig, order, i: isolated_fixed_points(sig, order, i) + (i == 2),
    )
    fixedpoints._report.cache_clear()
    fixedpoints._powers.cache_clear()
    transcript = cross_check(parse_map_text(EXAMPLE1_ODD, 14, "x=7,2;e=5"))
    assert "power 2: coset count 2, formula 3" in transcript.disagreements


def test_oracle_checks_the_numbers_a_row_publishes(monkeypatch):
    import necfix.oracle as oracle
    from necfix.fixedpoints import full_report

    def off_by_one(epi):
        report = full_report(epi)
        involution = report.involution
        return dataclasses.replace(report, involution=dataclasses.replace(
            involution, oval_total=involution.oval_total + 1))

    # The report that census rows print counts one oval too many; the
    # oracle's own counts are right.
    epi = parse_map_text(EXAMPLE1_ODD, 14, "x=7,2;e=5")
    assert cross_check(epi).agreement
    monkeypatch.setattr(oracle, "full_report", off_by_one)
    transcript = cross_check(epi)
    assert not transcript.agreement
    assert transcript.disagreements == (
        "report: F, V, F + 2V, p + 2 (7, 2, 9, 9), oracle (7, 1, 9, 9)",
    )


def test_oracle_checks_every_power_row_of_the_report(formula_patch):
    import necfix.fixedpoints as fixedpoints

    powers = fixedpoints._powers
    epi = parse_map_text(EXAMPLE1_ODD, 14, "x=7,2;e=5")

    def first_row_of_t2(sig, order):
        table = powers(sig, order)
        wrong = isolated_fixed_points(sig, order, 2)
        return (dataclasses.replace(table[0], isolated_count=wrong), *table[1:])

    # The row of t^1 prints the count of t^2; t^N's row, which gives F, is right.
    formula_patch.setattr(fixedpoints, "_powers", first_row_of_t2)
    transcript = cross_check(epi)
    assert transcript.disagreements == ("power 1: coset count 0, formula 2",)

    # The rows of t^1 and t^2 trade places: each prints its own count, under
    # the other's number.
    formula_patch.setattr(fixedpoints, "_powers",
                          lambda sig, order: (*powers(sig, order)[1::-1], *powers(sig, order)[2:]))
    fixedpoints._report.cache_clear()
    transcript = cross_check(epi)
    assert transcript.disagreements == ("report: power rows are not t^1 .. t^13 in order",)
    assert len(transcript.per_power_fixed) == 13 * 2


def test_oracle_names_a_missing_cycle_record(monkeypatch):
    import necfix.oracle as oracle
    from necfix.fixedpoints import full_report

    def no_cycles(epi):
        report = full_report(epi)
        return dataclasses.replace(report, involution=dataclasses.replace(
            report.involution, per_cycle=()))

    # The totals still count the cycle's oval; its record is gone.
    monkeypatch.setattr(oracle, "full_report", no_cycles)
    transcript = cross_check(parse_map_text(EXAMPLE1_ODD, 14, "x=7,2;e=5"))
    assert not transcript.agreement
    assert transcript.disagreements[0] == "report: cycle records for v = (), e images (5,)"


def test_involution_sweep_rejects_odd():
    with pytest.raises(ValueError, match="odd"):
        involution_sweep(27)


def test_coset_counts_match_formula_on_small_census():
    # cross_check compares the coset recount with isolated_fixed_points at
    # every power 1 <= i < M.
    for order in (2, 3, 4, 6):
        for sig in enumerate_signatures(order, 8):
            for epi in enumerate_epimorphisms(sig, order):
                transcript = cross_check(epi)
                assert transcript.agreement, transcript.disagreements


def test_coset_counts_match_formula_up_to_order_40():
    # Orders up to 20 are swept exhaustively by the acceptance suite; the
    # higher orders admit few signatures under the genus-12 cap.
    checked = 0
    for order in range(21, 41):
        for sig in enumerate_signatures(order, 12):
            for epi in enumerate_epimorphisms(sig, order):
                transcript = cross_check(epi)
                assert transcript.agreement, transcript.disagreements
                checked += 1
    assert checked > 0


def worklist_closure(order, gens):
    """The subgroup of Z_order generated by gens, by its definition: every
    element reached is added to every generator until nothing new appears."""
    elements = {0}
    todo = [0]
    while todo:
        a = todo.pop()
        for g in gens:
            b = (a + g) % order
            if b not in elements:
                elements.add(b)
                todo.append(b)
    return elements


def fixed_cosets_by_power(epi):
    """per_power_fixed by its definition, power by power: for each i and
    each x image u_j, the cosets of <u_j> that translation by i fixes."""
    order = epi.modulus
    partitions = [
        {frozenset((c + h) % order for h in worklist_closure(order, [u])) for c in range(order)}
        for u in epi.x_images
    ]
    return tuple(
        PowerCosetCount(i, j, sum((min(coset) + i) % order in coset for coset in cosets))
        for i in range(1, order)
        for j, cosets in enumerate(partitions)
    )


# The pool's maps, and maps at orders 24 and 30 whose x images have order
# 2 or 3, so a partition has up to 15 cosets.
ORACLE_MAPS = VALID_POOL_MAPS + [
    epi for sig in SIG_POOL[3:] for order in (24, 30) for epi in enumerate_epimorphisms(sig, order)
]


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(ORACLE_MAPS),
    st.integers(min_value=1, max_value=120),
    st.lists(st.integers(min_value=-300, max_value=300), max_size=4),
)
def test_oracle_kernels_match_their_definitions(epi, order, gens):
    # The oracle counts each coset's fixing translations from the coset and
    # grows its closures by doubling; both must give what the definitions
    # give, for negative and out-of-range generators too.
    assert cross_check(epi).per_power_fixed == fixed_cosets_by_power(epi)
    assert closure_set(order, gens) == worklist_closure(order, gens)


@pytest.mark.parametrize(
    "gens",
    [[], [0], [1], [-1], [500], [500, 250], [8], [-12, 750], [999, 0], [400, 625], [-1000, 40]],
)
def test_closure_at_the_largest_verified_order(gens):
    # 1000 is the largest order verify admits; its closures double up to
    # ten times, against a worklist that adds one element at a time.
    assert closure_set(1000, gens) == worklist_closure(1000, gens)
