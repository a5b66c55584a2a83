"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.  Every expected value is exact; each criterion also
enforces its runtime budget.
"""

import math
import random
import time

from necfix import (
    NecSignature,
    ParseError,
    Sign,
    cross_check,
    enumerate_epimorphisms,
    enumerate_signatures,
    exponents,
    format_signature,
    full_report,
    isolated_fixed_points,
    max_cyclic_order,
    oval_classes_doublecoset,
    parse_map_text,
    parse_signature,
)

_census_cache = {}


def _census(order, max_genus=12):
    if order not in _census_cache:
        rows = []
        for sig in enumerate_signatures(order, max_genus):
            for epi in enumerate_epimorphisms(sig, order):
                rows.append(epi)
        _census_cache[order] = rows
    return _census_cache[order]


class _Budget:
    def __init__(self, seconds):
        self.seconds = seconds
        self.start = time.perf_counter()

    def check(self):
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.seconds, f"runtime {elapsed:.2f}s exceeded {self.seconds}s"
        return elapsed


def _passed(number, message, budget):
    elapsed = budget.check()
    print(f"PASS criterion {number}: {message} ({elapsed:.2f}s)")


def test_criterion_1_odd_genus_actions():
    budget = _Budget(1.0)
    for p in (3, 5, 7, 9, 11):
        sig = parse_signature(f"(0;+;[2,{p}];" + "{()})")
        epi = parse_map_text(sig, 2 * p, f"x={p},2;e={p - 2};c={p}")
        report = full_report(epi)
        inv = report.involution
        assert report.kernel_genus == p
        assert inv.isolated_total == p
        assert inv.oval_total == 1
        assert [c.twisted for c in inv.per_cycle] == [True]
        assert inv.scherrer_rhs - inv.scherrer_lhs == 0
    _passed(1, "odd genus p in {3,5,7,9,11}: p fixed points, 1 twisted oval, slack 0", budget)


def test_criterion_2_even_genus_actions():
    budget = _Budget(1.0)
    for p in (4, 6, 8, 10):
        order = 2 * (p - 1)
        sig = parse_signature(f"(0;+;[2,{order}];" + "{()})")
        epi = parse_map_text(sig, order, f"x={p - 1},1;e={p - 2};c={p - 1}")
        report = full_report(epi)
        inv = report.involution
        assert report.kernel_genus == p
        assert inv.isolated_total == p
        assert inv.oval_total == 1
        assert [c.twisted for c in inv.per_cycle] == [False]
    _passed(2, "even genus p in {4,6,8,10}: p fixed points, 1 untwisted oval", budget)


def test_criterion_3_order_four_family():
    budget = _Budget(1.0)
    for r in (0, 2, 4):
        for k in (1, 2, 3):
            sig = NecSignature(0, Sign.PLUS, (2,) * r + (4, 4), k)
            epi = parse_map_text(
                sig,
                4,
                "x=" + ",".join(["2"] * r + ["1", "3"]) + ";e=" + ",".join(["0"] * k),
            )
            report = full_report(epi)
            inv = report.involution
            assert report.kernel_genus == 4 * k + 2 * r
            assert inv.isolated_total == 2 * r + 2
            assert inv.oval_total == 2 * k
            assert inv.scherrer_equality
    _passed(3, "order-4 family: F=2r+2, V=2k, p=4k+2r, Scherrer equality", budget)


def test_criterion_4_oval_count_oracle():
    budget = _Budget(10.0)
    for order in range(2, 101, 2):
        half = order // 2
        for v, (delta, _) in enumerate(exponents(order, range(order))):
            assert (
                oval_classes_doublecoset(order, v)
                == math.gcd(half, v)
                == half // delta
            )
    _passed(4, "double cosets = gcd(N,v) = N/delta for all even M <= 100", budget)


def test_criterion_5_twist_oracle():
    budget = _Budget(10.0)
    for order in range(2, 101, 2):
        half = order // 2
        for v, (delta, epsilon) in enumerate(exponents(order, range(order))):
            assert epsilon in (delta, 2 * delta)
            twisted = epsilon == 2 * delta
            assert twisted == (math.gcd(order, v) == math.gcd(half, v))
    _passed(5, "twist oracle matches gcd criterion, epsilon in {delta, 2delta}", budget)


def test_criterion_6_fixed_point_recount():
    budget = _Budget(120.0)
    checked = 0
    for order in range(1, 21):
        for epi in _census(order):
            transcript = cross_check(epi)
            assert transcript.agreement, transcript.disagreements
            recount = dict.fromkeys(range(1, order), 0)
            for entry in transcript.per_power_fixed:
                recount[entry.i] += entry.fixed_cosets
            for i, count in recount.items():
                assert count == isolated_fixed_points(epi.sig, order, i)
                checked += 1
    assert checked > 0
    _passed(6, f"coset counts match the period formula ({checked} power checks, M <= 20)", budget)


def test_criterion_7_maximal_orders():
    budget = _Budget(300.0)
    # The search descends from 2p + 2, where top = 2 + (p - 2) // M is 2, so
    # the signature search's running count stays far below the budget.
    for p in range(3, 61):
        assert max_cyclic_order(p, cap=60) == (2 * p if p % 2 else 2 * (p - 1))
    _passed(7, "max order is 2p for odd p and 2(p-1) for even p, 3 <= p <= 60", budget)


def test_criterion_8_scherrer_bound_global():
    budget = _Budget(120.0)
    equality_orders = set()
    for order in range(1, 21):
        for epi in _census(order):
            report = full_report(epi)
            inv = report.involution
            if inv is None:
                continue
            assert inv.scherrer_lhs <= inv.scherrer_rhs, (
                f"Scherrer violated by {format_signature(epi.sig)} M={order}"
            )
            if inv.scherrer_lhs == inv.scherrer_rhs:
                equality_orders.add(order)
    assert {4, 8, 12} <= equality_orders
    _passed(8, "no census row violates |F|+2|V| <= p+2; equality at orders 4, 8, 12", budget)


def _random_signature(rng):
    sign = rng.choice([Sign.PLUS, Sign.MINUS])
    genus = rng.randint(1 if sign is Sign.MINUS else 0, 5)
    periods = tuple(rng.randint(2, 20) for _ in range(rng.randint(0, 5)))
    empty = rng.randint(0, 4)
    links = tuple(
        tuple(rng.randint(2, 9) for _ in range(rng.randint(1, 3)))
        for _ in range(rng.randint(0, 2))
    )
    return NecSignature(genus, sign, periods, empty, links)


def test_criterion_9_parser_round_trip():
    budget = _Budget(1.0)
    rng = random.Random(20260810)
    for _ in range(1000):
        sig = _random_signature(rng)
        assert parse_signature(format_signature(sig)) == sig
    malformed = [
        "(0;+;[2,7];{()}",
        "(0;*;[2];{})",
        "(0;+;[1];{})",
        "(0;-;[];{})",
        "[0;+;[2];{})",
        "(0;+;[2];{()})trailing",
    ]
    for text in malformed:
        try:
            parse_signature(text)
        except ParseError as err:
            assert err.position >= 1
            assert f"position {err.position}" in str(err)
        else:
            raise AssertionError(f"{text!r} should not parse")
    _passed(9, "1000 random signatures round-trip; malformed inputs report positions", budget)
