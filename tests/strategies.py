"""Shared hypothesis strategies."""

from hypothesis import strategies as st

from necfix import NecSignature, Sign, enumerate_epimorphisms, parse_signature

period_values = st.integers(min_value=2, max_value=12)


@st.composite
def signatures(draw, max_periods=4, max_cycles=3, max_genus=4, allow_links=False):
    sign = draw(st.sampled_from([Sign.PLUS, Sign.MINUS]))
    min_genus = 1 if sign is Sign.MINUS else 0
    genus = draw(st.integers(min_value=min_genus, max_value=max_genus))
    periods = tuple(draw(st.lists(period_values, max_size=max_periods)))
    empty = draw(st.integers(min_value=0, max_value=max_cycles))
    links = ()
    if allow_links:
        links = tuple(
            tuple(cycle)
            for cycle in draw(
                st.lists(st.lists(period_values, min_size=1, max_size=3), max_size=2)
            )
        )
    return NecSignature(genus, sign, periods, empty, links)


# Small signatures with valid maps at several orders, for property tests.
SIG_POOL = [
    parse_signature("(0;+;[2,7];{()})"),
    parse_signature("(0;+;[2,2,4,4];{()})"),
    parse_signature("(1;-;[2,4];{})"),
    parse_signature("(2;-;[3];{})"),
    parse_signature("(1;+;[2];{()})"),
]

POOL_ORDERS = (2, 3, 4, 6, 8, 9, 12, 14)
# Every valid map of the pool at these orders: 424 maps, 18 of them at odd
# orders, whose reports have no involution.
VALID_POOL_MAPS = [
    epi for sig in SIG_POOL for order in POOL_ORDERS for epi in enumerate_epimorphisms(sig, order)
]
