"""Shared hypothesis strategies, brute-force map sets and the census record
reference."""

import itertools

from hypothesis import strategies as st

from necfix import (
    CyclicEpimorphism,
    NecSignature,
    Sign,
    enumerate_epimorphisms,
    format_map_text,
    format_signature,
    full_report,
    parse_signature,
)
from necfix.census import shadow_key
from necfix.epimorphism import subgroup_generated

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


@st.composite
def exponent_walks(draw):
    """(M, vs) for oracle.exponents: an even M in [2, 1000] and a list of v
    in [-2M, 2M), possibly empty and with repeats."""
    order = 2 * draw(st.integers(min_value=1, max_value=500))
    vs = draw(st.lists(st.integers(min_value=-2 * order, max_value=2 * order - 1), max_size=12))
    return order, vs


def closure_set(modulus, gens):
    """subgroup_generated's mask decoded into the set of its members, the h
    in [0, modulus) whose bit is set; no bit at or above modulus may be."""
    mask = subgroup_generated(modulus, gens)
    assert 0 <= mask and mask >> modulus == 0, f"bits set at or above {modulus}"
    return {h for h in range(modulus) if mask >> h & 1}


def image_slots(sig):
    """Number of generator images of a map of sig, reflection images included."""
    n_orient = 2 * sig.genus if sig.sign is Sign.PLUS else sig.genus
    return len(sig.periods) + 2 * sig.empty_cycles + n_orient


def all_assignments(sig, order):
    """Every map of sig into Z_order: each image over Z_M, reflection images
    included, in lexicographic order of the image tuple."""
    k = sig.empty_cycles
    r = len(sig.periods)
    for images in itertools.product(range(order), repeat=image_slots(sig)):
        yield CyclicEpimorphism(
            sig, order, images[:r], images[r : r + k], images[r + k : r + 2 * k],
            images[r + 2 * k :],
        )


def census_row_record(row):
    """The whole JSON record of one census row, as a dict: the reference
    each line of the JSONL writer must read as when encoded by to_json."""
    report = full_report(row.epi)
    return {
        "signature": format_signature(row.epi.sig),
        "images": format_map_text(row.epi),
        "canonical": row.canonical,
        "shadow_key": shadow_key(row.epi),
        "kernel_genus": report.kernel_genus,
        "modulus": row.epi.modulus,
        "report": report,
        "scherrer_equality": report.involution is not None and report.involution.scherrer_equality,
    }
