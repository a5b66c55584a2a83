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
from necfix.census import is_canonical, shadow_key
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


# The nine maps of (0;+;[M,M,2];{()}) that perfbench's action-ladder
# workload sends at seed 1: seeded unit x images, M/2, and the e image the
# long relation fixes.
LADDER_ACTIONS = {
    32: "x=9,5,16;e=2",
    48: "x=25,11,24;e=36",
    64: "x=63,57,32;e=40",
    96: "x=91,73,48;e=76",
    128: "x=53,25,64;e=114",
    192: "x=187,11,96;e=90",
    256: "x=199,221,128;e=220",
    384: "x=1,343,192;e=232",
    512: "x=273,235,256;e=260",
}


def ladder_signature(order):
    return f"(0;+;[{order},{order},2];{{()}})"


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


def census_row_record(epi):
    """The whole JSON record of one census row, a valid map, as a dict: the
    reference each line of the JSONL writer must read as when encoded by
    to_json."""
    report = full_report(epi)
    return {
        "signature": format_signature(epi.sig),
        "images": format_map_text(epi),
        "canonical": is_canonical(epi),
        "shadow_key": shadow_key(epi),
        "kernel_genus": report.kernel_genus,
        "modulus": epi.modulus,
        "report": report,
        "scherrer_equality": report.involution is not None and report.involution.scherrer_equality,
    }
