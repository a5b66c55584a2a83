import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from necfix import (
    NecSignature,
    ParseError,
    Sign,
    format_signature,
    kernel_genus,
    orbifold_measure,
    parse_signature,
)
from necfix.signature import sized

from strategies import signatures


def test_parse_basic():
    sig = parse_signature("(0;+;[2,7];{()})")
    assert sig == NecSignature(0, Sign.PLUS, (2, 7), 1)


def test_parse_no_torsion_minus():
    assert parse_signature("(1;-;[];{})") == NecSignature(1, Sign.MINUS, (), 0)


def test_parse_two_cycles():
    sig = parse_signature("(0;+;[2,2,2,4,4];{()()})")
    assert sig.periods == (2, 2, 2, 4, 4)
    assert sig.empty_cycles == 2


def test_parse_caret_shorthand():
    assert parse_signature("(0;+;[4,4];{()^3})") == parse_signature("(0;+;[4,4];{()()()})")


def test_parse_whitespace_insensitive():
    sig = parse_signature(" ( 0 ; + ; [ 2 , 7 ] ; { ( ) } ) ")
    assert sig == NecSignature(0, Sign.PLUS, (2, 7), 1)


def test_parse_link_periods():
    sig = parse_signature("(1;+;[2];{(2,3)()})")
    assert sig.nonempty_cycles == ((2, 3),)
    assert sig.empty_cycles == 1


# (text, 1-based position counting whitespace, message).  The explicit ids
# keep the text-position form that the first ten cases have always had.
PARSE_ERRORS = [
    ("", 1, "expected '('"),
    ("0;+;[];{})", 1, "expected '('"),
    ("(0;*;[];{})", 4, "expected sign '+' or '-'"),
    ("(0;+;[1];{})", 7, "period must be at least 2, got 1"),
    ("(0;-;[];{})", 4, "sign '-' requires genus at least 1"),
    ("(0;+;[2,];{})", 9, "expected period"),
    ("(0;+;[2];{()}", 14, "expected ')'"),
    ("(0;+;[2];{()})x", 15, "unexpected trailing text"),
    ("(0;+;[2];{()^0})", 14, "cycle repeat count must be at least 1, got 0"),
    ("(0;+;[2];{(2)^2})", 14, "repeat count applies only to empty cycles '()'"),
    ("(1 0;+;[];{})", 4, "expected ';'"),
    ("(;+;[];{})", 2, "expected genus"),
    ("(0;+;[01];{})", 7, "period must be at least 2, got 1"),
    ("(0;+;[];{()^})", 13, "expected repeat count"),
    ("(0;+;[];{(1)})", 11, "link period must be at least 2, got 1"),
    ("(0;+;[];{(2,)})", 13, "expected link period"),
    ("(0;\t+;[2];\n{()}x)", 16, "expected ')'"),
    ("(0;+;[2,\n\t1];{})", 11, "period must be at least 2, got 1"),
    ("(0;+;[];{})   x", 15, "unexpected trailing text"),
    ("   ", 4, "expected '('"),
]


@pytest.mark.parametrize(
    "text, position, message",
    [pytest.param(*case, id=f"{case[0]}-{case[1]}") for case in PARSE_ERRORS],
)
def test_parse_errors_carry_positions(text, position, message):
    with pytest.raises(ParseError) as err:
        parse_signature(text)
    assert err.value.position == position
    assert str(err.value) == f"{message} (position {position})"


def test_constructor_rejects_bad_data():
    with pytest.raises(ValueError):
        NecSignature(0, Sign.MINUS)
    with pytest.raises(ValueError):
        NecSignature(0, Sign.PLUS, (1,))
    with pytest.raises(ValueError):
        NecSignature(0, Sign.PLUS, (), 0, ((),))
    with pytest.raises(ValueError, match="genus must be non-negative, got -1"):
        NecSignature(-1, Sign.PLUS)
    with pytest.raises(ValueError, match="empty cycle count must be non-negative, got -1"):
        NecSignature(0, Sign.PLUS, (), -1)
    with pytest.raises(ValueError, match="link period must be at least 2, got 1"):
        NecSignature(0, Sign.PLUS, (), 0, ((2, 1),))


@given(signatures(allow_links=True))
def test_pickled_signature_equals_and_hashes_the_same(sig):
    copy = pickle.loads(pickle.dumps(sig))
    assert copy == sig
    assert hash(copy) == hash(sig)


def test_pickled_signature_hashes_alike_under_another_hash_seed():
    # A spawn-started census worker unpickles signatures under its own
    # string-hash seed; there they must still find the signatures it builds.
    sig = parse_signature("(1;-;[2,3];{()(2,2)})")
    code = (
        "import pickle, sys\n"
        "from necfix import parse_signature\n"
        "sig = pickle.loads(sys.stdin.buffer.read())\n"
        "print({parse_signature('(1;-;[2,3];{()(2,2)})'): 'found'}.get(sig))\n"
    )
    import necfix

    src = os.path.dirname(os.path.dirname(necfix.__file__))
    for seed in ("1", "2"):
        result = subprocess.run(
            [sys.executable, "-c", code],
            input=pickle.dumps(sig),
            capture_output=True,
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
            check=True,
        )
        assert result.stdout == b"found\n"


@pytest.mark.parametrize(
    "sig, text",
    [
        (NecSignature(0, Sign.PLUS, (2, 7), 1), "(0;+;[2,7];{()})"),
        (NecSignature(2, Sign.MINUS, (), 0), "(2;-;[];{})"),
        (NecSignature(0, Sign.PLUS, (2, 2, 4, 4), 1), "(0;+;[2,2,4,4];{()})"),
    ],
)
def test_format(sig, text):
    assert format_signature(sig) == text


@given(signatures(allow_links=True))
def test_round_trip(sig):
    assert parse_signature(format_signature(sig)) == sig


@pytest.mark.parametrize(
    "text, expected",
    [
        ("(0;+;[2,7];{()})", Fraction(5, 14)),
        ("(1;-;[];{})", Fraction(-1)),
        ("(0;+;[2,2,4,4];{()})", Fraction(3, 2)),
        ("(0;+;[];{(2,2)})", Fraction(-1, 2)),
    ],
)
def test_orbifold_measure(text, expected):
    assert orbifold_measure(parse_signature(text)) == expected


@pytest.mark.parametrize(
    "text, order, genus",
    [
        ("(0;+;[2,7];{()})", 14, 7),
        ("(0;+;[2,2,4,4];{()})", 4, 8),
        ("(0;+;[2,10];{()})", 10, 6),
    ],
)
def test_kernel_genus(text, order, genus):
    assert kernel_genus(parse_signature(text), order) == genus


def test_kernel_genus_rejects_nonpositive_measure():
    with pytest.raises(ValueError, match="not positive"):
        kernel_genus(parse_signature("(0;+;[2,3];{})"), 6)


def test_kernel_genus_rejects_nonintegral():
    with pytest.raises(ValueError, match="not an integer"):
        kernel_genus(parse_signature("(0;+;[2,7];{()})"), 13)


def test_refusal_texts_write_huge_parts_by_their_size():
    # str() refuses an integer of over 4300 digits, so a numerator or
    # denominator of 100 digits or more is written as 10^log10 of its size.
    assert sized(Fraction(93, 14)) == "93/14"
    assert sized(Fraction(-1, 3)) == "-1/3"
    assert sized(-2) == "-2"
    assert sized(10**99 - 1) == "9" * 99
    assert sized(Fraction(-(10**5000), 3)) == "-10^5000/3"
    a = 10**60
    with pytest.raises(ValueError) as refusal:
        kernel_genus(NecSignature(0, Sign.PLUS, (a, a + 1)), 6)
    assert str(refusal.value) == (f"orbifold measure -{2 * a + 1}/10^120 is not positive; "
                                  "no surface-kernel quotient")


@given(signatures())
def test_kernel_genus_consistent_with_measure(sig):
    measure = orbifold_measure(sig)
    order = 2 * sig.periods[0] if sig.periods else 6
    if measure > 0 and (order * measure).denominator == 1:
        assert kernel_genus(sig, order) - 2 == order * measure


def _term_by_term_measure(sig):
    # The Riemann-Hurwitz terms one Fraction at a time, independent of the
    # library's integer sum over a common denominator.
    alpha = 2 if sig.sign is Sign.PLUS else 1
    total = Fraction(alpha * sig.genus + sig.empty_cycles + len(sig.nonempty_cycles) - 2)
    for m in sig.periods:
        total += 1 - Fraction(1, m)
    for cycle in sig.nonempty_cycles:
        for n in cycle:
            total += (1 - Fraction(1, n)) / 2
    return total


@given(signatures(allow_links=True), st.integers(min_value=1, max_value=60))
def test_measure_and_genus_match_a_term_by_term_sum(sig, order):
    measure = _term_by_term_measure(sig)
    assert orbifold_measure(sig) == measure
    p = order * measure + 2
    if measure > 0 and p.denominator == 1:
        assert kernel_genus(sig, order) == p
        return
    if measure <= 0:
        text = f"orbifold measure {measure} is not positive; no surface-kernel quotient"
    else:
        text = f"kernel genus {p} is not an integer; no index-{order} surface kernel"
    with pytest.raises(ValueError) as refusal:
        kernel_genus(sig, order)
    assert str(refusal.value) == text


@given(signatures())
def test_measure_strictly_monotone(sig):
    base = orbifold_measure(sig)
    assert orbifold_measure(NecSignature(sig.genus, sig.sign, sig.periods + (2,),
                                         sig.empty_cycles)) > base
    assert orbifold_measure(NecSignature(sig.genus, sig.sign, sig.periods,
                                         sig.empty_cycles + 1)) > base
    assert orbifold_measure(NecSignature(sig.genus + 1, sig.sign, sig.periods,
                                         sig.empty_cycles)) > base


def test_maximal_order_signatures_have_the_right_genus():
    # Odd genus p acted on by order 2p, even genus p by order 2(p-1).
    for p in range(3, 100, 2):
        sig = NecSignature(0, Sign.PLUS, (2, p), 1)
        assert kernel_genus(sig, 2 * p) == p
    for p in range(4, 101, 2):
        sig = NecSignature(0, Sign.PLUS, (2, 2 * (p - 1)), 1)
        assert kernel_genus(sig, 2 * (p - 1)) == p
