"""NEC group signatures for cyclic actions on closed non-orientable surfaces.

A signature (g; +/-; [m_1,...,m_n]; {cycles}) records the combinatorial type
of a non-euclidean crystallographic group: the genus g of the quotient
orbifold, its orientability sign, the proper periods m_i (orders of the
distinguished elliptic generators) and the period cycles.  For the actions
studied here every period cycle is empty, so a cycle contributes one
reflection and one connecting generator; cycles with link periods are still
representable so that validation can reject them with a reason instead of
refusing to parse them.

All arithmetic is exact.  A measure is one `Fraction` summed in integers, and
the kernel genus is an integer or an error, never a rounded float.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass
from fractions import Fraction


class Sign(enum.Enum):
    PLUS = "+"
    MINUS = "-"

    # Generators per unit of genus: 2 (a and b) for '+', 1 (a glide) for '-'.
    alpha = property(lambda self: 2 if self is Sign.PLUS else 1)


class ParseError(ValueError):
    """Malformed signature text; `position` is the 1-based character index."""

    def __init__(self, message, position):
        super().__init__(f"{message} (position {position})")
        self.position = position


@dataclass(frozen=True)
class NecSignature:
    """Combinatorial type (genus; sign; [periods]; {cycles}).

    `empty_cycles` counts period cycles without link periods; cycles that do
    carry link periods are kept verbatim in `nonempty_cycles`.
    """

    genus: int
    sign: Sign
    periods: tuple[int, ...] = ()
    empty_cycles: int = 0
    nonempty_cycles: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "periods", tuple(self.periods))
        object.__setattr__(
            self, "nonempty_cycles", tuple(tuple(c) for c in self.nonempty_cycles)
        )
        if self.genus < 0:
            raise ValueError(f"genus must be non-negative, got {self.genus}")
        if self.empty_cycles < 0:
            raise ValueError(f"empty cycle count must be non-negative, got {self.empty_cycles}")
        for m in self.periods:
            if m < 2:
                raise ValueError(f"proper period must be at least 2, got {m}")
        for cycle in self.nonempty_cycles:
            if not cycle:
                raise ValueError("link-period list may not be empty; count it in empty_cycles")
            for n in cycle:
                if n < 2:
                    raise ValueError(f"link period must be at least 2, got {n}")
        if self.sign is Sign.MINUS and self.genus == 0:
            # A non-orientable quotient needs at least one cross-cap.
            raise ValueError("sign '-' requires genus at least 1")
        # Hashed once, from ints only: str (and Enum) hashes are salted per
        # process, and a pickled signature carries this value to workers.
        parts = (self.genus, self.sign is Sign.PLUS, self.periods, self.empty_cycles)
        object.__setattr__(self, "_hash", hash((*parts, self.nonempty_cycles)))

    def __hash__(self):
        return self._hash


_TOKEN = re.compile(r"\d+|\S")


def parse_signature(text):
    """Parse "(g;+;[m1,m2];{()()})" into a NecSignature.

    The grammar is whitespace-insensitive and its integers are runs of
    decimal digits.  "()^k" expands to k empty cycles.  Raises ParseError,
    carrying the 1-based character position, on both syntax errors and
    semantic ones (period below 2, sign '-' with genus 0).
    """
    # Tokens in reverse, so tokens[-1] is the next one; the end of the text
    # is the token "" at len(text) + 1, which no reader consumes.
    tokens = [(m[0], m.start() + 1) for m in _TOKEN.finditer(text)]
    tokens.append(("", len(text) + 1))
    tokens.reverse()

    def take(expected):
        token, pos = tokens[-1]
        if token != expected:
            raise ParseError(f"expected '{expected}'", pos)
        tokens.pop()

    def integer(what, least=0, name=None):
        token, pos = tokens[-1]
        if not token.isdecimal():
            raise ParseError(f"expected {what}", pos)
        tokens.pop()
        value = int(token)
        if value < least:
            raise ParseError(f"{name or what} must be at least {least}, got {value}", pos)
        return value

    def period_list(opening, closing, what):
        take(opening)
        values = []
        if tokens[-1][0] != closing:
            values.append(integer(what, 2))
            while tokens[-1][0] == ",":
                tokens.pop()
                values.append(integer(what, 2))
        take(closing)
        return tuple(values)

    take("(")
    genus = integer("genus")
    take(";")
    sign, sign_pos = tokens[-1]
    if sign not in ("+", "-"):
        raise ParseError("expected sign '+' or '-'", sign_pos)
    tokens.pop()
    take(";")
    periods = period_list("[", "]", "period")
    take(";")
    take("{")
    empty = 0
    nonempty = []
    while tokens[-1][0] == "(":
        links = period_list("(", ")", "link period")
        if tokens[-1][0] == "^":
            caret_pos = tokens.pop()[1]
            if links:
                raise ParseError("repeat count applies only to empty cycles '()'", caret_pos)
            empty += integer("repeat count", 1, "cycle repeat count")
        elif links:
            nonempty.append(links)
        else:
            empty += 1
    take("}")
    take(")")
    trailing, pos = tokens[-1]
    if trailing:
        raise ParseError("unexpected trailing text", pos)
    if sign == "-" and genus == 0:
        raise ParseError("sign '-' requires genus at least 1", sign_pos)
    return NecSignature(genus, Sign(sign), periods, empty, tuple(nonempty))


def format_signature(sig):
    """Canonical text form; parse_signature(format_signature(s)) == s."""
    cycles = "".join("(" + ",".join(str(n) for n in c) + ")" for c in sig.nonempty_cycles)
    cycles += "()" * sig.empty_cycles
    periods = ",".join(str(m) for m in sig.periods)
    return f"({sig.genus};{sig.sign.value};[{periods}];" + "{" + cycles + "})"


def orbifold_measure(sig):
    """Normalized hyperbolic measure mu/(2*pi) of the quotient orbifold.

    alpha*g + (number of cycles) + sum(1 - 1/m_i) - 2 with alpha = sign.alpha;
    a link period n contributes (1 - 1/n)/2.  Summed in integers over the lcm
    of the periods and of twice each link period.  Positive exactly when the
    signature belongs to a cocompact hyperbolic group.
    """
    links = [n for cycle in sig.nonempty_cycles for n in cycle]
    den = math.lcm(*sig.periods, *[2 * n for n in links])
    total = den * (sig.sign.alpha * sig.genus + sig.empty_cycles + len(sig.nonempty_cycles) - 2)
    total += sum([den - den // m for m in sig.periods])
    return Fraction(total + sum([den // 2 - den // (2 * n) for n in links]), den)


def ten_to(exponent):
    """10^exponent as text, the exponent to 6 significant digits or to all
    digits of its integer part, so never in exponent notation."""
    return f"10^{exponent:.{max(6, len(str(round(exponent))))}g}"


def sized(value):
    """An integer or fraction as str() writes it, but with each integer of 100
    digits or more (str() refuses over 4300) written by its size, 10^log10."""
    if isinstance(value, Fraction):
        den = value.denominator
        return sized(value.numerator) + (f"/{sized(den)}" if den > 1 else "")
    if abs(value) < 10**99:
        return str(value)
    return "-" * (value < 0) + ten_to(math.log10(abs(value)))


def kernel_genus(sig, order):
    """Cross-cap genus of the surface uniformized by an index-`order` kernel.

    The kernel's measure is `order` times the quotient's, and a closed
    non-orientable surface of genus p has normalized measure p - 2, so
    p = order * measure + 2, an exact division of integers.  Raises
    ValueError when the measure is not positive or when p fails to be an
    integer (then no torsion-free kernel of that index exists).
    """
    measure = orbifold_measure(sig)
    if measure <= 0:
        raise ValueError(f"orbifold measure {sized(measure)} is not positive; "
                         "no surface-kernel quotient")
    p, rest = divmod(order * measure.numerator + 2 * measure.denominator, measure.denominator)
    if rest:
        raise ValueError(f"kernel genus {sized(order * measure + 2)} is not an integer; "
                         f"no index-{order} surface kernel")
    return p
