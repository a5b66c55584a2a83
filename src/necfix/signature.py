"""NEC group signatures for cyclic actions on closed non-orientable surfaces.

A signature (g; +/-; [m_1,...,m_n]; {cycles}) records the combinatorial type
of a non-euclidean crystallographic group: the genus g of the quotient
orbifold, its orientability sign, the proper periods m_i (orders of the
distinguished elliptic generators) and the period cycles.  For the actions
studied here every period cycle is empty, so a cycle contributes one
reflection and one connecting generator; cycles with link periods are still
representable so that validation can reject them with a reason instead of
refusing to parse them.

All arithmetic is exact.  Measures are `fractions.Fraction` values and the
kernel genus is an integer or an error, never a rounded float.
"""

from __future__ import annotations

import enum
import functools
import re
from dataclasses import dataclass
from fractions import Fraction


class Sign(enum.Enum):
    PLUS = "+"
    MINUS = "-"


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

    @property
    def total_cycles(self):
        return self.empty_cycles + len(self.nonempty_cycles)


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

    alpha*g + (number of cycles) + sum(1 - 1/m_i) - 2, with alpha = 2 for
    sign '+' and 1 for sign '-'; a link period n contributes (1 - 1/n)/2.
    Positive exactly when the signature belongs to a cocompact hyperbolic
    group.
    """
    alpha = 2 if sig.sign is Sign.PLUS else 1
    total = Fraction(alpha * sig.genus + sig.total_cycles - 2)
    for m in sig.periods:
        total += 1 - Fraction(1, m)
    for cycle in sig.nonempty_cycles:
        for n in cycle:
            total += (1 - Fraction(1, n)) / 2
    return total


@functools.lru_cache(maxsize=4096)
def kernel_genus(sig, order):
    """Cross-cap genus of the surface uniformized by an index-`order` kernel.

    The kernel's measure is `order` times the quotient's, and a closed
    non-orientable surface of genus p has normalized measure p - 2, so
    p = order * measure + 2.  Raises ValueError when the measure is not
    positive or when p fails to be an integer (then no torsion-free kernel
    of that index exists).  Results are cached per (signature, order):
    a census asks once for every candidate assignment.
    """
    measure = orbifold_measure(sig)
    if measure <= 0:
        raise ValueError(f"orbifold measure {measure} is not positive; no surface-kernel quotient")
    p = order * measure + 2
    if p.denominator != 1:
        raise ValueError(f"kernel genus {p} is not an integer; no index-{order} surface kernel")
    return int(p)

