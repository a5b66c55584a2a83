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


class _Cursor:
    """Character cursor over signature text, skipping whitespace."""

    __slots__ = ("text", "pos")

    def __init__(self, text):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def here(self):
        """1-based position of the next non-space character."""
        self._skip_ws()
        return self.pos + 1

    def take(self, expected):
        self._skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != expected:
            raise ParseError(f"expected '{expected}'", self.pos + 1)
        self.pos += 1

    def integer(self, what):
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError(f"expected {what}", start + 1)
        return int(self.text[start : self.pos]), start + 1

    def period(self, what="period"):
        value, pos = self.integer(what)
        if value < 2:
            raise ParseError(f"{what} must be at least 2, got {value}", pos)
        return value


def parse_signature(text):
    """Parse "(g;+;[m1,m2];{()()})" into a NecSignature.

    The grammar is whitespace-insensitive.  "()^k" expands to k empty
    cycles.  Raises ParseError, carrying the 1-based character position,
    on both syntax errors and semantic ones (period below 2, sign '-'
    with genus 0).
    """
    cur = _Cursor(text)
    cur.take("(")
    genus, _ = cur.integer("genus")
    cur.take(";")
    sign_pos = cur.here()
    ch = cur.peek()
    if ch == "+":
        sign = Sign.PLUS
    elif ch == "-":
        sign = Sign.MINUS
    else:
        raise ParseError("expected sign '+' or '-'", sign_pos)
    cur.take(ch)
    cur.take(";")
    cur.take("[")
    periods = []
    if cur.peek() != "]":
        periods.append(cur.period())
        while cur.peek() == ",":
            cur.take(",")
            periods.append(cur.period())
    cur.take("]")
    cur.take(";")
    cur.take("{")
    empty = 0
    nonempty = []
    while cur.peek() == "(":
        cur.take("(")
        links = []
        if cur.peek() != ")":
            links.append(cur.period("link period"))
            while cur.peek() == ",":
                cur.take(",")
                links.append(cur.period("link period"))
        cur.take(")")
        repeat = 1
        if cur.peek() == "^":
            caret_pos = cur.here()
            cur.take("^")
            if links:
                raise ParseError("repeat count applies only to empty cycles '()'", caret_pos)
            repeat, rpos = cur.integer("repeat count")
            if repeat < 1:
                raise ParseError(f"cycle repeat count must be at least 1, got {repeat}", rpos)
        if links:
            nonempty.append(tuple(links))
        else:
            empty += repeat
    cur.take("}")
    cur.take(")")
    cur._skip_ws()
    if cur.pos != len(text):
        raise ParseError("unexpected trailing text", cur.pos + 1)
    if sign is Sign.MINUS and genus == 0:
        raise ParseError("sign '-' requires genus at least 1", sign_pos)
    return NecSignature(genus, sign, tuple(periods), empty, tuple(nonempty))


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

