"""Cyclic-group images of NEC generators and the smooth-epimorphism checks.

An assignment theta is stored as exponent images in Z_M of the canonical
generators: theta(x_i) = t^{u_i}, theta(e_j) = t^{v_j}, theta(c_j) and the
images of the genus generators (a_i, b_i for sign '+', glides d_l for
sign '-').  `validate` decides whether the assignment is a smooth
epimorphism onto C_M whose kernel is a non-orientable surface group of
genus at least 3, recording every individual check so that a failing
assignment can say why it fails.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

from .signature import MAX_DIGITS, NecSignature, Sign, kernel_genus


@dataclass(frozen=True)
class CyclicEpimorphism:
    """Exponent images of the canonical generators in Z_modulus.

    `orient_images` holds the a/b images interleaved (a1, b1, a2, b2, ...)
    for sign '+' and the glide images for sign '-'.  All exponents are
    stored as tuples reduced into [0, modulus); a field that already is one
    is kept as given, so a census builds each of its maps once.
    """

    sig: NecSignature
    modulus: int
    x_images: tuple[int, ...] = ()
    e_images: tuple[int, ...] = ()
    c_images: tuple[int, ...] = ()
    orient_images: tuple[int, ...] = ()
    # The report of the map's first validate: unannotated, so not a field.
    _validation = None

    def __post_init__(self):
        modulus = self.modulus
        if modulus < 1:
            raise ValueError(f"modulus must be positive, got {modulus}")
        sig = self.sig
        plus = sig.sign is Sign.PLUS
        for field, count, label in (
            ("x_images", len(sig.periods), "x"),
            ("e_images", sig.empty_cycles, "e"),
            ("c_images", sig.empty_cycles, "c"),
            ("orient_images", sig.sign.alpha * sig.genus, "a/b" if plus else "glide"),
        ):
            images = getattr(self, field)
            if type(images) is not tuple or images and not (
                    0 <= min(images) <= max(images) < modulus):
                images = tuple(v % modulus for v in images)
                object.__setattr__(self, field, images)
            if len(images) != count:
                raise ValueError(f"expected {count} {label} images, got {len(images)}")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    checks: tuple[CheckResult, ...]
    kernel_genus: int | None = None

    def failed(self):
        return [c.name for c in self.checks if not c.passed]

    def require(self):
        """Raise ValueError naming the failed checks unless the map is valid."""
        if not self.valid:
            raise ValueError(f"invalid epimorphism (failed checks: {', '.join(self.failed())})")


def image_order(modulus, *exponents):
    """Order of the subgroup of Z_modulus generated by the exponents (of t^u for one u)."""
    return modulus // math.gcd(modulus, *exponents)


def subgroup_generated(modulus, gens):
    """The subgroup of Z_modulus generated by gens, as an int whose bit h is
    set exactly when h is in the subgroup.

    Grown by doubling from S = {0}, deliberately without gcd.  For each
    generator g, with S0 the set so far and step = g mod modulus, S becomes
    S | rot(S, step) and step doubles mod modulus, until rot(S, step) lies
    in S; rot is the modulus-bit rotation, which adds step to each element.
    This is correct because after j steps S = S0 + {0, g, ..., (2^j - 1)g},
    so S + 2^j g = S gives S + g = S.  Once 2^j > modulus, S holds all the
    multiples 0, g, ..., (modulus - 1)g, so a generator takes at most
    modulus.bit_length() steps: O(log modulus) shifts of a modulus-bit
    integer.
    This routine is the trusted base that the brute-force oracle uses to
    cross-check the gcd formulas, so it must not share reasoning with them.
    Only the oracle calls it.  It could live in `oracle` without an import
    cycle; it stays here because `perfbench/tracing.py` binds
    `epimorphism.subgroup_generated`.
    """
    full = (1 << modulus) - 1
    members = 1
    for g in gens:
        step = g % modulus
        for _ in range(modulus.bit_length()):
            shifted = (members << step | members >> (modulus - step)) & full
            if shifted | members == members:
                break
            members |= shifted
            step = 2 * step % modulus
    return members


def validate(epi):
    """Run all smooth-epimorphism checks; failures are data, not errors.

    The checks, each recorded independently:
      REFLECTIONS            reflections exist only with even modulus and all
                             map to the involution; link periods are rejected
                             because distinct reflections with a finite-order
                             product cannot share the unique involution image.
      SMOOTH-ELLIPTIC        theta(x_i) has order exactly m_i.
      LONG-RELATION          the product of the defining generators maps to 0;
                             commutators vanish in the abelian target, squares
                             of glides contribute twice their image.
      SURJECTIVE             the images generate all of Z_M.
      KERNEL-NON-ORIENTABLE  the orientation-preserving subgroup still maps
                             onto Z_M, so the kernel is not contained in it;
                             its image is generated by the preserving images
                             and r0 + r for each reversing image r.
      GENUS                  the kernel genus is an integer at least 3.

    A map keeps the report of its first validate, in an attribute that is
    not a dataclass field (equality, hash, repr, fields() and JSON ignore
    it, dataclasses.replace starts without it, pickle carries it), so
    every later call on the same map object, as full_report, cross_check
    and analyze make on maps already validated, returns that report
    without redoing the checks.
    """
    report = epi._validation
    if report is None:
        report = _checks(epi)
        object.__setattr__(epi, "_validation", report)
    return report


def _checks(epi):
    """The report of validate, from the checks run on the map.  Only the
    values the checks read are computed here; `_verdict` turns them into
    the report, so maps with equal values share one."""
    sig = epi.sig
    order = epi.modulus
    xs, es, cs = epi.x_images, epi.e_images, epi.c_images
    orders = tuple([order // math.gcd(order, u) for u in xs])
    bad = () if orders == sig.periods else tuple(
        (u, n, m) for u, n, m in zip(xs, orders, sig.periods) if n != m
    )
    # The one orientation split: glides reverse orientation, a/b preserve it.
    if sig.sign is Sign.MINUS:
        glides, handles = epi.orient_images, ()
    else:
        glides, handles = (), epi.orient_images
    total = (sum(xs) + sum(es) + 2 * sum(glides)) % order
    size = order // math.gcd(order, *xs, *es, *cs, *epi.orient_images)
    reversing = (*cs, *glides)
    plus_size = None
    if reversing:
        # The orientation-preserving subgroup is generated by the preserving
        # generators and the products of two reversing ones.  The sums
        # r0 + r over the reversing images r generate every such product,
        # since ri + rj = (r0 + ri) + (r0 + rj) - 2 r0 and 2 r0 = r0 + r0 is
        # one of them: linearly many generators instead of all pairs.
        r0 = reversing[0]
        plus_size = order // math.gcd(order, *xs, *es, *handles,
                                      *[r0 + r for r in reversing])
    return _verdict(sig, order, cs, bad, total, size, plus_size)


@functools.lru_cache(maxsize=256)
def _verdict(sig, order, c_images, bad, total, size, plus_size):
    """The report of every map whose checks come out with these values.

    `bad` lists (image, its order, period) for each x image of the wrong
    order, `total` is the long-relation sum, `size` the order of the image,
    and `plus_size` that of the preserving part (None when no generator
    reverses orientation).  Maps of one signature and order that agree on
    them share one frozen report; at most 256 are kept.
    """
    half = order // 2
    if sig.nonempty_cycles:
        reflections = False, (
            "link periods present: the product of two distinct reflections would "
            "have finite order, impossible when both map to the unique involution"
        )
    elif not sig.empty_cycles:
        reflections = True, "no reflections"
    elif order % 2:
        reflections = False, f"reflections need an order-2 image but {order} is odd"
    elif all(c == half for c in c_images):
        reflections = True, f"all reflection images equal {half}"
    else:
        reflections = False, f"reflection images {list(c_images)} must all equal {half}"

    if plus_size is None:
        non_orientable = False, (
            "every generator preserves orientation, so the kernel is an "
            "orientable surface group"
        )
    else:
        non_orientable = plus_size == order, (
            f"orientation-preserving part maps onto a subgroup of size {plus_size} of {order}"
            + ("" if plus_size == order else "; kernel would be orientable")
        )

    try:
        genus = kernel_genus(sig, order)
    except ValueError as exc:
        genus, genus_check = None, (False, str(exc))
    else:
        genus_check = genus >= 3, (
            f"kernel surface has genus {genus}" + ("" if genus >= 3 else ", below the required 3")
        )

    checks = (
        CheckResult("REFLECTIONS", *reflections),
        CheckResult(
            "SMOOTH-ELLIPTIC",
            not bad,
            "; ".join(f"image {u} has order {n}, period is {m}" for u, n, m in bad)
            or "every elliptic image has the full period order",
        ),
        CheckResult(
            "LONG-RELATION", total == 0, f"defining product maps to {total} (mod {order})"
        ),
        CheckResult(
            "SURJECTIVE", size == order, f"images generate a subgroup of size {size} of {order}"
        ),
        CheckResult("KERNEL-NON-ORIENTABLE", *non_orientable),
        CheckResult("GENUS", *genus_check),
    )
    valid = all(c.passed for c in checks)
    return ValidationReport(valid, checks, genus if valid else None)


_MAP_KEYS = ("x", "e", "c", "a", "b", "d")


def parse_map_text(sig, order, text):
    """Parse "x=7,2;e=5;c=7" into a CyclicEpimorphism on sig.

    Sections may appear in any order and may be empty ("d=").  A missing
    'c' section defaults every reflection image to order/2 (the only value
    a valid assignment can use).  Sign '+' takes 'a' and 'b' lists of equal
    length, sign '-' takes 'd'.
    """
    sections = {}
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        key, eq, rest = chunk.partition("=")
        key = key.strip()
        if not eq:
            raise ValueError(f"map section {chunk!r} is not of the form key=values")
        if key not in _MAP_KEYS:
            raise ValueError(f"unknown map section {key!r}; expected one of {', '.join(_MAP_KEYS)}")
        if key in sections:
            raise ValueError(f"duplicate map section {key!r}")
        values = []
        for item in rest.split(","):
            item = item.strip()
            if not item:
                continue
            if len(item) > MAX_DIGITS and sum(map(str.isdecimal, item)) > MAX_DIGITS:
                raise ValueError(f"map section {key!r} has an entry of over {MAX_DIGITS} digits")
            try:
                values.append(int(item))
            except ValueError:
                raise ValueError(f"map section {key!r} has a non-integer entry {item!r}") from None
        sections[key] = values

    c_images = sections.get("c")
    if c_images is None:
        default = order // 2 if order % 2 == 0 else 0
        c_images = [default] * sig.empty_cycles
    if sig.sign is Sign.PLUS:
        if sections.get("d"):
            raise ValueError("'d' images apply only to sign '-' signatures")
        a = sections.get("a", [])
        b = sections.get("b", [])
        if len(a) != len(b):
            raise ValueError(f"'a' and 'b' sections differ in length ({len(a)} vs {len(b)})")
        orient = [img for pair in zip(a, b) for img in pair]
    else:
        if sections.get("a") or sections.get("b"):
            raise ValueError("'a'/'b' images apply only to sign '+' signatures")
        orient = sections.get("d", [])
    return CyclicEpimorphism(
        sig,
        order,
        tuple(sections.get("x", [])),
        tuple(sections.get("e", [])),
        tuple(c_images),
        tuple(orient),
    )


def format_map_text(epi):
    """Compact text form of the images; inverse of parse_map_text.  It is
    the signature's map_layout filled with the map's images."""
    text, pick = map_layout(epi.sig)
    return text % pick(flat_images(epi))


def flat_images(epi):
    """Every image of the map in one tuple: x, e, c, then the a/b or glide
    images as stored."""
    return (*epi.x_images, *epi.e_images, *epi.c_images, *epi.orient_images)


@functools.lru_cache(maxsize=64)
def map_layout(sig):
    """The map text of every map of sig as one format and the pick of the
    images it writes, so a map's text is one %.  The format has a %d field
    per image, "x=%d,%d;e=%d;c=%d;a=%d;b=%d" or "...;d=%d", with each
    section without images left out; pick takes a map's flat_images to the
    fields' order: tuple, or with two or more a/b pairs an itemgetter that
    puts the a images (even places) before the b images (odd places).  The
    64 most recent signatures are kept."""
    r, k, n = len(sig.periods), sig.empty_cycles, sig.sign.alpha * sig.genus
    start = r + 2 * k
    pick = tuple
    if sig.sign is Sign.PLUS:
        sections = (("x", r), ("e", k), ("c", k), ("a", n // 2), ("b", n // 2))
        if n > 2:
            pick = operator.itemgetter(*range(start), *range(start, start + n, 2),
                                       *range(start + 1, start + n, 2))
    else:
        sections = (("x", r), ("e", k), ("c", k), ("d", n))
    text = ";".join([f"{key}=" + ",".join(["%d"] * count) for key, count in sections if count])
    return text, pick
