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

import math
from dataclasses import dataclass

from .signature import NecSignature, Sign, kernel_genus


@dataclass(frozen=True)
class CyclicEpimorphism:
    """Exponent images of the canonical generators in Z_modulus.

    `orient_images` holds the a/b images interleaved (a1, b1, a2, b2, ...)
    for sign '+' and the glide images for sign '-'.  All exponents are
    reduced into [0, modulus).
    """

    sig: NecSignature
    modulus: int
    x_images: tuple[int, ...] = ()
    e_images: tuple[int, ...] = ()
    c_images: tuple[int, ...] = ()
    orient_images: tuple[int, ...] = ()

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError(f"modulus must be positive, got {self.modulus}")
        sig = self.sig
        plus = sig.sign is Sign.PLUS
        for field, count, label in (
            ("x_images", len(sig.periods), "x"),
            ("e_images", sig.empty_cycles, "e"),
            ("c_images", sig.empty_cycles, "c"),
            ("orient_images", 2 * sig.genus if plus else sig.genus, "a/b" if plus else "glide"),
        ):
            reduced = tuple(v % self.modulus for v in getattr(self, field))
            if len(reduced) != count:
                raise ValueError(f"expected {count} {label} images, got {len(reduced)}")
            object.__setattr__(self, field, reduced)


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


def image_order(modulus, *exponents):
    """Order of the subgroup of Z_modulus generated by the exponents (of t^u for one u)."""
    return modulus // math.gcd(modulus, *exponents)


def subgroup_generated(modulus, gens):
    """Sorted element list of the subgroup of Z_modulus generated by gens.

    Computed by closure iteration, deliberately without gcd: this routine
    is the trusted base that the brute-force oracle uses to cross-check
    the gcd formulas, so it must not share reasoning with them.  Only the
    oracle calls it.  It could live in `oracle` without an import cycle; it
    stays here because `perfbench/tracing.py` binds
    `epimorphism.subgroup_generated`.
    """
    gens = [g % modulus for g in gens]
    elements = {0}
    frontier = [0]
    while frontier:
        fresh = []
        for a in frontier:
            for g in gens:
                b = (a + g) % modulus
                if b not in elements:
                    elements.add(b)
                    fresh.append(b)
        frontier = fresh
    return sorted(elements)


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
    """
    sig = epi.sig
    order = epi.modulus
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
    elif all(c == half for c in epi.c_images):
        reflections = True, f"all reflection images equal {half}"
    else:
        reflections = False, f"reflection images {list(epi.c_images)} must all equal {half}"

    bad = [
        f"image {u} has order {n}, period is {m}"
        for m, u in zip(sig.periods, epi.x_images)
        if (n := image_order(order, u)) != m
    ]

    # The one orientation split: glides reverse orientation, a/b preserve it.
    if sig.sign is Sign.MINUS:
        glides, handles = epi.orient_images, ()
    else:
        glides, handles = (), epi.orient_images
    total = (sum(epi.x_images) + sum(epi.e_images) + 2 * sum(glides)) % order

    size = image_order(order, *epi.x_images, *epi.e_images, *epi.c_images, *epi.orient_images)

    reversing = (*epi.c_images, *glides)
    if not reversing:
        non_orientable = False, (
            "every generator preserves orientation, so the kernel is an "
            "orientable surface group"
        )
    else:
        # The orientation-preserving subgroup is generated by the preserving
        # generators and the products of two reversing ones.  The sums
        # r0 + r over the reversing images r generate every such product,
        # since ri + rj = (r0 + ri) + (r0 + rj) - 2 r0 and 2 r0 = r0 + r0 is
        # one of them: linearly many generators instead of all pairs.
        r0 = reversing[0]
        plus_size = image_order(
            order, *epi.x_images, *epi.e_images, *handles, *(r0 + r for r in reversing)
        )
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
            "; ".join(bad) or "every elliptic image has the full period order",
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
    """Compact text form of the images; inverse of parse_map_text."""
    parts = []
    if epi.x_images:
        parts.append("x=" + ",".join(map(str, epi.x_images)))
    if epi.e_images:
        parts.append("e=" + ",".join(map(str, epi.e_images)))
    if epi.c_images:
        parts.append("c=" + ",".join(map(str, epi.c_images)))
    if epi.orient_images:
        if epi.sig.sign is Sign.PLUS:
            parts.append("a=" + ",".join(map(str, epi.orient_images[0::2])))
            parts.append("b=" + ",".join(map(str, epi.orient_images[1::2])))
        else:
            parts.append("d=" + ",".join(map(str, epi.orient_images)))
    return ";".join(parts)
