"""Brute-force re-derivation of every count, independent of the gcd formulas.

All computation happens in the finite quotient Z_M (M = 2N); the subgroup
Lambda lying over the involution is represented as {0, N}.  Oval classes
are counted two independent ways, neither using gcd:

  * double cosets: the conjugacy classes of a reflection inside Lambda
    biject with the cosets of the subgroup generated by {N, v} in Z_M,
    found by a closure grown by doubling, O(log M) shifts of an M-bit set;
  * exponents: delta = least d with d*v in {0, N} and epsilon = least d
    with d*v = 0, found by walking t = d*v mod M by addition, one step per
    d, so epsilon steps; the class count is N/delta and the oval is twisted
    exactly when epsilon = 2*delta.

Isolated fixed points are recounted from the cosets of the subgroup
generated by each elliptic image: each coset C, walked once from its least
element c, is fixed by exactly the translations x - c for x in C, with no
divisibility shortcut.  So a single map takes about M*(r + 1) steps for r
elliptic images, and a sweep over every v at most the sum of its epsilons,
no more than M^2 additions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .epimorphism import subgroup_generated, validate
from .fixedpoints import cycle_ovals, isolated_fixed_points


@dataclass(frozen=True)
class CycleTranscript:
    v: int
    delta: int
    epsilon: int
    class_count_doublecoset: int
    class_count_exponent: int
    twisted_by_theta_prime: bool


@dataclass(frozen=True)
class PowerCosetCount:
    i: int
    period_index: int
    fixed_cosets: int


@dataclass(frozen=True)
class OracleTranscript:
    modulus: int
    per_cycle: tuple[CycleTranscript, ...]
    per_power_fixed: tuple[PowerCosetCount, ...]
    agreement: bool
    disagreements: tuple[str, ...] = ()


@dataclass(frozen=True)
class SweepEntry:
    v: int
    delta: int
    epsilon: int
    class_count_doublecoset: int
    class_count_exponent: int
    twisted_oracle: bool
    oval_formula: int
    twisted_formula: bool


@dataclass(frozen=True)
class SweepTranscript:
    modulus: int
    entries: tuple[SweepEntry, ...]
    agreement: bool
    disagreements: tuple[str, ...] = ()


def _require_even(order):
    if order % 2:
        raise ValueError(f"order {order} is odd; an involution needs an even order")
    if order < 2:
        raise ValueError(f"order {order} has no involution; it must be even and at least 2")


def oval_classes_doublecoset(order, v):
    """Class count via double cosets: index of <N, v> in Z_M by closure."""
    _require_even(order)
    return order // subgroup_generated(order, [order // 2, v]).bit_count()


def exponents(order, v):
    """(delta, epsilon) for a connecting image t^v, by their definitions.

    delta is the least d >= 1 with d*v in {0, N} (the exponent landing in
    Lambda), epsilon the least d with d*v = 0 (landing in the kernel).  Both
    are found by one walk of t = d*v mod M by addition, d stepping by 1, and
    epsilon's search goes on from delta without assuming it is delta or
    2*delta: that is one of the things the oracle checks.
    """
    _require_even(order)
    half = order // 2
    step = v % order
    d, t = 1, step
    while t != 0 and t != half:
        d += 1
        t = (t + step) % order
    delta = d
    while t != 0:
        d += 1
        t = (t + step) % order
    epsilon = d
    assert half % delta == 0 and order % epsilon == 0
    return delta, epsilon


def _fixed_cosets(order, u):
    """fixed[i]: how many cosets of <u> in Z_M translation by i fixes.  Each
    coset C, enumerated by closure and explicit translation from its least
    element c, is fixed by exactly the i = x - c, x in C (then c + i in C)."""
    closure = subgroup_generated(order, [u])
    subgroup = [h for h in range(order) if closure >> h & 1]
    seen = set()
    fixed = [0] * order
    for c in range(order):
        if c not in seen:
            coset = {(c + h) % order for h in subgroup}
            seen |= coset
            for x in coset:
                fixed[(x - c) % order] += 1
    return fixed


def _compare_cycle(order, v, label, disagreements):
    """Oracle counts for one connecting image t^v, checked against the
    formula; each mismatch is appended to disagreements under label.
    Returns the SweepEntry fields, whose first six are a CycleTranscript's."""
    delta, epsilon = exponents(order, v)
    doublecoset = oval_classes_doublecoset(order, v)
    by_exponent = order // 2 // delta
    twisted = epsilon == 2 * delta
    formula = cycle_ovals(order, v)
    if not (doublecoset == by_exponent == formula.oval_count):
        disagreements.append(
            f"{label}: double-coset {doublecoset}, N/delta {by_exponent}, "
            f"gcd formula {formula.oval_count}"
        )
    if epsilon not in (delta, 2 * delta):
        disagreements.append(f"{label}: epsilon {epsilon} not in {{delta, 2*delta}}")
    if twisted != formula.twisted:
        disagreements.append(
            f"{label}: twist oracle {twisted}, gcd criterion {formula.twisted}"
        )
    return v, delta, epsilon, doublecoset, by_exponent, twisted, formula.oval_count, formula.twisted


def cross_check(epi):
    """Run every oracle path against the closed-form counts for one action."""
    validate(epi).require()
    sig = epi.sig
    order = epi.modulus
    disagreements = []

    per_cycle = tuple(
        CycleTranscript(*_compare_cycle(order, v, f"cycle {j + 1} (v={v})", disagreements)[:6])
        for j, v in enumerate(epi.e_images)
    )

    # The points over the j-th cone point form Z_M/<u_j>, with t acting by
    # translation; a point is fixed by t^i exactly when its coset is.
    fixed = [_fixed_cosets(order, u) for u in epi.x_images]
    per_power = []
    for i in range(1, order):
        counts = [by_power[i] for by_power in fixed]
        per_power.extend(
            PowerCosetCount(i, j, count) for j, count in enumerate(counts)
        )
        total = sum(counts)
        expected = isolated_fixed_points(sig, order, i)
        if total != expected:
            disagreements.append(f"power {i}: coset count {total}, formula {expected}")

    return OracleTranscript(
        order,
        per_cycle,
        tuple(per_power),
        not disagreements,
        tuple(disagreements),
    )


def involution_sweep(order):
    """Exhaustive oracle-vs-formula comparison for every v in [0, order).

    Checks, for each v: the double-coset count, N/delta and gcd(N, v) agree;
    epsilon is delta or 2*delta; the twist oracle matches the gcd criterion
    gcd(2N, v) = gcd(N, v).
    """
    _require_even(order)
    disagreements = []
    entries = tuple(
        SweepEntry(*_compare_cycle(order, v, f"v={v}", disagreements)) for v in range(order)
    )
    return SweepTranscript(order, entries, not disagreements, tuple(disagreements))
