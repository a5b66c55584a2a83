"""Brute-force re-derivation of every count, independent of the gcd formulas.

All computation happens in the finite quotient Z_M (M = 2N); the subgroup
Lambda lying over the involution is represented as {0, N}.  Oval classes
are counted two independent ways, neither using gcd:

  * double cosets: the conjugacy classes of a reflection inside Lambda
    biject with the cosets of the subgroup generated by {N, v} in Z_M,
    found by a closure grown by doubling, O(log M) shifts of an M-bit set;
  * exponents: delta = least d with d*v in {0, N} and epsilon = least d
    with d*v = 0, found for every v at once by walking t = d*v mod M by
    addition in lanes of one int, one step per d, so at most M steps; the
    class count is N/delta and the oval is twisted exactly when
    epsilon = 2*delta.

Isolated fixed points are recounted from the cosets of the subgroup
generated by each elliptic image: each coset C, walked once from its least
element c, is fixed by exactly the translations x - c for x in C, with no
divisibility shortcut.  Their sum over the powers of t, with the Euler
characteristic 2 - p of the surface, must be M times that of the quotient
(ovals have Euler characteristic 0).  So a single map takes about
M*(r + 1) steps for r elliptic images, and a sweep over every v at most M
steps, each a few additions on an int of M*(b + 1) bits, b the bit length
of M.
"""

from __future__ import annotations

from dataclasses import dataclass

from .epimorphism import subgroup_generated, validate
from .fixedpoints import cycle_ovals, full_report
from .signature import Sign


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


def exponents(order, vs):
    """[(delta, epsilon)] for the connecting images t^v, v in vs, by their
    definitions.

    delta is the least d >= 1 with d*v in {0, N} (the exponent landing in
    Lambda), epsilon the least d with d*v = 0 (landing in the kernel).  All
    are found by one walk, d stepping by 1, in which each v is a lane of
    w = b + 1 bits of one int t, b = M.bit_length().  After d steps lane k
    holds d*v_k mod M: a step adds the packed v's, which leaves each lane
    below 2M - 1 < 2^(b+1), so no carry crosses a lane; adding 2^b - M sets
    bit b exactly where a lane is >= M, and those lanes subtract M.  Adding
    2^b - 1 sets bit b exactly where a lane is >= 1, so the lanes where it
    stays clear are 0, and the same test on t XOR (N in every lane) finds
    the lanes at N.  Each lane takes its delta at the first d it is in
    {0, N} and its epsilon at the first d it is 0, without assuming that is
    delta or 2*delta: that is one of the things the oracle checks.  The walk
    ends once every lane has been 0, within M steps.
    """
    _require_even(order)
    half = order // 2
    b = order.bit_length()
    w = b + 1
    ones = sum(1 << (k * w) for k in range(len(vs)))
    top = ones << b
    below = ones * ((1 << b) - 1)
    wrap = ones * ((1 << b) - order)
    halves = ones * half
    step = sum((v % order) << (k * w) for k, v in enumerate(vs))
    delta, epsilon = [0] * len(vs), [0] * len(vs)
    no_delta = no_epsilon = top
    d, t = 1, step
    while no_epsilon:
        zero = top ^ ((t + below) & top)
        if no_delta:
            at_half = top ^ (((t ^ halves) + below) & top)
            landed = (zero | at_half) & no_delta
            if landed:
                no_delta ^= landed
                for k in _lanes(landed, w):
                    delta[k] = d
        kernel = zero & no_epsilon
        if kernel:
            no_epsilon ^= kernel
            for k in _lanes(kernel, w):
                epsilon[k] = d
        d += 1
        t += step
        t -= (((t + wrap) & top) >> b) * order
    pairs = list(zip(delta, epsilon))
    for lane_delta, lane_epsilon in pairs:
        assert half % lane_delta == 0 and order % lane_epsilon == 0
    return pairs


def _lanes(mask, width):
    """The k whose bit k*width + width - 1, the top bit of lane k, is set."""
    bits = bin(mask)[:1:-1]
    k = bits.find("1")
    while k >= 0:
        yield k // width
        k = bits.find("1", k + 1)


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


def _compare_cycle(order, v, delta, epsilon, formula, label, disagreements):
    """Oracle counts for one connecting image t^v, whose exponents are delta
    and epsilon, checked against formula, the CycleOvals that a report prints
    or cycle_ovals gives for it; each mismatch is appended to disagreements
    under label.  Returns the SweepEntry fields, whose first six are a
    CycleTranscript's."""
    doublecoset = oval_classes_doublecoset(order, v)
    by_exponent = order // 2 // delta
    twisted = epsilon == 2 * delta
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
    """Check full_report's counts for one action against every oracle path: a
    missing or misnumbered power row or cycle record is a disagreement too."""
    validation = validate(epi)
    validation.require()
    sig = epi.sig
    order = epi.modulus
    published = full_report(epi)
    involution, rows = published.involution, published.per_power
    disagreements = []

    # An odd order has no e images, and no involution for the walk to take.
    walks = exponents(order, epi.e_images) if epi.e_images else []
    records = involution.per_cycle if involution else ()
    record_vs = tuple(c.v for c in records)
    if record_vs != epi.e_images:
        disagreements.append(f"report: cycle records for v = {record_vs}, e images {epi.e_images}")
    per_cycle = tuple(
        CycleTranscript(*_compare_cycle(
            order, v, delta, epsilon, record, f"cycle {j + 1} (v={v})", disagreements)[:6])
        for j, (v, (delta, epsilon), record) in enumerate(zip(epi.e_images, walks, records))
    )

    # The points over the j-th cone point form Z_M/<u_j>, with t acting by
    # translation; a point is fixed by t^i exactly when its coset is.
    fixed = [_fixed_cosets(order, u) for u in epi.x_images]
    numbered = [row.i for row in rows] == list(range(1, order))
    if not numbered:
        disagreements.append(f"report: power rows are not t^1 .. t^{order - 1} in order")
    per_power = []
    fixed_points = 0
    for i in range(1, order):
        counts = [by_power[i] for by_power in fixed]
        per_power.extend(PowerCosetCount(i, j, count) for j, count in enumerate(counts))
        total = sum(counts)
        fixed_points += total
        if numbered and total != rows[i - 1].isolated_count:
            disagreements.append(
                f"power {i}: coset count {total}, formula {rows[i - 1].isolated_count}")

    # Euler: summed over the powers of t, the fixed sets' characteristics
    # are M times the quotient's; ovals add 0, the identity 2 - p.
    alpha = 2 if sig.sign is Sign.PLUS else 1
    euler = 2 - validation.kernel_genus + fixed_points
    quotient = order * (2 - alpha * sig.genus - sig.empty_cycles)
    if euler != quotient:
        disagreements.append(
            f"Euler: 2 - p + fixed points = {euler}, M(2 - alpha*g - k) = {quotient}"
        )

    # The involution's totals: F, V, F + 2V and p + 2 against the cosets
    # fixed by t^N and the summed double-coset counts.
    if order % 2 == 0:
        fixed_by_half = sum(by_power[order // 2] for by_power in fixed)
        ovals = sum(c.class_count_doublecoset for c in per_cycle)
        totals = involution and (involution.isolated_total, involution.oval_total,
                                 involution.scherrer_lhs, involution.scherrer_rhs)
        derived = (fixed_by_half, ovals, fixed_by_half + 2 * ovals, validation.kernel_genus + 2)
        if totals != derived:
            disagreements.append(f"report: F, V, F + 2V, p + 2 {totals}, oracle {derived}")

    return OracleTranscript(order, per_cycle, tuple(per_power), not disagreements,
                            tuple(disagreements))


def involution_sweep(order):
    """Exhaustive oracle-vs-formula comparison for every v in [0, order).

    Checks, for each v: the double-coset count, N/delta and gcd(N, v) agree;
    epsilon is delta or 2*delta; the twist oracle matches the gcd criterion
    gcd(2N, v) = gcd(N, v).
    """
    _require_even(order)
    disagreements = []
    entries = tuple(
        SweepEntry(*_compare_cycle(
            order, v, delta, epsilon, cycle_ovals(order, v), f"v={v}", disagreements))
        for v, (delta, epsilon) in enumerate(exponents(order, range(order)))
    )
    return SweepTranscript(order, entries, not disagreements, tuple(disagreements))
