"""Fixed points, ovals and twist types of a validated cyclic action.

For a cyclic action of order M = 2N on a closed non-orientable surface,
every non-involution power t^i has a finite set of isolated fixed points
whose size depends only on the signature.  The involution t^N additionally
fixes disjoint simple closed curves (ovals), each lying on a Moebius band
(twisted) or an annulus (untwisted) neighbourhood; their number and types
depend on the connecting-generator images.  Everything here is closed form;
the `oracle` module recomputes the same numbers by brute force.

A report therefore depends on a valid map only through its signature, its
order M and its connecting images e: Macbeath's formula gives the isolated
fixed points of every power from the periods and M alone, and the paper's
count gives the ovals and their twist types from each e_j and M.  Maps
that agree on (signature, M, e) share one frozen report.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .epimorphism import image_order, validate


@dataclass(frozen=True)
class PowerFixedPoints:
    """Isolated fixed-point count of t^i, where t^i has the given order."""

    i: int
    order: int
    isolated_count: int


@dataclass(frozen=True)
class CycleOvals:
    """Ovals contributed by one period cycle with connecting image t^v."""

    v: int
    oval_count: int
    twisted: bool


@dataclass(frozen=True)
class InvolutionReport:
    oval_total: int
    isolated_total: int
    per_cycle: tuple[CycleOvals, ...]
    scherrer_lhs: int
    scherrer_rhs: int
    scherrer_equality: bool


@dataclass(frozen=True)
class FixedPointReport:
    modulus: int
    kernel_genus: int
    per_power: tuple[PowerFixedPoints, ...]
    involution: InvolutionReport | None


def isolated_fixed_points(sig, order, i):
    """Number of isolated fixed points of t^i, for t of the given order.

    If t^i has order d, the count is order * sum(1/m_j) over the proper
    periods m_j divisible by d; each qualifying period contributes the
    integer order/m_j.  The count never depends on the generator images.
    Undefined for t^i the identity (i divisible by the order).
    """
    d = image_order(order, i)
    if d == 1:
        raise ValueError("t^i is the identity; its fixed-point set is the whole surface")
    return sum(order // m for m in sig.periods if m % d == 0)


def cycle_ovals(order, v):
    """Ovals of the involution t^N from one period cycle with connecting image t^v.

    The cycle contributes gcd(N, v) ovals; they are twisted exactly when
    gcd(2N, v) = gcd(N, v), untwisted when it is twice that.
    """
    if order % 2:
        raise ValueError(f"order {order} is odd; the action has no involution")
    half = order // 2
    count = math.gcd(half, v)
    return CycleOvals(v, count, math.gcd(order, v) == count)


def full_report(epi):
    """Complete fixed-point data of the action defined by a valid epi.

    The per-power table covers every i in [1, order); the involution block
    is present exactly when the order is even.  The map is validated first,
    which for a map validated before (a census row, analyze's map) reads
    the verdict the map keeps; valid maps with equal signature, order and
    connecting images may get the same (frozen) report object.
    """
    validation = validate(epi)
    validation.require()
    return _report(epi.sig, epi.modulus, epi.e_images, validation.kernel_genus)


@functools.lru_cache(maxsize=32)
def _report(sig, order, e_images, genus):
    """The report of every valid map with this signature, order and e images,
    whose kernel has the given genus (its validation computed it).

    Holds at most 32 reports.  Those of one signature and order share the
    power table of _powers, so a miss builds only the involution block.  A
    census block's e images vary fastest, so 32 do not hold its reports:
    census --order 1000 --max-genus 993 builds 195,005 reports for 65,705
    distinct keys (ROADMAP item 14 gives each block its own).
    """
    per_power = _powers(sig, order)
    involution = None
    if order % 2 == 0:
        per_cycle = tuple(cycle_ovals(order, v) for v in e_images)
        ovals = sum(c.oval_count for c in per_cycle)
        fixed = per_power[order // 2 - 1].isolated_count
        # Scherrer's bound |F| + 2|V| <= p + 2 for an involution of a genus-p surface.
        lhs = fixed + 2 * ovals
        rhs = genus + 2
        involution = InvolutionReport(
            oval_total=ovals,
            isolated_total=fixed,
            per_cycle=per_cycle,
            scherrer_lhs=lhs,
            scherrer_rhs=rhs,
            scherrer_equality=lhs == rhs,
        )
    return FixedPointReport(order, genus, per_power, involution)


@functools.lru_cache(maxsize=32)
def _powers(sig, order):
    """The per-power table of every report of this signature and order:
    Macbeath's count reads only the periods and the order, never the
    images.  At most 32 tables are kept."""
    return tuple(
        PowerFixedPoints(i, image_order(order, i), isolated_fixed_points(sig, order, i))
        for i in range(1, order)
    )


def twists_field(report):
    """Flatten per-cycle twist data to "c1:2u;c2:1t" for census CSV rows;
    the report needs an involution block, so an even order."""
    return ";".join(
        f"c{j + 1}:{c.oval_count}{'t' if c.twisted else 'u'}"
        for j, c in enumerate(report.involution.per_cycle)
    )
