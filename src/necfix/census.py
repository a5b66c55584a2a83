"""Exhaustive enumeration of signatures and smooth epimorphisms.

The search space is finite once the group order M and a genus bound are
fixed: the kernel genus p = M * measure + 2 caps the normalized measure at
(max_genus - 2)/M, which in turn bounds the quotient genus, the cycle
count and the number of periods (each period contributes at least 1/2),
while smoothness restricts every period to a divisor of M.  Those bounds
are documented in the README together with the file formats.
"""

from __future__ import annotations

import bisect
import csv
import hashlib
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .epimorphism import CyclicEpimorphism, format_map_text, validate
from .fixedpoints import FixedPointReport, full_report, twists_field
from .oracle import cross_check
from .signature import NecSignature, Sign, format_signature, kernel_genus


@dataclass(frozen=True)
class CensusRow:
    """One valid assignment, its fixed-point report, and whether it is the
    least representative of its Aut(C_M) orbit."""

    epi: CyclicEpimorphism
    report: FixedPointReport
    canonical: bool


MAX_PERIODS = 64


def enumerate_signatures(order, max_genus):
    """All signatures whose kernel genus at this order lands in [3, max_genus].

    Periods are restricted to divisors of the order (smoothness needs an
    element of that exact order in the cyclic target) and emitted sorted
    nondecreasing; only empty period cycles are generated.  Output order is
    sign '+' before '-', then genus, cycle count, period count, and the
    period tuple lexicographically; the search builds it in that order.

    Raises ValueError when more than MAX_PERIODS periods fit under the
    bound: the glide signature (32;-;[];{}) then lies in range too, and its
    order**32 image tuples could not be enumerated.
    """
    if order < 1:
        raise ValueError(f"order must be positive, got {order}")
    out = []
    if max_genus < 3:
        return out
    budget = Fraction(max_genus - 2, order) + 2
    small = [m for m in range(1, math.isqrt(order) + 1) if order % m == 0]
    divisors = sorted({*small, *(order // m for m in small)} - {1})
    costs = [1 - Fraction(1, m) for m in divisors]
    if divisors and budget >= (MAX_PERIODS + 1) * costs[0]:
        raise ValueError(f"more than {MAX_PERIODS} periods fit under max genus {max_genus} "
                         f"at order {order}; a census that large cannot be enumerated")
    for sign, alpha, least_genus in ((Sign.PLUS, 2, 0), (Sign.MINUS, 1, 1)):
        for genus in range(least_genus, math.floor(budget / alpha) + 1):
            for cycles in range(math.floor(budget - alpha * genus) + 1):
                # Period tuples one length at a time: each extends a tuple one
                # shorter by a divisor no smaller than its last whose cost
                # still fits (costs rise with the divisor, so bisect finds the
                # last one).  Entries: (tuple, index of its last divisor, cost left).
                level = [((), 0, budget - alpha * genus - cycles)]
                while level:
                    for periods, _, _ in level:
                        sig = NecSignature(genus, sign, periods, cycles)
                        try:
                            p = kernel_genus(sig, order)
                        except ValueError:
                            continue
                        if 3 <= p <= max_genus:
                            out.append(sig)
                    level = [(periods + (divisors[j],), j, left - costs[j])
                             for periods, i, left in level
                             for j in range(i, bisect.bisect_right(costs, left))]
    return out


def _iter_epimorphisms(sig, order):
    """Yield the valid assignments for one signature, in lexicographic order
    of the (x, e, orientation) image tuple.  x images have exact order m_i;
    a map is built only when the long relation holds (weight 1 for x and e,
    2 for glides, 0 for a/b), and validate decides the rest."""
    cycles = sig.empty_cycles
    if sig.nonempty_cycles or (cycles and order % 2):
        return
    r = len(sig.periods)
    x_slots = [[order // m * k for k in units(m)] if order % m == 0 else [] for m in sig.periods]
    n_orient = 2 * sig.genus if sig.sign is Sign.PLUS else sig.genus
    glide = 2 if sig.sign is Sign.MINUS else 0
    weights = (1,) * (r + cycles) + (glide,) * n_orient
    c_fixed = (order // 2,) * cycles
    for images in product(*x_slots, *[range(order)] * (cycles + n_orient)):
        if sum(w * v for w, v in zip(weights, images)) % order:
            continue
        xs, es, orient = images[:r], images[r : r + cycles], images[r + cycles :]
        epi = CyclicEpimorphism(sig, order, xs, es, c_fixed, orient)
        if validate(epi).valid:
            yield epi


def units(order):
    if order == 1:
        return [1]
    return [u for u in range(1, order) if math.gcd(u, order) == 1]


def is_canonical(epi):
    """True when the image tuple is lexicographically least in its orbit
    under unit multiplication (the Aut(C_M) action).  Reflection images are
    left out: they all equal M/2, which every unit fixes."""
    order = epi.modulus
    key = (*epi.x_images, *epi.e_images, *epi.orient_images)
    return all(key <= tuple(u * v % order for v in key) for u in units(order))


def enumerate_epimorphisms(sig, order, up_to_aut=False):
    """All valid assignments for sig onto the cyclic group of this order.

    Reflection images are pinned to order/2 (the only candidate value), so
    the search runs over the x, e and orientation images: each x image over
    the elements of exact order m_i, and a map is built only when the long
    relation holds.  With up_to_aut, only the lexicographically least
    representative of each orbit under unit multiplication is kept.  Returns
    an empty list when no smooth epimorphism with non-orientable surface
    kernel exists.
    """
    if order < 1:
        raise ValueError(f"order must be positive, got {order}")
    epis = list(_iter_epimorphisms(sig, order))
    if up_to_aut:
        epis = [e for e in epis if is_canonical(e)]
    return epis


def shadow_key(epi):
    """Sort-normalized key identifying rows up to permuting equal periods,
    cycles and genus generators; a dedup aid for downstream tools, not an
    equivalence the census itself quotients by."""
    sig = epi.sig
    xs = ",".join(f"{m}:{u}" for m, u in sorted(zip(sig.periods, epi.x_images)))
    es = ",".join(str(v) for v in sorted(epi.e_images))
    if sig.sign is Sign.PLUS:
        pairs = sorted(zip(epi.orient_images[0::2], epi.orient_images[1::2]))
        orient = ",".join(f"{a}.{b}" for a, b in pairs)
    else:
        orient = ",".join(str(w) for w in sorted(epi.orient_images))
    return f"M{epi.modulus}|g{sig.genus}{sig.sign.value}|x[{xs}]|e[{es}]|o[{orient}]"


def _census_task(args):
    sig, order, up_to_aut, verify = args
    # With up_to_aut every kept map is already its orbit's representative.
    rows = [
        CensusRow(epi, full_report(epi), up_to_aut or is_canonical(epi))
        for epi in enumerate_epimorphisms(sig, order, up_to_aut)
    ]
    disagreements = []
    if verify:
        for row in rows:
            transcript = cross_check(row.epi)
            if not transcript.agreement:
                disagreements.append(
                    f"{format_signature(sig)} M={order} {format_map_text(row.epi)}: "
                    + transcript.disagreements[0]
                )
    return rows, disagreements


def check_census_args(order, workers):
    """Raise ValueError for an order or worker count that run_census rejects."""
    if order < 1:
        raise ValueError(f"order must be positive, got {order}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")


def run_census(order, max_genus, up_to_aut=False, verify=False, workers=1):
    """Census of every valid assignment at one order up to a genus bound.

    Returns (rows, disagreements); disagreements is non-empty only when
    verify is set and an oracle path contradicts a closed-form count.
    Rows come out in deterministic order (signatures sorted, image tuples
    lexicographic) regardless of the worker count.  The pool never exceeds
    the task count or the CPU count.
    """
    check_census_args(order, workers)
    tasks = [(sig, order, up_to_aut, verify) for sig in enumerate_signatures(order, max_genus)]
    rows = []
    disagreements = []
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_census_task, tasks, chunksize=1))
    else:
        results = [_census_task(t) for t in tasks]
    for task_rows, task_disagreements in results:
        rows.extend(task_rows)
        disagreements.extend(task_disagreements)
    return rows, disagreements


def max_cyclic_order(genus, cap=12):
    """Largest cyclic-group order acting on a non-orientable surface of the
    given genus, found by descending exhaustive search from 2*genus + 2.

    The start point sits above the known maxima (2p for odd p, 2(p-1) for
    even), so the search genuinely confirms that nothing larger exists in
    that window.  The cap keeps the search affordable.
    """
    if genus < 3:
        raise ValueError(f"genus must be at least 3, got {genus}")
    if genus > cap:
        raise ValueError(f"exhaustive search is capped at genus {cap}, got {genus}")
    for order in range(2 * genus + 2, 0, -1):
        for sig in enumerate_signatures(order, genus):
            if kernel_genus(sig, order) != genus:
                continue
            if next(_iter_epimorphisms(sig, order), None) is not None:
                return order
    raise AssertionError("unreachable: the trivial group always acts")


CSV_COLUMNS = (
    "signature",
    "M",
    "images",
    "p",
    "F",
    "V",
    "twists",
    "scherrer_slack",
    "canonical",
)


class _HashingStream:
    """Write-through wrapper that hashes everything written."""

    def __init__(self, fh):
        self.fh = fh
        self.digest = hashlib.sha256()

    def write(self, text):
        self.fh.write(text)
        self.digest.update(text.encode("utf-8"))
        return len(text)


def census_row_csv(row):
    involution = row.report.involution
    if involution is None:
        fixed = ovals = twists = slack = ""
    else:
        fixed = str(involution.isolated_total)
        ovals = str(involution.oval_total)
        twists = twists_field(row.report)
        slack = str(involution.scherrer_rhs - involution.scherrer_lhs)
    return [
        format_signature(row.epi.sig),
        str(row.epi.modulus),
        format_map_text(row.epi),
        str(row.report.kernel_genus),
        fixed,
        ovals,
        twists,
        slack,
        "true" if row.canonical else "false",
    ]


def census_row_record(row):
    involution = row.report.involution
    return {
        "signature": format_signature(row.epi.sig),
        "modulus": row.epi.modulus,
        "images": format_map_text(row.epi),
        "kernel_genus": row.report.kernel_genus,
        "scherrer_equality": involution is not None and involution.scherrer_equality,
        "canonical": row.canonical,
        "shadow_key": shadow_key(row.epi),
        "report": row.report,
    }


def write_census_csv(rows, fh):
    """Stream rows as CSV, then a trailer record with the row count and the
    sha256 of all preceding bytes."""
    stream = _HashingStream(fh)
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    count = 0
    for row in rows:
        writer.writerow(census_row_csv(row))
        count += 1
    trailer = csv.writer(fh, lineterminator="\n")
    trailer.writerow(["#trailer", f"rows={count}", f"sha256={stream.digest.hexdigest()}"])
    return count


def write_census_jsonl(rows, fh):
    """Stream rows as JSON lines, then a trailer object (same checksum idea)."""
    stream = _HashingStream(fh)
    count = 0
    for row in rows:
        stream.write(to_json(census_row_record(row)) + "\n")
        count += 1
    trailer = {"rows": count, "sha256": stream.digest.hexdigest(), "type": "trailer"}
    fh.write(to_json(trailer) + "\n")
    return count


_ENCODER = json.JSONEncoder(sort_keys=True, default=vars)


def to_json(obj):
    """The one JSON encoding of every record necfix prints: keys sorted, and
    each dataclass written as its fields (``vars``), tuples as arrays."""
    return _ENCODER.encode(obj)
