"""Exhaustive enumeration of signatures and smooth epimorphisms.

The search space is finite once the group order M and a genus bound G are
fixed.  Smoothness restricts every period m to a divisor of M, so the
kernel genus p = 2 + M(alpha*g + k - 2) + sum(M - M/m) is an integer, and
p <= G bounds the quotient genus, the cycle count and the number of
periods (each costs the integer M - M/m >= M/2).  Those bounds are
documented in the README together with the file formats.
"""

from __future__ import annotations

import bisect
import csv
import hashlib
import io
import math
import operator
import os
from dataclasses import fields, is_dataclass
from itertools import chain, groupby, product
from json.encoder import encode_basestring_ascii as _string

from .epimorphism import CyclicEpimorphism, flat_images, format_map_text, map_layout, validate
from .fixedpoints import full_report, twists_field
from .oracle import cross_check
from .signature import NecSignature, Sign, format_signature, kernel_genus, sized, ten_to


MAX_CANDIDATES = 10**6


def check_budget(count, what, *values):
    """The one size bound of every search, census, report and oracle run.  Its
    text, what formatted with the values, is made only on refusal, with each
    integer of 100 digits or more (str() refuses over 4300) as 10^log10, each
    signature as its text, and each text of 100 characters or more as its
    start and its length."""
    if count > MAX_CANDIDATES:
        shown = what.format(*map(_shown, values))
        raise ValueError(f"{shown}, above the limit of {MAX_CANDIDATES}")


def _shown(value):
    if isinstance(value, int):
        return sized(value)
    text = value if isinstance(value, str) else format_signature(value)
    return f"{text[:40]}... ({len(text)} characters)" if len(text) >= 100 else text


def _small_divisors(n):
    """The divisors of n up to its square root, by budgeted trial division."""
    root = math.isqrt(n)
    check_budget(root, "trial division of {} takes {} steps", n, root)
    return [d for d in range(1, root + 1) if n % d == 0]


def enumerate_signatures(order, max_genus):
    """All signatures whose kernel genus at this order lands in [3, max_genus].

    Periods are divisors of the order (smoothness needs an element of that
    exact order in the cyclic target), so each period m adds the integer
    order - order/m to the kernel genus.  They are emitted sorted
    nondecreasing; only empty period cycles are generated.  Output order is
    sign '+' before '-', then genus, cycle count, period count, and the
    period tuple lexicographically; the search builds it in that order.
    At an odd order no signature has a period cycle: a reflection must map
    to an element of order 2, which an odd cyclic group lacks.

    Raises ValueError, before any signature is built, when the budget
    refuses the divisor scan or the search's one running count, checked
    once per level before it is built: 1 per start (sign, genus, cycle
    count), all counted first, L per period tuple of length L, and
    1 + candidate_count per signature kept.
    """
    if order < 1:
        raise ValueError(f"order must be positive, got {order}")
    out = []
    small = _small_divisors(order)
    divisors = sorted({*small, *(order // m for m in small)} - {1})
    costs = [order - order // m for m in divisors]
    top = 2 + (max_genus - 2) // order
    search = ("the signature search at order {} up to max genus {} counts at least {} "
              "starts, period entries and candidate maps")
    signs = ((Sign.PLUS, range(0, top // 2 + 1)), (Sign.MINUS, range(1, top + 1)))
    # One start per (sign, genus, cycle count) with alpha*genus + cycles <= top,
    # summed over each range of genera in closed form before any walk.
    built = sum(len(genera) if order % 2 else
                len(genera) * (2 * top + 2 - sign.alpha * (genera.start + genera.stop - 1)) // 2
                for sign, genera in signs)
    for sign, genera in signs:
        for genus in genera:
            # A reflection needs an involution image, so odd orders take no cycles.
            for cycles in range(top - sign.alpha * genus + 1 if order % 2 == 0 else 1):
                # Period tuples one length at a time.  Entries: (tuple, index
                # of its last divisor, left = max_genus - p).  Each extends a
                # tuple one shorter by a divisor no smaller than its last whose
                # cost M - M/m still fits (costs rise with m, so bisect finds
                # the last one), so left >= 0; it is kept if p >= 3.
                level = [((), 0, max_genus - 2 - order * (sign.alpha * genus + cycles - 2))]
                while level:
                    spans = []
                    for periods, i, left in level:
                        if left <= max_genus - 3:
                            out.append((genus, sign, periods, cycles))
                            built += 1 + candidate_count(genus, sign, periods, cycles, order)
                        spans.append(range(i, bisect.bisect_right(costs, left)))
                    built += (len(level[0][0]) + 1) * sum(map(len, spans))
                    check_budget(built, search, order, max_genus, built)
                    level = [(periods + (divisors[j],), j, left - costs[j])
                             for (periods, _, left), span in zip(level, spans) for j in span]
    return [NecSignature(*args) for args in out]


def _iter_epimorphisms(sig, order, up_to_aut=False):
    """Yield the valid maps of one signature in lexicographic order of the (x,
    e, orientation) images.  x images have exact order m_i; the long relation
    (weight 1 for x and e, 2 for glides, 0 for a/b) fixes the last e image or
    glide (none or two roots at even order).  up_to_aut skips a non-canonical
    map before validate (units keep validity).  The budget refuses the
    candidate maps first."""
    size = 0 if sig.nonempty_cycles else candidate_count(
        sig.genus, sig.sign, sig.periods, sig.empty_cycles, order)
    check_budget(size, "{} has {} candidate maps at order {}", sig, size, order)
    if not size:
        return
    cycles = sig.empty_cycles
    plus = sig.sign is Sign.PLUS
    r = len(sig.periods)
    x_slots = [[order // m * k for k in units(m)] for m in sig.periods]
    n_orient = sig.sign.alpha * sig.genus
    solved = r + cycles - 1 if plus else r + cycles + n_orient - 1
    weights = (1,) * (r + cycles) + (0 if plus else 2,) * n_orient
    weights = weights[:solved] + weights[solved + 1 :]
    c_fixed = (order // 2,) * cycles
    for free in product(*x_slots, *[range(order)] * (cycles + n_orient - 1)):
        rest = -sum(map(operator.mul, weights, free)) % order
        if plus:
            roots = (rest,)
        elif order % 2:
            roots = (rest * (order + 1) // 2 % order,)
        else:
            roots = () if rest % 2 else (rest // 2, rest // 2 + order // 2)
        for root in roots:
            images = (*free[:solved], root, *free[solved:])
            xs, es, orient = images[:r], images[r : r + cycles], images[r + cycles :]
            epi = CyclicEpimorphism(sig, order, xs, es, c_fixed, orient)
            if up_to_aut and not is_canonical(epi):
                continue
            if validate(epi).valid:
                yield epi


def candidate_count(genus, sign, periods, cycles, order):
    """The free image tuples _iter_epimorphisms tries for the signature
    (genus; sign; periods; cycles empty period cycles), prod phi(m_i) *
    order**(k + n - 1), or 0 when a period does not divide the order, a
    reflection meets an odd order, or no sign '+' generator reverses
    orientation.  It takes fields, so the search counts before it builds.
    A count of 100 digits or more, which the budget's text writes by its size,
    is refused by that size, taken from logarithms, before it is built."""
    plus = sign is Sign.PLUS
    if (cycles and order % 2) or (plus and not cycles) or any(order % m for m in periods):
        return 0
    phis = [_phi(m) for m in periods]
    power = cycles + sign.alpha * genus - 1
    size = sum(map(math.log10, phis)) + power * math.log10(order)
    if size >= 99:
        sig = NecSignature(genus, sign, periods, cycles)
        check_budget(math.inf, "{} has {} candidate maps at order {}", sig, ten_to(size), order)
    return math.prod(phis) * order ** power


def _phi(m):
    """Euler's phi, m times 1 - 1/p for each prime p dividing m: a small
    divisor still dividing what its smaller primes leave is prime, and at
    most one prime above the square root is left over."""
    phi = rest = m
    for d in _small_divisors(m)[1:]:
        if rest % d == 0:
            phi -= phi // d
            while rest % d == 0:
                rest //= d
    return phi - phi // rest if rest > 1 else phi


def units(order):
    """The units of Z_order in increasing order: (1,) at order 1, where
    gcd(1, 1) = 1, and never order itself above it."""
    return tuple(u for u in range(1, order + 1) if math.gcd(u, order) == 1)


def is_canonical(epi):
    """True when the image key (x..., e..., orientation...) is
    lexicographically least in its orbit under unit multiplication (the
    Aut(C_M) action).  Reflection images are left out: they all equal M/2,
    which every unit fixes.

    The key is walked once.  The units fixing the prefix so far are those
    u = 1 (mod q), q | M, starting from q = 1.  An entry a = g*a', with
    g = gcd(a, M) and n = M/g, is sent to g*(u*a' mod n), and these units
    reach every unit of Z_n that is a' (mod r), r = gcd(q, n).  So the least
    of its orbit is g*b, b the least integer a' (mod r) prime to n; a' is
    such an integer, so the search ends there at the latest.  A smaller
    entry makes a smaller key; an equal one narrows the units to
    u = 1 (mod lcm(q, n)), and at q = M only 1 is left."""
    order = epi.modulus
    q = 1
    for a in (*epi.x_images, *epi.e_images, *epi.orient_images):
        g = math.gcd(a, order)
        n = order // g
        r = math.gcd(q, n)
        b = a // g % r
        while math.gcd(b, n) != 1:
            b += r
        if g * b < a:
            return False
        q = math.lcm(q, n)
        if q == order:
            return True
    return True


def enumerate_epimorphisms(sig, order, up_to_aut=False):
    """All valid assignments for sig onto the cyclic group of this order.

    Reflection images are pinned to order/2 (the only candidate value), each
    x image runs over the elements of exact order m_i, and one e or glide
    image is solved from the long relation, so a map is built only when the
    long relation holds.  With up_to_aut, a map that is not the least of its
    orbit under unit multiplication (is_canonical) is skipped before it is
    validated.  Returns an empty list when no such smooth epimorphism exists,
    and raises ValueError when more than MAX_CANDIDATES maps would be tried.
    """
    if order < 1:
        raise ValueError(f"order must be positive, got {order}")
    return list(_iter_epimorphisms(sig, order, up_to_aut))


def shadow_key(epi):
    """The shadow_key field of the map's census JSON line: its images
    sort-normalized, so that rows differing only by permuting equal
    periods, cycles or genus generators share it.  A dedup aid for
    downstream tools, not an equivalence the census itself quotients by;
    the README's "Census output" defines it."""
    shadow, shadow_values = _shadow_layout(epi.sig, epi.modulus)
    return shadow % tuple(shadow_values(epi))


def _shadow_layout(sig, order):
    """The shadow_key format of every map of sig at this order,
    "M4|g0+|x[2:%d,4:%d,4:%d]|e[%d]|o[%d.%d]" with the periods sorted and
    a field per image ("%d.%d" per a/b pair), and shadow_values, which takes
    a map to the fields: its x images sorted by (period, image), its e
    images sorted, then its glides sorted or its (a, b) pairs sorted as
    pairs.  When the periods strictly increase, the x images are in that
    order as they stand."""
    periods = sig.periods
    plus = sig.sign is Sign.PLUS
    increasing = all(m < n for m, n in zip(periods, periods[1:]))

    def shadow_values(epi):
        xs = epi.x_images if increasing else [u for _, u in sorted(zip(periods, epi.x_images))]
        orient = epi.orient_images
        if plus:
            orient = chain.from_iterable(sorted(zip(orient[::2], orient[1::2])))
        else:
            orient = sorted(orient)
        return chain(xs, sorted(epi.e_images), orient)

    xs = ",".join([f"{m}:%d" for m in sorted(periods)])
    es = ",".join(["%d"] * sig.empty_cycles)
    orient = ",".join(["%d.%d" if plus else "%d"] * sig.genus)
    return f"M{order}|g{sig.genus}{sig.sign.value}|x[{xs}]|e[{es}]|o[{orient}]", shadow_values


def _census_task(args):
    sig, order, up_to_aut, verify = args
    epis = list(_iter_epimorphisms(sig, order, up_to_aut))
    disagreements = []
    if verify:
        # Aut(Z_M) acts freely on valid maps (a unit fixing generating images
        # is 1), so each orbit has phi(M) rows, one of them canonical; with
        # up_to_aut every row is canonical.
        if epis and not up_to_aut:
            size, canonical = _phi(order), sum(map(is_canonical, epis))
            if len(epis) != size * canonical:
                disagreements.append(f"{format_signature(sig)} M={order}: {len(epis)} rows, "
                                     f"not {size} units x {canonical} canonical")
        for epi in epis:
            transcript = cross_check(epi)
            if not transcript.agreement:
                disagreements.append(
                    f"{format_signature(sig)} M={order} {format_map_text(epi)}: "
                    + transcript.disagreements[0]
                )
    return epis, disagreements


def check_census_args(order, workers):
    """Raise ValueError for an order or worker count that run_census rejects."""
    if order < 1:
        raise ValueError(f"order must be positive, got {order}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")


def run_census(order, max_genus, up_to_aut=False, verify=False, workers=1):
    """Census of every valid assignment at one order up to a genus bound.

    Returns (rows, disagreements): each row is a valid map, whose report is
    full_report(epi) and whose canonical flag is is_canonical(epi), both
    taken when it is written.  disagreements is non-empty only when
    verify is set and an oracle path contradicts a closed-form count.
    Rows come out in deterministic order (signatures sorted, image tuples
    lexicographic) regardless of the worker count.  The pool never exceeds
    the task count or the CPU count.  The signature search's running count,
    which includes every signature's candidate maps, bounds the census: over
    the budget it raises ValueError before any task starts.
    """
    check_census_args(order, workers)
    tasks = [(sig, order, up_to_aut, verify) for sig in enumerate_signatures(order, max_genus)]
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        # Imported here: loading the pool's modules slows every start-up.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_census_task, tasks, chunksize=1))
    else:
        results = [_census_task(t) for t in tasks]
    return [row for rows, _ in results for row in rows], [d for _, ds in results for d in ds]


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


# Characters of census text, CSV or JSON lines, joined before a write.  A
# JSON line carries the order - 1 power rows of its report, so one block of
# 16,000 rows at order 500 is 400 MB of text; in pieces this small a block
# is never held whole, and each is still in the CPU cache when it is hashed.
WRITE_CHUNK = 1 << 16


def _census_text(rows, block_format, encode):
    """Yield the text of census rows as (text, line count) pieces: a piece
    per block of rows of one signature and order, or pieces of about
    WRITE_CHUNK characters when it is longer.  block_format(sig, order)
    gives the block's fill: fill(epi, middle) is a line, one % through the
    block's line format.  The middle, the fields that maps with equal e
    images share (full_report reads only the signature, order and e images),
    is encode(report), taken once per block and e images.
    """
    for (sig, modulus), block in groupby(rows, key=lambda epi: (epi.sig, epi.modulus)):
        fill = block_format(sig, modulus)
        shared = {}
        lines, size = [], 0
        for epi in block:
            report = full_report(epi)
            middle = shared.get(epi.e_images)
            if middle is None:
                middle = shared[epi.e_images] = encode(report)
            if size >= WRITE_CHUNK:
                yield "".join(lines), len(lines)
                lines, size = [], 0
            lines.append(fill(epi, middle))
            size += len(lines[-1])
        yield "".join(lines), len(lines)


def _csv_block(sig, modulus):
    """The _census_text block format of CSV lines.  Its line format is what
    csv.writer writes of the signature's text, the order, the map-text
    format and two %s: digits never need quotes, so each line is quoted as
    the format is.  _csv_middle's p,F,V,twists,scherrer_slack, the last four
    empty without an involution, fills the first %s."""
    text, pick = map_layout(sig)
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow((format_signature(sig), modulus, text, "%s", "%s"))
    line = out.getvalue()

    def fill(epi, middle):
        return line % (*pick(flat_images(epi)), middle, _BOOLS[is_canonical(epi)])

    return fill


def _csv_middle(report):
    involution = report.involution
    if involution is None:
        return f"{report.kernel_genus},,,,"
    return (f"{report.kernel_genus},{involution.isolated_total},{involution.oval_total},"
            f"{twists_field(report)},{involution.scherrer_rhs - involution.scherrer_lhs}")


def _jsonl_block(sig, modulus):
    # The map-text and shadow_key formats with the signature's text folded
    # in: they need no JSON escape, so a format's JSON string formats the
    # string.
    text, pick = map_layout(sig)
    shadow, shadow_values = _shadow_layout(sig, modulus)
    signature = to_json(format_signature(sig))
    line = (f'{{"canonical": %s, "images": {_string(text)}, %s, '
            f'"shadow_key": {_string(shadow)}, "signature": {signature}}}\n')

    def fill(epi, middle):
        return line % (_BOOLS[is_canonical(epi)], *pick(flat_images(epi)), middle, *shadow_values(epi))

    return fill


def _jsonl_middle(report):
    return to_json({
        "kernel_genus": report.kernel_genus,
        "modulus": report.modulus,
        "report": report,
        "scherrer_equality": report.involution is not None and report.involution.scherrer_equality,
    })[1:-1]


def csv_text(rows):
    """The CSV header, then the lines of census rows, as (text, line count)
    pieces."""
    header = "signature,M,images,p,F,V,twists,scherrer_slack,canonical\n"
    return chain([(header, 0)], _census_text(rows, _csv_block, _csv_middle))


def _write(pieces, fh, trailer):
    """Write the pieces, then trailer(row count, sha256 of their text)."""
    digest = hashlib.sha256()
    count = 0
    for text, lines in pieces:
        fh.write(text)
        digest.update(text.encode("utf-8"))
        count += lines
    fh.write(trailer(count, digest.hexdigest()))
    return count


def write_census_csv(rows, fh):
    """Stream rows as CSV, then a trailer record with the row count and the
    sha256 of all preceding bytes."""
    return _write(csv_text(rows), fh, "#trailer,rows={},sha256={}\n".format)


def write_census_jsonl(rows, fh):
    """Stream rows as JSON lines, then a trailer object (same checksum idea).

    Each line is one object with the keys canonical, images, kernel_genus,
    modulus, report (full_report of the row's map), scherrer_equality (false
    without an involution), shadow_key and signature, written sorted as
    to_json writes them; kernel_genus, modulus, report and scherrer_equality
    are its middle.
    """
    return _write(_census_text(rows, _jsonl_block, _jsonl_middle), fh, lambda count, digest: to_json(
        {"rows": count, "sha256": digest, "type": "trailer"}) + "\n")


def to_json(obj):
    """The one JSON encoding of every record necfix prints: what
    json.dumps(obj, sort_keys=True) writes of the record copied into plain
    dicts and lists (keys sorted, ASCII, tuples as arrays, each dataclass as
    an object of its fields).  Each dataclass type has one format of its
    sorted field names, built when it is first met, and any tuple of one
    record type is written in one pass through it; a lone record is a tuple
    of one.  Strings, ints, bools, None, tuples, lists and dicts with str
    keys are the other types; any other raises TypeError."""
    return _json(obj)


def _json(obj):
    write = _WRITERS.get(type(obj))
    return write(obj) if write else _layout(type(obj))((obj,))


def _array(items):
    if items and type(items[0]) not in _WRITERS and len(set(map(type, items))) == 1:
        return "[" + _layout(type(items[0]))(items) + "]"
    return "[" + ", ".join(map(_json, items)) + "]"


def _object(record):
    pairs = [f"{_string(key)}: {_json(value)}" for key, value in sorted(record.items())]
    return "{" + ", ".join(pairs) + "}"


def _layout(kind):
    """The one writer of a dataclass type, built and kept when the type is
    first met.  It fills the type's format, the fields in sorted order, for
    a tuple of records in one % pass: an int field by %d and any other by
    _json of its value."""
    write = _RECORDS.get(kind)
    if write:
        return write
    if not is_dataclass(kind):
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    ordered = sorted(fields(kind), key=lambda field: field.name)
    names = [field.name for field in ordered]
    get = (operator.attrgetter(*names) if len(names) > 1
           else lambda obj: tuple(getattr(obj, name) for name in names))
    ints = [field.type in (int, "int") for field in ordered]
    row = "{" + ", ".join(f"{_string(name)}: {'%d' if is_int else '%s'}"
                          for name, is_int in zip(names, ints)) + "}"
    encoded = [j for j, is_int in enumerate(ints) if not is_int]

    def write(items):
        values = list(chain.from_iterable(map(get, items)))
        for j in encoded:
            values[j :: len(names)] = map(_json, values[j :: len(names)])
        return ", ".join([row] * len(items)) % tuple(values)

    _RECORDS[kind] = write
    return write


_BOOLS = ("false", "true")
_WRITERS = {
    str: _string,
    int: int.__repr__,
    bool: _BOOLS.__getitem__,
    type(None): lambda _: "null",
    tuple: _array,
    list: _array,
    dict: _object,
}
_RECORDS = {}
