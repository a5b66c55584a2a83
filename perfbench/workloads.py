"""The four benchmark workloads: seeded inputs, request lists and output checks.

Every operation is one request through ``necfix.cli.main``.  Each workload
stresses a different part of the package, so that an optimisation of one
layer has a workload that exercises it and one that bypasses it (see
README.md in this directory for the rationale of each):

* ``census-dense``  - candidate filtering, ``full_report``, canonicalisation
  and the JSONL writer at a small order; never runs the oracle.
* ``census-verify`` - larger orders, oracle on every row, ``--up-to-aut``
  and the process pool; almost no serialisation.
* ``action-ladder`` - single-action ``analyze``/``verify``/``verify --all-v``
  requests as M grows; O(M^2) oracle paths, no census enumeration.
* ``max-order``     - descending exhaustive search that stops at the first
  valid map, re-enumerating signatures for every order it tries.

The seed draws the unit images of the action-ladder actions and the order in
which requests run; the cost mix of a pass is the same for every seed, so
figures from different seeds are comparable.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("census-dense", "census-verify", "action-ladder", "max-order")

DEFAULT_SEED = 1
HELD_OUT_SEED = 2

# Trailers the census must reproduce byte for byte, keyed by everything that
# may change the output (the worker count must not).
CENSUS_PINS = {
    (4, 16, "json", False): (13334, "ffe63fed390dd2c5c975ae84d2f484611dc5ef0546db9bbbc149e3aa470cb93b"),
    (12, 20, "csv", True): (648, "4fb48d8f42d44505ddbc0c1cf52e995e046ec93ee29c6bd6a6f1a41e8650aa42"),
    (20, 20, "csv", True): (95, "c20e6d8663e49651b6f61dec31b8579c830e6f5ef65585c99ccbf9d862fde360"),
    (28, 20, "csv", True): (8, "9723edaed0c64dcece9852b3ded05932a9b970e95cf20354dbd491dc7b980f71"),
}

LADDER_ORDERS = (32, 48, 64, 96, 128, 192, 256, 384, 512)
MAX_ORDER_GENERA = range(3, 41)
MAX_ORDER_CAP = 40


class CheckFailed(Exception):
    """A request's output is wrong."""


@dataclass(frozen=True)
class Op:
    """One CLI request and the check of its output.

    ``check(exit_code, stdout)`` raises CheckFailed or returns a digest of
    the output; ops with equal labels must produce equal digests whatever
    the worker count.
    """

    label: str
    argv: tuple[str, ...]
    check: Callable[[int, str], str]
    rows: int = 0


@dataclass(frozen=True)
class Plan:
    """A workload's request list for the timed run and for the traced run.

    ``accepted`` is the number of valid maps the census-side ``validate``
    calls must find per pass, or None where it only has to reach the row
    count (``--up-to-aut`` keeps one map per orbit).
    """

    ops: tuple[Op, ...]
    traced_ops: tuple[Op, ...]
    accepted: int | None


def _require_exit(code, expected=0):
    if code != expected:
        raise CheckFailed(f"exit code {code}, expected {expected}")


def _census_check(path, pin_key):
    rows, sha = CENSUS_PINS[pin_key]
    fmt = pin_key[2]

    def check(code, _stdout):
        _require_exit(code)
        data = Path(path).read_bytes()
        body_end = data.rstrip(b"\n").rfind(b"\n") + 1
        body, trailer = data[:body_end], data[body_end:].decode("utf-8").strip()
        if fmt == "json":
            record = json.loads(trailer)
            got_rows, got_sha = record.get("rows"), record.get("sha256")
        else:
            fields = dict(f.split("=", 1) for f in trailer.split(",")[1:])
            got_rows, got_sha = int(fields.get("rows", -1)), fields.get("sha256")
        if (got_rows, got_sha) != (rows, sha):
            raise CheckFailed(f"trailer rows={got_rows} sha256={got_sha}, pinned rows={rows} sha256={sha}")
        if hashlib.sha256(body).hexdigest() != sha:
            raise CheckFailed("trailer sha256 does not match the bytes before it")
        lines = body.count(b"\n") - (1 if fmt == "csv" else 0)
        if lines != rows:
            raise CheckFailed(f"{lines} row lines, trailer says {rows}")
        return f"rows={rows} sha256={sha}"

    return check


def _census_op(out_dir, order, max_genus, fmt, up_to_aut, workers):
    path = Path(out_dir) / f"census-M{order}-G{max_genus}.{fmt}"
    argv = ["census", "--order", str(order), "--max-genus", str(max_genus)]
    if up_to_aut:
        argv += ["--verify", "--up-to-aut"]
    argv += ["--workers", str(workers), "--format", fmt, "--output", str(path)]
    key = (order, max_genus, fmt, up_to_aut)
    return Op(f"census M={order}", tuple(argv), _census_check(path, key), CENSUS_PINS[key][0])


def _census_dense(_seed, out_dir, _necfix):
    op = _census_op(out_dir, 4, 16, "json", False, workers=1)
    return Plan((op,), (op,), accepted=op.rows)


def _census_verify(seed, out_dir, _necfix):
    orders = [12, 20, 28]
    random.Random(seed).shuffle(orders)
    timed = tuple(_census_op(out_dir, m, 20, "csv", True, workers=2) for m in orders)
    traced = tuple(_census_op(out_dir, m, 20, "csv", True, workers=1) for m in orders)
    return Plan(timed, traced, accepted=None)


def _json_check(expect):
    def check(code, stdout):
        _require_exit(code)
        record = json.loads(stdout)
        for path, want in expect.items():
            got = record
            for key in path.split("."):
                got = got[key]
            if got != want:
                raise CheckFailed(f"{path} is {got!r}, expected {want!r}")
        return json.dumps(expect, sort_keys=True)

    return check


def ladder_action(order, rng):
    """A valid action (0;+;[M,M,2];{()}) with seeded unit images.

    The long relation u1 + u2 + M/2 + v = 0 fixes the connecting image v;
    the kernel genus is M * (3/2 - 2/M) + 2 = 3M/2.
    """
    units = [u for u in range(1, order) if math.gcd(u, order) == 1]
    u1, u2 = rng.choice(units), rng.choice(units)
    half = order // 2
    v = -(u1 + u2 + half) % order
    return f"(0;+;[{order},{order},2];{{()}})", f"x={u1},{u2},{half};e={v}", 3 * order // 2


def _action_ladder(seed, _out_dir, necfix):
    rng = random.Random(seed)
    ops = []
    for m in LADDER_ORDERS:
        sig, images, genus = ladder_action(m, rng)
        report = necfix.validate(necfix.parse_map_text(necfix.parse_signature(sig), m, images))
        if report.kernel_genus != genus:
            raise ValueError(f"generated action {sig} {images} is invalid: {report.failed()}")
        common = ("--order", str(m), "--format", "json")
        ops.append(Op(
            f"analyze M={m}",
            ("analyze", sig, "--map", images, *common),
            _json_check({"validation.valid": True, "report.modulus": m, "report.kernel_genus": genus}),
        ))
        ops.append(Op(
            f"verify M={m}",
            ("verify", sig, "--map", images, *common),
            _json_check({"agreement": True, "modulus": m}),
        ))
        ops.append(Op(
            f"verify-all-v M={m}",
            ("verify", "--all-v", *common),
            _json_check({"agreement": True, "modulus": m}),
        ))
    rng.shuffle(ops)
    return Plan(tuple(ops), tuple(ops), accepted=0)


def expected_max_order(genus):
    return 2 * genus if genus % 2 else 2 * (genus - 1)


def _max_order(seed, _out_dir, _necfix):
    genera = list(MAX_ORDER_GENERA)
    random.Random(seed).shuffle(genera)
    ops = tuple(
        Op(
            f"max-order g={g}",
            ("max-order", str(g), "--cap", str(MAX_ORDER_CAP), "--format", "json"),
            _json_check({"genus": g, "max_order": expected_max_order(g)}),
        )
        for g in genera
    )
    return Plan(ops, ops, accepted=len(ops))


_BUILDERS = {
    "census-dense": _census_dense,
    "census-verify": _census_verify,
    "action-ladder": _action_ladder,
    "max-order": _max_order,
}


def build_plan(name, seed, out_dir, necfix):
    """The workload's seeded request list; generated inputs are checked
    against the library before anything is timed."""
    return _BUILDERS[name](seed, out_dir, necfix)
