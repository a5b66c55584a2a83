import hashlib
import json
import signal
import subprocess
import sys
import time

import pytest

from necfix.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_example1_table(capsys):
    code, out, err = run_cli(
        capsys, "analyze", "(0;+;[2,7];{()})", "--order", "14", "--map", "x=7,2;e=5"
    )
    assert code == 0
    assert "kernel genus 7" in out
    assert "F=7 V=1" in out
    assert "c1:1t" in out
    assert "Scherrer 9 <= 9 (equality)" in out


def test_analyze_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "analyze", "(0;+;[2,7];{()})", "--order", "14", "--map", "x=7,2;e=5",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["validation"]["valid"] is True
    assert payload["report"]["kernel_genus"] == 7
    inv = payload["report"]["involution"]
    assert inv["isolated_total"] == 7
    assert inv["oval_total"] == 1
    assert inv["per_cycle"][0]["twisted"] is True
    assert inv["scherrer_lhs"] == inv["scherrer_rhs"] == 9


def test_analyze_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "analyze", "(0;+;[2,7];{()})", "--order", "14", "--map", "x=7,2;e=5",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("signature,M,images,p,F,V")
    assert "x=7,2;e=5;c=7" in lines[1]


def test_analyze_invalid_map_exits_4(capsys):
    code, out, err = run_cli(
        capsys, "analyze", "(0;+;[2,7];{()})", "--order", "14", "--map", "x=7,3;e=4"
    )
    assert code == 4
    assert "SMOOTH-ELLIPTIC" in out


def test_analyze_csv_invalid_map_keeps_stdout_empty(capsys):
    code, out, err = run_cli(
        capsys,
        "analyze", "(0;+;[2,7];{()})", "--order", "14", "--map", "x=7,3;e=4",
        "--format", "csv",
    )
    assert code == 4
    assert out == ""
    assert "FAIL SMOOTH-ELLIPTIC" in err


def test_analyze_parse_error_exits_2(capsys):
    code, out, err = run_cli(capsys, "analyze", "(0;+;[1];{})", "--order", "14")
    assert code == 2
    assert out == ""
    assert "position 7" in err


def test_analyze_non_decimal_digit_is_a_parse_error(capsys):
    # '²' is a digit to str.isdigit but not a decimal digit, so it is no integer.
    code, out, err = run_cli(capsys, "analyze", "(²;+;[];{})", "--order", "2")
    assert code == 2
    assert out == ""
    assert err == "parse error: expected genus (position 2)\n"


def test_enumerate_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "enumerate", "(0;+;[2,7];{()})", "--order", "14", "--up-to-aut",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 1
    assert payload["maps"][0]["map"] == "x=7,2;e=5;c=7"


@pytest.mark.parametrize("order", ["0", "-4"])
def test_enumerate_rejects_non_positive_order(capsys, order):
    code, out, err = run_cli(capsys, "enumerate", "(0;+;[2,7];{()})", "--order", order)
    assert code == 2
    assert out == ""
    assert f"order must be positive, got {order}" in err


def test_census_csv_stdout(capsys):
    code, out, _ = run_cli(
        capsys, "census", "--order", "4", "--max-genus", "6", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "signature,M,images,p,F,V,twists,scherrer_slack,canonical"
    assert lines[-1].startswith("#trailer,rows=")
    assert len(lines) >= 3


def test_census_verify_agrees(capsys):
    code, out, _ = run_cli(
        capsys,
        "census", "--order", "6", "--max-genus", "6", "--verify", "--format", "json",
    )
    assert code == 0


def test_census_output_file_and_workers(tmp_path, capsys):
    paths = []
    for workers in ("1", "2"):
        path = tmp_path / f"census-{workers}.csv"
        code, _, _ = run_cli(
            capsys,
            "census", "--order", "6", "--max-genus", "8",
            "--format", "csv", "--workers", workers, "--output", str(path),
        )
        assert code == 0
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_verify_all_v(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--order", "28", "--all-v", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["agreement"] is True
    assert len(payload["entries"]) == 28


def test_verify_single_map(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "(0;+;[2,7];{()})", "--order", "14", "--map", "x=7,2;e=5",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["agreement"] is True
    assert payload["per_cycle"][0]["delta"] == 7


def test_verify_invalid_map_exits_2(capsys):
    code, out, err = run_cli(
        capsys, "verify", "(0;+;[2,7];{()})", "--order", "14", "--map", "x=7,3;e=4"
    )
    assert code == 2
    assert out == ""
    assert "invalid epimorphism (failed checks: SMOOTH-ELLIPTIC" in err


def test_verify_all_v_odd_order_rejected(capsys):
    code, _, err = run_cli(capsys, "verify", "--order", "27", "--all-v")
    assert code == 2
    assert "even" in err


@pytest.mark.parametrize("order", ["0", "-4"])
def test_verify_all_v_order_below_two_rejected(capsys, order):
    code, out, err = run_cli(capsys, "verify", "--order", order, "--all-v", "--format", "json")
    assert code == 2
    assert out == ""
    assert "at least 2" in err


@pytest.mark.parametrize(
    "extra",
    [
        pytest.param(("(0;+;[2,7];{()})",), id="signature"),
        pytest.param(("--map", "x=1,3;e=0"), id="map"),
    ],
)
def test_verify_all_v_rejects_signature_and_map(capsys, extra):
    code, out, err = run_cli(capsys, "verify", *extra, "--order", "4", "--all-v")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: --all-v")


def test_verify_without_signature_or_sweep(capsys):
    code, _, err = run_cli(capsys, "verify", "--order", "14")
    assert code == 2
    assert err.startswith("error: ")


def test_max_order(capsys):
    code, out, _ = run_cli(capsys, "max-order", "5", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"genus": 5, "max_order": 10}


def test_max_order_cap(capsys):
    code, _, err = run_cli(capsys, "max-order", "40")
    assert code == 2
    assert "capped" in err


def test_verify_disagreement_exits_3(capsys, monkeypatch):
    import necfix.cli as cli
    from necfix.oracle import SweepTranscript

    broken = SweepTranscript(14, (), False, ("v=5: double-coset 2, N/delta 1, gcd 1",))
    monkeypatch.setattr(cli, "involution_sweep", lambda order: broken)
    code, out, err = run_cli(capsys, "verify", "--order", "14", "--all-v")
    assert code == 3
    assert "first disagreement" in err
    assert "v=5" in err


@pytest.mark.parametrize(
    "order, workers, message",
    [
        pytest.param("4", "0", "workers", id="0"),
        pytest.param("4", "-3", "workers", id="-3"),
        # An order that run_census rejects leaves no file either.
        pytest.param("0", "1", "order", id="order-0"),
    ],
)
def test_census_rejects_workers_below_one(tmp_path, capsys, order, workers, message):
    path = tmp_path / "rows.csv"
    existing = tmp_path / "old.csv"
    existing.write_bytes(b"#trailer,rows=0,sha256=old\n")
    for target in (path, existing):
        code, out, err = run_cli(
            capsys,
            "census", "--order", order, "--max-genus", "6", "--workers", workers,
            "--output", str(target),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and message in err
    assert not path.exists()
    assert existing.read_bytes() == b"#trailer,rows=0,sha256=old\n"


@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_census_unwritable_output_exits_2(tmp_path, capsys, monkeypatch, target):
    import necfix.cli as cli

    def no_census(*args, **kwargs):
        raise AssertionError("the census ran before --output was opened")

    # The path is opened before the census runs, so the census never starts.
    monkeypatch.setattr(cli, "run_census", no_census)
    path = tmp_path / "missing" / "x.csv" if target == "missing-dir" else tmp_path
    code, out, err = run_cli(
        capsys,
        "census", "--order", "4", "--max-genus", "6", "--format", "csv",
        "--output", str(path),
    )
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: cannot write --output ")
    assert not (tmp_path / "missing").exists()


def test_census_output_replaces_existing_file(tmp_path, capsys):
    path = tmp_path / "rows.csv"
    path.write_text("stale\n" * 5000)
    args = ("census", "--order", "4", "--max-genus", "6", "--format", "csv")
    code, _, _ = run_cli(capsys, *args, "--output", str(path))
    assert code == 0
    _, out, _ = run_cli(capsys, *args)
    assert path.read_text(encoding="utf-8") == out


def test_census_interrupted_run_keeps_existing_output(tmp_path, monkeypatch):
    import necfix.cli as cli

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "run_census", interrupted)
    path = tmp_path / "rows.csv"
    path.write_bytes(b"#trailer,rows=0,sha256=old\n")
    with pytest.raises(KeyboardInterrupt):
        main(["census", "--order", "4", "--max-genus", "6", "--output", str(path)])
    assert path.read_bytes() == b"#trailer,rows=0,sha256=old\n"


def test_census_with_too_many_periods_exits_2_at_once(tmp_path, capsys):
    # Genus 100000 at order 4 leaves room for 50,003 periods; the search
    # refuses before building a signature, and --output keeps its bytes.
    path = tmp_path / "rows.csv"
    path.write_bytes(b"#trailer,rows=0,sha256=old\n")
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "census", "--order", "4", "--max-genus", "100000", "--output", str(path)
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: more than 64 periods fit under max genus 100000")
    assert path.read_bytes() == b"#trailer,rows=0,sha256=old\n"


def test_census_disagreement_exits_3(capsys, monkeypatch):
    import necfix.cli as cli

    monkeypatch.setattr(cli, "run_census", lambda *a, **k: ([], ["bad tuple"]))
    code, _, err = run_cli(capsys, "census", "--order", "4", "--max-genus", "6")
    assert code == 3
    assert "bad tuple" in err


def test_census_at_a_large_prime_order_finishes():
    # A prime order near 10^9: the divisor search must stop at its square
    # root, not scan every integer up to the order.
    result = subprocess.run(
        [
            sys.executable, "-m", "necfix.cli",
            "census", "--order", "1000000007", "--max-genus", "3", "--format", "csv",
        ],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert result.returncode == 0
    assert ",rows=0," in result.stdout


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="platform has no SIGPIPE")
def test_census_into_a_closed_pipe_ends_quietly():
    # The JSON rows (about 168 KB) overfill a pipe buffer, so the census is
    # still writing when the reader goes away, as with `| head -1`.
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "necfix.cli",
            "census", "--order", "6", "--max-genus", "8", "--format", "json",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=30) == -signal.SIGPIPE
    assert err == b""


def test_unknown_flag_exits_2(capsys):
    assert main(["analyze", "--nope"]) == 2


def test_console_script_end_to_end():
    result = subprocess.run(
        [
            sys.executable, "-m", "necfix.cli",
            "analyze", "(0;+;[2,7];{()})", "--order", "14",
            "--map", "x=7,2;e=5", "--format", "json",
        ],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["report"]["kernel_genus"] == 7


README_ACTION = ("(0;+;[2,7];{()})", "--order", "14", "--map", "x=7,2;e=5", "--format", "json")


# (argv, exit code, sha256 of stdout)
PINNED_STDOUT = [
    (
        ("analyze", *README_ACTION),
        0,
        "a73e5ef850598024abf9c5242e0b1489c55fb7c915e02519dd18bacf1f153db2",
    ),
    (
        ("verify", *README_ACTION),
        0,
        "1e332dea13cf596c34e7af0503905401fd5d334e2e7afa0651f1a353d9008e4c",
    ),
    (
        ("verify", "--all-v", "--order", "12", "--format", "json"),
        0,
        "dd3fb2a8d07fd8efc6ef946e24e5eb1e70135329f5a1e8b05fabb86fb3f44934",
    ),
    # Every census field, its order and its formatting: 264 rows at
    # order 6, 23 canonical rows at order 12.
    (
        ("census", "--order", "6", "--max-genus", "8", "--format", "csv"),
        0,
        "a37bd79c8b5a6a41da411f9476df24f91a7149c3c02cbad1fc29ed72b4733254",
    ),
    (
        ("census", "--order", "6", "--max-genus", "8", "--format", "json"),
        0,
        "f174faad3b6c8d14a40d45246d88e9108de6ca2d9f5310d6a6351539e0028363",
    ),
    (
        ("census", "--order", "12", "--max-genus", "10", "--up-to-aut", "--verify",
         "--format", "csv"),
        0,
        "57c43bdcf2ab617cf14ccf76237370fe5c0cafcaa782a9dec8c5d77476fd07e3",
    ),
    (
        ("analyze", *README_ACTION[:-1], "csv"),
        0,
        "70ca583210e61a60ad709303840f6cd63ce616bbb300557e63ad7471ff86e51d",
    ),
    # An invalid map (exit 4, "report": null), an odd-order census
    # (60 rows, "involution": null) and a sign - action with a glide image.
    (
        ("analyze", "(0;+;[3,3,3];{})", "--order", "3", "--map", "x=1,1,1",
         "--format", "json"),
        4,
        "6a62a0436ff81312bf10a75490cb2b7a8908f583ec23fd6900b15ae507a87096",
    ),
    (
        ("census", "--order", "5", "--max-genus", "8", "--format", "json"),
        0,
        "f6d7dd75da539a86159b766334d963e3043738e87e519ddcb6acd2d5dd10ac0f",
    ),
    (
        ("verify", "(1;-;[5,5];{})", "--order", "5", "--map", "x=1,2;d=1",
         "--format", "json"),
        0,
        "bdf96d1b32aec1c0c3e48901d119e808f14843582aa9768157894732bba1be78",
    ),
    # Glides where 2d = r has two roots (480 rows), and an odd composite
    # order whose units are not 1..M-1 (186 rows).
    (
        ("census", "--order", "8", "--max-genus", "10", "--format", "csv"),
        0,
        "9f38fa2f80d7ba34891d8bb176d28ea5f1b75eb811cf0544d639741b8e40ae1c",
    ),
    (
        ("census", "--order", "9", "--max-genus", "12", "--format", "csv"),
        0,
        "972cb62262f5469c36a67ab95b4765decdf84f97ac0152aa167beef57ff24cb5",
    ),
    # Every failure detail of validate, all exit 4: link periods, no
    # reversing generator and a non-positive measure; a reflection image
    # other than M/2; two elliptic failures joined by "; "; reflections at
    # odd order and a non-integer genus; an orientable kernel via a glide.
    (
        ("analyze", "(0;+;[2];{(2)})", "--order", "4", "--map", "x=2",
         "--format", "json"),
        4,
        "e0e43576479fef1f88f5dd6deae9e68eb762b5f1804ce1bc68b9073632e88cf1",
    ),
    (
        ("analyze", "(0;+;[2,7];{()})", "--order", "14", "--map", "x=7,2;e=5;c=3",
         "--format", "json"),
        4,
        "8304b6af68e27806602fa8e3ca8dbd58735484ef18aff37b58b63e0610f5680d",
    ),
    (
        ("analyze", "(0;+;[2,7];{()})", "--order", "14", "--map", "x=1,1;e=5",
         "--format", "json"),
        4,
        "b726ee6fb403ee161dd1ebf8f94a0a9e568202c2144cb31ac711b3b1f3642ba1",
    ),
    (
        ("analyze", "(0;+;[2,7];{()})", "--order", "7", "--map", "x=0,2;e=5;c=3",
         "--format", "json"),
        4,
        "d1e0d8915adcaa3bd0e483423d6433878726700f46bc2aa58c876ac05d0bccca",
    ),
    (
        ("analyze", "(1;-;[];{})", "--order", "2", "--map", "d=1", "--format", "json"),
        4,
        "adf95d83207ff5d67b7053b03c23cb2d9b9bb15b6326e68e09e7ae54f8102294",
    ),
]


# Ids are "argv<n>-<digest>", independent of the other columns.
@pytest.mark.parametrize(
    "argv, exit_code, digest",
    [pytest.param(*case, id=f"argv{n}-{case[2]}") for n, case in enumerate(PINNED_STDOUT)],
)
def test_json_stdout_is_pinned(capsys, argv, exit_code, digest):
    # The json and csv stdout is a contract: any change to these bytes is a
    # change to the documented output, not a refactor.
    code, out, _ = run_cli(capsys, *argv)
    assert code == exit_code
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

