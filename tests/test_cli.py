import contextlib
import functools
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import grasshodge
from grasshodge import cli, lefschetz, racah
from grasshodge.cli import UsageError, emit_table, load_sequence, main
from grasshodge.exactmath import harmonic
from oracles import orthogonality_pairs, scan_json, scan_report_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_on_1_and_2_jobs(capsys, *argv):
    """run_cli with --jobs 1 and with --jobs 2, which must agree byte for
    byte on the exit code, stdout and stderr, and leave no worker behind;
    the one result."""
    serial, pooled = (run_cli(capsys, *argv, "--jobs", jobs) for jobs in ("1", "2"))
    assert pooled == serial
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return serial


def test_sigma_json_object(capsys):
    code, out, err = run_cli(capsys, "sigma", "--N", "6", "--k", "1", "--method", "both")
    assert code == 0
    data = json.loads(out)
    # the shared certificate row, with the decimal moved last
    assert list(data) == ["N", "k", "n", "T", "sigma", "positive", "method", "agree", "sigma_approx"]
    assert data["sigma"] == "618125/3"
    assert data["positive"] is True
    assert data["agree"] is True
    assert data["n"] == 4 and data["T"] == 8


def test_sigma_usage_error(capsys):
    code, out, err = run_cli(capsys, "sigma", "--N", "3", "--k", "5")
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_scan_bound_clean_range(capsys):
    code, out, err = run_cli(capsys, "scan-bound", "--Tmin", "3", "--Tmax", "25")
    assert code == 0
    report = json.loads(out)
    assert report["T_range"] == [3, 25]
    assert report["violations"] == []
    assert all(case["n"] == 0 for case in report["equality_cases"])
    assert "elapsed_ms" not in report
    assert "ms" in err  # timing goes to stderr only


def test_scan_bound_single_T_flag(capsys):
    # one T value is one share, so one process walks it whatever --jobs asks
    for jobs in ("1", "4"):
        code, out, err = run_cli(capsys, "scan-bound", "--T", "7", "--jobs", jobs)
        assert code == 0
        assert json.loads(out)["T_range"] == [7, 7]
        assert "(1 workers)" in err


def test_scan_bound_reports_the_workers_the_scan_dealt(monkeypatch, capsys):
    # two T values on two workers fork one child; without os.fork the scan
    # runs in one process, and stderr says so whatever --jobs asked
    assert racah.bound_scan(3, 8, jobs=2).workers == 2
    _, _, err = run_cli(capsys, "scan-bound", "--Tmin", "3", "--Tmax", "4", "--jobs", "2")
    assert "(2 workers)" in err
    monkeypatch.delattr(os, "fork")
    assert racah.bound_scan(3, 8, jobs=2).workers == 1
    code, out, err = run_cli(capsys, "scan-bound", "--Tmin", "3", "--Tmax", "8", "--jobs", "2")
    assert code == 0 and out == json.dumps(scan_json(3, 8)) + "\n"
    assert "(1 workers)" in err


def test_scan_bound_reports_pruning_on_stderr_only(capsys):
    # stdout is what the walk over the whole half grid gives; stderr counts
    # the points walked, sum over T and s of n_s + 1, against the half grid
    code, out, err = run_cli(capsys, "scan-bound", "--Tmin", "3", "--Tmax", "20", "--jobs", "1")
    assert code == 0
    expected = scan_json(3, 20)
    assert expected["violations"] == []
    assert out == json.dumps(expected) + "\n"
    walked = sum(
        min(s, max(0, T * T // (2 * (2 * s + 1)) - 1)) + 1 for T in range(3, 21) for s in range(T)
    )
    half_grid = sum(T * (T + 1) // 2 for T in range(3, 21))
    assert f"; {walked} of {half_grid} half-grid points walked; " in err
    assert "strictly inside by the orthogonality norm" in err


def test_verify_needed_harmonic(capsys):
    code, out, err = run_cli(capsys, "verify-needed", "--T", "30", "--sequence", "harmonic")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 30
    assert all(row["holds"] for row in rows)
    assert all(row["covered"] for row in rows)
    assert rows[0]["sequence"] == "harmonic"


def test_verify_needed_rejects_short_file(tmp_path, capsys):
    path = tmp_path / "seq.txt"
    path.write_text("1\n3/2\n")
    code, out, err = run_cli(capsys, "verify-needed", "--T", "9", "--sequence", str(path))
    assert code == 2
    assert "holds 2 values" in err


def test_verify_needed_rejects_non_utf8_file(tmp_path, capsys):
    path = tmp_path / "seq.bin"
    path.write_bytes(b"\xff\xfe1\n2\n3\n")
    code, out, err = run_cli(capsys, "verify-needed", "--T", "4", "--sequence", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and str(path) in err


@pytest.mark.parametrize("T", [3, 4, 17, 60, 100])
def test_verify_needed_harmonic_shortcut_matches_its_file(tmp_path, capsys, T):
    # the harmonic default enters as harmonic_numerators integers, a file
    # through integer_sequence: the rows agree in every column but the label
    path = tmp_path / "harmonic.txt"
    path.write_text("".join(f"{h.numerator}/{h.denominator}\n" for h in map(harmonic, range(1, T))))
    rows = {}
    for source in ("harmonic", str(path)):
        code, out, _ = run_cli(capsys, "verify-needed", "--T", str(T), "--sequence", source)
        assert code == 0
        rows[source] = [json.loads(line) for line in out.splitlines()]
        assert len(rows[source]) == T and all(row.pop("sequence") == source for row in rows[source])
    assert rows["harmonic"] == rows[str(path)]


def test_verify_needed_rejects_malformed_file(tmp_path, capsys):
    path = tmp_path / "seq.txt"
    path.write_text("1\nbogus\n2\n")
    code, out, err = run_cli(capsys, "verify-needed", "--T", "3", "--sequence", str(path))
    assert code == 2
    assert "seq.txt:2" in err


def test_verify_needed_reads_file_sequence(tmp_path, capsys):
    # linear sequence: concave increasing, decimals and rationals mixed
    path = tmp_path / "seq.txt"
    path.write_text("1\n2.0\n3\n6/2\n")
    code, out, err = run_cli(capsys, "verify-needed", "--T", "4", "--sequence", str(path))
    rows = [json.loads(line) for line in out.splitlines()]
    assert code == 0 and all(r["holds"] for r in rows)
    # H_4 = 6/2 = 3 repeats H_3, so the tail is not concave increasing
    code, out, err = run_cli(capsys, "verify-needed", "--T", "5", "--sequence", str(path))
    rows = [json.loads(line) for line in out.splitlines()]
    assert all(r["concave"] is False for r in rows)
    assert "exploratory" in err


def test_verify_needed_random_seed_reproducible(capsys):
    code1, out1, _ = run_cli(capsys, "verify-needed", "--T", "12", "--sequence", "random", "--seed", "7")
    code2, out2, _ = run_cli(capsys, "verify-needed", "--T", "12", "--sequence", "random", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2
    _, out3, _ = run_cli(capsys, "verify-needed", "--T", "12", "--sequence", "random", "--seed", "8")
    assert out3 != out1


def test_reruns_byte_identical(capsys):
    args = ("verify-grassmannian", "--Nmax", "8", "--method", "both", "--format", "csv")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_verify_grassmannian_csv_sorted(capsys):
    code, out, _ = run_cli(capsys, "verify-grassmannian", "--Nmax", "5", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "N,k,n,T,sigma,sigma_approx,positive,method,agree"
    keys = [tuple(map(int, line.split(",")[:2])) for line in lines[1:]]
    assert keys == sorted(keys)
    assert all(line.split(",")[6] == "true" for line in lines[1:])


def test_verify_grassmannian_kset_filter(capsys):
    code, out, _ = run_cli(capsys, "verify-grassmannian", "--Nmax", "9", "--kset", "2", "--format", "csv")
    assert code == 0
    rows = out.splitlines()[1:]
    assert [int(r.split(",")[0]) for r in rows] == list(range(4, 10))
    assert all(int(r.split(",")[1]) == 2 for r in rows)


def test_verify_pn_and_ortho(capsys):
    code, out, _ = run_cli(capsys, "verify-pn", "--nmax", "10")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows[4]["tau"] == "87/10"
    assert all(r["commutator_ok"] and r["tau_positive"] for r in rows)

    code, out, _ = run_cli(capsys, "verify-ortho", "--Tmin", "3", "--Tmax", "10")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert [r["T"] for r in rows] == list(range(3, 11))
    assert all(r["ok"] for r in rows)


def test_table_racah_sorted_and_filtered(capsys):
    code, out, _ = run_cli(capsys, "table", "--kind", "racah", "--T", "5", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "T,n,s,value,value_approx"
    keys = [tuple(map(int, line.split(",")[:3])) for line in lines[1:]]
    assert keys == sorted(keys) and len(keys) == 25

    code, out, _ = run_cli(capsys, "table", "--kind", "racah", "--T", "5", "--n", "1", "--s", "4", "--format", "csv")
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[1] == "5,1,4,-2/3," + "-0.666666666667"


def test_table_sigma_json(capsys):
    code, out, _ = run_cli(capsys, "table", "--kind", "sigma", "--Nmax", "3", "--format", "json")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert [(r["N"], r["k"]) for r in rows] == [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1)]
    assert rows[1]["sigma"] == "129"


def test_table_sigma_has_no_method_flag(capsys):
    # sigma tables take the closed route; the two routes are cross-checked
    # by verify-grassmannian, whose exit code reports a disagreement
    with pytest.raises(SystemExit) as exc:
        main(["table", "--kind", "sigma", "--Nmax", "2", "--method", "both"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_table_racah_rejects_sigma_flags(capsys):
    code, out, err = run_cli(capsys, "table", "--kind", "racah", "--T", "3", "--Nmax", "5", "--kset", "1")
    assert (code, out) == (2, "")
    assert err == "error: --kind racah takes no --Nmax, --kset\n"


def test_table_sigma_rejects_racah_flags(capsys):
    code, out, err = run_cli(capsys, "table", "--kind", "sigma", "--Nmax", "2", "--T", "99", "--n", "5")
    assert (code, out) == (2, "")
    assert err == "error: --kind sigma takes no --T, --n\n"


def test_table_out_of_range_filter(capsys):
    code, _, err = run_cli(capsys, "table", "--kind", "racah", "--T", "5", "--n", "9")
    assert code == 2


def test_infeasible_ranges(capsys):
    cases = [
        ("scan-bound", "--Tmin", "9", "--Tmax", "3"),
        ("scan-bound", "--Tmin", "2", "--Tmax", "5"),
        ("verify-grassmannian", "--Nmax", "0"),
        ("verify-needed", "--T", "2"),
        ("verify-ortho", "--Tmax", "9"),  # Tmin missing
        # rows stream, so each of these must be caught before the CSV header
        ("table", "--kind", "sigma", "--Nmax", "0"),
        ("verify-grassmannian", "--Nmax", "4", "--kset", "3"),
        ("table", "--kind", "sigma", "--Nmax", "3", "--kset", "5"),
        ("table", "--kind", "racah", "--Tmin", "3", "--Tmax", "9", "--n", "5"),
        ("scan-bound", "--T", "5", "--jobs", "0"),
        # --T with --Tmin or --Tmax is ambiguous, not a silent override
        ("verify-ortho", "--T", "5", "--Tmin", "3", "--Tmax", "9"),
        ("scan-bound", "--T", "5", "--Tmax", "9"),
        ("table", "--kind", "racah", "--T", "5", "--Tmin", "3"),
    ]
    for argv in cases:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: "), argv


def test_table_rows_stream():
    cases = [
        # the whole T 3..40 table held as rows peaks near 7 MB traced;
        # written as computed, only one T is alive at a time
        (["table", "--kind", "racah", "--Tmin", "3", "--Tmax", "40"], 2 * 2**20),
        # within one T, one column at a time: 0.23 MiB (the whole grid
        # held: 0.81 MiB)
        (["table", "--kind", "racah", "--T", "100"], 0.4 * 2**20),
        # three columns and T running norms: 0.12 MiB (the whole grid
        # held: 0.72 MiB)
        (["verify-ortho", "--T", "100"], 0.4 * 2**20),
    ]
    for argv, bound in cases:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                code = main(argv)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert code == 0, argv
        assert peak < bound, (argv, peak)


def test_usage_error_from_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["scan-bound", "--Tmax", "not-a-number"])
    assert exc.value.code == 2


def test_fault_injection_flips_exit_code(monkeypatch, capsys):
    real = lefschetz.sigma_verdict

    def corrupted(inst, method="both"):
        sigma, agree = real(inst, method=method)
        if inst.N == 4 and inst.k == 2:
            return -sigma, agree
        return sigma, agree

    monkeypatch.setattr(lefschetz, "sigma_verdict", corrupted)
    code, out, err = run_on_1_and_2_jobs(capsys, "verify-grassmannian", "--Nmax", "5")
    assert code == 1
    rows = [json.loads(line) for line in out.splitlines()]
    flagged = [r for r in rows if not r["positive"]]
    assert [(r["N"], r["k"]) for r in flagged] == [(4, 2)]
    assert "FAILED" in err


def test_fault_injection_scan(monkeypatch, capsys):
    real = racah.bound_scan

    def corrupted(T_min, T_max, jobs=None):
        report = real(T_min, T_max, jobs=jobs)
        return racah.ScanReport(
            T_min=report.T_min,
            T_max=report.T_max,
            violations=((T_min, 1, 2, 9, 8),),
            exceptions=report.exceptions,
            rows_checked=report.rows_checked,
            elapsed_ms=report.elapsed_ms,
            points_walked=report.points_walked,
            workers=report.workers,
        )

    monkeypatch.setattr(racah, "bound_scan", corrupted)
    code, out, _ = run_cli(capsys, "scan-bound", "--Tmin", "3", "--Tmax", "5", "--jobs", "1")
    assert code == 1
    assert json.loads(out)["violations"] == [{"T": 3, "n": 1, "s": 2, "value": "9/8"}]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_fault_injection_scan_bulk_check(monkeypatch, capsys, jobs):
    # at T = 10, R_3(5) one step past the bound and R_4(4) on it, each at
    # the deepest n its column walks (n_5 = 3, n_4 = 4, the deepest of T),
    # where a slice one short would skip it; T = 10 falls to the forked
    # child's share of 3..11 on two workers
    real = racah._principal_column
    bad = {(5, 3): -(racah.principal_weight(3, 10) + 1), (4, 4): -racah.principal_weight(4, 10)}

    def corrupted(s, T, steps, n_max):
        column = real(s, T, steps, n_max)
        for (s_bad, n), w in bad.items():
            if (s, T) == (s_bad, 10) and n <= n_max:
                column[n] = w
        return column

    monkeypatch.setattr(racah, "_principal_column", corrupted)
    assert racah._scan_depths(10)[4:6] == [4, 3] and max(racah._scan_depths(10)) == 4
    code, out, _ = run_cli(capsys, "scan-bound", "--Tmin", "3", "--Tmax", "11", "--jobs", jobs)
    assert code == 1
    line = json.loads(out)
    assert line["violations"] == [{"T": 10, "n": 3, "s": 5, "value": "-24025/24024"}]
    assert [case for case in line["equality_cases"] if case["n"]] == [{"T": 10, "n": 4, "s": 4}]
    # the whole-half-grid walk reads the same corrupted columns
    assert out == json.dumps(scan_json(3, 11)) + "\n"


def test_scan_line_matches_the_oracle_byte_for_byte():
    reports = [
        # violations, one of them reduced by the gcd (-562/280 = -281/140)
        racah.ScanReport(3, 6, ((4, 1, 2, 9, 8), (6, 2, 2, -562, 280)), (), 18, 0, 0, 1),
        # interior equality cases at the first and last T, two in one T
        racah.ScanReport(3, 7, (), ((3, 1, 2), (5, 2, 3), (5, 4, 4), (7, 1, 6)), 25, 0, 0, 1),
        racah.bound_scan(3, 30, jobs=2),
    ]
    for report in reports:
        out = io.StringIO()
        cli.emit_scan_report(report, out)
        assert out.getvalue() == json.dumps(scan_report_json(report)) + "\n", report


def test_scan_line_memory_stays_bounded():
    # T 3..1000 has 500497 edge cases; written one T at a time the line
    # peaks near 0.1 MiB traced (one dict for the whole report: 138 MiB)
    report = racah.ScanReport(3, 1000, (), (), 0, 0, 0, 1)
    with open(os.devnull, "w") as sink:
        tracemalloc.start()
        try:
            cli.emit_scan_report(report, sink)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 2**20, peak


def _double_weight_at(monkeypatch, n, s, T):
    # one principal weight of the column walk doubled past its bound:
    # R_n(s, T) reads 2 in every column walk that reaches it
    real = racah._principal_column

    def corrupted(s_, T_, steps, n_max):
        column = real(s_, T_, steps, n_max)
        if (s_, T_) == (s, T) and n_max >= n:
            column[n] = 2 * racah.principal_weight(n, T)
        return column

    monkeypatch.setattr(racah, "_principal_column", corrupted)


def test_fault_injection_engine(monkeypatch, capsys):
    # R_2(2, 6) read as 2, on a point the scan walks: the scan must report
    # exactly that point
    _double_weight_at(monkeypatch, 2, 2, 6)
    code, out, _ = run_cli(capsys, "scan-bound", "--Tmin", "3", "--Tmax", "8", "--jobs", "1")
    assert code == 1
    assert json.loads(out)["violations"] == [{"T": 6, "n": 2, "s": 2, "value": "2"}]
    # the orthogonality certificate walks every column to n = T-1, so it
    # reads a bad value anywhere, R_2(4, 6) among them
    _double_weight_at(monkeypatch, 2, 4, 6)
    code, out, _ = run_cli(capsys, "verify-ortho", "--T", "6")
    assert code == 1
    assert json.loads(out)["ok"] is False
    # the closed certificate walks row n = 4 at T = 6; the same kind of
    # fault there, R_4(2, 6) read as 2, makes the direct route, which reads
    # no Racah code, disagree
    real_row = racah._principal_row

    def corrupted_row(n, T):
        row = real_row(n, T)
        if (n, T) == (4, 6):
            row[2] = 2 * row[0]
        return row

    monkeypatch.setattr(racah, "_principal_row", corrupted_row)
    code, out, err = run_cli(capsys, "verify-grassmannian", "--Nmax", "4", "--method", "both")
    assert code == 1
    rows = [json.loads(line) for line in out.splitlines()]
    assert [(r["N"], r["k"]) for r in rows if not r["agree"]] == [(4, 0)]
    assert "FAILED" in err


def test_pruned_point_is_left_to_the_orthogonality_certificate(monkeypatch, capsys):
    # R_2(4, 6) lies below the deepest point the scan walks in column 4
    # (36 // 18 - 1 = 1), where the column norm decides it, so the scan
    # never reads the corrupted value; verify-ortho, which certifies that
    # norm, fails on it
    _double_weight_at(monkeypatch, 2, 4, 6)
    code, out, _ = run_cli(capsys, "scan-bound", "--T", "6", "--jobs", "1")
    assert code == 0
    assert json.loads(out)["violations"] == []
    code, out, _ = run_cli(capsys, "verify-ortho", "--T", "6")
    assert code == 1
    assert json.loads(out)["ok"] is False


def _corrupt_steps_at(monkeypatch, T_bad):
    # k of the step n = 2 -> 3 off by one at T_bad: the step adds w_1(s) to
    # a multiple of 2 * 3^3 = 54, and at T = 6 and T = 8 no
    # w_1(s) = T^2 - 1 - 2s(s+1) is one
    real = racah._principal_steps

    def corrupted(T, *n_max):
        steps = real(T, *n_max)
        if T == T_bad:
            c, d, k, q = steps[1]
            steps[1] = (c, d, k + 1, q)
        return steps

    monkeypatch.setattr(racah, "_principal_steps", corrupted)


def test_fault_injection_scan_remainder(monkeypatch, capsys):
    # at T = 8 the scan's columns first take that step at s = 3, which is
    # walked down to n = 64 // 14 - 1 = 3 (at T = 6 no scanned column
    # reaches n = 3)
    _corrupt_steps_at(monkeypatch, 8)
    code, out, err = run_cli(capsys, "scan-bound", "--Tmin", "3", "--Tmax", "8", "--jobs", "1")
    assert code == 1
    assert out == ""
    assert "FAILED" in err and "T=8, s=3" in err and "remainder" in err
    assert "Traceback" not in err
    with pytest.raises(racah.InexactStep):
        racah.bound_scan(8, 8, jobs=1)


@pytest.mark.parametrize("t_max", ["8", "9"], ids=["in-parent-share", "in-child-share"])
def test_fault_injection_scan_remainder_across_workers(monkeypatch, capsys, t_max):
    # T values are dealt largest first into two shares: T = 8 falls to the
    # share this process walks for 3..8, and to the forked child's for 3..9
    _corrupt_steps_at(monkeypatch, 8)
    code, out, err = run_cli(capsys, "scan-bound", "--Tmin", "3", "--Tmax", t_max, "--jobs", "2")
    assert code == 1
    assert out == ""
    assert "FAILED" in err and "T=8, s=3" in err and "remainder" in err
    assert "Traceback" not in err
    with pytest.raises(ChildProcessError):  # every child reaped
        os.waitpid(-1, os.WNOHANG)


def test_fault_injection_ortho_remainder(monkeypatch, capsys):
    # the orthogonality certificate walks the columns in order of s, each to
    # n = T-1, so column s = 0 takes the corrupted step first
    _corrupt_steps_at(monkeypatch, 6)
    code, out, err = run_cli(capsys, "verify-ortho", "--T", "6")
    assert code == 1
    assert out == ""
    assert "FAILED" in err and "T=6, s=0" in err and "remainder" in err
    assert "Traceback" not in err


def test_fault_injection_ortho_remainder_in_a_worker(monkeypatch, capsys):
    # T = 8 is key 5 of the range 3..10, so on two processes a worker
    # certifies it: its InexactStep comes back and the run stops there,
    # after the rows of T 3..7, as it does on one
    _corrupt_steps_at(monkeypatch, 8)
    code, out, err = run_on_1_and_2_jobs(capsys, "verify-ortho", "--Tmin", "3", "--Tmax", "10")
    assert code == 1
    assert [json.loads(line)["T"] for line in out.splitlines()] == [3, 4, 5, 6, 7]
    assert err.startswith("verify-ortho FAILED: ") and "T=8, s=0" in err and "remainder" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, patched",
    [
        (("verify-grassmannian", "--Nmax", "5"), "_box_rows"),
        (("table", "--kind", "sigma", "--Nmax", "5"), "_box_rows"),
        (("verify-ortho", "--Tmin", "3", "--Tmax", "6", "--format", "csv"), "_ortho_row"),
    ],
    ids=["verify-grassmannian", "table", "verify-ortho"],
)
def test_dead_worker_fails_the_command_in_one_line(monkeypatch, capsys, argv, patched):
    # a worker that dies on its first key, as one the out-of-memory killer
    # takes would: the rows before that key, then exit 1 with one stderr
    # line and no worker left running
    parent = os.getpid()
    real = getattr(cli, patched)

    def dying(*args):
        if os.getpid() != parent:
            os._exit(3)
        return real(*args)

    monkeypatch.setattr(cli, patched, dying)
    code, out, err = run_cli(capsys, *argv, "--jobs", "2")
    assert code == 1
    assert len(out.splitlines()) == 1 + (argv[0] != "verify-grassmannian")  # CSV header
    assert re.fullmatch(rf"{argv[0]} FAILED: worker \d+ exited with status 3\n", err), err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_fault_injection_row_remainder(monkeypatch, capsys):
    # every row walk at T = 6 started from P_n + 1: row 0 stays exact (it is
    # constant), but row 1's first step divides (1 + 4 - 36) * 36 by
    # 1 - T^2 = -35
    real = racah.principal_weight
    monkeypatch.setattr(racah, "principal_weight", lambda n, T: real(n, T) + (T == 6))
    code, out, err = run_cli(capsys, "verify-needed", "--T", "6")
    assert code == 1
    assert out == ""
    assert "FAILED" in err and "T=6, n=1" in err and "remainder" in err
    assert "Traceback" not in err


def test_fault_injection_row_weight(monkeypatch, capsys):
    # every row at T = 6 with its weight w_n(0) = P_n read as 1, as if the
    # normalization were dropped: each alternating lhs there is multiplied
    # by P_n, so every certificate at N = 4 with n > 0 moves, and the
    # harmonic bound at T = 6 fails on the rows with a positive lhs
    real = racah._principal_row

    def corrupted(n, T):
        row = real(n, T)
        if T == 6:
            row[0] = 1
        return row

    monkeypatch.setattr(racah, "_principal_row", corrupted)
    code, out, err = run_cli(capsys, "verify-grassmannian", "--Nmax", "4", "--method", "both")
    assert code == 1
    rows = [json.loads(line) for line in out.splitlines()]
    assert [(r["N"], r["k"]) for r in rows if not r["agree"]] == [(4, 0), (4, 1)]
    assert "FAILED" in err
    code, out, err = run_cli(capsys, "verify-needed", "--T", "6")
    assert code == 1
    holds = [json.loads(line)["holds"] for line in out.splitlines()]
    assert holds == [True, True, False, True, False, True]
    assert "FAILED" in err


@pytest.mark.parametrize(
    "corrupt",
    [
        # one interior weight off by 1: breaks the three-term identities of
        # row 20 at s = 16, 17 and 18
        lambda s, w: w + 1 if s == 17 else w,
        # one weight negated: every diagonal norm still holds, the three-term
        # identities around s = 17 do not
        lambda s, w: -w if s == 17 else w,
        # the whole row doubled: every three-term identity is linear and still
        # holds, as does every off-diagonal sum; the diagonal norm of row 20
        # reads 4 T^2 P_20^2
        lambda s, w: 2 * w,
    ],
    ids=["plus-one", "negated", "row-doubled"],
)
def test_fault_injection_engine_reduced_rows(monkeypatch, capsys, corrupt):
    # row 20 of the column walk at T = 40 corrupted three ways: the
    # certificate, which reads no off-diagonal pair sum, must fail on each
    real = racah._principal_column

    def corrupted(s, T, steps, n_max):
        column = real(s, T, steps, n_max)
        if T == 40 and n_max >= 20:
            column[20] = corrupt(s, column[20])
        return column

    monkeypatch.setattr(racah, "_principal_column", corrupted)
    assert racah.orthogonality_profile(40) == (820, False)
    code, out, _ = run_cli(capsys, "verify-ortho", "--T", "40")
    assert code == 1
    assert json.loads(out)["ok"] is False


@pytest.mark.parametrize("n, s", [(0, 0), (0, 39), (39, 0), (39, 39), (20, 39)])
def test_fault_injection_ortho_table_entry(monkeypatch, capsys, n, s):
    # entry n of column s off by 1 at T = 40, on the edges, where
    # alpha_(-1) = alpha_(T-1) = 0 leave the fewest identities reading it;
    # the pair sums over the same columns fail as well
    real = racah._principal_column

    def corrupted(s_, T, steps, n_max):
        column = real(s_, T, steps, n_max)
        if (s_, T) == (s, 40) and n_max >= n:
            column[n] += 1
        return column

    monkeypatch.setattr(racah, "_principal_column", corrupted)
    assert orthogonality_pairs(40) == (820, False)
    code, out, _ = run_cli(capsys, "verify-ortho", "--T", "40")
    assert code == 1
    assert json.loads(out)["ok"] is False


@pytest.mark.parametrize("coefficient, s", [("alpha", 0), ("alpha", 7), ("beta", 9)])
def test_fault_injection_ortho_coefficient(monkeypatch, capsys, coefficient, s):
    # one step coefficient of the certificate off by 1 at T = 10 while the
    # table is right: the three-term identities that read it fail
    real = racah._difference_operator

    def corrupted(T):
        alpha, beta = map(list, real(T))
        if T == 10:
            {"alpha": alpha, "beta": beta}[coefficient][s] += 1
        return alpha, beta

    monkeypatch.setattr(racah, "_difference_operator", corrupted)
    code, out, _ = run_cli(capsys, "verify-ortho", "--Tmin", "9", "--Tmax", "11")
    assert code == 1
    assert [json.loads(line)["ok"] for line in out.splitlines()] == [True, False, True]


def test_fault_injection_operator_coefficient(monkeypatch, capsys):
    # beta_2 off by 1 at T = 6: the row walk steps with the operator the
    # orthogonality certificate checks, so the alternating rows, the closed
    # certificates at N = 4 and the certificate itself all fail on it
    real = racah._difference_operator

    def corrupted(T):
        alpha, beta = map(list, real(T))
        if T == 6:
            beta[2] += 1
        return alpha, beta

    monkeypatch.setattr(racah, "_difference_operator", corrupted)
    code, out, err = run_cli(capsys, "verify-needed", "--T", "6")
    assert (code, out) == (1, "")
    assert "FAILED" in err and "s=2 -> 3 at T=6, n=0" in err and "remainder" in err
    code, out, err = run_cli(capsys, "verify-grassmannian", "--Nmax", "4", "--method", "both")
    assert code == 1
    assert [json.loads(line)["N"] for line in out.splitlines()] == [1, 2, 2, 3, 3]
    assert "FAILED" in err and "T=6, n=4" in err
    code, out, _ = run_cli(capsys, "verify-ortho", "--T", "6")
    assert code == 1
    assert json.loads(out)["ok"] is False


def test_fault_injection_correction_op(monkeypatch, capsys):
    # one staircase weight off by 1 at N = 5, the weight of the top-row class
    # s(5, b) in L C(s(5, b)): the direct pipeline must disagree with the
    # closed form on exactly those rows.  The walk reads its staircases from
    # the box table, so the test runs on an empty table of its own: the
    # patched _staircase is reached whatever box the shared table holds,
    # and no corrupted table outlives the test.  The closed route reads only
    # the table's harmonic integers, which the patch leaves alone
    lefschetz.sigma_walk(lefschetz.SigmaInstance(5, 0))  # the shared table now holds box 5
    real = lefschetz._staircase

    def corrupted(N, b, h, column_sum):
        g = real(N, b, h, column_sum)
        if N == 5:
            g[0] += 1
        return g

    monkeypatch.setattr(lefschetz, "_staircase", corrupted)
    monkeypatch.setattr(
        lefschetz, "_box_table", functools.lru_cache(maxsize=1)(lefschetz._box_table.__wrapped__)
    )
    code, out, err = run_cli(capsys, "verify-grassmannian", "--Nmax", "6", "--method", "both")
    assert code == 1
    rows = [json.loads(line) for line in out.splitlines()]
    assert {r["N"] for r in rows if not r["agree"]} == {5}
    assert all(not r["agree"] for r in rows if r["N"] == 5)
    assert "FAILED" in err
    for k in range(3):
        assert lefschetz.sigma_verdict(lefschetz.SigmaInstance(5, k), "both")[1] is False
    code, _, _ = run_cli(capsys, "verify-grassmannian", "--Nmax", "6", "--method", "closed")
    assert code == 0


@pytest.mark.parametrize("method", ["direct", "both"])
def test_fault_injection_alpha_coefficient(monkeypatch, capsys, method):
    # the top coefficient of alpha at N = 6, k = 2 off by 1: the walk's last
    # power L^5 alpha is no longer 0, so the direct route stops at that
    # instance with exit 1, after the rows before it
    real = lefschetz._primitive_coefficients

    def corrupted(N, k):
        v = real(N, k)
        if (N, k) == (6, 2):
            v[-1] += 1
        return v

    monkeypatch.setattr(lefschetz, "_primitive_coefficients", corrupted)
    argv = ("verify-grassmannian", "--Nmax", "6", "--method", method)
    code, out, err = run_on_1_and_2_jobs(capsys, *argv)
    assert code == 1
    rows = [json.loads(line) for line in out.splitlines()]
    assert [(r["N"], r["k"]) for r in rows][-2:] == [(6, 0), (6, 1)]
    assert "FAILED" in err and "N=6, k=2 is not primitive: L^5 alpha is not 0" in err
    assert "Traceback" not in err
    code, _, _ = run_on_1_and_2_jobs(capsys, *argv[:-1], "closed")
    assert code == 0


def test_fault_injection_walk_at_k0(monkeypatch, capsys):
    # at k = 0 the last power L^(2N+1) alpha lies past the box, so a stray
    # term from the Pieri step into weight 3 is caught by the degree instead:
    # L^(2N) alpha must have C(2N, N) on s(N, N), and the stray s(2, 1)
    # adds one for each Pieri path on from there to s(N, N)
    args = ("verify-grassmannian", "--Nmax", "8", "--method", "direct", "--kset", "0")
    code, out, _ = run_on_1_and_2_jobs(capsys, *args)
    assert code == 0 and len(out.splitlines()) == 8
    real = lefschetz._pieri_step

    def corrupted(v, w, N):
        stepped = real(v, w, N)
        if w == 2:
            stepped[1] += 1
        return stepped

    monkeypatch.setattr(lefschetz, "_pieri_step", corrupted)
    for N, got, want in ((2, 7, 6), (4, 75, 70), (8, 13299, 12870)):
        code, out, err = run_on_1_and_2_jobs(capsys, *args, "--Nmin", str(N))
        assert (code, out) == (1, "")
        assert f"FAILED: the walk at N={N}, k=0 is corrupt: L^{2 * N} alpha has {got} " in err
        assert f"on s({N}, {N}), not C({2 * N}, {N}) = {want}" in err
        assert "Traceback" not in err


def test_fault_injection_proj_lower(monkeypatch, capsys):
    # lowering form_2 at n = 4 gains a stray hat_2: the commutator check
    # must fail for n = 4 and for no other n
    real = lefschetz._lower

    def corrupted(n, w, label):
        image = real(n, w, label)
        if n == 4 and label == ("form", 2):
            image[("hat", 2)] = image.get(("hat", 2), 0) + 1
        return image

    monkeypatch.setattr(lefschetz, "_lower", corrupted)
    code, out, err = run_cli(capsys, "verify-pn", "--nmax", "6")
    assert code == 1
    rows = [json.loads(line) for line in out.splitlines()]
    assert [r["n"] for r in rows if not r["commutator_ok"]] == [4]
    assert all(r["tau_positive"] for r in rows)
    assert "FAILED" in err


def test_table_racah_filters_match_full_table(capsys):
    def table(T, *filters):
        argv = ("table", "--kind", "racah", "--T", str(T), "--format", "csv")
        _, out, _ = run_cli(capsys, *argv, *map(str, filters))
        return out.splitlines()

    for T in range(3, 13):
        full = table(T)
        row = {tuple(map(int, line.split(",")[:3])): line for line in full[1:]}
        for n in (0, 1, T // 2, T - 1):
            for s in (0, 2, T - 1):
                assert table(T, "--n", n, "--s", s) == [full[0], row[(T, n, s)]]
            assert table(T, "--n", n)[1:] == [row[(T, n, s)] for s in range(T)]
        assert table(T, "--s", 1)[1:] == [row[(T, n, 1)] for n in range(T)]


# sha256 of stdout for commands whose every row carries exact values and
# their decimal renderings; any change to a printed byte shows here
STDOUT_PINS = [
    ("table --kind racah --T 40", "cbdb26c6e3913d0b6033b1b8aac1bc9ca6df45b45d63d1c6750ed09537ab9278"),
    ("table --kind racah --T 40 --format json", "7294c6263752a56f4b65ee5c27fc4d4fda41813e6c1960dfa7cbaa3dc83ff3bc"),
    ("verify-needed --T 100", "bfbaa6f6ed4f8148dc849036f033382fb7e515efed867db8bcb37afe62efc764"),
    ("verify-needed --T 60 --sequence random --seed 7", "cdde2ebb8e5f8f148ab99f9d0b05738d39222ef9e915af58f324cb727a364ad8"),
    ("verify-grassmannian --Nmax 20 --method both", "d030c84a453aa23043391a7d6c5e72be4b9fe2945717042fe55c819590c9de0f"),
    ("verify-pn --nmax 30", "b3f830cc0bcaac75ac7abd3486bc624a644cd6243a37ed02e7c41e2f354e105d"),
    ("sigma --N 60 --k 7", "8bddf8fa88ceed99158c18458f2288bd5b21332f67b0dea27511dfb34e7da6e5"),
    # taken from the walk over the whole half grid, before the scan left the
    # deepest points of each column to the orthogonality norm
    ("scan-bound --Tmin 3 --Tmax 120 --jobs 1", "bce88d8f095a3fece3c6eba1af0d985cd38cbb41a90c070c02ad62301511c90c"),
    # CSV cells: bools as true/false, branch tuples joined by ";", the null
    # seed as an empty cell
    ("verify-needed --T 100 --format csv", "0dc431b8b562bf499d4331429706d6734666f7df4fa1795c7b981e5b5c2ee632"),
    ("verify-ortho --Tmin 3 --Tmax 30 --format csv", "29c084454825070531698c288480c8ce0a19bb3ce9fdcaf60884833c6029cf6b"),
    ("verify-grassmannian --Nmax 12 --format csv", "a9ac3ab4b31b90b2a403aae13047afdfc87d73f0c25575e10964bb8bf6732b05"),
    ("verify-grassmannian --Nmax 16 --method direct", "1a5bea275082bbb155c4ecca9046a76e3fd41d384620dc544a977f94c9461a9b"),
    ("verify-grassmannian --Nmax 16 --method both --kset 0,3,5 --Nmin 4 --format csv", "87c10328a8cad50825046d65c5bc30791633a0aacb0d150d721aaac5b619e3b4"),
    ("table --kind sigma --Nmax 40", "00f25e1e057bc0185a60cea4b1788fd0f52a2d8ced6341627b37a40cf9949f92"),
]

# the entries over a range of keys, boxes N or T values, which the range
# pool deals to its processes
RANGE_PINS = [
    (argv, digest)
    for argv, digest in STDOUT_PINS
    if argv.startswith(("verify-grassmannian", "verify-ortho --Tmin", "table --kind sigma"))
]


@pytest.mark.parametrize("argv, digest", STDOUT_PINS, ids=[a for a, _ in STDOUT_PINS])
def test_stdout_pinned(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("jobs", ["1", "2", "3"])
@pytest.mark.parametrize("argv, digest", RANGE_PINS, ids=[a for a, _ in RANGE_PINS])
def test_range_pins_hold_on_any_worker_count(capsys, argv, digest, jobs):
    code, out, _ = run_cli(capsys, *argv.split(), "--jobs", jobs)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_jobs_flag_checked_before_output(capsys):
    cases = [
        ("verify-grassmannian", "--Nmax", "5", "--jobs", "0"),
        ("verify-ortho", "--Tmin", "3", "--Tmax", "9", "--jobs", "0"),
        ("verify-ortho", "--T", "5", "--jobs", "-1"),
        ("table", "--kind", "sigma", "--Nmax", "5", "--jobs", "0"),
        ("scan-bound", "--T", "5", "--jobs", "0"),
        # a racah table takes no --jobs: it is a stray flag there
        ("table", "--kind", "racah", "--T", "5", "--jobs", "2"),
    ]
    for argv in cases:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: "), argv
    assert err == "error: --kind racah takes no --jobs\n"


def test_closed_runs_build_no_staircase(monkeypatch, capsys):
    # the closed certificate reads L, h and their sum, never a staircase,
    # and the direct walk builds each box's staircases once.  The spy sees
    # this process alone, so every run pins --jobs 1
    built = []
    real = lefschetz._staircase

    def spy(N, b, h, column_sum):
        built.append((N, b))
        return real(N, b, h, column_sum)

    monkeypatch.setattr(lefschetz, "_staircase", spy)
    lefschetz._box_table.cache_clear()
    for argv in (
        ("verify-grassmannian", "--Nmax", "8", "--method", "closed"),
        ("table", "--kind", "sigma", "--Nmax", "8"),
    ):
        assert run_cli(capsys, *argv, "--jobs", "1")[0] == 0
    assert built == []
    argv = ("verify-grassmannian", "--Nmax", "8", "--method", "both", "--jobs", "1")
    assert run_cli(capsys, *argv)[0] == 0
    assert built == [(N, b) for N in range(1, 9) for b in range(N + 1)]


@pytest.mark.parametrize(
    "values, digest",
    [
        # a zero sum: no row is "cauchy", and 0 < 0 fails on every row; the
        # sequence is not increasing, so no row is "closed-form" either and
        # every row reads covered: false
        ("0\n0\n0\n0\n", "590fbaf23c0f8a85b9f423a51370976ac0a747843204bbcd10625f81c9364113"),
        # mixed signs: a negative right side, not concave, no row labelled
        ("1\n-1\n2\n-3\n", "51dcfe2abadc8a23df290a79b7c7069802a247574779870497791d9564df5029"),
    ],
    ids=["zero-sum", "mixed-sign"],
)
def test_verify_needed_edge_sequences_pinned(tmp_path, monkeypatch, capsys, values, digest):
    # the file is named relative to the working directory, since the
    # sequence column prints the name as given
    monkeypatch.chdir(tmp_path)
    Path("seq.txt").write_text(values)
    code, out, err = run_cli(capsys, "verify-needed", "--T", "5", "--sequence", "seq.txt")
    assert code == 1 and "FAILED" in err and "exploratory" in err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_emit_table_empty_rows_gives_header_only():
    buf = io.StringIO()
    emit_table([], ["a", "b"], "csv", buf)
    assert buf.getvalue() == "a,b\n"
    buf = io.StringIO()
    emit_table([], ["a", "b"], "json", buf)
    assert buf.getvalue() == ""


def test_emit_table_cell_rendering():
    buf = io.StringIO()
    rows = [("1/3", True, ("p", "q"), None, 7), ("-2", False, (), None, -1)]
    columns = ["x", "flag", "tags", "gap", "k"]
    emit_table(rows, columns, "csv", buf)
    assert buf.getvalue().splitlines()[1:] == ["1/3,true,p;q,,7", "-2,false,,,-1"]
    buf = io.StringIO()
    emit_table(rows, columns, "json", buf)
    assert [json.loads(line) for line in buf.getvalue().splitlines()] == [
        {"x": "1/3", "flag": True, "tags": ["p", "q"], "gap": None, "k": 7},
        {"x": "-2", "flag": False, "tags": [], "gap": None, "k": -1},
    ]


def test_load_sequence_blank_lines_ok(tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text("\n1\n\n 3/2 \n")
    assert load_sequence(str(path)) == (Fraction(1), Fraction(3, 2))
    empty = tmp_path / "empty.txt"
    empty.write_text("\n\n")
    with pytest.raises(UsageError):
        load_sequence(str(empty))
    with pytest.raises(UsageError):
        load_sequence(str(tmp_path / "missing.txt"))


def test_module_entry_point_runs():
    # the child imports the same package tree as this test run, installed or not
    src = str(Path(grasshodge.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "grasshodge", "sigma", "--N", "2", "--k", "1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["sigma"] == "3"


def test_start_up_imports_no_process_pool():
    # the scan forks its workers itself, so no command pays for importing
    # a pool (and logging, sockets, subprocess with it) at start-up
    src = str(Path(grasshodge.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys, grasshodge, grasshodge.cli; "
        "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_default_jobs_counts_the_cpus_this_process_may_run_on(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert racah.default_jobs() == 3
    assert cli.build_parser().parse_args(["scan-bound", "--T", "5"]).jobs == 3
    # bound_scan(jobs=None) reads the same count: one CPU, so no fork
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked with one CPU allowed"))
    assert racah.bound_scan(3, 8).ok
    monkeypatch.delattr(os, "sched_getaffinity")
    assert racah.default_jobs() == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert racah.default_jobs() == 1


def test_parser_owns_the_defaults(capsys):
    code, out, _ = run_cli(capsys, "sigma", "--N", "6", "--k", "1")
    assert code == 0 and json.loads(out)["method"] == "both"
    code, out, _ = run_cli(capsys, "table", "--kind", "sigma", "--Nmax", "2")
    assert code == 0 and out.splitlines()[0] == "N,k,n,T,sigma,sigma_approx,positive"
    code, out, _ = run_cli(capsys, "verify-grassmannian", "--Nmax", "2")
    rows = [json.loads(line) for line in out.splitlines()]
    assert code == 0 and len(rows) == 3
    assert all(row["method"] == "closed" for row in rows)
