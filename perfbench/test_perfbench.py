"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q      (from the checkout root)
"""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workload  # noqa: E402

import grasshodge.chowring  # noqa: E402
import grasshodge.cli  # noqa: E402
from grasshodge import lefschetz, racah  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workload.WORKLOADS)
def test_tiny_run_passes(name, trace):
    proc = bench("--workload", name, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0 and summary["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    assert set(summary["metrics"]) == {m["name"] for m in SPEC[kind]}


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_long_runs_are_not_cut_by_a_deadline(monkeypatch, capsys, tmp_path):
    """The run count follows --seconds; no total deadline cuts a long run."""
    clock = [0.0]
    timeouts = []

    def fake_run_once(name, seed, size, rep, trace, timeout):
        timeouts.append(timeout)
        clock[0] += 10.0
        return run.scaled({"wall_s": 1.0, "setup_s": 0.1, "cpu_s": 1.0, "peak_rss_mb": 20.0,
                           "probe_s": [0.2, 0.8], "attempted": 1, "failed": 0,
                           "failures": [], "work": {}})

    monkeypatch.setattr(run.time, "monotonic", lambda: clock[0])
    monkeypatch.setattr(run, "run_once", fake_run_once)
    monkeypatch.setattr(run, "RUN_DIR", tmp_path)
    assert run.main(["--workload", "scan", "--seed", "1", "--seconds", "300"]) == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["correct"] is True and summary["failed"] == 0
    assert summary["attempted"] == len(timeouts) == 30
    assert min(timeouts) >= run.FIRST_TIMEOUT_S
    # times are scaled by the reference over the geometric mean of the probes
    assert summary["metrics"]["wall_s"]["value"] == pytest.approx(run.PROBE_REF_S / 0.4)
    assert summary["metrics"]["peak_rss_mb"]["value"] == 20.0
    assert run.run_timeout(30.0) == run.HANG_FACTOR * 30.0


def _outputs(name, tmp_path):
    ops, _ = workload.build_ops(name, 5, "tiny", tmp_path)
    return [(op, *measure.run_op(op, grasshodge)) for op in ops]


def _check(op, rc, out, result):
    return checks.check_op(op, rc, out, result, checks.load_pins(), random.Random(0))


@pytest.mark.parametrize("name", workload.WORKLOADS)
def test_real_outputs_pass_and_corrupted_pinned_outputs_fail(name, tmp_path):
    for op, rc, out, result in _outputs(name, tmp_path):
        assert _check(op, rc, out, result) is None, op.label
        assert _check(op, 1, out, result) is not None
        if op.pinned and op.argv:
            i = len(out) // 2
            corrupted = out[:i] + ("0" if out[i] != "0" else "1") + out[i + 1 :]
            assert _check(op, rc, corrupted, result) is not None, op.label


def test_corrupted_seeded_outputs_fail(tmp_path):
    seeded = [o for o in _outputs("tables", tmp_path) if o[0].sequence is not None]
    assert seeded
    for op, rc, out, result in seeded:
        flipped = out.replace('"holds": true', '"holds": false', 1)
        assert _check(op, rc, flipped, result) is not None
        # a wrong lhs on every row is caught by the oracle, whichever n it samples
        shifted = re.sub(r'"lhs": "(-?\d+)', lambda m: f'"lhs": "{int(m[1]) + 1}', out)
        assert _check(op, rc, shifted, result) is not None
        assert _check(op, rc, out[: len(out) // 2], result) is not None


def test_wrong_primitive_profile_fails():
    profile = grasshodge.chowring.primitive_profile(5)
    assert checks.check_primitive_profile(5, profile) is None
    wrong = grasshodge.chowring.PrimitiveProfile(5, (1, 1, 1, 0, 1, 0), True)
    assert checks.check_primitive_profile(5, wrong) is not None


def test_oracle_matches_closed_forms_and_the_library():
    for T in (3, 7, 11):
        for s in range(T):
            top = Fraction(1)
            for j in range(1, s + 1):
                top *= Fraction(j - T, j + T)
            assert checks.racah_oracle(T - 1, s, T) == top
            assert checks.racah_oracle(0, s, T) == 1
            for n in range(T):
                assert checks.racah_oracle(n, s, T) == racah.racah_eval(n, s, T)
    assert checks.decimal_12(Fraction(-1, 3)) == "-0.333333333333"


def test_missing_name_gives_zero_calls():
    original = racah.orthogonality_profile
    targets = spans.TARGETS + [("racah", "_no_such_table", "span"), ("nomodule", "f", "count")]
    tracer = spans.Tracer(targets=targets)
    with tracer:
        assert racah.orthogonality_profile is not original
        racah.orthogonality_profile(5)
    assert racah.orthogonality_profile is original
    assert tracer.missing == ["racah._no_such_table", "nomodule.f"]
    layers = measure.layer_metrics(tracer, "tables", workload.SIZES["tiny"],
                                   workload.SCAN_JOBS, [], {})
    assert layers["racah._no_such_table.calls"] == 0
    assert layers["racah._no_such_table.s"] == 0.0
    assert layers["racah.orthogonality_profile.calls"] == 1


def test_spans_reach_imported_names_and_split_self_time():
    inst = lefschetz.SigmaInstance(6, 1)
    with spans.Tracer() as tracer:
        lefschetz.sigma_direct(inst)
    summary = tracer.summary()
    assert summary["chowring.lefschetz_power"]["calls"] == 2 * (inst.n + 1)
    assert summary["lefschetz.correction_op"]["calls"] == inst.n + 1
    direct = summary["lefschetz.sigma_direct"]
    assert 0.0 < direct["self_s"] < direct["s"]
    assert tracer.time_by_key("lefschetz.sigma_direct").keys() == {6}
    assert lefschetz.lefschetz_power is grasshodge.chowring.lefschetz_power
