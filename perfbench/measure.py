"""What a workload run needs once its set-up is timed: running and timing
the operations, probing the host's speed, and the per-layer figures of a
traced run.

workload.py imports this module only after it has taken its set-up time, so
that setup_s holds the interpreter start, the grasshodge import and the
input generation, and none of the benchmark's own measuring and checking.
"""

from __future__ import annotations

import contextlib
import io
import math
import resource
import statistics
import time
import traceback
from concurrent.futures import ProcessPoolExecutor

from checks import racah_oracle

# Seconds probe_seconds() takes on the 2-vCPU shared virtual machine the
# benchmark was set on, in a quiet phase of its host.  run.py scales every
# time metric of a process by PROBE_REF_S over the probe time measured around
# that process's operations, so times read as seconds at that reference speed.
PROBE_REF_S = 0.2


def run_op(op, grasshodge) -> tuple[int, str, object]:
    """Exit code, captured stdout and (for a library call) the result."""
    out, err = io.StringIO(), io.StringIO()
    result = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if op.call is not None:
                name, arg = op.call
                result = getattr(grasshodge.chowring, name)(arg)
                rc = 0
            else:
                rc = grasshodge.cli.main(list(op.argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an operation that raises counts as failed
            traceback.print_exc()
            rc = -1
    return rc, out.getvalue(), result


def _probe_kernel(_=None) -> float:
    start = time.perf_counter()
    for T in (30, 40, 50, 60, 70):
        for n in range(0, T, 2):
            for s in range(0, T, 3):
                racah_oracle(n, s, T)
    return time.perf_counter() - start


def probe_seconds(jobs: int = 1) -> float:
    """Time of a fixed exact-arithmetic kernel: the host-speed probe.

    It is the benchmark's own code (the 4F3 oracle over a fixed grid), so no
    change to grasshodge moves it; only the host's speed does.  Fraction
    arithmetic on small integers is the instruction mix of the workloads,
    which is why it tracks their slow phases where a generic loop does not.
    With jobs > 1 the kernel runs in that many processes at once, as the
    scan's pool does, and the mean of their times is returned.
    """
    if jobs == 1:
        return _probe_kernel()
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return statistics.fmean(pool.map(_probe_kernel, range(jobs)))


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def log_log_slope(points: dict) -> float:
    """Least-squares slope of log(y) over log(x); 0 with under two points."""
    pts = [(math.log(x), math.log(y)) for x, y in points.items() if x > 0 and y > 0]
    if len(pts) < 2:
        return 0.0
    mx = statistics.fmean(p[0] for p in pts)
    my = statistics.fmean(p[1] for p in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx if sxx else 0.0


def _upper_half(lo: int, hi: int) -> range:
    return range((lo + hi + 1) // 2, hi + 1)


def layer_metrics(tracer, workload: str, sizes: dict, jobs: int, op_seconds, serial) -> dict:
    """Per-layer figures from the spans; every traced name appears, 0 if idle.

    sizes is the workload's entry of workload.SIZES and jobs the scan's
    worker count.
    """
    summary = tracer.summary()
    out = {}
    for mod, attr, _how in tracer.targets:
        rec = summary.get(f"{mod}.{attr}", {"calls": 0, "s": 0.0, "self_s": 0.0})
        out[f"{mod}.{attr}.calls"] = rec["calls"]
        out[f"{mod}.{attr}.s"] = rec["s"]
        out[f"{mod}.{attr}.self_s"] = rec["self_s"]
    out["cli.op.median_s"] = statistics.median(op_seconds) if op_seconds else 0.0
    out["cli.op.max_s"] = max(op_seconds, default=0.0)
    per_N = {}
    if workload == "certify":
        per_N = {
            N: t
            for N, t in tracer.time_by_key("lefschetz.sigma_direct").items()
            if N in _upper_half(1, sizes["Nmax"])
        }
    out["lefschetz.direct_cost_exponent"] = log_log_slope(per_N)
    serial_total = sum(serial.values(), 0.0)
    pooled = out["racah.bound_scan.s"]
    upper = {T: t for T, t in serial.items() if T in _upper_half(3, sizes["scan_Tmax"])}
    out["racah.scan_serial_s"] = serial_total
    out["racah.scan_T_max_s"] = max(serial.values(), default=0.0)
    out["racah.scan_pool_efficiency"] = serial_total / (jobs * pooled) if pooled else 0.0
    out["racah.scan_cost_exponent"] = log_log_slope(upper)
    return out


def serial_scan_pass(racah, t_hi: int) -> tuple[dict, list[str]]:
    """Seconds of bound_scan(T, T, jobs=1) per T, and any failed T."""
    times, failures = {}, []
    for T in range(3, t_hi + 1):
        start = time.perf_counter()
        report = racah.bound_scan(T, T, jobs=1)
        times[T] = time.perf_counter() - start
        if not report.ok or report.rows_checked != T:
            failures.append(f"serial scan at T={T} failed")
    return times, failures
