"""Benchmark of mhdes on three workloads: sweep, curve and verify.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

A workload is a fixed list of jobs, each one child process (see child.py)
started from this process one at a time: a closed loop with one client.
A run first times the per-point setup in a probe child, then repeats
passes over the jobs until --seconds have elapsed (at least one pass) and
checks every output against reference.json.  It prints one JSON line of
details (machine, passes, failures) and then the result line.

With --trace 0 the result holds the end-to-end metrics of BENCHMARK.json.
With --trace 1 untraced and traced passes alternate, and the result holds
the per-layer metrics of the traced passes, computed from spans recorded
around the public functions of each layer (spans.py); the tracing
overhead is the traced minus the untraced pass time.

The harness itself uses only the standard library.
"""

import argparse
import csv
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "mhdes"
WORK = ROOT / ".bench_work"
REFERENCE = HERE / "reference.json"

FLOWS = ("couette", "hartmann")
HA_LIST = ("0.1", "1", "10", "50")
PM = 0.1
CLI_N = 60
SWEEP_WINDOW = ("0.2", "30")
CURVE = {"N": 80, "Pm": PM, "a_min": 0.5, "a_max": 12.0, "a_points": 32,
         "points": [["couette", 1e-6], ["couette", 10.0], ["hartmann", 50.0]]}
# An understated claim: the solved eigenvector itself must falsify it.
NEGATIVE_PERTURB = -1e-3

RE_E_RTOL = 1e-7        # loose enough for a later Newton or secant minimizer
A_CRIT_ATOL = 1e-3
FIXED_A_RTOL = 1e-8     # the anchor tolerance of the solver tests
HYDRO_KEY = "couette:1e-06"
HYDRO_RE_E = 44.3       # classical vanishing-coupling threshold
HYDRO_RTOL = 0.01

SETUP_REPS = 20          # per probe; one probe before and one after the passes
CHILD_TIMEOUT_S = 150
PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)


@dataclass(frozen=True)
class Job:
    """One child process: its kind (how to parse and check the output),
    the child.py arguments, and the reference keys of its points."""

    kind: str
    args: tuple
    keys: tuple


def point_key(flow, Ha):
    return f"{flow}:{float(Ha):g}"


def _cli_keys(flow):
    return tuple(point_key(flow, h) for h in HA_LIST)


def jobs_for(workload, seed):
    if workload == "sweep":
        return [Job("neutral", ("cli", "neutral", "--flow", f, "--ha", *HA_LIST,
                                "--pm", str(PM), "--a-min", SWEEP_WINDOW[0],
                                "--a-max", SWEEP_WINDOW[1], "--n", str(CLI_N)),
                    _cli_keys(f)) for f in FLOWS]
    if workload == "curve":
        return [Job("curve", ("curve", json.dumps(CURVE)),
                    tuple(point_key(f, h) for f, h in CURVE["points"]))]
    verify = [Job("verify", ("cli", "verify", "--flow", f, "--ha", *HA_LIST,
                             "--pm", str(PM), "--n", str(CLI_N),
                             "--seed", str(seed)), _cli_keys(f))
              for f in FLOWS]
    negative = Job("negative", ("cli", "verify", "--flow", "couette", "--ha",
                                "1", "--pm", str(PM), "--n", str(CLI_N),
                                "--seed", str(seed),
                                f"--perturb-m-rel={NEGATIVE_PERTURB}"),
                   (point_key("couette", 1),))
    return verify + [negative]


def setup_spec(workload):
    """The workload's parameter points at its N, for the setup probe."""
    if workload == "curve":
        points, N = CURVE["points"], CURVE["N"]
    else:
        points, N = [[f, float(h)] for f in FLOWS for h in HA_LIST], CLI_N
    return {"N": N, "Pm": PM, "points": points, "reps": SETUP_REPS}


# ---------------------------------------------------------------------------
# Parsing and checking outputs
# ---------------------------------------------------------------------------

def parse(kind, text):
    """Point key -> the values the reference freezes for that point."""
    if kind == "neutral":
        return {point_key(r["flow"], r["Ha"]): {
            "a_crit": float(r["a_crit"]), "Re_E": float(r["Re_E"]),
            "converged": r["converged"] == "true"}
            for r in csv.DictReader(io.StringIO(text))}
    if kind == "curve":
        return {point_key(c["flow"], c["Ha"]): c["rows"]
                for c in json.loads(text)["curves"]}
    report = json.loads(text)
    return {point_key(report["flow"], p["Ha"]): {
        "a": p["a"], "m": p["m"],
        "checks": {k: v["passed"] for k, v in p["checks"].items()}}
        for p in report["points"]}


def _rel(x, ref):
    return abs(x - ref) / abs(ref)


def _neutral_failure(have, want):
    if math.isnan(have["Re_E"]):
        return "Re_E is NaN"
    if want["converged"] and not have["converged"]:
        return "unconverged where the reference converged"
    if _rel(have["Re_E"], want["Re_E"]) > RE_E_RTOL:
        return f"Re_E {have['Re_E']!r} != {want['Re_E']!r}"
    if abs(have["a_crit"] - want["a_crit"]) > A_CRIT_ATOL:
        return f"a_crit {have['a_crit']!r} != {want['a_crit']!r}"
    return None


def _curve_failures(key, have, want):
    """One entry per failed (a, Re_a) point of one curve."""
    if len(have) != len(want):
        return [f"{key}: {len(have)} rows, expected {len(want)}"] * len(want)
    bad = {}
    for i, ((a, re), (a_ref, re_ref)) in enumerate(zip(have, want)):
        if _rel(a, a_ref) > 1e-12:
            bad[i] = f"{key}[{i}]: a {a!r} != {a_ref!r}"
        elif math.isnan(re) or _rel(re, re_ref) > FIXED_A_RTOL:
            bad[i] = f"{key}[{i}]: Re_a {re!r} != {re_ref!r}"
    if key == HYDRO_KEY:
        res = [re for _, re in have]
        i = min(range(len(res)), key=lambda j: res[j])
        if not _rel(res[i], HYDRO_RE_E) <= HYDRO_RTOL:
            bad.setdefault(i, f"{key}: minimum {res[i]!r} not within "
                              f"{HYDRO_RTOL:.0%} of {HYDRO_RE_E}")
    return list(bad.values())


def _verify_failure(have, want):
    if math.isnan(have["m"]) or _rel(have["m"], want["m"]) > FIXED_A_RTOL:
        return f"m {have['m']!r} != {want['m']!r}"
    failed = sorted(k for k, ok in have["checks"].items() if not ok)
    if failed:
        return f"checks failed: {failed}"
    if set(have["checks"]) != set(want["checks"]):
        return f"checks {sorted(have['checks'])} != {sorted(want['checks'])}"
    return None


def check(job, code, text, reference):
    """(points attempted, one reason per failed point) for one job."""
    if job.kind == "negative":
        try:
            checks = parse("verify", text)[job.keys[0]]["checks"]
        except (ValueError, KeyError, TypeError):
            checks = {}
        if code == 4 and checks.get("random_trial_bound") is False:
            return 1, []
        return 1, [f"negative control not rejected (exit {code}, "
                   f"checks {checks})"]
    ref = reference[job.kind]
    n = sum(len(ref[k]) for k in job.keys) if job.kind == "curve" else len(job.keys)
    if code != 0:
        return n, [f"{job.kind} exited with {code}"] * n
    try:
        got = parse(job.kind, text)
    except (ValueError, KeyError, TypeError) as exc:
        return n, [f"{job.kind} output unreadable: {exc!r}"] * n
    failures = []
    for key in job.keys:
        want, have = ref[key], got.get(key)
        if job.kind == "curve":
            failures += (_curve_failures(key, have, want) if have is not None
                         else [f"{key}: missing"] * len(want))
            continue
        if have is None:
            reason = "missing"
        elif job.kind == "neutral":
            reason = _neutral_failure(have, want)
        else:
            reason = _verify_failure(have, want)
        if reason:
            failures.append(f"{key}: {reason}")
    return n, failures


# ---------------------------------------------------------------------------
# Running children
# ---------------------------------------------------------------------------

@dataclass
class ChildRun:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str


def run_child(args, tag, trace_path=None):
    """Run child.py to completion; wall time, CPU and peak RSS from wait4."""
    cmd = [sys.executable, str(HERE / "child.py")]
    if trace_path is not None:
        cmd += ["--trace", str(trace_path)]
    cmd += list(args)
    out_path, err_path = WORK / f"{tag}.out", WORK / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0,
                    out_path.read_text(encoding="utf-8", errors="replace"),
                    err_path.read_text(encoding="utf-8", errors="replace"))


@dataclass
class PassResult:
    traced: bool
    wall_s: float
    cpu_s: float
    rss_mb: float
    attempted: int
    failures: list
    stderr: list
    span_sets: list


def run_pass(jobs, reference, index, traced):
    wall = cpu = rss = 0.0
    attempted, failures, stderr, span_sets = 0, [], [], []
    for j, job in enumerate(jobs):
        tag = f"pass{index}-job{j}"
        trace_path = WORK / f"{tag}.spans.json" if traced else None
        r = run_child(job.args, tag, trace_path)
        wall += r.wall_s
        cpu += r.cpu_s
        rss = max(rss, r.rss_mb)
        n, fails = check(job, r.code, r.stdout, reference)
        attempted += n
        failures += fails
        if fails and r.stderr.strip():
            stderr.append(f"{tag}: {r.stderr.strip()[-400:]}")
        if traced:
            span_sets.append(json.loads(trace_path.read_text(encoding="utf-8"))
                             if trace_path.exists() else [])
    return PassResult(traced, wall, cpu, rss, attempted, failures, stderr,
                      span_sets)


def probe_setup(workload, tag):
    """Setup times and machine description from one probe child."""
    r = run_child(("setup", json.dumps(setup_spec(workload))), tag)
    if r.code != 0:
        raise SystemExit(f"run.py: setup probe failed (exit {r.code}):\n"
                         f"{r.stderr.strip()[-2000:]}")
    probe = json.loads(r.stdout)
    if Path(probe["source"]).resolve().parent != SRC.resolve():
        raise SystemExit(f"run.py: imported mhdes from {probe['source']}, "
                         f"not from {SRC}")
    return probe["times"], probe["machine"]


# ---------------------------------------------------------------------------
# Statistics and metrics
# ---------------------------------------------------------------------------

def tail_percentile(samples):
    """(p, value) for the highest p in PERCENTILES with at least ten
    samples above its nearest-rank value, or None below twenty samples."""
    xs = sorted(samples)
    n = len(xs)
    for p in reversed(PERCENTILES):
        k = math.ceil(n * p / 100.0)
        if k >= 1 and n - k >= 10:
            return p, xs[k - 1]
    return None


def summary(samples):
    tail = tail_percentile(samples)
    out = {"n": len(samples), "median": statistics.median(samples)}
    if tail is not None:
        out[f"p{tail[0]:g}"] = tail[1]
    return out


def end_to_end(passes, setup_times):
    """Rates over all untraced passes together, so that slow and fast
    stretches of a run average out; setup is the median of all probes."""
    untraced = [p for p in passes if not p.traced]
    points = sum(p.attempted for p in untraced)
    return {
        "points_per_s": points / sum(p.wall_s for p in untraced),
        "setup_s": statistics.median(setup_times),
        "cpu_per_point_s": sum(p.cpu_s for p in untraced) / points,
        "peak_rss_mb": max(p.rss_mb for p in untraced),
    }


def per_layer(passes):
    traced = [p for p in passes if p.traced]
    per_pass = [spans.layer_metrics(p.span_sets) for p in traced]
    out = {k: statistics.fmean(m[k] for m in per_pass) for k in per_pass[0]}
    out["trace.overhead_s"] = (
        statistics.median(p.wall_s for p in traced)
        - statistics.median(p.wall_s for p in passes if not p.traced))
    return out


def solve_latency(passes):
    durations = [s["end"] - s["start"] for p in passes if p.traced
                 for process in p.span_sets for s in process
                 if s["name"] == "orr_evp.solve_max_m"]
    return summary(durations) if durations else None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("sweep", "curve", "verify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    if not (SRC / "__init__.py").is_file():
        raise SystemExit(f"run.py: no mhdes source at {SRC}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()

    setup_times, machine = probe_setup(args.workload, "setup-before")
    jobs = jobs_for(args.workload, args.seed)
    modes = (False, True) if args.trace else (False,)
    passes = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for traced in modes:
            passes.append(run_pass(jobs, reference, len(passes), traced))
        # start another round only if it should end within --seconds
        now = time.perf_counter()
        if (now - start) + (now - round_start) > args.seconds:
            break
    setup_times += probe_setup(args.workload, "setup-after")[0]

    if args.trace:
        values, declared = per_layer(passes), bench["per_layer"]
    else:
        values, declared = end_to_end(passes, setup_times), bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    details = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "machine": machine,
        "setup_s": summary(setup_times),
        "passes": [{"traced": p.traced, "wall_s": p.wall_s, "cpu_s": p.cpu_s,
                    "rss_mb": p.rss_mb, "points": p.attempted,
                    "failed": len(p.failures)} for p in passes],
        "solve_max_m_latency_s": solve_latency(passes),
        "failures": failures[:20],
        "stderr": [e for p in passes for e in p.stderr][:5],
    }
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
