"""One benchmark job in its own process, optionally traced.

    python3 perfbench/child.py [--trace SPANS.json] cli MHDES_ARGS...
    python3 perfbench/child.py [--trace SPANS.json] curve SPEC_JSON
    python3 perfbench/child.py setup SPEC_JSON

``cli`` runs the mhdes command line as the ``mhdes`` script does.
``curve`` is a library user's driver: it calls ``mhdes.reynolds_curve``
for each parameter point of the spec and prints the curves as JSON.
``setup`` times build_operator + clamped_restrict + profile_for, the
setup every parameter point pays before its first solve, and reports the
machine.  With --trace the spans recorded by ``spans.install`` are
written to SPANS.json when the job ends.  mhdes is imported from the
``src`` directory of the checkout that holds this file.
"""

import json
import os
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spans  # noqa: E402


def run_cli(args):
    from mhdes import cli
    return cli.main(args)


def run_curve(args):
    import numpy as np

    import mhdes
    spec = json.loads(args[0])
    grid = np.geomspace(spec["a_min"], spec["a_max"], spec["a_points"])
    curves = []
    for flow, Ha in spec["points"]:
        params = mhdes.Params(flow=flow, Ha=Ha, Pm=spec["Pm"])
        rows = mhdes.reynolds_curve(params, grid, N=spec["N"])
        curves.append({"flow": flow, "Ha": Ha,
                       "rows": [[a, re] for a, re in rows]})
    print(json.dumps({"curves": curves}))
    return 0


def machine():
    """Cores, CPU model, BLAS, library versions and thread settings."""
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    affinity = (sorted(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else None)
    return {"nproc": os.cpu_count(), "affinity": affinity,
            "cpu_model": cpu_model, "blas": blas,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "env": {k: os.environ.get(k) for k in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MHDES_THREADS")}}


def run_setup(args):
    import mhdes
    spec = json.loads(args[0])
    points = spec["points"]
    times = []
    for i in range(spec["reps"]):
        flow, Ha = points[i % len(points)]
        params = mhdes.Params(flow=flow, Ha=Ha, Pm=spec["Pm"])
        t0 = time.perf_counter()
        op = mhdes.build_operator(spec["N"])
        mhdes.clamped_restrict(op)
        mhdes.profile_for(params, op.nodes)
        times.append(time.perf_counter() - t0)
    print(json.dumps({"times": times, "source": mhdes.__file__,
                      "machine": machine()}))
    return 0


MODES = {"cli": run_cli, "curve": run_curve, "setup": run_setup}


def main(argv):
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    if not argv or argv[0] not in MODES:
        print(f"usage: child.py [--trace PATH] {{{','.join(MODES)}}} ARGS...",
              file=sys.stderr)
        return 2
    recorder = None
    if trace_path is not None:
        recorder = spans.Recorder()
        spans.install(recorder)
    try:
        return MODES[argv[0]](argv[1:])
    finally:
        if recorder is not None:
            Path(trace_path).write_text(json.dumps(recorder.spans),
                                        encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
