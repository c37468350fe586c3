"""Freeze the reference outputs that run.py checks against.

    python3 perfbench/freeze.py

Runs each job of the three workloads once, untraced, and writes
reference.json: Re_E, a_crit and the converged flag per sweep point, Re_a
at every a of each curve, and m plus every check's pass flag per verify
point.  The reference is frozen once from a trusted commit; regenerating
it from a commit under test would make the correctness checks vacuous.
"""

import json
import shutil
import sys

import run


def main():
    shutil.rmtree(run.WORK, ignore_errors=True)
    run.WORK.mkdir()
    reference = {}
    for workload in ("sweep", "curve", "verify"):
        for j, job in enumerate(run.jobs_for(workload, seed=0)):
            if job.kind == "negative":
                continue
            r = run.run_child(job.args, f"freeze-{workload}-{j}")
            if r.code != 0:
                sys.exit(f"freeze.py: {job.args} exited with {r.code}:\n{r.stderr}")
            got = run.parse(job.kind, r.stdout)
            reference.setdefault(job.kind, {}).update(
                {k: got[k] for k in job.keys})
    run.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n",
                             encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
