"""Record the correctness oracle: perfbench/expected.json.

    python3 perfbench/record.py

Run from the repository root at the commit whose outputs are the
reference.  Every entry of every pool runs once, untraced, in one fresh
worker per workload; its exit code and the sha256 of its CLI stdout (or
of the library call's canonical JSON value) are stored with its time, so
that pool costs can be compared.  Recording refuses to write an oracle
in which any job fails its closed-form or certificate check.
"""

from __future__ import annotations

import json
import os
import sys

from run import EXPECTED, closed_form_problems, spawn
from workloads import WORKLOADS, all_jobs


def main() -> int:
    root = os.getcwd()
    expected = {}
    bad = []
    for workload in WORKLOADS:
        jobs = all_jobs(workload)
        to_worker = [{k: v for k, v in j.items() if k != "check"} for j in jobs]
        report = spawn(root, to_worker, False, False, timeout=1800.0)
        for job, res in zip(jobs, report["results"]):
            why = closed_form_problems(job.get("check", {}), res["facts"])
            if res["rc"] != 0 or res["sha256"] is None or res["cert_ok"] is False:
                why.append(f"exit {res['rc']!r}, certificate {res['cert_ok']}")
            if why:
                bad.append(f"{job['id']}: {'; '.join(why)}")
            expected[job["id"]] = {"rc": res["rc"], "sha256": res["sha256"],
                                   "s": round(res["s"], 3)}
            print(f"{res['s']:8.3f} s  {job['id']:40s} "
                  f"{' '.join(job.get('argv') or [job.get('call'), *map(str, job['args'])])}")
    if bad:
        print("\n".join(bad), file=sys.stderr)
        return 1
    with open(EXPECTED, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
