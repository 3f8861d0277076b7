"""One pass of a workload in a fresh interpreter, for its peak resident memory.

Usage: python3 perfbench/probe.py WORKLOAD SEED

Prints one JSON line: the exit code and output digest of every job, and the
process's peak resident set size in MB. Outputs are hashed and dropped as the
jobs finish, so the peak is the library's own.
"""

from __future__ import annotations

import json
import resource
import sys

from harness import digest, load_cli, pin_threads, run_job

pin_threads()


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    cli = load_cli()
    from workloads import make_jobs

    results = []
    for job in make_jobs(workload, seed):
        _, rc, text = run_job(cli.main, job.argv)
        results.append([job.key, rc, digest(text)])
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"jobs": results, "peak_rss_mb": peak_mb}))


if __name__ == "__main__":
    main()
