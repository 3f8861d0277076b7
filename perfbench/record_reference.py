"""Record the reference numbers that later runs are checked against.

Usage: python3 perfbench/record_reference.py

Runs every job the pooled workloads can draw (``workloads.reference_pool``)
once and writes the numbers ``checks.summary`` keeps for each output to
``perfbench/reference.json``. Run it only at a commit whose outputs are
trusted: the checks then hold every later commit to these values within
``checks.TOL_REFERENCE``.
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys

from harness import ROOT, load_cli, pin_threads, run_job

pin_threads()

from checks import TOL_REFERENCE, summary  # noqa: E402
from workloads import reference_pool  # noqa: E402


def main() -> None:
    cli = load_cli()
    import numpy

    jobs = {}
    for job in reference_pool():
        _, rc, text = run_job(cli.main, job.argv)
        if rc != 0:
            sys.exit(f"record_reference: {job.key} exited {rc}")
        jobs[job.key] = summary(text)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True).stdout.strip()
    payload = {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "tolerance": TOL_REFERENCE,
        "jobs": jobs,
    }
    (ROOT / "perfbench" / "reference.json").write_text(json.dumps(payload, indent=0) + "\n")
    print(f"recorded {len(jobs)} jobs")


if __name__ == "__main__":
    main()
