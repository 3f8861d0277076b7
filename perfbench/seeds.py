"""Run two sets of the benchmark over several seeds and compare them with the bounds.

Usage:
    python3 perfbench/seeds.py --workloads obs_scan,closed_form --seeds 1-10 \
        [--out perfbench/out/seeds.json]

Each run is ``run.py --workload W --seed N --seconds <run_seconds> --trace 0``,
with ``run_seconds`` taken from ``BENCHMARK.json``. The two sets use the same
seeds and alternate, one run of each per seed, so that both see the machine
in the same state. For every workload and end-to-end metric it prints each
set's median and spread, the distance between the quartiles (Python's
``statistics.quantiles(values, n=4)``) as a share of the median, and the
shift of the second median from the first in the metric's worse direction.
A metric is ``ok`` when both spreads (except that of ``setup_s``) and the
shift are within its bound in ``BENCHMARK.json``. Runs are sequential.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SETS = 2


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
        capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-800:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def spread_stats(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", required=True, help="'1-10' or '3,5,8'")
    parser.add_argument("--out", default=str(HERE / "out" / "seeds.json"))
    args = parser.parse_args()

    summary = {"python": platform.python_version(), "machine": platform.machine(),
               "run_seconds": SPEC["run_seconds"], "workloads": {}}
    all_ok = True
    for workload in args.workloads.split(","):
        runs = [[] for _ in range(SETS)]
        for seed in seed_list(args.seeds):
            for k in range(SETS):
                result = run_once(workload, seed)
                runs[k].append(result)
                print(workload, f"set{k + 1}", seed, result["correct"],
                      f"{result['failed']}/{result['attempted']}",
                      {n: round(m["value"], 6) for n, m in result["metrics"].items()}, flush=True)
        metrics = {}
        for spec in SPEC["end_to_end"]:
            name, bound = spec["name"], spec["bound"]
            sets = [spread_stats([r["metrics"][name]["value"] for r in rs]) for rs in runs]
            sign = 1.0 if spec["better"] == "lower" else -1.0
            shift = sign * (sets[1]["median"] - sets[0]["median"]) / sets[0]["median"]
            spreads_ok = name == "setup_s" or all(s["spread"] <= bound for s in sets)
            ok = spreads_ok and shift <= bound
            all_ok &= ok
            metrics[name] = {"unit": spec["unit"], "bound": bound, "sets": sets,
                             "worse_shift": shift, "ok": ok}
            print(f"  {workload:16s} {name:12s} "
                  + " ".join(f"set{k + 1} median={s['median']:.6g} spread={s['spread']:.4f}"
                             for k, s in enumerate(sets))
                  + f" shift={shift:+.4f} bound={bound} {'ok' if ok else 'OUT OF BOUND'}", flush=True)
        summary["workloads"][workload] = {
            "seeds": seed_list(args.seeds),
            "all_correct": all(r["correct"] for rs in runs for r in rs),
            "failed": sum(r["failed"] for rs in runs for r in rs),
            "attempted": sum(r["attempted"] for rs in runs for r in rs),
            "metrics": metrics,
        }
    summary["all_ok"] = all_ok
    Path(args.out).parent.mkdir(exist_ok=True)
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    print("all metrics within bounds" if all_ok else "some metric is out of its bound", flush=True)


if __name__ == "__main__":
    main()
