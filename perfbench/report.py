"""Every metric of every workload, in one table.

    python3 perfbench/report.py [--seed N]

Runs perfbench/run.py for each workload, untraced and then traced, and
prints wall_s, setup_s, peak_rss_mb and failed_share (failed checks over
checks attempted) per workload, then the per-layer numbers of the traced
runs, each as long as ``run_seconds`` in BENCHMARK.json.  Takes about six
times that plus one unit per run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import ROOT, WORKLOADS


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    plain = {w: _run(w, args.seed, seconds, 0) for w in WORKLOADS}
    traced = {w: _run(w, args.seed, seconds, 1) for w in WORKLOADS}

    print(f"seed {args.seed}, {seconds} s per run")
    print(f"{'metric':<44}" + "".join(f"{w:>14}" for w in WORKLOADS) + "  unit")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = "".join(f"{plain[w]['metrics'][name]['value']:>14.4f}" for w in WORKLOADS)
        print(f"{name:<44}{values}  {metric['unit']}")
    shares = "".join(
        f"{plain[w]['failed'] / plain[w]['attempted']:>14.4f}" for w in WORKLOADS
    )
    print(f"{'failed_share':<44}{shares}  ratio")
    print(f"{'correct':<44}" + "".join(f"{str(plain[w]['correct']):>14}" for w in WORKLOADS))
    print()
    for metric in spec["per_layer"]:
        name = metric["name"]
        values = "".join(f"{traced[w]['metrics'][name]['value']:>14.6g}" for w in WORKLOADS)
        print(f"{name:<44}{values}  {metric['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
