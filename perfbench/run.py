"""Benchmark of golay486: cold verify, a graph-size ladder, relabelled groups.

    python3 perfbench/run.py --workload {verify,ladder,group} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  A closed loop with one client: each unit
of work is a fresh process (perfbench/child.py) started only after the
previous one ended, with BLAS pinned to one thread, for as many units as fit
in S seconds (at least one).  Each unit corrects its times to a reference
CPU speed (perfbench/speed.py).  With --trace 0 the last stdout line carries
the end-to-end metrics of BENCHMARK.json; with --trace 1 each round runs one
untraced and one traced unit, and the line carries the per-layer metrics.
See perfbench/README.md for the rationale.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

WORKLOADS = ("verify", "ladder", "group")
DEADLINE_S = 170  # the whole run ends within 180 s
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def _unit(workload: str, seed: int, draw: int, workdir: str, mode: str,
          deadline: float) -> dict | None:
    """Run one child process; None when it crashed, timed out or misreported."""
    env = {**os.environ, **CHILD_ENV}
    spawned_at = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed), str(draw),
           workdir, repr(spawned_at), mode]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        print(f"{mode} unit timed out", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{mode} unit exited {proc.returncode}: {proc.stderr[-2000:]}",
              file=sys.stderr)
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        print(f"{mode} unit printed no result", file=sys.stderr)
        return None


def _metric_specs() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    deadline = time.monotonic() + DEADLINE_S
    owned = workloads.CHECKS_PER_RUN[workload]
    attempted = failed = 0
    unexpected: list[str] = []
    timed: list[dict] = []
    traced: list[dict] = []
    overheads: list[float] = []  # traced minus untraced wall_s, per round

    def account(unit: dict | None) -> None:
        nonlocal attempted, failed
        attempted += owned
        checks = unit.get("checks") if unit else None
        if checks is None or len(checks) != owned:
            # A crashed, timed-out or misreporting unit fails every check it owned.
            failed += owned
            unexpected.append("unit failed")
            return
        failed += sum(not ok for _, ok in checks)
        unexpected.extend(workloads.unexpected_failures(workload, checks))

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        start = time.monotonic()
        for round_index in itertools.count():
            round_start = time.monotonic()
            walls = {}
            modes = ("run",)
            if trace:
                # Alternate which unit goes first, so an order effect does not
                # enter the overhead.
                modes = ("trace", "run") if round_index % 2 else ("run", "trace")
            for mode in modes:
                # Both units of a round get the same inputs, so that their
                # difference is the tracing overhead alone.
                unit = _unit(workload, seed, round_index, workdir, mode, deadline)
                account(unit)
                if unit:
                    (traced if mode == "trace" else timed).append(unit)
                    walls[mode] = unit["wall_s"]
            if len(walls) == 2:
                # Paired within one round, so slow drift in CPU speed cancels.
                overheads.append(walls["trace"] - walls["run"])
            now = time.monotonic()
            # Start another round only if one as long as the last still fits.
            if now - start + (now - round_start) > seconds or now > deadline:
                break

    if timed:
        env = timed[0]["env"]
        print(f"seed {seed}; workload {workload}; nproc {os.cpu_count()}; "
              f"python {env['python']}; numpy {env['numpy']}; "
              f"BLAS threads {CHILD_ENV['OPENBLAS_NUM_THREADS']}; "
              f"{len(timed)} timed units", file=sys.stderr)
        for key in ("wall_s", "wall_raw_s", "setup_s", "setup_raw_s", "peak_rss_mb"):
            print(f"unit {key}: " + " ".join(f"{u[key]:.3f}" for u in timed),
                  file=sys.stderr)
    if unexpected:
        print(f"unexpected failed checks: {sorted(set(unexpected))}", file=sys.stderr)

    end_to_end, per_layer = _metric_specs()
    metrics: dict[str, float] = {}
    if timed and not trace:
        metrics = {
            "wall_s": statistics.median(u["wall_s"] for u in timed),
            "setup_s": statistics.median(u["setup_s"] for u in timed),
            "peak_rss_mb": statistics.median(u["peak_rss_mb"] for u in timed),
        }
    elif overheads:
        # Spans are measured wall times; the speed.* figures show how far the
        # machine ran from the reference speed during the untraced units.
        derived = {
            "trace.overhead_s": statistics.median(overheads),
            "speed.wall_raw_s": statistics.median(u["wall_raw_s"] for u in timed),
            "speed.slowdown": statistics.median(
                u["wall_raw_s"] / u["wall_s"] for u in timed
            ),
        }
        metrics = {
            name: derived[name] if name in derived
            else statistics.median(u["per_layer"].get(name, 0) for u in traced)
            for name in per_layer
        }
    units = per_layer if trace else end_to_end
    return {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "golay486" / "__init__.py").is_file():
        print(f"no golay486 sources under {ROOT / 'src'}; nothing to measure",
              file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if not result["metrics"]:
        print("no unit completed; no result", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
