"""One cold unit of a workload, in a fresh process started by run.py.

    python3 perfbench/child.py WORKLOAD SEED DRAW WORKDIR SPAWNED_AT MODE

SPAWNED_AT is the parent's time.monotonic() just before it started this
process, so set-up time counts interpreter start, the package import and
input generation.  MODE is ``run`` or ``trace`` (run with layer spans).
A speed probe (speed.py) runs from the first line on; ``setup_s`` and
``wall_s`` are corrected to the reference CPU speed, and ``setup_raw_s`` and
``wall_raw_s`` are the measured wall times.
The last stdout line is one JSON object.
"""

import json
import platform
import resource
import sys
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    workload, seed, draw, workdir, spawned_at, mode = argv
    spawned_at = float(spawned_at)
    probe = speed.SpeedProbe().start()
    sys.path.insert(0, str(ROOT / "src"))
    import golay486

    if not Path(golay486.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"golay486 imported from {golay486.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    import numpy

    import layers
    import workloads

    inputs = workloads.make_inputs(workload, int(seed), workdir, int(draw))
    ready = time.monotonic()
    clock = workloads.Clock()
    result = {}
    if mode == "trace":
        with layers.Tracer() as tracer:
            observations = workloads.run(workload, inputs, clock)
        per_layer = tracer.metrics()
        for obs in observations:
            for stage, seconds in obs.get("timings", {}).items():
                per_layer[f"cli.stage.{stage}.s"] = seconds
        result["per_layer"] = per_layer
    else:
        observations = workloads.run(workload, inputs, clock)
    probe.stop()
    setup_raw_s, setup_s = probe.corrected(spawned_at, ready)
    spans = [probe.corrected(start, end) for start, end in clock.spans]
    result.update(
        setup_s=setup_s,
        setup_raw_s=setup_raw_s,
        wall_s=sum(corrected for _, corrected in spans),
        wall_raw_s=sum(raw for raw, _ in spans),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        checks=workloads.check(workload, observations),
        env={"python": platform.python_version(), "numpy": numpy.__version__},
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
