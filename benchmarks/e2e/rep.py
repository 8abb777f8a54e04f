"""One repetition of one workload, in a process of its own.

``run.py`` starts this once per (workload, repetition) so every sample
pays its own imports and starts from a cold heap, and so ``ru_maxrss``
is the workload's own.  The last line on stdout is one JSON object;
the exit code is 1 when an invariant of the workload is broken.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import sys
import time
from pathlib import Path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--config", required=True, type=Path)
    parser.add_argument("--spawned-at", required=True, type=float,
                        help="time.monotonic() of the parent at spawn")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans-out", type=Path)
    args = parser.parse_args(argv)

    import calibration

    # the host's speed is sampled through set-up too, from here on;
    # the interpreter's own start, before this line, is scaled by the
    # same factor
    entered = time.monotonic()
    setup_yardstick = calibration.Yardstick()
    yardstick = calibration.Yardstick()
    tracer = None
    try:
        with setup_yardstick:
            import spans
            import workloads

            sys.path.insert(0, str(workloads.SRC))
            workload = workloads.WORKLOADS[args.workload]
            # wrappers go on before anything is built: endpoints
            # registered at construction time would otherwise keep the
            # unwrapped methods
            if args.trace:
                tracer = spans.Tracer().install()
            state = workload.setup(args.config)
        with yardstick:
            if tracer is None:
                outcome = workload.run(state)
            else:
                with tracer.root(f"{workload.name}.run"):
                    outcome = workload.run(state)
    finally:
        if tracer is not None:
            tracer.uninstall()
    verdict = workload.judge(state, outcome)

    result = dataclasses.asdict(verdict)
    result.update(
        setup_s=entered - args.spawned_at + setup_yardstick.wall_s,
        setup_speed=setup_yardstick.speed,
        wall_s=yardstick.wall_s, host_speed=yardstick.speed,
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0)
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer.spans, tracer.names)
        # the root span holds the yardstick's loops too, spread over
        # the layers in proportion to their time: one factor takes
        # them out of every layer time and scales it to reference s
        root = tracer.spans[0]
        result["layer_time_scale"] = \
            yardstick.reference_s / (root[2] - root[1])
        result["unresolved"] = tracer.unresolved
        if args.spans_out is not None:
            spans.write_spans(tracer.spans, tracer.names, args.spans_out)
    print(json.dumps(result))
    return 1 if verdict.problems else 0


if __name__ == "__main__":
    sys.exit(main())
