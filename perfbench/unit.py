"""One unit of a benchmark run, in a fresh interpreter.

    python3 perfbench/unit.py <workload> <seed> <unit> <plain|traced|setup> [<deadline>]

Sets the workload up (and stops there in ``setup`` mode), times one cold
pass, then times warm passes (the same inputs again in this process, against
the same cache) until a second has passed, and then on while another pass
would end before ``deadline`` (a ``time.monotonic()`` reading, 0 by
default); a traced unit makes exactly one warm pass.  Times are work seconds
scaled to the reference speed (see pace.py).  Prints one JSON object: the
cold pass's answers, the per-verdict latencies of every pass, the pass times,
the monotonic time setup ended, peak RSS and, when traced, the per-layer
numbers.  A fresh interpreter per unit means the module-global minor memo and
the per-Graph caches start empty, as in a user's process.
"""

from __future__ import annotations

import json
import resource
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from pace import Pace  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WARM_SECONDS = 1.0
SETUP_LOOPS = 3


def main(workload: str, seed: int, unit: int, mode: str, deadline: float) -> dict:
    tracer = None
    if mode == "traced":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    wl = WORKLOADS[workload]
    pace = Pace(tracer)
    tmp_root = ROOT / ".perfbench" / "tmp"
    tmp_root.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=tmp_root) as tmp:
        state = wl.setup(seed, Path(tmp), pace)
        ready = time.monotonic()
        # The host's speed just after set-up, to scale the set-up time by.
        setup_loop_s = pace.loop_s(SETUP_LOOPS)
        if mode == "setup":
            return {"ready": ready, "setup_loop_s": setup_loop_s}

        def timed_pass(label: str) -> tuple[list, list[float], float]:
            """Answers, scaled latencies and scaled work seconds of one pass."""
            if tracer:
                tracer.input_id = label
            pace.sample()
            first = pace.mark() - 1
            answers, latencies, marks = wl.run(state, tracer, pace)
            pace.sample()
            scaled = [x * pace.scale(m) for x, m in zip(latencies, marks)]
            return answers, scaled, pace.work(first, pace.mark() - 1)

        answers, latencies, cold_s = timed_pass("cold")
        warm_s, warm_wall, warm_latencies, warm_answers = [], [], [], answers
        # Traced units make one warm pass, so their counts repeat exactly.
        while warm_answers == answers and not (
            warm_s
            and (
                tracer
                or sum(warm_wall) >= WARM_SECONDS
                and time.monotonic() + max(warm_wall) > deadline
            )
        ):
            started = time.monotonic()
            warm_answers, pass_latencies, scaled = timed_pass("warm")
            warm_wall.append(time.monotonic() - started)
            warm_s.append(scaled)
            warm_latencies.append(pass_latencies)
    out = {
        "ready": ready,
        "setup_loop_s": setup_loop_s,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "warm_latencies": warm_latencies,
        "warm_matches": warm_answers == answers,
        "answers": answers,
        "latencies": latencies,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        out["layers"] = tracer.layer_metrics()
        tracer.write(ROOT / ".perfbench" / "spans" / f"{workload}-seed{seed}-unit{unit}.jsonl.gz")
    return out


if __name__ == "__main__":
    name, seed, unit, mode = sys.argv[1:5]
    deadline = float(sys.argv[5]) if len(sys.argv) > 5 else 0.0
    print(json.dumps(main(name, int(seed), int(unit), mode, deadline)))
