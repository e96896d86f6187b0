"""Run one workload of the starchrome benchmark, check it, print its metrics.

    python3 perfbench/run.py --workload sweep-mop --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.  The
run starts units (fresh interpreters, see unit.py) one after another, at most
one at a time, while the next one is expected to end within OVERRUN past
``--seconds``; the last one makes warm passes up to ``--seconds``.  Before
each measured unit it times the set-up alone in another fresh interpreter,
and it tops the set-up times up to SETUP_SAMPLES at the end.  Every unit's
answers are checked; a wrong answer makes the run exit 1.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
medians over the run's passes.  The times of passes and verdicts are work
seconds at a reference speed (pace.py): this host's speed moves by 40% and
more over seconds to minutes, and a reference loop run between verdicts
tracks it.  Set-up time is scaled by the loop run just after set-up.  With
``--trace 1`` units alternate untraced and traced, and the metrics are the
per-layer ones: medians over the traced units, plus the traced cold pass's
time over the untraced one, minus 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from pace import REFERENCE_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# A run must end within 180 s; leave room for the checks after the last unit.
RUN_LIMIT_SECONDS = 170
# A unit may start if it is expected to end within this share of --seconds
# past the end, so that a run of long units is not cut a unit short.
OVERRUN = 0.1
# Set-up is timed in this many fresh interpreters per run, at least.
SETUP_SAMPLES = 9
# Set-up-only units hash with seeds from here on, apart from the measured ones.
SETUP_INDEX = 1000


class UnitFailed(Exception):
    pass


def run_unit(workload: str, seed: int, index: int, mode: str, timeout: float,
             deadline: float = 0.0) -> dict:
    # Hash randomization changes dict and set layouts from one interpreter to
    # the next; in eight sweep-mop passes each way it doubled the range of
    # pass times.  Unit i of every run hashes with seed i instead.
    env = dict(os.environ, PYTHONHASHSEED=str(index))
    spawned = time.monotonic()
    command = [sys.executable, str(HERE / "unit.py"), workload, str(seed), str(index), mode,
               repr(deadline)]
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise UnitFailed(f"unit {index} ran out of time ({timeout:.0f} s)") from exc
    if proc.returncode != 0:
        raise UnitFailed(f"unit {index} exited {proc.returncode}:\n{proc.stderr}")
    out = json.loads(proc.stdout.splitlines()[-1])
    out["setup_s"] = (out["ready"] - spawned) * REFERENCE_S / out["setup_loop_s"]
    out["unit_s"] = time.monotonic() - spawned
    out["traced"] = mode == "traced"
    return out


def run_units(workload: str, seed: int, seconds: int, trace: bool) -> tuple[list, list]:
    """The measured units, and at least SETUP_SAMPLES set-up times."""
    started = time.monotonic()

    def elapsed() -> float:
        return time.monotonic() - started

    def setup_only() -> dict:
        index = SETUP_INDEX + len(setups)
        return run_unit(workload, seed, index, "setup", RUN_LIMIT_SECONDS - elapsed())

    units: list[dict] = []
    setups: list[dict] = []
    steps: list[float] = []
    limit = seconds * (1 + OVERRUN)
    last = False
    while not last:
        step_started = elapsed()
        fits = not steps or step_started + statistics.median(steps) <= limit
        if not fits and len(units) >= (2 if trace else 1):
            break
        if not trace:
            # Spread the set-up samples over the run rather than bunch them
            # at its end, where they would all see one phase of the host.
            setups.append(setup_only())
        mode = "traced" if trace and len(units) % 2 == 1 else "plain"
        # When no unit would fit after this one, it makes warm passes up to
        # the end of the run, so no time is left unmeasured.
        last = bool(steps) and elapsed() + 2 * statistics.median(steps) > limit
        deadline = started + seconds if last else 0.0
        units.append(run_unit(workload, seed, len(units), mode, RUN_LIMIT_SECONDS - elapsed(),
                              deadline))
        steps.append(elapsed() - step_started)
    setups += [u for u in units if not u["traced"]]
    while not trace and len(setups) < SETUP_SAMPLES:
        setups.append(setup_only())
    return units, setups


def check(workload: str, seed: int, units: list[dict]) -> list[str]:
    @functools.lru_cache(maxsize=None)
    def brute_force(text: str) -> int:
        from starchrome.graph6 import graph6_decode
        from starchrome.solver import brute_force_chi_star

        return brute_force_chi_star(graph6_decode(text))

    errors: list[str] = []
    checked: list = []
    for u in units:
        if not u["warm_matches"]:
            errors.append("a warm pass gave other answers than the cold pass")
        if u["answers"] not in checked:
            checked.append(u["answers"])
            errors += WORKLOADS[workload].check(seed, u["answers"], brute_force)
    return errors


def end_to_end(workload: str, units: list[dict], setups: list[dict]) -> dict[str, float]:
    wl = WORKLOADS[workload]
    plain = [u for u in units if not u["traced"]]
    # Every unit of a run has the same inputs; each verdict's time is its
    # median over the units' cold passes, or over all passes where a warm
    # pass repeats the cold pass's work.
    passes = [u["latencies"] for u in plain]
    pass_s = [u["cold_s"] for u in plain]
    if wl.repeats_cold:
        passes += [xs for u in plain for xs in u["warm_latencies"]]
        pass_s += [x for u in plain for x in u["warm_s"]]
    latencies = [statistics.median(xs) for xs in zip(*passes)]
    wall = statistics.median(pass_s)
    decided = wl.decided(plain[0]["answers"])
    return {
        "wall_s": wall,
        "resweep_s": statistics.median(x for u in plain for x in u["warm_s"]),
        "verdicts_per_s": decided / wall,
        "decided_frac": decided / len(plain[0]["latencies"]),
        "verdict_geomean_s": statistics.geometric_mean(latencies),
        "verdict_p50_ms": statistics.median(latencies) * 1e3,
        # Inclusive: with solve-hard's five verdicts, the default method
        # extrapolates past the slowest one.
        "verdict_p95_ms": statistics.quantiles(latencies, n=20, method="inclusive")[18] * 1e3,
        "setup_s": statistics.median(u["setup_s"] for u in setups),
        "peak_rss_mb": statistics.median(u["rss_mb"] for u in plain),
    }


def per_layer(units: list[dict]) -> dict[str, float]:
    traced = [u for u in units if u["traced"]]
    plain = [u for u in units if not u["traced"]]
    out = {
        name: statistics.median(u["layers"][name] for u in traced)
        for name in traced[0]["layers"]
    }
    out["trace.overhead_frac"] = (
        statistics.median(u["cold_s"] for u in traced)
        / statistics.median(u["cold_s"] for u in plain)
        - 1
    )
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "starchrome" / "__init__.py").is_file():
        print(f"perfbench: no src/starchrome under {ROOT}; run from a starchrome checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        units, setups = run_units(args.workload, args.seed, args.seconds, bool(args.trace))
    except UnitFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    errors = check(args.workload, args.seed, units)
    values = per_layer(units) if args.trace else end_to_end(args.workload, units, setups)

    wl = WORKLOADS[args.workload]
    print(f"{args.workload} seed {args.seed}: {len(units)} units, "
          f"{wl.nodes(units[0]['answers'])} solver nodes per pass")
    for error in errors:
        print(f"WRONG: {error}")
    metrics = {}
    for metric in wanted:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"  {metric['name']:32s} {value:14.6g} {metric['unit']}")
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(len(u["latencies"]) for u in units),
        "failed": len(errors),
        "metrics": metrics,
    }))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
