"""Run-to-run spread of the end-to-end metrics, and the recorded baseline.

Run from the root of a checkout:

    python3 perfbench/spread.py --seeds 1-10
    python3 perfbench/spread.py --seeds 1-10 --traced --baseline perfbench/baseline.json

For every workload and seed this runs run.py once with --trace 0 and the
run_seconds of BENCHMARK.json. For each end-to-end metric it prints the
median of the runs and the spread (Q3 - Q1) / median, with the quartiles
that statistics.quantiles(values, n=4) gives, next to a third of the
metric's bound, and the same for the unscaled wall time run.py prints,
which is not gated. --traced adds one --trace 1 run per workload on the
first seed. --baseline writes everything, with the machine facts, to a JSON
file.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True,
        text=True,
        timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range such as 1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--traced", action="store_true", help="add one traced run per workload")
    parser.add_argument("--baseline", type=Path, default=None, help="write the figures to this JSON file")
    args = parser.parse_args()

    seeds = parse_seeds(args.seeds)
    seconds = spec["run_seconds"]
    record = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        runs, walls = [], []
        for seed in seeds:
            result, lines = run_once(workload, seed, seconds, 0)
            machine = lines[0]
            runs.append(result)
            # The unscaled median wall time, printed by run.py for people; not gated.
            walls += [float(line.split()[2]) for line in lines if line.startswith("wall_s = ")]
            print(f"{workload} seed={seed} correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} " + " ".join(
                      f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        summary = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            ok = spread < metric["bound"] / 3.0
            steady &= ok
            summary[name] = {"unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
                             "spread": spread, "bound": metric["bound"], "values": values}
            print(f"  {name}: median={median:.6g} {metric['unit']} spread={spread:.4f} "
                  f"(a third of the bound is {metric['bound'] / 3.0:.4f}){'' if ok else '  WIDE'}")
        q1, _, q3 = statistics.quantiles(walls, n=4)
        print(f"  wall_s (unscaled, not gated): median={statistics.median(walls):.6g} s "
              f"spread={(q3 - q1) / statistics.median(walls):.4f}")
        entry = {
            "end_to_end": summary,
            "unscaled_wall_s": walls,
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "fail_frac": [r["failed"] / r["attempted"] for r in runs],
        }
        if args.traced:
            result, _ = run_once(workload, seeds[0], seconds, 1)
            entry["per_layer_seed"] = seeds[0]
            entry["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}
        record["workloads"][workload] = entry
        record["machine"] = machine.removeprefix("machine ")
    record["cpu_model"] = cpu_model()
    print(f"machine {record['machine']} cpu={record['cpu_model']!r}")
    print("every spread is below a third of its bound" if steady else "some spreads are wide")
    if args.baseline is not None:
        args.baseline.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
