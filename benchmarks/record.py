"""Record one point of the benchmark trajectory: every workload over several seeds.

    python3 benchmarks/record.py --label seed --seeds 10

Runs ``run.py`` once per seed and workload untraced, then once per workload
traced (first seed), prints every metric with its unit and sample count, and
writes ``benchmarks/results/<label>.json``. The tracing overhead is the traced
unit's wall time minus the untraced unit's, both at the first seed, so both
ran the same inputs. For every metric it stores the values, the median, the
quartiles (as ``statistics.quantiles(values, n=4)`` gives them) and the
spread: the distance between the quartiles as a share of the median. The
output checks run inside every ``run.py`` invocation. Each run measures for
``run_seconds`` of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("sweep-analytic", "verify-full", "oneshot-cold")


def invoke(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=BENCH.parent, capture_output=True, text=True, check=True,
                          timeout=600)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["lines"] = lines[:-1]
    shown = {}
    for line in lines[:-1]:
        if line.startswith("# env "):
            result["env"] = json.loads(line[len("# env "):])
        elif not line.startswith("#"):
            name, value, unit, *rest = line.split()
            shown[name] = (float(value), unit, rest[0] if rest else "")
    result["shown"] = shown
    result["wall_s"] = wall
    return result


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values * 3)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def record_workload(workload: str, seeds: list[int], seconds: int) -> dict:
    runs = [invoke(workload, s, seconds, 0) for s in seeds]
    traced = invoke(workload, seeds[0], seconds, 1)
    metrics = {k: summary([r["metrics"][k]["value"] for r in runs]) for k in runs[0]["metrics"]}
    for k in metrics:
        metrics[k]["unit"] = runs[0]["metrics"][k]["unit"]
    shown = {}
    for name, (_, unit, n) in runs[0]["shown"].items():
        if name not in metrics and all(name in r["shown"] for r in runs):
            shown[name] = summary([r["shown"][name][0] for r in runs]) | {"unit": unit, "n": n}
    return {
        "end_to_end": metrics,
        "shown": shown,
        "correct": [r["correct"] for r in runs],
        "attempted": [r["attempted"] for r in runs],
        "failed": [r["failed"] for r in runs],
        "env": runs[0]["env"],
        "run_wall_s": summary([r["wall_s"] for r in runs]),
        "traced": {"seed": seeds[0], "correct": traced["correct"],
                   "metrics": {k: v["value"] for k, v in traced["metrics"].items()},
                   "overhead_s": (traced["metrics"]["trace.wall_s"]["value"]
                                  - runs[0]["shown"]["unit_s"][0]),
                   "lines": [ln for ln in traced["lines"] if ln.startswith("#")]},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    seconds = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    out = {"label": args.label, "seeds": seeds, "seconds": seconds, "workloads": {}}
    for workload in WORKLOADS:
        rec = out["workloads"][workload] = record_workload(workload, seeds, seconds)
        print(f"# {workload}: {len(seeds)} runs, correct {sum(rec['correct'])}/{len(seeds)}, "
              f"failed {sum(rec['failed'])} of {sum(rec['attempted'])} attempted")
        for group in ("end_to_end", "shown"):
            for name, s in rec[group].items():
                spread = "-" if s["spread"] is None else f"{s['spread']:.3f}"
                print(f"{workload:<15} {name:<24} median {s['median']:<12.5g} {s['unit']:<6} "
                      f"q1 {s['q1']:<10.5g} q3 {s['q3']:<10.5g} spread {spread:<6} "
                      f"runs={len(s['values'])} {s.get('n', '')}")
        for name, value in rec["traced"]["metrics"].items():
            print(f"{workload:<15} {name:<40} {value:.6g} (traced, seed {seeds[0]})")
        print(f"{workload:<15} {'trace overhead':<40} {rec['traced']['overhead_s']:.6g} s "
              f"(traced minus untraced unit, seed {seeds[0]})")
        print("\n".join(rec["traced"]["lines"]), flush=True)
    # a comparison of two commits makes 4 runs, then 22 per workload; it must end within 3420 s
    walls = [rec["run_wall_s"]["median"] for rec in out["workloads"].values()]
    out["projected_contract_s"] = 4 * max(walls) + 22 * sum(walls)
    print(f"# projected time of 4 + 22 x {len(walls)} runs: {out['projected_contract_s']:.0f} s "
          "(median run wall time per workload)")
    path = BENCH / "results" / f"{args.label}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
