"""Steadiness check: two sets of benchmark runs of the same code and seeds.

    python3 perfbench/steadiness.py [--workloads a,b] [--seeds 1,2,3] [--trace 0|1]

Each set runs every seed once per workload, one run at a time, for the
``run_seconds`` of ``BENCHMARK.json``.  With ``--trace 0`` it prints, per
end-to-end metric and workload, each set's median and quartiles, the spread
(distance between the quartiles over the median) and whether the second
median is worse than the first by more than the metric's bound.  The runs
are steady when every spread is within its bound and no median drifts past
it; ``setup_s`` is held to the drift rule only, because a fresh interpreter's
start-up time spreads with the machine, not with the program.  A spread of
at least a third of its bound is marked ``thin``: steady, with little margin.
With ``--trace 1`` it checks instead that every count metric of
``layer_metrics.COUNTS`` is identical across the runs of the same seed.  Every
run must be correct.  The raw values go to ``.perfbench_out/steadiness.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import layer_metrics  # noqa: E402

SETS = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def timing_report(sets: list[list[dict]], specs: list[dict]) -> bool:
    ok = True
    for spec in specs:
        name, bound = spec["name"], spec["bound"]
        cells, medians = [], []
        for runs in sets:
            q1, med, q3 = statistics.quantiles([r[name] for r in runs], n=4)
            spread = (q3 - q1) / med
            medians.append(med)
            if name == "setup_s":
                verdict = ""
            elif spread > bound:
                verdict, ok = " WIDE", False
            else:
                verdict = " thin" if spread >= bound / 3 else " ok"
            cells.append(f"median {med:.6g} [{q1:.6g}, {q3:.6g}] "
                         f"spread {spread:.3f}{verdict}")
        worse = (medians[1] - medians[0]) / medians[0]
        if spec["better"] == "higher":
            worse = -worse
        agree = worse <= bound
        ok &= agree
        print(f"  {name:16s} " + " | ".join(cells)
              + f" | drift {worse:+.3f} {'agrees' if agree else 'DISAGREES'}",
              flush=True)
    return ok


def count_report(sets: list[list[dict]], seeds: list[int]) -> bool:
    ok = True
    for name in layer_metrics.COUNTS:
        differ = [seed for seed, *runs in zip(seeds, *sets)
                  if len({r[name] for r in runs}) > 1]
        ok &= not differ
        print(f"  {name:40s} "
              + (f"DIFFERS on seeds {differ}" if differ else "repeats exactly"))
    return ok


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default=",".join(str(s) for s in range(1, 11)))
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    raw: dict = {}
    ok = True
    for workload in args.workloads.split(","):
        sets = []
        for number in range(SETS):
            runs = []
            for seed in seeds:
                result = run_once(workload, seed, bench["run_seconds"], args.trace)
                if not result["correct"]:
                    print(f"{workload} seed {seed}: incorrect, {result['failed']} "
                          f"of {result['attempted']} operations failed")
                    ok = False
                runs.append({name: m["value"] for name, m in result["metrics"].items()})
                print(f"  {workload} set {number + 1} seed {seed} done", flush=True)
            sets.append(runs)
        raw[workload] = sets
        print(f"{workload}:")
        if args.trace:
            ok &= count_report(sets, seeds)
        else:
            ok &= timing_report(sets, bench["end_to_end"])
    out = ROOT / ".perfbench_out" / "steadiness.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(raw))
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
