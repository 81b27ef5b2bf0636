"""The grassdist benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports grassdist from ``src/`` there
and reads and writes nothing outside the checkout (scratch files go to
``.perfbench_out/``).  It generates the workload's inputs from the seed,
measures the interpreter set-up, runs the workload in a worker process for
``S`` seconds, checks every output it can against an independent scipy
reference, and prints one JSON object as its last line: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it holds the details: environment, input property shares,
sample counts and the failure ratio.
"""

from __future__ import annotations

import os

# One BLAS thread for the benchmark and every process it starts, set before
# numpy loads: on a small shared machine extra BLAS threads only compete with
# the single caller, and this is also the single-threaded baseline.
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
os.environ.update(THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import gen  # noqa: E402
import layer_metrics  # noqa: E402
import reference  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

END_TO_END = (("setup_s", "s"), ("results_per_s", "1/s"),
              ("latency_p50_ms", "ms"), ("latency_p99_ms", "ms"),
              ("peak_rss_mb", "MB"))

# Fresh interpreters started per run to time set-up, half before the
# workload and half after it, so that the median spans the run: a shared
# machine's speed can drift by a third over tens of seconds.
SETUP_REPEATS = 10

def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREADS)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def setup_seconds(env: dict, repeats: int) -> list[float]:
    """Wall times for a fresh interpreter to import ``grassdist.cli``.  The
    workloads need no other program-side preparation."""
    cmd = [sys.executable, "-c", "import grassdist.cli"]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms and
        # the times come out in those steps
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return times


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh
                       if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
        "threads": THREADS, "seed": seed,
    }


# ---------------------------------------------------------------------------
# Inputs and checks, one pair per workload kind.  ``prepare`` writes the
# program's inputs and returns what the check needs; ``check`` returns
# (attempted, failed, input properties).
# ---------------------------------------------------------------------------

def _warmup_file(field: str, work: Path) -> None:
    """Three small subspaces, run once before timing so that first-call
    costs are not measured."""
    tiny = {"field": field, "ambient_dim": 4, "count": 3, "dims": [1, 3]}
    subs = gen.verify_subspaces(tiny, 0)
    (work / "warmup.json").write_text(gen.subspace_file(subs, field, 4))


def prepare_matrix(params, seed, work):
    subs = gen.matrix_subspaces(params, seed)
    (work / "input.json").write_text(
        gen.subspace_file(subs, params["field"], params["ambient_dim"]))
    _warmup_file(params["field"], work)
    return subs


def _read_matrix(path: Path, fmt: str):
    text = path.read_text(encoding="utf-8")
    if fmt == "json":
        doc = json.loads(text)
        return doc["ids"], doc["metric"], np.array(doc["values"], dtype=float)
    lines = text.splitlines()
    metric = lines[0].split("metric=", 1)[1].split()[0]
    ids = lines[1].split(",")[1:]
    values = np.array([[float(x) for x in ln.split(",")[1:]] for ln in lines[2:]])
    return ids, metric, values


def check_matrix(params, seed, subs, rep):
    k2 = params["count"] ** 2
    out = rep["outputs"]
    codes, digests = out["exit_codes"], out["digests"]
    path = Path(out["output"])
    mismatches = k2
    final = ""
    if path.exists():
        final = hashlib.sha256(path.read_bytes()).hexdigest()
        try:
            ids, metric, values = _read_matrix(path, params["format"])
        except (ValueError, KeyError, IndexError):
            ids, metric, values = None, None, None
        if ids == [s.sid for s in subs] and metric == params["metric"]:
            n = params["ambient_dim"]
            want = reference.distance_matrix(
                subs, n, params["metric"],
                lambda a, b: gen.pair_intersection_dim(a, b, n))
            mismatches = reference.compare_matrix(values, want)
    failed = sum(k2 if rc != 0 or d != final else mismatches
                 for rc, d in zip(codes, digests))
    props = gen.matrix_properties(subs, params["ambient_dim"], params["field"])
    return len(codes) * k2, failed, props


def prepare_report(params, seed, work):
    return gen.report_pool(params, seed)


def check_report(params, seed, pool, rep):
    """Every request of the pool against the reference.  A request whose
    first result is wrong fails every time it ran; otherwise a repetition
    fails when it raised or differed from the first result."""
    rows, fails = rep["outputs"]["rows"], rep["outputs"]["fails"]
    failed = 0
    for req, row, n_reps, n_fails in zip(pool, rows, rep["reps"], fails):
        r = max(req.r_shared, req.p + req.q - req.ambient_dim)
        want = reference.report(req.v_columns, req.w_columns, req.p, req.q,
                                req.ambient_dim, r, req.field == "complex")
        wrong = (row is None or reference.compare_report(row, want)
                 or row["dims"] != [req.p, req.q, req.ambient_dim]
                 or any(row["reduced"]))
        failed += n_reps if wrong else n_fails
    return sum(rep["reps"]), failed, gen.request_properties(pool)


def prepare_verify(params, seed, work):
    subs = gen.verify_subspaces(params, seed)
    (work / "input.json").write_text(
        gen.subspace_file(subs, params["field"], params["ambient_dim"]))
    _warmup_file(params["field"], work)
    return subs


def check_verify(params, seed, subs, rep):
    """One result per identity check; a call that exits nonzero fails all
    of its checks."""
    outcomes = rep["outputs"]["outcomes"]
    failed = sum(o["checks"] - o["passed"] if o["exit_code"] == 0 else o["checks"]
                 for o in outcomes)
    props = gen.matrix_properties(subs, params["ambient_dim"], params["field"])
    return sum(o["checks"] for o in outcomes), failed, props


KINDS = {"matrix": (prepare_matrix, check_matrix),
         "report": (prepare_report, check_report),
         "verify": (prepare_verify, check_verify)}


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------

def end_to_end(rep: dict, setup: float) -> dict[str, float]:
    """Throughput over the whole closed loop; latencies over every
    repetition of every operation in the run."""
    walls = np.array(rep["walls"])
    return {
        "setup_s": setup,
        "results_per_s": rep["results"] / rep["loop_s"],
        "latency_p50_ms": float(np.median(walls)) * 1e3,
        "latency_p99_ms": float(np.percentile(walls, 99)) * 1e3,
        "peak_rss_mb": rep["peak_rss_mb"],
    }


def per_layer(rep: dict) -> tuple[dict[str, float], bool]:
    """Counts from the first traced pass, self times averaged over the
    passes; the flag says whether every pass counted the same work."""
    passes = rep["per_pass"]
    first = passes[0]
    repeat = all(p[name] == first[name] for p in passes
                 for name in layer_metrics.COUNTS)
    out = {}
    for name, value in first.items():
        out[name] = (value if name in layer_metrics.COUNTS
                     else statistics.fmean(p[name] for p in passes))
    out["trace.overhead_ratio"] = (min(rep["traced_walls"])
                                   / min(rep["plain_walls"]) - 1)
    return out, repeat


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "grassdist" / "__init__.py").is_file():
        print(f"error: no grassdist sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    params = gen.WORKLOADS[args.workload]
    prepare, check = KINDS[params["kind"]]
    work = ROOT / ".perfbench_out" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env()
    # the first import writes the bytecode cache, so it is not timed
    setup_seconds(env, 1)
    setup = setup_seconds(env, SETUP_REPEATS // 2)
    truth = prepare(params, args.seed, work)
    config = {"root": str(ROOT), "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "workdir": str(work), "result": str(work / "result.json")}
    (work / "config.json").write_text(json.dumps(config))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"),
         str(work / "config.json")],
        env=env, cwd=ROOT, timeout=args.seconds + 150, check=False)
    if proc.returncode != 0:
        print(f"error: worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    rep = json.loads((work / "result.json").read_text())
    setup = statistics.median(setup + setup_seconds(env, SETUP_REPEATS // 2))
    attempted, failed, props = check(params, args.seed, truth, rep)
    detail = {"workload": args.workload, "generator": params,
              "environment": environment(args.seed), "input_properties": props,
              "fail_ratio": failed / attempted, "first_traceback": rep["first_traceback"]}
    correct = failed == 0
    if args.trace:
        metrics, repeat = per_layer(rep)
        # the counts are the basis later changes cite: a pass that counts
        # different work from the first makes the run incorrect
        correct &= repeat
        units = {name: unit for name, unit, _ in layer_metrics.PER_LAYER}
        detail.update(traced_passes=len(rep["traced_walls"]), counts_repeat=repeat,
                      trace_file=str((work / "trace.npz").relative_to(ROOT)))
    else:
        metrics = end_to_end(rep, setup)
        units = dict(END_TO_END)
        samples = len(rep["walls"])
        detail.update(samples=samples, samples_beyond_p99=samples // 100,
                      distinct_operations=rep["distinct"],
                      fewest_repetitions=min(rep["reps"]))
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
