#!/usr/bin/env python3
"""Benchmark of the mobius-lattice verifier: end-to-end and per-layer metrics.

Usage (from the root of a checkout):

    python3 bench/run.py --workload sweep-gl25 --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40

A closed loop with one client: each run of the workload is a fresh Python
process (bench/worker.py) started only after the previous one has exited, so
at most one process computes at a time.  Runs repeat until the next one
would end after ``--seconds``.  Inputs come from ``--seed`` alone; seed 0 is
the literal instance and any other seed applies a seeded change of basis or
conjugation, which leaves every checked value unchanged.  Every run checks
its outputs.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
each the median over the runs.  Times are scaled to a reference host
speed, measured while each run runs (bench/speed.py).  With ``--trace 1``
runs alternate between untraced and traced; the metrics are the per-layer
ones, medians over the traced runs (exact work counts, checked equal, as
they are), and the tracing overhead is the traced minus the untraced median
wall time.  The last line of standard output is one JSON object.
See bench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORK = ROOT / ".bench_work"
# a run is killed past this, so one invocation stays well inside 180 s
DEADLINE_S = 170

WORKLOADS = ["sweep-gl25", "ideal-gl33", "query-gl27"]
# End-to-end metrics printed for every workload but left out of
# BENCHMARK.json: there a metric needs a bound on every workload, and this
# one is the reciprocal of the ~25 ms left after set-up on query-gl27, whose
# spread over seeds (35-45%) no bound allows.  failed_ratio and skipped_ratio
# are printed too; they are 0 when the program is right.
PRINTED_ONLY = {"results_per_s": "1/s"}

# ideal-gl33: the five subgroups H of GL(3,3), as generator matrices
_T = [[[2, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 2, 0], [0, 0, 1]],
      [[1, 0, 0], [0, 1, 0], [0, 0, 2]]]
_E12 = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
_E23 = [[1, 0, 0], [0, 1, 1], [0, 0, 1]]
GL33_SUBGROUPS = [
    ("upper-borel", _T + [_E12, _E23]),
    ("gl23-plus-1", [_E12, [[0, 1, 0], [2, 0, 0], [0, 0, 1]], _T[0]]),
    ("torus-swap", _T + [[[0, 1, 0], [1, 0, 0], [0, 0, 1]]]),
    ("diagonal-torus", _T),
    ("upper-unitriangular", [_E12, _E23]),
]
# the GL(2,5) preset generators, for the --gens form of the sweep
GL25_GENERATORS = [[[1, 1], [0, 1]], [[0, 1], [4, 0]], [[2, 0], [0, 1]]]
# the upper Borel subgroup of GL(2,7)
GL27_BOREL = [[[1, 1], [0, 1]], [[3, 0], [0, 1]], [[1, 0], [0, 3]]]


# -- seeded inputs: matrices over the prime field GF(p) -------------------------

def mat_mul(a: list, b: list, p: int) -> list:
    n = len(a)
    return [[sum(a[i][t] * b[t][j] for t in range(n)) % p for j in range(n)]
            for i in range(n)]


def mat_inv(a: list, p: int):
    """Inverse over GF(p) by Gauss-Jordan elimination; None if singular."""
    n = len(a)
    rows = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        scale = pow(rows[col][col], p - 2, p)
        rows[col] = [x * scale % p for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[col])]
    return [r[n:] for r in rows]


def conjugator(rng: random.Random, n: int, p: int) -> tuple:
    """A random x in GL(n, p) and its inverse."""
    while True:
        x = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        x_inv = mat_inv(x, p)
        if x_inv is not None:
            return x, x_inv


def conjugate(gens: list, rng: random.Random, p: int) -> list:
    """Generators g -> x^-1 g x for one seeded x."""
    x, x_inv = conjugator(rng, len(gens[0]), p)
    return [mat_mul(mat_mul(x_inv, g, p), x, p) for g in gens]


def make_inputs(workload: str, seed: int, work: Path) -> dict:
    """The spec a worker runs: generated files and CLI arguments."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep-gl25":
        report = work / "report.jsonl"
        if seed == 0:
            group = ["--preset", "GL", "--n", "2", "--q", "5"]
        else:
            gens = work / "gl25.json"
            gens.write_text(json.dumps({
                "name": "GL(2,5)", "field": {"p": 5, "u": 1}, "n": 2,
                "generators": conjugate(GL25_GENERATORS, rng, 5)}))
            group = ["--gens", str(gens)]
        return {"argv": ["verify", *group, "--subgroups", "all",
                         "--out", str(report)], "report": str(report)}
    if workload == "ideal-gl33":
        path = work / "gl33_subgroups.json"
        path.write_text(json.dumps([
            {"name": name, "generators": gens if seed == 0
             else conjugate(gens, rng, 3)}
            for name, gens in GL33_SUBGROUPS]))
        return {"subgroups_file": str(path)}
    if workload == "query-gl27":
        borel = work / "gl27_borel.json"
        borel.write_text(json.dumps(
            GL27_BOREL if seed == 0 else conjugate(GL27_BOREL, rng, 7)))
        return {"argv": ["mobius", "--preset", "GL", "--n", "2", "--q", "7",
                         "--from", str(borel), "--to", "full"]}
    raise ValueError(f"unknown workload {workload!r}")


# -- runs -----------------------------------------------------------------------

class BenchError(Exception):
    """The benchmark itself could not run (not a failure of the program)."""


def run_worker(spec: dict, work: Path, timeout: float) -> dict:
    """One workload run in a fresh process; waits until it has exited."""
    spec_path = work / "spec.json"
    result_path = Path(spec["result"])
    result_path.unlink(missing_ok=True)
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), str(spec_path)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(timeout, 1))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"a {spec['workload']} run passed the "
                         f"{DEADLINE_S} s deadline") from exc
    if proc.returncode != 0 or not result_path.exists():
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(result_path.read_text())


def run_loop(workload: str, seed: int, seconds: float, trace: bool) -> list:
    """Runs of one workload until the next would end after ``seconds``.

    With tracing, runs alternate untraced/traced, at least one of each.
    """
    work = WORK / f"{workload}-seed{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    base = make_inputs(workload, seed, work)
    results: list = []
    durations: list = []
    loop_start = time.monotonic()
    try:
        while True:
            traced = trace and len(results) % 2 == 1
            spec = dict(base, workload=workload, seed=seed, trace=traced,
                        run_id=f"{workload}/seed{seed}/run{len(results)}",
                        result=str(work / "result.json"))
            t0 = time.monotonic()
            results.append(
                run_worker(spec, work, DEADLINE_S - (t0 - loop_start)))
            durations.append(time.monotonic() - t0)
            elapsed = time.monotonic() - loop_start
            if trace and len(results) < 2:
                continue
            if elapsed + statistics.median(durations) > seconds:
                return results
    finally:
        shutil.rmtree(work, ignore_errors=True)


# -- metrics --------------------------------------------------------------------

def at_reference_speed(value: float, unit: str, slowdown: float) -> float:
    """A run's measurement scaled to the reference speed (see speed.py)."""
    if unit in ("s", "ms"):
        return value / slowdown
    if unit == "1/s":
        return value * slowdown
    return value


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def source_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def end_to_end(results: list, names: dict) -> dict:
    """Medians and quartiles over the untraced runs, at reference speed."""
    runs = [r for r in results if not r["trace"] and "wall_s" in r]
    if not runs:
        raise BenchError("no untraced run completed")
    out = {}
    for name, unit in names.items():
        values = [at_reference_speed(
            r[name], unit,
            r["setup_slowdown"] if name == "setup_s" else r["slowdown"])
            for r in runs]
        q1, q3 = quartiles(values)
        out[name] = {"value": statistics.median(values), "unit": unit,
                     "q1": q1, "q3": q3, "runs": len(values),
                     "raw": statistics.median(r[name] for r in runs)}
    return out


def per_layer(results: list, names: dict, workload: str, seed: int) -> tuple:
    """Per-layer metrics (medians over traced runs) and count mismatches."""
    traced = [r for r in results if r["trace"] and "wall_s" in r]
    plain = [at_reference_speed(r["wall_s"], "s", r["slowdown"])
             for r in results if not r["trace"] and "wall_s" in r]
    if not traced or not plain:
        raise BenchError("a traced run needs a traced and an untraced run")
    layers = []
    for r in traced:
        m = spans.layer_metrics(r["spans"])
        m["cli.report_bytes"] = r["report_bytes"]
        m["trace.wall_s"] = r["wall_s"]
        layers.append({k: at_reference_speed(v, names.get(k, "count"),
                                             r["slowdown"])
                       for k, v in m.items()})
    problems = []
    counts = [{k: m[k] for k in spans.EXACT_COUNTS} for m in layers]
    if any(c != counts[0] for c in counts):
        problems.append(f"work counts differ between traced runs: {counts}")
    # the same program and seed must repeat its counts in every invocation
    record = WORK / f"counts-{workload}-seed{seed}-{source_hash()}.json"
    if record.exists():
        before = json.loads(record.read_text())
        if before != counts[0]:
            problems.append(f"work counts {counts[0]} differ from an earlier "
                            f"invocation's {before}")
    else:
        record.write_text(json.dumps(counts[0]))
    out = {}
    for name, unit in names.items():
        if name == "trace.overhead_s":
            value = statistics.median(m["trace.wall_s"] for m in layers) \
                - statistics.median(plain)
        elif name in spans.EXACT_COUNTS:
            value = counts[0][name]
        else:
            value = statistics.median(m[name] for m in layers)
        out[name] = {"value": value, "unit": unit, "runs": len(layers)}
    return out, problems


def write_spans(results: list, workload: str, seed: int) -> Path:
    path = WORK / f"spans-{workload}-seed{seed}.jsonl"
    with path.open("w") as fh:
        for r in results:
            for span in r.get("spans", []):
                fh.write(json.dumps(span) + "\n")
    return path


def print_breakdown(results: list) -> None:
    """Where the traced wall time went, by layer and by the largest spans."""
    traced = [r for r in results if r["trace"] and "wall_s" in r]
    r = min(traced, key=lambda x: x["wall_s"])
    print(f"  traced run {r['spans'][0]['run'] if r['spans'] else ''}: "
          f"self time as a share of wall_s {r['wall_s']:.3f} s")
    for title, key, count in (("layers", lambda name: name.split(".")[0], None),
                              ("largest spans", lambda name: name, 5)):
        shares = spans.self_time_shares(r["spans"], r["wall_s"], key)
        # wall_s leaves out the speed probe, so its spans are left out here
        ranked = sorted(((k, v) for k, v in shares.items()
                         if not k.startswith("bench")),
                        key=lambda kv: -kv[1])[:count]
        print(f"    {title}: " + ", ".join(f"{k} {v:.1%}" for k, v in ranked))


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 config: dict) -> dict:
    results = run_loop(workload, seed, seconds, trace)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    skipped = sum(r["skipped"] for r in results)
    problems = [note for r in results for note in r["notes"]]
    print(f"workload {workload} seed {seed}: {len(results)} runs, "
          f"{attempted} results attempted; host slowdown against the "
          f"reference speed: median "
          f"{statistics.median(r['slowdown'] for r in results):.3f}")
    if trace:
        names = {m["name"]: m["unit"] for m in config["per_layer"]}
        metrics, count_problems = per_layer(results, names, workload, seed)
        problems += count_problems
        print(f"  spans written to {write_spans(results, workload, seed)}")
        print_breakdown(results)
    else:
        names = {m["name"]: m["unit"] for m in config["end_to_end"]}
        metrics = end_to_end(results, dict(names, **PRINTED_ONLY))
    for name, m in metrics.items():
        spread = (f"  (q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, {m['runs']} runs;"
                  f" unscaled {m['raw']:.6g})"
                  if "q1" in m else f"  ({m['runs']} runs)")
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']}{spread}")
    print(f"  {'failed_ratio':34s} {failed / attempted:14.6g} ratio")
    print(f"  {'skipped_ratio':34s} {skipped / attempted:14.6g} ratio")
    for note in problems:
        print(f"  CHECK FAILED: {note}")
    return {"correct": not problems and failed == 0 and skipped == 0,
            "attempted": attempted, "failed": failed + skipped,
            "metrics": {k: {"value": metrics[k]["value"], "unit": unit}
                        for k, unit in names.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mobius_lattice" / "__init__.py").exists():
        print(f"error: no package source under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    WORK.mkdir(exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    outcomes = {}
    try:
        for workload in workloads:
            outcomes[workload] = run_workload(
                workload, args.seed, args.seconds, bool(args.trace), config)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(outcomes) == 1:
        final = outcomes[workloads[0]]
    else:
        final = {"correct": all(o["correct"] for o in outcomes.values()),
                 "attempted": sum(o["attempted"] for o in outcomes.values()),
                 "failed": sum(o["failed"] for o in outcomes.values()),
                 "metrics": {f"{w}/{k}": m for w, o in outcomes.items()
                             for k, m in o["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
