"""One run of one benchmark workload, in a fresh Python process.

Usage: python3 bench/worker.py SPEC.json

SPEC is written by bench/run.py: the workload name, the generated inputs
(CLI arguments or a generator file), the trace flag and the path for the
result.  The package has to be importable (run.py puts src/ on PYTHONPATH).
The worker times the run with the speed probe of bench/speed.py running,
checks the outputs against bench/expected.json and writes one JSON result:
the end-to-end measurements of this run with the host's slowdown over the
run and over its set-up, the result counts, and with tracing on, the
recorded spans.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import spans
from speed import SpeedProbe

EXPECTED = json.loads(Path(__file__).with_name("expected.json").read_text())


class Clock:
    """Interval timer that leaves out the speed probe's time and knows the
    probe samples taken in each interval."""

    def __init__(self, probe: SpeedProbe):
        self.probe = probe
        self.marks: dict = {}

    def mark(self, name: str) -> None:
        self.marks[name] = (time.perf_counter() - self.probe.spent,
                            len(self.probe.speeds))

    def between(self, first: str, last: str) -> tuple:
        """Seconds from mark ``first`` to ``last`` and the slowdown then."""
        (t0, n0), (t1, n1) = self.marks[first], self.marks[last]
        return t1 - t0, self.probe.slowdown(n0, n1)


def _timed_load_group(cli, clock: Clock) -> None:
    """Time the single group-load call of a CLI run as its set-up."""
    load_group = cli.load_group

    def timed(cfg):
        clock.mark("setup_start")
        try:
            return load_group(cfg)
        finally:
            clock.mark("setup_end")

    cli.load_group = timed


def run_cli(spec: dict, clock: Clock) -> dict:
    from mobius_lattice import cli

    _timed_load_group(cli, clock)
    out = io.StringIO()
    clock.mark("start")
    with contextlib.redirect_stdout(out):
        code = cli.main(spec["argv"])
    clock.mark("end")
    return {"exit": code, "stdout": out.getvalue()}


def run_ideal(spec: dict, clock: Clock) -> dict:
    from mobius_lattice import group, identities
    from mobius_lattice.cli import preset_generators
    from mobius_lattice.gfq import FqField
    from mobius_lattice.linalg import Matrix

    subgroups = json.loads(Path(spec["subgroups_file"]).read_text())
    clock.mark("start")
    clock.mark("setup_start")
    field = FqField(3)
    g = group.closure(preset_generators("GL", 3, field))
    clock.mark("setup_end")
    pairs = []
    for h in subgroups:
        ids = [g.index_of(Matrix.from_rows(field, rows))
               for rows in h["generators"]]
        sub = g.subgroup_closure(ids)
        report = identities.verify_identities(g, sub)
        pairs.append({"name": h["name"], "order": sub.order,
                      "values": list(report.values())})
    clock.mark("end")
    return {"pairs": pairs}


def check_sweep(spec: dict, out: dict) -> dict:
    """Verified rows, skips and failure notes of a sweep report."""
    expected = EXPECTED["sweep-gl25"]
    notes = []
    report = Path(spec["report"])
    text = report.read_bytes() if report.exists() else b""
    lines = [json.loads(line) for line in text.splitlines() if line.strip()]
    rows = [r for r in lines if r.get("type") != "summary"]
    summary = lines[-1] if lines and lines[-1].get("type") == "summary" else {}
    got = Counter(tuple(r.get(k) for k in expected["multiset_key"])
                  for r in rows)
    want = Counter({tuple(key): n for key, n in expected["multiset"]})
    if got != want:
        notes.append(f"rows differ from the seed-0 reference: "
                     f"{sum((got - want).values())} extra, "
                     f"{sum((want - got).values())} missing")
    if out["exit"] != 0:
        notes.append(f"exit code {out['exit']}")
    if summary.get("failures") != 0:
        notes.append(f"summary failures = {summary.get('failures')}")
    if spec["seed"] == 0:
        digest = hashlib.sha256(text).hexdigest()
        if digest != expected["sha256_seed0"]:
            notes.append(f"seed-0 report sha256 {digest} differs")
    return {"verified": sum((got & want).values()),
            "skipped": len(summary.get("skips", [])),
            "report_bytes": len(text), "notes": notes}


def check_ideal(spec: dict, out: dict) -> dict:
    notes = []
    got = {p["name"]: p for p in out["pairs"]}
    for want in EXPECTED["ideal-gl33"]["pairs"]:
        pair = got.get(want["name"])
        if pair is None:
            notes.append(f"{want['name']}: missing")
        elif (pair["order"], pair["values"]) != (want["order"],
                                                 want["values"]):
            notes.append(f"{want['name']}: order {pair['order']} values "
                         f"{pair['values']}, expected {want['order']} "
                         f"{want['values']}")
    return {"verified": len(got) - len(notes), "skipped": 0,
            "report_bytes": 0, "notes": notes}


def check_query(spec: dict, out: dict) -> dict:
    expected = EXPECTED["query-gl27"]["output"]
    notes = []
    try:
        got = json.loads(out["stdout"])
    except ValueError:
        got = None
    if out["exit"] != 0:
        notes.append(f"exit code {out['exit']}")
    if not isinstance(got, dict) or any(got.get(k) != v
                                        for k, v in expected.items()):
        notes.append(f"output {out['stdout'].strip()!r}, expected {expected}")
    return {"verified": 0 if notes else 1, "skipped": 0,
            "report_bytes": len(out["stdout"].encode()), "notes": notes}


WORKLOADS = {
    "sweep-gl25": (run_cli, check_sweep),
    "ideal-gl33": (run_ideal, check_ideal),
    "query-gl27": (run_cli, check_query),
}


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    run, check = WORKLOADS[spec["workload"]]
    tracer = None
    if spec["trace"]:
        tracer = spans.Tracer(spec["run_id"])
        spans.install(tracer)
    probe = SpeedProbe()
    if tracer is not None:
        probe.handler = tracer.wrap("bench.probe", probe.handler)
    clock = Clock(probe)
    with probe:
        try:
            out = run(spec, clock)
            error = None
        except Exception:  # the package raised: every result of the run failed
            error = traceback.format_exc()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    attempted = EXPECTED[spec["workload"]]["results"]
    result = {"trace": bool(spec["trace"]), "attempted": attempted,
              "cpu_s": usage.ru_utime + usage.ru_stime - probe.spent,
              "peak_rss_mb": usage.ru_maxrss / 1024,
              "slowdown": probe.slowdown()}
    if error is None:
        result.update(check(spec, out))
        result["wall_s"], result["slowdown"] = clock.between("start", "end")
        result["setup_s"], result["setup_slowdown"] = clock.between(
            "setup_start", "setup_end")
        result["results_per_s"] = result["verified"] / (result["wall_s"]
                                                        - result["setup_s"])
    else:
        result.update({"verified": 0, "skipped": 0, "notes": [error]})
    # a failed whole-report check fails at least one result
    result["failed"] = max(attempted - result["verified"] - result["skipped"],
                           1 if result["notes"] else 0)
    if tracer is not None:
        result["spans"] = tracer.spans
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
