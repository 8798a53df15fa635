"""Spans for traced benchmark runs, recorded from outside the package.

``install`` wraps the package's functions at the names their callers look
them up: a call from cli.py into group.py goes through ``cli.overgroup_interval``
and one from identities.py through ``identities.overgroup_interval``, so both
are seen.  Each span holds its name, start, end, parent span and run id, plus
an optional work count taken from the call's result.  Spans stay in memory
until the run ends.  ``layer_metrics`` turns one run's spans into the
per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import statistics
import time


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self._stack: list = []

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording one span per call; ``count(args, result)`` -> n."""

        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "run": self.run_id,
                    "parent": self._stack[-1]["id"] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span["n"] = count(args, result)
            return result

        return traced


def _table_entries(args, _result) -> int:
    group = args[0]
    return group.order ** 2 if group._table is not None else 0


def _family_size(_args, family) -> int:
    return max(len(family.pairs), len(family.distinct_stabilizers))


def _size(_args, result) -> int:
    return len(result)


# (module, attribute, span name, work count).  Module-level functions are
# patched in the namespace of the module that calls them.
_FUNCTIONS = [
    ("cli", "main", "cli.main", None),
    ("cli", "cmd_verify", "cli.cmd_verify", None),
    ("cli", "cmd_mobius", "cli.cmd_mobius", None),
    ("cli", "load_group", "cli.load_group", None),
    ("cli", "build_group", "cli.build_group", None),
    ("cli", "select_subgroups", "cli.select_subgroups", None),
    ("cli", "_emit", "cli.emit", None),
    ("cli", "closure", "group.closure", None),
    ("cli", "overgroup_interval", "group.overgroup_interval", _size),
    ("cli", "verify_identities", "identities.verify_identities", None),
    ("cli", "stabilizer_family", "identities.stabilizer_family",
     _family_size),
    ("cli", "mobius_between", "identities.mobius_between", None),
    ("group", "closure", "group.closure", None),
    ("group", "invariant_subspaces", "linalg.invariant_subspaces", _size),
    ("identities", "verify_identities", "identities.verify_identities", None),
    ("identities", "stabilizer_family", "identities.stabilizer_family",
     _family_size),
    ("identities", "build_ideal", "identities.build_ideal",
     lambda _args, ideal: len(ideal.members)),
    ("identities", "mu_ideal", "identities.mu_ideal", None),
    ("identities", "alternating_sums", "identities.alternating_sums", None),
    ("identities", "build_complexes", "identities.build_complexes", None),
    ("identities", "overgroup_interval", "group.overgroup_interval", _size),
    ("identities", "stabilizer", "group.stabilizer", None),
    ("identities", "invariant_subspaces", "linalg.invariant_subspaces", _size),
    ("identities", "mobius_row", "poset.mobius_row", None),
    ("identities", "complex_from_faces", "simplicial.complex_from_faces",
     lambda _args, cx: cx.face_count()),
    ("identities", "euler", "simplicial.euler", None),
]


def install(tracer: Tracer) -> None:
    """Wrap the package's functions and constructors for this process."""
    import importlib

    from mobius_lattice.gfq import FqField
    from mobius_lattice.group import GroupSet
    from mobius_lattice.poset import FinitePoset

    for module, attr, name, count in _FUNCTIONS:
        mod = importlib.import_module(f"mobius_lattice.{module}")
        setattr(mod, attr, tracer.wrap(name, getattr(mod, attr), count))
    FqField.__init__ = tracer.wrap("gfq.FqField", FqField.__init__)
    GroupSet.__init__ = tracer.wrap("group.GroupSet", GroupSet.__init__,
                                    _table_entries)
    from_leq = FinitePoset.__dict__["from_leq"].__func__
    FinitePoset.from_leq = classmethod(tracer.wrap(
        "poset.from_leq", from_leq, lambda _args, poset: poset.size ** 2))


# counts that must repeat exactly between runs of one seed on one program
EXACT_COUNTS = ["group.interval_calls", "group.interval_members",
                "group.stabilizer_calls", "group.table_entries",
                "poset.leq_tests", "simplicial.faces",
                "identities.ideal_members", "cli.report_bytes"]

# per-layer metric -> span name whose summed self time it is
_SELF_TIME = {
    "gfq.field_s": "gfq.FqField",
    "group.closure_s": "group.closure",
    "group.table_s": "group.GroupSet",
    "group.interval_s": "group.overgroup_interval",
    "group.stabilizer_s": "group.stabilizer",
    "linalg.invariant_subspaces_s": "linalg.invariant_subspaces",
    "poset.from_leq_s": "poset.from_leq",
    "poset.mobius_row_s": "poset.mobius_row",
    "simplicial.complex_s": "simplicial.complex_from_faces",
    "simplicial.euler_s": "simplicial.euler",
    "identities.stabilizer_family_s": "identities.stabilizer_family",
    "identities.build_ideal_s": "identities.build_ideal",
    "identities.mu_ideal_s": "identities.mu_ideal",
    "identities.alternating_sums_s": "identities.alternating_sums",
    "identities.build_complexes_s": "identities.build_complexes",
    "identities.verify_self_s": "identities.verify_identities",
    "cli.select_subgroups_s": "cli.select_subgroups",
}
# per-layer metric -> span name whose calls it counts
_CALLS = {
    "group.interval_calls": "group.overgroup_interval",
    "group.stabilizer_calls": "group.stabilizer",
    "linalg.invariant_subspaces_calls": "linalg.invariant_subspaces",
    "poset.from_leq_calls": "poset.from_leq",
}
# per-layer metric -> span name whose work counts it sums
_WORK = {
    "group.table_entries": "group.GroupSet",
    "group.interval_members": "group.overgroup_interval",
    "linalg.subspaces_found": "linalg.invariant_subspaces",
    "poset.leq_tests": "poset.from_leq",
    "simplicial.faces": "simplicial.complex_from_faces",
    "identities.ideal_members": "identities.build_ideal",
}


def self_times(spans: list) -> dict:
    """Span id -> duration minus the time its child spans cover.

    The run is single-threaded, so children of one span never overlap and
    the covered time is the sum of their durations.
    """
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics of one run, from its spans."""
    own = self_times(spans)
    by_name: dict = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    out = {}
    for metric, name in _SELF_TIME.items():
        out[metric] = sum(own[s["id"]] for s in by_name.get(name, []))
    for metric, name in _CALLS.items():
        out[metric] = len(by_name.get(name, []))
    for metric, name in _WORK.items():
        out[metric] = sum(s.get("n", 0) for s in by_name.get(name, []))
    out["cli.self_s"] = sum(own[s["id"]] for s in spans
                            if s["name"].startswith("cli.")
                            and s["name"] != "cli.select_subgroups")
    pair_ms = sorted((s["end"] - s["start"]) * 1e3
                     for s in by_name.get("identities.verify_identities", []))
    out["identities.pair_samples"] = len(pair_ms)
    out["identities.pair_ms_p50"] = statistics.median(pair_ms) if pair_ms else 0
    out["identities.pair_ms_p95"] = (
        pair_ms[min(len(pair_ms) - 1, int(0.95 * len(pair_ms)))]
        if pair_ms else 0)
    out["identities.family_max"] = max(
        (s.get("n", 0)
         for s in by_name.get("identities.stabilizer_family", [])),
        default=0)
    return out


def self_time_shares(spans: list, wall: float, key) -> dict:
    """``key(span name)`` -> summed self time as a share of ``wall``."""
    own = self_times(spans)
    shares: dict = {}
    for s in spans:
        k = key(s["name"])
        shares[k] = shares.get(k, 0.0) + own[s["id"]] / wall
    return shares
