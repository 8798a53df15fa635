"""Batch runner: load a group (preset or generator file), sweep subgroups,
verify the identities pair by pair and emit machine-readable reports.

Exit codes: 0 all pairs verified; 1 an identity failed; 2 configuration or
spec error; 3 pairs were skipped because a cap was exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import (
    GroupSpecError,
    IntervalTooLarge,
    MalformedReport,
    MobiusLatticeError,
    PowersetTooLarge,
    ReducibleAmbientGroup,
)
from .gfq import FqField, primitive_element
from .group import (
    INTERVAL_CAP,
    ORDER_CAP,
    POWERSET_CAP,
    GroupSet,
    Matrix,
    SubgroupRef,
    closure,
    is_irreducible,
    overgroup_interval,
)
from .identities import (
    build_complexes,
    mobius_between,
    stabilizer_family,
    verify_identities,
)


@dataclass
class RunConfig:
    """Everything a verification sweep needs, resolved from flags."""

    preset: Optional[str] = None
    n: int = 2
    field_spec: dict = field(default_factory=lambda: {"p": 2, "u": 1})
    gens_file: Optional[str] = None
    subgroups: str = "all"
    subgroups_file: Optional[str] = None
    max_index: Optional[int] = None
    max_order: int = ORDER_CAP
    max_interval: int = INTERVAL_CAP
    max_powerset: int = POWERSET_CAP
    out: Optional[str] = None
    fmt: str = "json"
    seed: int = 0
    timing: bool = False
    dump_faces: bool = False


def group_order_formula(kind: str, n: int, q: int) -> int:
    """Order of GL(n, q) / SL(n, q) by the standard product formula."""
    total = 1
    for i in range(n):
        total *= q ** n - q ** i
    if kind == "SL":
        total //= q - 1
    return total


def preset_generators(kind: str, n: int, fq: FqField) -> list:
    """Standard generators: a transvection in each prime-field direction of
    the top-right root, a signed cycle, and a primitive diagonal for GL."""
    if kind not in ("GL", "SL"):
        raise GroupSpecError(f"unknown preset {kind!r}")
    if n < 1:
        raise GroupSpecError("dimension must be at least 1")
    alpha = primitive_element(fq) if fq.q > 2 else fq.one
    gens = []
    if n == 1:
        if kind == "SL" or fq.q == 2:
            gens.append(Matrix.identity(fq, 1))
        else:
            gens.append(Matrix.from_rows(fq, [[alpha]]))
        return gens
    one, zero = fq.one, fq.zero
    # transvections I + a*E12 for a basis of GF(q) over its prime field
    basis_elt = fq.one
    for k in range(fq.u):
        rows = [[one if i == j else zero for j in range(n)] for i in range(n)]
        rows[0][1] = basis_elt
        gens.append(Matrix.from_rows(fq, rows))
        basis_elt = basis_elt * alpha
    # cycle permutation with the sign fixed so the determinant is 1
    rows = [[zero] * n for _ in range(n)]
    for i in range(n - 1):
        rows[i][i + 1] = one
    rows[n - 1][0] = one if n % 2 == 1 else -one
    gens.append(Matrix.from_rows(fq, rows))
    if kind == "GL" and fq.q > 2:
        rows = [[one if i == j else zero for j in range(n)] for i in range(n)]
        rows[0][0] = alpha
        gens.append(Matrix.from_rows(fq, rows))
    return gens


def build_group(gens: Sequence[Matrix], cap: int = ORDER_CAP) -> GroupSet:
    """The group generated by ``gens``, as an explicit element set.

    Kept as its own function so that traced runs (bench/spans.py) see the
    closure step of ``load_group`` under one name."""
    return closure(gens, cap=cap)


def load_group(cfg: RunConfig) -> tuple:
    """Resolve the configured group; returns (GroupSet, descriptor dict)."""
    fq = FqField.from_dict(cfg.field_spec)
    if cfg.gens_file:
        try:
            with open(cfg.gens_file) as fh:
                spec = json.load(fh)
            fq = FqField.from_dict(spec.get("field", cfg.field_spec))
            n = spec["n"]
            gens = [Matrix.from_rows(fq, rows) for rows in spec["generators"]]
        except (OSError, KeyError, ValueError, TypeError) as exc:
            raise GroupSpecError(f"cannot read generator file: {exc}") from exc
        group = build_group(gens, cap=cfg.max_order)
        name = spec.get("name", os.path.basename(cfg.gens_file))
        return group, {"name": name, "n": n, "field": fq.to_dict()}
    kind = cfg.preset or "GL"
    gens = preset_generators(kind, cfg.n, fq)
    group = build_group(gens, cap=cfg.max_order)
    expected = group_order_formula(kind, cfg.n, fq.q)
    if group.order != expected:
        raise GroupSpecError(
            f"preset {kind}({cfg.n},{fq.q}) closed to order {group.order}, "
            f"expected {expected}")
    return group, {"name": f"{kind}({cfg.n},{fq.q})", "n": cfg.n,
                   "field": fq.to_dict()}


def _subgroup_descriptor(group: GroupSet, h: SubgroupRef) -> dict:
    gens = [group.elements[i].to_lists() for i in h.generator_ids()]
    return {"order": h.order, "generators": gens}


def select_subgroups(group: GroupSet, cfg: RunConfig, subs: list) -> list:
    """The subgroups H to verify, chosen by the configured scope from the
    complete subgroup list ``subs`` (or read from the subgroup file)."""
    if cfg.subgroups == "file":
        if not cfg.subgroups_file:
            raise GroupSpecError("--subgroups file needs a path")
        try:
            with open(cfg.subgroups_file) as fh:
                gen_lists = json.load(fh)
            wanted = []
            for rows_list in gen_lists:
                ids = [group.index_of(Matrix.from_rows(group.field, rows))
                       for rows in rows_list]
                wanted.append(group.subgroup_closure(ids))
        except (OSError, KeyError, ValueError, TypeError) as exc:
            raise GroupSpecError(f"cannot read subgroup file: {exc}") from exc
        return sorted(set(wanted), key=SubgroupRef.sort_key)
    out = []
    for h in subs:
        if h.order == group.order:
            continue
        if cfg.max_index is not None and group.order // h.order > cfg.max_index:
            continue
        if cfg.subgroups == "reducible":
            if not stabilizer_family(group, h).pairs:
                continue
        out.append(h)
    return out


def cmd_verify(cfg: RunConfig) -> int:
    try:
        group, descriptor = load_group(cfg)
        if not is_irreducible(group):
            raise ReducibleAmbientGroup(
                "ambient group fixes a proper non-trivial subspace")
        # the one subgroup lattice of the run, shared by every pair
        all_subs = overgroup_interval(group, group.trivial_subgroup(),
                                      cap=cfg.max_interval)
        subgroups = select_subgroups(group, cfg, all_subs)
    except MobiusLatticeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = []
    failures = 0
    skips = []
    started = time.monotonic()
    for h in subgroups:
        desc = _subgroup_descriptor(group, h)
        t0 = time.monotonic()
        try:
            report = verify_identities(
                group, h, all_subgroups=all_subs,
                max_interval=cfg.max_interval,
                max_powerset=cfg.max_powerset, with_decomposition=True)
        except (PowersetTooLarge, IntervalTooLarge) as exc:
            skips.append({"h_order": desc["order"],
                          "h_generators": desc["generators"],
                          "reason": str(exc)})
            continue
        row = {"group": descriptor["name"], "n": descriptor["n"],
               "field": descriptor["field"], "h_order": desc["order"],
               "h_generators": desc["generators"]}
        row.update(report.to_dict())
        if cfg.timing:
            row["timing"] = round(time.monotonic() - t0, 6)
        if cfg.dump_faces:
            fam = stabilizer_family(group, h)
            cx1, cx2 = build_complexes(group, h, fam,
                                       max_powerset=cfg.max_powerset)
            row["subspace_complex_faces"] = {
                str(d): fl for d, fl in cx1.face_lists().items()}
            row["stabilizer_complex_faces"] = {
                str(d): fl for d, fl in cx2.face_lists().items()}
        ok = row["all_equal"] and row.get("decomposition_residual", 0) == 0
        row["identities_hold"] = ok
        if not ok:
            failures += 1
        rows.append(row)
    summary = {"type": "summary", "group": descriptor["name"],
               "pairs": len(rows), "failures": failures, "skips": skips,
               "seed": cfg.seed}
    if cfg.timing:
        summary["wall_time"] = round(time.monotonic() - started, 3)
    _emit(rows, cfg.fmt, cfg.out, summary)
    if failures:
        return 1
    return 3 if skips else 0


_CSV_COLUMNS = ["group", "h_order", "mu_ideal", "subspace_sum",
                "stabilizer_sum", "stabilizer_complement_sum",
                "subspace_chi_reduced", "stabilizer_chi_reduced", "mu_full",
                "decomposition_residual", "identities_hold"]


def _emit(rows: list, fmt: str, out: Optional[str],
          summary: Optional[dict] = None) -> None:
    """Write rows as CSV, or as JSON lines followed by the summary if any."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=_CSV_COLUMNS,
                                extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        records = rows if summary is None else rows + [summary]
        text = "\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _resolve_endpoint(group: GroupSet, spec: str) -> SubgroupRef:
    if spec == "trivial":
        return group.trivial_subgroup()
    if spec == "full":
        return group.full_subgroup()
    try:
        with open(spec) as fh:
            gen_lists = json.load(fh)
        ids = [group.index_of(Matrix.from_rows(group.field, rows))
               for rows in gen_lists]
    except (OSError, ValueError, TypeError, KeyError) as exc:
        raise GroupSpecError(f"cannot resolve subgroup spec {spec!r}: {exc}")
    return group.subgroup_closure(ids)


def cmd_mobius(cfg: RunConfig, low_spec: str, high_spec: str) -> int:
    try:
        group, descriptor = load_group(cfg)
        low = _resolve_endpoint(group, low_spec)
        high = _resolve_endpoint(group, high_spec)
        members = overgroup_interval(group, low, top=high,
                                     cap=cfg.max_interval)
        value = mobius_between(group, low, high, all_subgroups=members,
                               max_interval=cfg.max_interval)
    except MobiusLatticeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"group": descriptor["name"], "mu": value,
                      "interval_size": len(members)}, sort_keys=True))
    return 0


def cmd_report(paths: Sequence[str], fmt: str, out: Optional[str]) -> int:
    merged = {}
    try:
        for path in paths:
            with open(path) as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    row = json.loads(line)
                    if row.get("type") == "summary":
                        continue
                    key = (row.get("group"),
                           json.dumps(row.get("h_generators"), sort_keys=True))
                    if key in merged:
                        if merged[key] != row:
                            raise MalformedReport(
                                f"conflicting duplicate for {key[0]} pair")
                        continue
                    merged[key] = row
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: malformed report: {exc}", file=sys.stderr)
        return 2
    except MalformedReport as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit([merged[k] for k in sorted(merged, key=str)], fmt, out)
    return 0


def _add_group_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", choices=["GL", "SL"], default=None)
    p.add_argument("--gens", dest="gens_file", default=None,
                   help="JSON file with field, n and generator matrices")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--q", type=int, default=None,
                   help="field order; factored into p^u automatically")
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--u", type=int, default=1)
    p.add_argument("--modulus", default=None,
                   help="comma-separated modulus coefficients, low degree first")
    p.add_argument("--max-order", type=int, default=ORDER_CAP)
    p.add_argument("--max-interval", type=int, default=INTERVAL_CAP)
    p.add_argument("--max-powerset", type=int, default=POWERSET_CAP)


def _field_spec_from_args(args) -> dict:
    p, u = args.p, args.u
    if args.q is not None:
        q = args.q
        p = next((d for d in range(2, q + 1) if q % d == 0), q)
        u = 0
        while q % p == 0 and q > 1:
            q //= p
            u += 1
        if q != 1:
            raise GroupSpecError(f"--q {args.q} is not a prime power")
    if p is None:
        p = 2
    spec = {"p": p, "u": u or 1}
    if args.modulus:
        spec["modulus"] = [int(c) for c in args.modulus.split(",")]
    return spec


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="mobius-lattice",
        description="verify Mobius/Euler identities on subgroup ideals of "
                    "finite linear groups")
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="sweep subgroups and verify identities")
    _add_group_flags(pv)
    pv.add_argument("--subgroups", choices=["all", "reducible", "file"],
                    default="all")
    pv.add_argument("--subgroups-file", default=None)
    pv.add_argument("--max-index", type=int, default=None)
    pv.add_argument("--out", default=None)
    pv.add_argument("--format", dest="fmt", choices=["json", "csv"],
                    default="json")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--timing", action="store_true")
    pv.add_argument("--dump-faces", action="store_true")

    pm = sub.add_parser("mobius", help="Mobius value between two subgroups")
    _add_group_flags(pm)
    pm.add_argument("--from", dest="low", default="trivial",
                    help="'trivial', 'full' or a JSON generator-list file")
    pm.add_argument("--to", dest="high", default="full")

    pr = sub.add_parser("report", help="merge verification reports")
    pr.add_argument("paths", nargs="+")
    pr.add_argument("--format", dest="fmt", choices=["json", "csv"],
                    default="json")
    pr.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    if args.command == "report":
        return cmd_report(args.paths, args.fmt, args.out)
    try:
        field_spec = _field_spec_from_args(args)
    except GroupSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cfg = RunConfig(
        preset=args.preset, n=args.n, field_spec=field_spec,
        gens_file=args.gens_file, max_order=args.max_order,
        max_interval=args.max_interval, max_powerset=args.max_powerset)
    if args.command == "verify":
        cfg.subgroups = args.subgroups
        cfg.subgroups_file = args.subgroups_file
        cfg.max_index = args.max_index
        cfg.out = args.out
        cfg.fmt = args.fmt
        cfg.seed = args.seed
        cfg.timing = args.timing
        cfg.dump_faces = args.dump_faces
        return cmd_verify(cfg)
    if args.command == "mobius":
        return cmd_mobius(cfg, args.low, args.high)
    parser.error(f"unknown command {args.command}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
