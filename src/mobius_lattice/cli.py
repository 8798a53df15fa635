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
from typing import Optional, Sequence

from .errors import (
    FormatConflict,
    GroupSpecError,
    IntervalTooLarge,
    InvalidCap,
    MalformedReport,
    MobiusLatticeError,
    NotASubgroup,
    PowersetTooLarge,
    ReducibleAmbientGroup,
)
from .gfq import (
    FqField,
    _check_table_cap,
    _smallest_prime_factor,
    primitive_element,
)
from .group import (
    INTERVAL_CAP,
    ORDER_CAP,
    GroupSet,
    Matrix,
    SubgroupRef,
    _check_row_space,
    closure,
    is_irreducible,
    overgroup_interval,
)
from . import identities
from .identities import (
    certify_meets,
    mobius_between,
    stabilizer_family,
    store_greedy_generators,
    subgroup_lattice,
    verify_identities,
)
from .poset import POWERSET_CAP


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
    one = fq._one_index
    alpha = primitive_element(fq) if fq.q > 2 else one

    def matrix(rows):
        return Matrix(fq, n, n, tuple(v for r in rows for v in r))

    gens = []
    if n == 1:
        if kind == "SL" or fq.q == 2:
            gens.append(Matrix.identity(fq, 1))
        else:
            gens.append(matrix([[alpha]]))
        return gens
    # transvections I + a*E12 for a basis of GF(q) over its prime field
    basis_elt = one
    for k in range(fq.u):
        rows = [[one if i == j else 0 for j in range(n)] for i in range(n)]
        rows[0][1] = basis_elt
        gens.append(matrix(rows))
        basis_elt = fq._mul[basis_elt][alpha]
    # cycle permutation with the sign fixed so the determinant is 1
    rows = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        rows[i][i + 1] = one
    rows[n - 1][0] = one if n % 2 == 1 else fq._neg[one]
    gens.append(matrix(rows))
    if kind == "GL" and fq.q > 2:
        rows = [[one if i == j else 0 for j in range(n)] for i in range(n)]
        rows[0][0] = alpha
        gens.append(matrix(rows))
    return gens


def build_group(gens: Sequence[Matrix], cap: int = ORDER_CAP) -> GroupSet:
    """The group generated by ``gens``, as an explicit element set.

    Kept as its own function so that traced runs (bench/spans.py) see the
    closure step of ``load_group`` under one name."""
    return closure(gens, cap=cap)


def _flag_field(args: argparse.Namespace) -> FqField:
    """GF(--q), with --modulus if given."""
    q = args.q
    if q < 2:
        raise GroupSpecError(f"--q {q} is not a prime power")
    # the table cap comes first: factoring a huge q would not end
    _check_table_cap(q)
    p = _smallest_prime_factor(q)
    u = 0
    while q % p == 0:
        q //= p
        u += 1
    if q != 1:
        raise GroupSpecError(f"--q {args.q} is not a prime power")
    modulus = None
    if args.modulus:
        try:
            modulus = [int(c) for c in args.modulus.split(",")]
        except ValueError:
            raise GroupSpecError(
                f"--modulus {args.modulus!r} is not a comma-separated list "
                f"of integers") from None
    return FqField(p, u, modulus)


def load_group(args: argparse.Namespace) -> tuple:
    """Resolve the group the flags name; returns (GroupSet, descriptor dict).

    The field is the --gens file's "field" when it names one, and GF(--q),
    with --modulus if given, otherwise; only then are those flags read."""
    if args.gens_file:
        try:
            with open(args.gens_file) as fh:
                spec = json.load(fh)
            if not isinstance(spec, dict):
                raise TypeError("the file does not hold a JSON object")
            if "field" in spec:
                fq = FqField.from_dict(spec["field"])
            else:
                fq = _flag_field(args)
            n = spec["n"]
            # bool is a subclass of int, and every report row echoes n
            if type(n) is not int or n < 1:
                raise ValueError(f"n is {json.dumps(n)}, not an integer "
                                 f"of at least 1")
            gens = [Matrix.from_rows(fq, rows) for rows in spec["generators"]]
            if not gens:
                raise ValueError("no generators")
            if any(g.nrows != n or g.ncols != n for g in gens):
                raise ValueError(f"generators are not {n}x{n} matrices")
            name = spec.get("name", os.path.basename(args.gens_file))
            if not isinstance(name, str):
                raise TypeError("the group name is not a string")
        except (OSError, KeyError, ValueError, TypeError,
                RecursionError) as exc:
            raise GroupSpecError(f"cannot read generator file: {exc}") from exc
        group = build_group(gens, cap=args.max_order)
        return group, {"name": name, "n": n, "field": fq.to_dict()}
    fq = _flag_field(args)
    # the row space is checked from q and n before any n x n matrix is formed
    _check_row_space(fq.q, args.n)
    kind = args.preset or "GL"
    gens = preset_generators(kind, args.n, fq)
    group = build_group(gens, cap=args.max_order)
    expected = group_order_formula(kind, args.n, fq.q)
    if group.order != expected:
        raise GroupSpecError(
            f"preset {kind}({args.n},{fq.q}) closed to order {group.order}, "
            f"expected {expected}")
    return group, {"name": f"{kind}({args.n},{fq.q})", "n": args.n,
                   "field": fq.to_dict()}


def _subgroup_descriptor(group: GroupSet, h: SubgroupRef,
                         rendered: dict) -> dict:
    """H's order and generator matrices as row lists.  ``rendered`` maps
    each id rendered so far in the run to its rows, so a generator that
    several rows share is rendered once."""
    gens = []
    for i in h.generator_ids():
        rows = rendered.get(i)
        if rows is None:
            rows = rendered[i] = group.element(i).to_lists()
        gens.append(rows)
    return {"order": h.order, "generators": gens}


def _element_ids(group: GroupSet, gen_lists) -> list:
    """Ids of the matrices given as row lists; ValueError names a matrix
    that is not an element of the group."""
    if not isinstance(gen_lists, list):
        raise TypeError("expected a JSON list of matrices")
    ids = []
    for rows in gen_lists:
        m = Matrix.from_rows(group.field, rows)
        try:
            ids.append(group.index_of(m))
        except KeyError:
            raise ValueError(f"matrix {m.to_lists()} is not an element of "
                             f"the group") from None
    return ids


def select_subgroups(group: GroupSet, args: argparse.Namespace,
                     subs: Sequence) -> list:
    """The subgroups H to verify, chosen by the --subgroups scope from the
    complete subgroup list ``subs`` (or read from the subgroup file).  H is
    reducible when it lies in a stabilizer in the trivial subgroup's family."""
    if args.subgroups == "file":
        try:
            with open(args.subgroups_file) as fh:
                gen_lists = json.load(fh)
            wanted = [group.subgroup_closure(_element_ids(group, rows_list))
                      for rows_list in gen_lists]
        except (OSError, KeyError, ValueError, TypeError,
                RecursionError) as exc:
            raise GroupSpecError(f"cannot read subgroup file: {exc}") from exc
        if any(h.order == group.order for h in wanted):
            raise GroupSpecError(
                "subgroup file lists the whole group; identities are "
                "verified for proper subgroups only")
        return sorted(set(wanted), key=SubgroupRef.sort_key)
    stabs = []
    if args.subgroups == "reducible":
        stabs = [m.member_ids for m in stabilizer_family(
            group, group.trivial_subgroup()).distinct_stabilizers]
    out = []
    for h in subs:
        if h.order == group.order:
            continue
        if args.max_index is not None and group.order // h.order > args.max_index:
            continue
        if (args.subgroups == "reducible"
                and not any(h.member_ids <= m for m in stabs)):
            continue
        out.append(h)
    return out


def _check_caps(args: argparse.Namespace) -> None:
    """Reject a cap no run can mean: --max-index below 1 (no proper
    subgroup has index 0), --max-index with --subgroups file (the file names
    the subgroups outright) or a negative size cap; and a subgroup file
    verify would not read: --subgroups file with no --subgroups-file, or a
    --subgroups-file under another scope."""
    max_index = getattr(args, "max_index", None)
    if max_index is not None and max_index < 1:
        raise InvalidCap(f"--max-index {max_index} is below 1")
    if max_index is not None and args.subgroups == "file":
        raise InvalidCap("--max-index does not apply to --subgroups file")
    scope = getattr(args, "subgroups", None)
    if scope == "file" and not args.subgroups_file:
        raise GroupSpecError("--subgroups file needs a path")
    if scope not in (None, "file") and args.subgroups_file:
        raise GroupSpecError(f"--subgroups-file applies only to --subgroups "
                             f"file, not --subgroups {scope}")
    for name in ("max_order", "max_interval", "max_powerset"):
        value = getattr(args, name)
        if value < 0:
            raise InvalidCap(f"--{name.replace('_', '-')} {value} is negative")


def _check_format(args: argparse.Namespace) -> None:
    """Reject flags whose output a CSV report would drop: its rows have
    only the ``_CSV_COLUMNS`` and it has no summary."""
    if args.fmt == "csv" and (args.timing or args.dump_faces):
        raise FormatConflict(
            "--format csv has no column for --timing or --dump-faces")


def _check_writable(out: Optional[str]) -> None:
    """Fail before any work when the report path cannot be written.

    Append mode leaves an existing file as it is until the report is
    written.  A file the check creates is removed again: a run that then
    fails would leave it empty, and a later ``report`` would merge it as
    zero rows."""
    if out:
        existed = os.path.exists(out)
        try:
            open(out, "a").close()
        except OSError as exc:
            raise GroupSpecError(f"cannot write report: {exc}") from exc
        if not existed:
            os.remove(out)


def cmd_verify(args: argparse.Namespace) -> int:
    """Verify every H the --subgroups scope selects on the run's one
    lattice [1, G].  Under ``all`` and ``reducible`` the rows are its items:
    the element holders are listed once, for the greedy generators and for
    ``certify_meets``, so no ideal checks its own meets.  A ``file`` scope's
    subgroups join their own generators, and each ideal runs
    ``_validate_meets``."""
    # wall_time covers the whole run: load, lattice, selection and the loop
    started = time.monotonic()
    try:
        _check_caps(args)
        _check_format(args)
        _check_writable(args.out)
        group, descriptor = load_group(args)
        if not is_irreducible(group):
            raise ReducibleAmbientGroup(
                "ambient group fixes a proper non-trivial subspace")
        lattice = subgroup_lattice(overgroup_interval(
            group, group.trivial_subgroup(), cap=args.max_interval))
        if args.subgroups != "file":
            holding = identities._holders(lattice.items)
            store_greedy_generators(lattice, holding)
            certify_meets(group, lattice, holding)
        subgroups = select_subgroups(group, args, lattice.items)
    except MobiusLatticeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = []
    failures = 0
    skips = []
    rendered: dict = {}
    for h in subgroups:
        desc = _subgroup_descriptor(group, h, rendered)
        t0 = time.monotonic()
        try:
            report = verify_identities(
                group, h, lattice=lattice,
                max_interval=args.max_interval,
                max_powerset=args.max_powerset, with_decomposition=True)
        except (PowersetTooLarge, IntervalTooLarge) as exc:
            skips.append({"h_order": desc["order"],
                          "h_generators": desc["generators"],
                          "reason": str(exc)})
            continue
        row = {"group": descriptor["name"], "n": descriptor["n"],
               "field": descriptor["field"], "h_order": desc["order"],
               "h_generators": desc["generators"]}
        row.update(report.to_dict())
        if args.timing:
            row["timing"] = round(time.monotonic() - t0, 6)
        if args.dump_faces:
            row["subspace_complex_faces"] = {
                str(d): fl
                for d, fl in report.subspace_complex.face_lists().items()}
            row["stabilizer_complex_faces"] = {
                str(d): fl
                for d, fl in report.stabilizer_complex.face_lists().items()}
        ok = row["all_equal"] and row.get("decomposition_residual", 0) == 0
        row["identities_hold"] = ok
        if not ok:
            failures += 1
        rows.append(row)
    summary = {"type": "summary", "group": descriptor["name"],
               "pairs": len(rows), "failures": failures, "skips": skips,
               "seed": args.seed}
    if args.timing:
        summary["wall_time"] = round(time.monotonic() - started, 3)
    _emit(rows, args.fmt, args.out, summary)
    if args.fmt == "csv":
        # a CSV report has no summary, so its skip list goes to stderr
        for skip in skips:
            print(f"skipped: H of order {skip['h_order']}: {skip['reason']}",
                  file=sys.stderr)
    if failures:
        return 1
    return 3 if skips else 0


# one encoder for every JSON line; json.dumps(r, sort_keys=True) would build
# a new one per row and writes the same bytes
_JSON = json.JSONEncoder(sort_keys=True)

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
        text = "".join(_JSON.encode(r) + "\n" for r in records)
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
        ids = _element_ids(group, gen_lists)
    except (OSError, ValueError, TypeError, KeyError, RecursionError) as exc:
        raise GroupSpecError(f"cannot resolve subgroup spec {spec!r}: {exc}")
    return group.subgroup_closure(ids)


def cmd_mobius(args: argparse.Namespace) -> int:
    try:
        _check_caps(args)
        group, descriptor = load_group(args)
        low = _resolve_endpoint(group, args.low)
        high = _resolve_endpoint(group, args.high)
        if not low.member_ids <= high.member_ids:
            raise NotASubgroup(
                f"--from subgroup of order {low.order} is not contained in "
                f"--to subgroup of order {high.order}")
        lattice = subgroup_lattice(overgroup_interval(
            group, low, top=high, cap=args.max_interval))
        value = mobius_between(group, low, high, lattice=lattice)
    except MobiusLatticeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"group": descriptor["name"], "mu": value,
                      "interval_size": lattice.size}, sort_keys=True))
    return 0


def cmd_report(paths: Sequence[str], fmt: str, out: Optional[str]) -> int:
    merged = {}
    try:
        _check_writable(out)
        for path in paths:
            with open(path, encoding="utf-8") as fh:
                for number, line in enumerate(fh, 1):
                    line = line.strip()
                    if not line:
                        continue
                    row = json.loads(line)
                    if not isinstance(row, dict):
                        raise MalformedReport(
                            f"malformed report: {path}: line {number} is "
                            f"not a JSON object")
                    if row.get("type") == "summary":
                        continue
                    if not isinstance(row.get("group", ""), str):
                        raise MalformedReport(
                            f"malformed report: {path}: line {number}: "
                            f"the row's group is not a string")
                    key = (row.get("group"),
                           _JSON.encode(row.get("h_generators")))
                    # duplicates may differ in their timing only; the first
                    # row is kept
                    first = merged.setdefault(key, row)
                    if dict(first, timing=None) != dict(row, timing=None):
                        raise MalformedReport(
                            f"conflicting duplicate for {key[0]} pair")
    except OSError as exc:
        print(f"error: malformed report: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: malformed report: {path}: line {number}, column "
              f"{exc.colno}: {exc.msg}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        print(f"error: malformed report: {path}: not UTF-8 text: {exc}",
              file=sys.stderr)
        return 2
    except RecursionError as exc:
        # nesting past the interpreter's recursion limit
        print(f"error: malformed report: {path}: line {number}: {exc}",
              file=sys.stderr)
        return 2
    except (MalformedReport, GroupSpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit([merged[k] for k in sorted(merged, key=str)], fmt, out)
    return 0


def _add_group_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", choices=["GL", "SL"], default=None)
    p.add_argument("--gens", dest="gens_file", default=None,
                   help="JSON file with field, n and generator matrices")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--q", type=int, default=2,
                   help="field order, a prime power; factored into p^u")
    p.add_argument("--modulus", default=None,
                   help="comma-separated modulus coefficients, low degree first")
    p.add_argument("--max-order", type=int, default=ORDER_CAP)
    p.add_argument("--max-interval", type=int, default=INTERVAL_CAP)
    p.add_argument("--max-powerset", type=int, default=POWERSET_CAP)


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
    if args.command == "verify":
        return cmd_verify(args)
    return cmd_mobius(args)

if __name__ == "__main__":
    sys.exit(main())
