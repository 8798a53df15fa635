import collections
import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

from mobius_lattice import cli, identities, linalg
from mobius_lattice import group as group_module
from mobius_lattice.cli import main, preset_generators
from mobius_lattice.gfq import FqField
from mobius_lattice.group import closure, overgroup_interval
from mobius_lattice.linalg import Matrix


def run_cli(args):
    return main(args)


def read_jsonl(path):
    rows = []
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rows.append(json.loads(line))
    return rows


def test_verify_gl22_all_pass(tmp_path):
    out = tmp_path / "gl22.jsonl"
    code = run_cli(["verify", "--preset", "GL", "--n", "2", "--q", "2",
                    "--subgroups", "all", "--out", str(out)])
    assert code == 0
    rows = read_jsonl(out)
    summary = rows[-1]
    assert summary["type"] == "summary"
    assert summary["pairs"] == 5
    assert summary["failures"] == 0
    assert all(r["identities_hold"] for r in rows[:-1])


def test_verify_gl23_contains_vanishing_instance(tmp_path):
    out = tmp_path / "gl23.jsonl"
    code = run_cli(["verify", "--preset", "GL", "--n", "2", "--q", "3",
                    "--out", str(out)])
    assert code == 0
    rows = read_jsonl(out)
    assert rows[-1]["failures"] == 0
    vanishing = [r for r in rows[:-1]
                 if r["h_order"] == 2 and r["mu_ideal"] == 0]
    assert vanishing  # the block-diagonal order-2 subgroup shows up


def test_verify_reducible_scope_is_subset(tmp_path):
    out_all = tmp_path / "all.jsonl"
    out_red = tmp_path / "red.jsonl"
    assert run_cli(["verify", "--preset", "SL", "--n", "2", "--q", "3",
                    "--out", str(out_all)]) == 0
    assert run_cli(["verify", "--preset", "SL", "--n", "2", "--q", "3",
                    "--subgroups", "reducible", "--out", str(out_red)]) == 0
    n_all = read_jsonl(out_all)[-1]["pairs"]
    n_red = read_jsonl(out_red)[-1]["pairs"]
    assert 0 < n_red < n_all


@pytest.mark.parametrize("kind,n,q", [("SL", 2, 3), ("GL", 3, 2)])
def test_verify_reducible_scope_keeps_rows_with_invariant_subspaces(
        tmp_path, monkeypatch, kind, n, q):
    # the reducible rows are the rows of ``all`` whose H fixes a proper
    # non-trivial subspace; the scope reads that off the trivial subgroup's
    # family, so one family is built per kept row plus one
    family = identities.stabilizer_family
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return family(*args, **kwargs)

    monkeypatch.setattr(cli, "stabilizer_family", counted)
    monkeypatch.setattr(identities, "stabilizer_family", counted)
    argv = ["verify", "--preset", kind, "--n", str(n), "--q", str(q)]
    out_red = tmp_path / "red.jsonl"
    assert run_cli(argv + ["--subgroups", "reducible",
                           "--out", str(out_red)]) == 0
    red_rows = read_jsonl(out_red)[:-1]
    assert len(calls) == len(red_rows) + 1
    out_all = tmp_path / "all.jsonl"
    assert run_cli(argv + ["--out", str(out_all)]) == 0
    group = closure(preset_generators(kind, n, FqField(q)))

    def reducible(row):
        h = group.subgroup_closure([
            group.index_of(Matrix.from_rows(group.field, rows))
            for rows in row["h_generators"]])
        return bool(family(group, h).pairs)

    assert red_rows == [r for r in read_jsonl(out_all)[:-1] if reducible(r)]


def test_malformed_generator_file(tmp_path):
    bad = tmp_path / "gens.json"
    bad.write_text("{ not json")
    assert run_cli(["verify", "--gens", str(bad)]) == 2


def test_generator_file_round_trip(tmp_path):
    spec = {"name": "GL(2,2)-from-file", "field": {"p": 2, "u": 1}, "n": 2,
            "generators": [[[1, 1], [0, 1]], [[0, 1], [1, 0]]]}
    path = tmp_path / "gl22.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "out.jsonl"
    assert run_cli(["verify", "--gens", str(path), "--out", str(out)]) == 0
    rows = read_jsonl(out)
    assert rows[-1]["pairs"] == 5
    assert rows[0]["group"] == "GL(2,2)-from-file"


def test_reports_byte_identical(tmp_path):
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    argv = ["verify", "--preset", "GL", "--n", "2", "--q", "3",
            "--seed", "7"]
    assert run_cli(argv + ["--out", str(out1)]) == 0
    assert run_cli(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_mobius_command(capsys):
    assert run_cli(["mobius", "--preset", "GL", "--n", "2", "--q", "2",
                    "--from", "trivial", "--to", "full"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mu"] == 3
    assert payload["interval_size"] == 6


def test_mobius_same_endpoints(capsys):
    assert run_cli(["mobius", "--preset", "GL", "--n", "2", "--q", "3",
                    "--from", "full", "--to", "full"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mu"] == 1


def test_mobius_not_nested(tmp_path, capsys):
    gens = tmp_path / "h.json"
    gens.write_text(json.dumps([[[0, 1], [1, 0]]]))
    code = run_cli(["mobius", "--preset", "GL", "--n", "2", "--q", "2",
                    "--from", "full", "--to", str(gens)])
    assert code == 2
    # the flags are named, with the orders of the two endpoints
    assert capsys.readouterr().err == (
        "error: --from subgroup of order 6 is not contained in --to "
        "subgroup of order 2\n")


def test_report_merge_disjoint(tmp_path, capsys):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    assert run_cli(["verify", "--preset", "GL", "--n", "2", "--q", "2",
                    "--out", str(a)]) == 0
    assert run_cli(["verify", "--preset", "SL", "--n", "2", "--q", "3",
                    "--out", str(b)]) == 0
    na = read_jsonl(a)[-1]["pairs"]
    nb = read_jsonl(b)[-1]["pairs"]
    merged = tmp_path / "merged.jsonl"
    assert run_cli(["report", str(a), str(b), "--out", str(merged)]) == 0
    assert len(read_jsonl(merged)) == na + nb


def test_report_dedupes_identical(tmp_path):
    a = tmp_path / "a.jsonl"
    assert run_cli(["verify", "--preset", "GL", "--n", "2", "--q", "2",
                    "--out", str(a)]) == 0
    merged = tmp_path / "m.jsonl"
    assert run_cli(["report", str(a), str(a), "--out", str(merged)]) == 0
    assert len(read_jsonl(merged)) == read_jsonl(a)[-1]["pairs"]


def test_report_of_summary_only_inputs_writes_no_rows(tmp_path):
    # GL(1,2) is trivial, so its verify report is a summary with 0 pairs;
    # the merged JSON report of it is empty, and the CSV one a header alone
    a = tmp_path / "a.jsonl"
    assert run_cli(["verify", "--preset", "GL", "--n", "1", "--q", "2",
                    "--out", str(a)]) == 0
    assert read_jsonl(a)[-1]["pairs"] == 0
    merged = tmp_path / "merged.jsonl"
    assert run_cli(["report", str(a), "--out", str(merged)]) == 0
    assert merged.read_bytes() == b""
    table = tmp_path / "merged.csv"
    assert run_cli(["report", str(a), "--format", "csv",
                    "--out", str(table)]) == 0
    assert table.read_text().splitlines() == [",".join(cli._CSV_COLUMNS)]


def test_report_conflicting_duplicate(tmp_path):
    a = tmp_path / "a.jsonl"
    assert run_cli(["verify", "--preset", "GL", "--n", "2", "--q", "2",
                    "--out", str(a)]) == 0
    rows = read_jsonl(a)
    rows[0]["mu_ideal"] += 1
    b = tmp_path / "b.jsonl"
    b.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    assert run_cli(["report", str(a), str(b)]) == 2


def test_report_merges_rows_differing_in_timing_only(tmp_path):
    argv = ["verify", "--preset", "GL", "--n", "2", "--q", "2", "--timing"]
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    assert run_cli(argv + ["--out", str(a)]) == 0
    assert run_cli(argv + ["--out", str(b)]) == 0
    rows = read_jsonl(b)
    for r in rows[:-1]:
        r["timing"] += 1.0
    b.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    merged = tmp_path / "m.jsonl"
    assert run_cli(["report", str(a), str(b), "--out", str(merged)]) == 0
    # the first report's rows are kept
    key = lambda r: json.dumps(r["h_generators"], sort_keys=True)
    assert sorted(read_jsonl(merged), key=key) == \
        sorted(read_jsonl(a)[:-1], key=key)
    # a difference in any other field still conflicts
    rows[0]["mu_ideal"] += 1
    b.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    assert run_cli(["report", str(a), str(b)]) == 2


def test_skips_give_exit_three(tmp_path):
    out = tmp_path / "skip.jsonl"
    code = run_cli(["verify", "--preset", "GL", "--n", "2", "--q", "2",
                    "--max-powerset", "1", "--out", str(out)])
    assert code == 3
    rows = read_jsonl(out)
    assert rows[-1]["skips"]
    assert all("reason" in s for s in rows[-1]["skips"])


def test_csv_output(tmp_path):
    out = tmp_path / "table.csv"
    assert run_cli(["verify", "--preset", "GL", "--n", "2", "--q", "2",
                    "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("group,h_order,mu_ideal")
    assert len(lines) == 6


def test_subgroups_file_scope(tmp_path):
    subs = tmp_path / "subs.json"
    subs.write_text(json.dumps([
        [[[0, 1], [1, 0]]],           # a reflection, order 2
        [[[0, 1], [1, 1]]],           # order 3 rotation
    ]))
    out = tmp_path / "out.jsonl"
    assert run_cli(["verify", "--preset", "GL", "--n", "2", "--q", "2",
                    "--subgroups", "file", "--subgroups-file", str(subs),
                    "--out", str(out)]) == 0
    rows = read_jsonl(out)
    assert rows[-1]["pairs"] == 2
    assert sorted(r["h_order"] for r in rows[:-1]) == [2, 3]


def test_generator_file_without_field_uses_q(tmp_path):
    # GL(2,3) from a file that names no field: the field comes from --q
    spec = {"n": 2, "generators": [[[1, 1], [0, 1]], [[0, 1], [2, 0]],
                                   [[2, 0], [0, 1]]]}
    path = tmp_path / "gl23.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "out.jsonl"
    assert run_cli(["verify", "--gens", str(path), "--q", "3",
                    "--out", str(out)]) == 0
    rows = read_jsonl(out)
    assert rows[-1]["pairs"] == 54
    assert all(r["field"] == {"p": 3, "u": 1} for r in rows[:-1])


def test_generator_file_field_ignores_q(tmp_path):
    # the file names GF(2), so --q 1021 (over the field-table cap) is not read
    spec = {"field": {"p": 2, "u": 1}, "n": 2,
            "generators": [[[1, 1], [0, 1]], [[0, 1], [1, 0]]]}
    path = tmp_path / "g22.json"
    path.write_text(json.dumps(spec))
    with_q, without_q = tmp_path / "with_q.jsonl", tmp_path / "without.jsonl"
    assert run_cli(["verify", "--gens", str(path), "--q", "1021",
                    "--out", str(with_q)]) == 0
    assert run_cli(["verify", "--gens", str(path),
                    "--out", str(without_q)]) == 0
    assert with_q.read_bytes() == without_q.read_bytes()


def test_extension_field_group(tmp_path):
    # GL(1,4): cyclic of order 3, scalar matrices over GF(4)
    out = tmp_path / "gl14.jsonl"
    code = run_cli(["verify", "--preset", "GL", "--n", "1", "--q", "4",
                    "--out", str(out)])
    assert code == 0
    rows = read_jsonl(out)
    assert rows[-1]["pairs"] == 1  # only the trivial subgroup is proper


def test_bad_q_rejected():
    assert run_cli(["verify", "--preset", "GL", "--n", "2", "--q", "6"]) == 2


@pytest.mark.parametrize("command", ["verify", "mobius"])
@pytest.mark.parametrize("module, flags, message", [
    pytest.param("group", ["--n", "7"],
                 "row space GF(2)^7 has 128 vectors, over subspace cap 100",
                 id="row-space"),
    pytest.param("gfq", ["--q", "11"],
                 "GF(11) needs 121 table entries, over subspace cap 100",
                 id="field"),
])
def test_table_caps_fail_closed(command, module, flags, message, monkeypatch,
                                capsys):
    # the row space and the field tables are checked against the cap before
    # they are built, so a large --n or --q stops at once with one error line
    monkeypatch.setattr(f"mobius_lattice.{module}.SUBSPACE_CAP", 100)
    assert run_cli([command, "--preset", "GL"] + flags) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("n", ["20000", "1000000"])
def test_large_n_fails_before_any_generator(monkeypatch, capsys, n):
    # no preset generator is built: an n x n matrix per generator grew as n^2
    # before the cap was read, and the error line names 2^n, not q^n in full
    def unreachable(*args):
        raise AssertionError("preset generators built past the row-space cap")

    monkeypatch.setattr(cli, "preset_generators", unreachable)
    start = time.perf_counter()
    assert run_cli(["mobius", "--preset", "GL", "--n", n, "--q", "2"]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == (
        f"error: row space GF(2)^{n} has at least 2^{n} vectors, over "
        f"subspace cap 1000000\n")


def test_max_index_scope(tmp_path):
    out = tmp_path / "bounded.jsonl"
    assert run_cli(["verify", "--preset", "GL", "--n", "2", "--q", "3",
                    "--max-index", "4", "--out", str(out)]) == 0
    rows = read_jsonl(out)
    assert rows[-1]["pairs"] > 0
    assert all(48 // r["h_order"] <= 4 for r in rows[:-1])


def test_timing_flag_adds_fields(tmp_path):
    out = tmp_path / "timed.jsonl"
    assert run_cli(["verify", "--preset", "GL", "--n", "2", "--q", "2",
                    "--timing", "--out", str(out)]) == 0
    rows = read_jsonl(out)
    assert all("timing" in r for r in rows[:-1])
    assert "wall_time" in rows[-1]


def test_timing_wall_time_covers_load(tmp_path, monkeypatch):
    # the clock starts before the group is loaded, not at the verify loop
    original = cli.load_group

    def slow_load(args):
        time.sleep(0.3)
        return original(args)

    monkeypatch.setattr(cli, "load_group", slow_load)
    out = tmp_path / "timed.jsonl"
    assert run_cli(["verify", "--preset", "GL", "--n", "2", "--q", "2",
                    "--timing", "--out", str(out)]) == 0
    assert read_jsonl(out)[-1]["wall_time"] >= 0.3


def test_dump_faces_flag(tmp_path):
    out = tmp_path / "faces.jsonl"
    assert run_cli(["verify", "--preset", "GL", "--n", "2", "--q", "2",
                    "--dump-faces", "--out", str(out)]) == 0
    row = read_jsonl(out)[0]
    assert "subspace_complex_faces" in row
    assert "stabilizer_complex_faces" in row


def test_dump_faces_reuses_complexes(tmp_path, monkeypatch):
    calls = []
    original = identities.build_complexes

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(identities, "build_complexes", counted)
    out = tmp_path / "faces.jsonl"
    assert run_cli(["verify", "--preset", "GL", "--n", "2", "--q", "3",
                    "--dump-faces", "--out", str(out)]) == 0
    assert len(calls) == 54  # once per proper subgroup of GL(2,3)
    # written by the code that built the complexes a second time per pair
    assert _sha256(out) == (
        "013b6bc5e28e569ee16d06cd111d355a42ce5c55c84342643309864cdc2c8580")


def _run_module(*args):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    # a hung run fails its own test instead of the whole job
    return subprocess.run([sys.executable, "-m", "mobius_lattice.cli", *args],
                          capture_output=True, text=True, env=env, timeout=60)


def test_report_non_object_line_exits_two(tmp_path):
    path = tmp_path / "list.jsonl"
    path.write_text("[1]\n")
    proc = _run_module("report", str(path))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: malformed report")
    assert len(proc.stderr.strip().splitlines()) == 1


@pytest.mark.parametrize("group", [["x"], {"x": 1}, 5])
def test_report_row_with_non_string_group_exits_two(tmp_path, group):
    # group is part of each row's merge key, and a list there cannot be
    # hashed; exit 1 would read as a failed identity
    path = tmp_path / "rows.jsonl"
    path.write_text(json.dumps({"group": group, "h_generators": []}) + "\n")
    proc = _run_module("report", str(path))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: malformed report")
    assert len(proc.stderr.strip().splitlines()) == 1


# sha256 of reports written by the code before the single-enumeration
# refactor; any change to report bytes shows up here
GOLDEN_JSON = {
    ("GL", "2", "2"):
        "b1d267919fcf76730447e610d099552b89cb9599437fe860e565ed052acff007",
    ("GL", "2", "3"):
        "16444aac7b30c609b216ad605275222bb672999dd7fe587153cbabdef84f18d7",
    ("SL", "2", "3"):
        "1967451eae1d564fcc94872df7f9739645b2f50d8e3633b7a4da49c4239e9859",
    ("GL", "3", "2"):
        "1a082cbb8615785d9e189ffec9a35361ffd8a94c8d62d06abd8163ff0cc42ef3",
}
GOLDEN_CSV_GL23 = (
    "4439714698b8c42fe835d0ad4ae8cccceafe05138f786dd93783f89c37142bf2")
GOLDEN_MERGED_CSV = (
    "c27313a08ac6433e3e952e0549e44d215f2956e2e052dbf8ed3e1c282729ab4c")


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_reports_match_golden_bytes(tmp_path):
    reports = []
    for (kind, n, q), digest in GOLDEN_JSON.items():
        out = tmp_path / f"{kind}{n}{q}.jsonl"
        assert run_cli(["verify", "--preset", kind, "--n", n, "--q", q,
                        "--out", str(out)]) == 0
        assert _sha256(out) == digest, (kind, n, q)
        reports.append(str(out))
    csv_out = tmp_path / "gl23.csv"
    assert run_cli(["verify", "--preset", "GL", "--n", "2", "--q", "3",
                    "--format", "csv", "--out", str(csv_out)]) == 0
    assert _sha256(csv_out) == GOLDEN_CSV_GL23
    merged = tmp_path / "merged.csv"
    assert run_cli(["report", *reports, "--format", "csv",
                    "--out", str(merged)]) == 0
    assert _sha256(merged) == GOLDEN_MERGED_CSV


# sha256 of SL(2,q) reports over extension fields, written before the field
# layer moved to index-level helpers: they cover the preset transvections
# over a basis of GF(q) and the coefficient lists printed for u > 1
GOLDEN_EXTENSION_JSON = {
    "4": "dba40f8d1ac2e576b4b607a7aa4bac80d18d0fd5a131452532a5084d74cb8053",
    "8": "4a1bfb0a879d0369e6271fea81da891d21e53ee05bc3846f3961511628f312c6",
    "9": "8550396d07d8887758827e0eaf6522bc183170fc8e7392af57cedfe26948c830",
}


@pytest.mark.parametrize("q", sorted(GOLDEN_EXTENSION_JSON))
def test_extension_field_reports_match_golden_bytes(tmp_path, q):
    out = tmp_path / f"SL2{q}.jsonl"
    assert run_cli(["verify", "--preset", "SL", "--n", "2", "--q", q,
                    "--out", str(out)]) == 0
    assert _sha256(out) == GOLDEN_EXTENSION_JSON[q]


@pytest.mark.slow
def test_slow_sl33_sweep_matches_golden_bytes(tmp_path):
    # the paper's n = 3 setting, every proper subgroup of SL(3,3): 6,372
    # rows, and H = 1 skipped at the powerset cap, hence exit 3
    out = tmp_path / "SL33.jsonl"
    assert run_cli(["verify", "--preset", "SL", "--n", "3", "--q", "3",
                    "--subgroups", "all", "--out", str(out)]) == 3
    assert _sha256(out) == (
        "5c8d77c35c1c5a05b5096cdf38183f222db9ceb9c91b127d58acc7920ea854a6")


@pytest.mark.parametrize("kind,n,q,mu,size", [
    ("SL", "2", "4", -60, 59),   # A5
    ("GL", "3", "2", 0, 179),    # PSL(2,7)
    ("GL", "2", "3", 0, 55),
])
def test_mobius_published_values(capsys, kind, n, q, mu, size):
    # P. Hall, "The Eulerian functions of a group", Q. J. Math. 7 (1936)
    assert run_cli(["mobius", "--preset", kind, "--n", n, "--q", q,
                    "--from", "trivial", "--to", "full"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["mu"], payload["interval_size"]) == (mu, size)


@pytest.fixture
def interval_calls(monkeypatch):
    """Counts overgroup_interval calls made from cli.py and identities.py,
    and subgroup_lattice builds made from cli.py, by name."""
    calls = []

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(cli, "overgroup_interval")
    count(identities, "overgroup_interval")
    count(cli, "subgroup_lattice")
    return calls


@pytest.mark.parametrize("scope", ["all", "reducible", "file"])
def test_verify_enumerates_lattice_once(tmp_path, interval_calls, scope):
    subs = tmp_path / "subs.json"
    subs.write_text(json.dumps([[[[0, 1], [1, 0]]]]))
    assert run_cli(["verify", "--preset", "GL", "--n", "2", "--q", "3",
                    "--subgroups", scope, "--subgroups-file", str(subs),
                    "--out", str(tmp_path / "out.jsonl")]) == 0
    assert sorted(interval_calls) == ["overgroup_interval", "subgroup_lattice"]


def test_mobius_enumerates_interval_once(capsys, interval_calls):
    assert run_cli(["mobius", "--preset", "GL", "--n", "2", "--q", "3",
                    "--from", "trivial", "--to", "full"]) == 0
    assert sorted(interval_calls) == ["overgroup_interval", "subgroup_lattice"]


def test_verify_reads_row_generators_off_the_lattice(tmp_path, monkeypatch):
    # rows of --subgroups all take their greedy generators off the run's
    # lattice: no join inside H (the only _generate call passing top) runs,
    # where the joins would run one per row.  A file's subgroups are not
    # lattice items and still join their own
    generate = group_module.GroupSet._generate
    topped = []

    def counted(self, ids, top=None):
        if top is not None:
            topped.append(top)
        return generate(self, ids, top)

    monkeypatch.setattr(group_module.GroupSet, "_generate", counted)
    gl25 = ["verify", "--preset", "GL", "--n", "2", "--q", "5"]
    assert run_cli([*gl25, "--out", str(tmp_path / "all.jsonl")]) == 0
    assert topped == []
    subs = tmp_path / "subs.json"
    subs.write_text(json.dumps([[[[0, 1], [1, 0]]]]))
    assert run_cli([*gl25, "--subgroups", "file", "--subgroups-file",
                    str(subs), "--out", str(tmp_path / "file.jsonl")]) == 0
    assert len(topped) == 1


def _count_calls(monkeypatch, calls, module, name):
    """Count the calls of ``module.name`` into ``calls[name]``."""
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_verify_certifies_meets_once_and_fixes_subspaces_per_element(
        tmp_path, monkeypatch):
    # a GL(2,5) sweep on a fresh group: the run's lattice is certified once,
    # so no ideal runs the per-ideal meet check; the subspaces each element
    # fixes are found once per distinct generator element (the identity for
    # H = 1), off its row action, and invariant_subspaces runs once, for
    # the irreducibility test
    calls = collections.Counter()
    _count_calls(monkeypatch, calls, identities, "_validate_meets")
    _count_calls(monkeypatch, calls, identities, "subspaces_fixed_by")
    _count_calls(monkeypatch, calls, identities, "invariant_subspaces")
    _count_calls(monkeypatch, calls, group_module, "invariant_subspaces")
    _count_calls(monkeypatch, calls, cli, "certify_meets")
    assert run_cli(["verify", "--preset", "GL", "--n", "2", "--q", "5",
                    "--out", str(tmp_path / "out.jsonl")]) == 0
    seen = dict(calls)
    group = closure(preset_generators("GL", 2, FqField(5)))
    subs = overgroup_interval(group, group.trivial_subgroup())
    elements = {i for h in subs[:-1]
                for i in h.generator_ids() or (group.identity_index,)}
    assert seen == {"subspaces_fixed_by": len(elements),
                    "invariant_subspaces": 1, "certify_meets": 1}


def test_verify_builds_every_holder_list_once(tmp_path, monkeypatch):
    # a GL(2,5) sweep lists the holders of every element once, for the
    # greedy generators; the order build lists only each item's rarest
    # member's holders, in a pass of its own
    calls = collections.Counter()
    _count_calls(monkeypatch, calls, identities, "_holders")
    assert run_cli(["verify", "--preset", "GL", "--n", "2", "--q", "5",
                    "--subgroups", "all",
                    "--out", str(tmp_path / "out.jsonl")]) == 0
    assert calls == {"_holders": 1}


def test_verify_applies_matrices_only_to_roots_and_subspaces(
        tmp_path, monkeypatch):
    # a GL(2,5) sweep on a fresh group: apply_row builds the row actions of
    # the 3 generators alone, 25 vectors each, and every other action is
    # composed; it also runs in Subspace.apply, the stabilizers' orbit
    # moves, and in invariant_subspaces, the irreducibility test
    callers = collections.Counter()
    apply_row = linalg.apply_row
    sites = {"_matrix_row_action", "apply", "invariant_subspaces"}

    def traced(*args, **kwargs):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code.co_name not in sites:
            frame = frame.f_back
        callers[frame and frame.f_code.co_name] += 1
        return apply_row(*args, **kwargs)

    monkeypatch.setattr(linalg, "apply_row", traced)
    monkeypatch.setattr(group_module, "apply_row", traced)
    built = collections.Counter()
    _count_calls(monkeypatch, built, group_module, "_matrix_row_action")
    assert run_cli(["verify", "--preset", "GL", "--n", "2", "--q", "5",
                    "--out", str(tmp_path / "out.jsonl")]) == 0
    assert built == {"_matrix_row_action": 3}
    assert callers["_matrix_row_action"] == 3 * 25
    assert set(callers) == sites


def test_verify_one_pair_checks_its_ideal_without_the_certificate(
        tmp_path, monkeypatch):
    # GL(2,5) on its Borel subgroup, named in a file: the file's subgroups
    # are not the lattice's items, so the run checks the one ideal's meets
    # and certifies nothing; the row is the Borel's row of the certified
    # full sweep, byte for byte
    borel = [[[2, 0], [0, 1]], [[1, 0], [0, 2]], [[1, 1], [0, 1]]]
    subs = tmp_path / "subs.json"
    subs.write_text(json.dumps([borel]))
    gl25 = ["verify", "--preset", "GL", "--n", "2", "--q", "5"]
    calls = collections.Counter()
    _count_calls(monkeypatch, calls, identities, "_validate_meets")
    _count_calls(monkeypatch, calls, cli, "certify_meets")
    one = tmp_path / "one.jsonl"
    assert run_cli([*gl25, "--subgroups", "file", "--subgroups-file",
                    str(subs), "--out", str(one)]) == 0
    assert dict(calls) == {"_validate_meets": 1}
    swept = tmp_path / "all.jsonl"
    assert run_cli([*gl25, "--out", str(swept)]) == 0
    assert calls["certify_meets"] == 1
    row = one.read_text().splitlines()[0]
    assert json.loads(row)["h_order"] == 80
    assert row in swept.read_text().splitlines()


def test_verify_bounded_index_run_certifies_its_lattice(
        tmp_path, monkeypatch):
    # a GL(2,5) run limited to index 4 takes its rows from the enumerated
    # lattice, so it certifies the lattice once and checks no ideal on its
    # own; its rows are the same rows of the full sweep, byte for byte
    gl25 = ["verify", "--preset", "GL", "--n", "2", "--q", "5"]
    calls = collections.Counter()
    _count_calls(monkeypatch, calls, identities, "_validate_meets")
    _count_calls(monkeypatch, calls, cli, "certify_meets")
    bounded = tmp_path / "bounded.jsonl"
    assert run_cli([*gl25, "--max-index", "4", "--out", str(bounded)]) == 0
    assert dict(calls) == {"certify_meets": 1}
    swept = tmp_path / "all.jsonl"
    assert run_cli([*gl25, "--out", str(swept)]) == 0
    rows = bounded.read_text().splitlines()[:-1]
    assert rows
    assert all(480 // json.loads(r)["h_order"] <= 4 for r in rows)
    assert rows == [r for r in swept.read_text().splitlines()[:-1]
                    if 480 // json.loads(r)["h_order"] <= 4]


def test_verify_reducible_ambient_group_exits_two(tmp_path):
    spec = {"field": {"p": 2, "u": 1}, "n": 2,
            "generators": [[[1, 1], [0, 1]]]}
    path = tmp_path / "reducible.json"
    path.write_text(json.dumps(spec))
    proc = _run_module("verify", "--gens", str(path))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    assert len(proc.stderr.strip().splitlines()) == 1


_GL22 = ["--preset", "GL", "--n", "2", "--q", "2"]
_GL22_GENS = [[[1, 1], [0, 1]], [[0, 1], [1, 0]]]
_SINGULAR = [[1, 0], [0, 0]]  # a 2x2 matrix outside every GL(2,q)


def _gens_file(tmp_path, spec):
    path = tmp_path / "gens.json"
    path.write_text(json.dumps(spec))
    return ["--gens", str(path)]


def _gl22_spec(first):
    # a generator file of GL(2,2) whose first generator is ``first``
    return {"field": {"p": 2, "u": 1}, "n": 2,
            "generators": [first, _GL22_GENS[1]]}


def _subgroups_file(tmp_path, gen_lists):
    path = tmp_path / "subs.json"
    path.write_text(json.dumps(gen_lists))
    return [*_GL22, "--subgroups", "file", "--subgroups-file", str(path)]


# JSON text nested past the interpreter's recursion limit: json raises
# RecursionError, which every reader reports as its own exit-2 error line
_DEEP = "[" * 100000 + "]" * 100000


def _text_file(tmp_path, text):
    path = tmp_path / "deep.json"
    path.write_text(text)
    return str(path)


def _matrices_file(tmp_path, gen_lists):
    # an endpoint file of ``mobius``: a JSON list of matrices
    path = tmp_path / "ends.json"
    path.write_text(json.dumps(gen_lists))
    return str(path)


# (arguments built from tmp_path, expected exit code[, command]); the
# command is verify unless a third entry names another
EXIT_CASES = {
    "all-verified": (lambda tmp: _GL22, 0),
    "pairs-skipped": (lambda tmp: [*_GL22, "--max-powerset", "1"], 3),
    "pairs-skipped-csv": (lambda tmp: [
        *_GL22, "--max-powerset", "1", "--format", "csv"], 3),
    # a CSV row has no column for a timing or a face dump
    "csv-with-timing": (lambda tmp: [
        *_GL22, "--format", "csv", "--timing"], 2),
    "csv-with-dump-faces": (lambda tmp: [
        *_GL22, "--format", "csv", "--dump-faces"], 2),
    # caps no run can mean fail as usage errors, before any group is built
    "max-index-zero": (lambda tmp: [*_GL22, "--max-index", "0"], 2),
    # the file's subgroups are verified as named, so an index cap on them
    # would be ignored; a reflection and a rotation, of index 3 and 2
    "max-index-with-subgroup-file": (lambda tmp: [*_subgroups_file(
        tmp, [[[[0, 1], [1, 0]]], [[[0, 1], [1, 1]]]]), "--max-index", "1"],
        2),
    "max-order-negative": (lambda tmp: [*_GL22, "--max-order", "-1"], 2),
    "max-interval-negative": (lambda tmp: [
        *_GL22, "--max-interval", "-1"], 2),
    "max-powerset-negative": (lambda tmp: [
        *_GL22, "--max-powerset", "-1"], 2),
    "mobius-max-interval-negative": (lambda tmp: [
        *_GL22, "--max-interval", "-1"], 2, "mobius"),
    "no-generators": (lambda tmp: _gens_file(
        tmp, {"field": {"p": 2, "u": 1}, "n": 2, "generators": []}), 2),
    "generator-file-not-object": (lambda tmp: _gens_file(tmp, [1, 2]), 2),
    # the name is written into every row's group, which report sorts on
    "generator-name-list": (lambda tmp: _gens_file(
        tmp, dict(_gl22_spec(_GL22_GENS[0]), name=["x"])), 2),
    "generator-name-object": (lambda tmp: _gens_file(
        tmp, dict(_gl22_spec(_GL22_GENS[0]), name={"x": 1})), 2),
    # n is echoed into every report row, so only a positive int passes
    "generator-n-float": (lambda tmp: _gens_file(
        tmp, dict(_gl22_spec(_GL22_GENS[0]), n=2.0)), 2),
    "generator-n-boolean": (lambda tmp: _gens_file(
        tmp, dict(_gl22_spec(_GL22_GENS[0]), n=True)), 2),
    "generator-n-string": (lambda tmp: _gens_file(
        tmp, dict(_gl22_spec(_GL22_GENS[0]), n="2")), 2),
    "generator-n-zero": (lambda tmp: _gens_file(
        tmp, dict(_gl22_spec(_GL22_GENS[0]), n=0)), 2),
    "generator-size-not-n": (lambda tmp: _gens_file(
        tmp, {"field": {"p": 2, "u": 1}, "n": 3,
              "generators": _GL22_GENS}), 2),
    # a --gens file's field must be an object of ints; true is no int, and
    # {"p": 2, "u": true} would otherwise run GF(2)
    "field-u-boolean": (lambda tmp: _gens_file(
        tmp, dict(_gl22_spec(_GL22_GENS[0]), field={"p": 2, "u": True})), 2),
    "field-p-float": (lambda tmp: _gens_file(
        tmp, dict(_gl22_spec(_GL22_GENS[0]), field={"p": 3.0})), 2),
    "field-u-string": (lambda tmp: _gens_file(
        tmp, dict(_gl22_spec(_GL22_GENS[0]), field={"p": 3, "u": "x"})), 2),
    "field-modulus-string": (lambda tmp: _gens_file(
        tmp, dict(_gl22_spec(_GL22_GENS[0]),
                  field={"p": 2, "u": 2, "modulus": "x"})), 2),
    "field-not-object": (lambda tmp: _gens_file(
        tmp, dict(_gl22_spec(_GL22_GENS[0]), field=[3])), 2),
    "modulus-not-integers": (lambda tmp: [
        "--preset", "GL", "--n", "2", "--q", "4", "--modulus", "1,x"], 2),
    "modulus-prime-field": (lambda tmp: [*_GL22, "--modulus", "1,1,1"], 2),
    "q-zero": (lambda tmp: ["--preset", "GL", "--n", "2", "--q", "0"], 2),
    # primes far over the field-table cap: the cap is checked before q is
    # factored, so neither waits for a trial division
    "q-large-prime": (lambda tmp: ["--q", "1000000007"], 2, "mobius"),
    "q-mersenne-prime": (lambda tmp: ["--q", str(2 ** 61 - 1)], 2),
    # q^2 of 6,001 digits is past Python's int-to-str limit, and q >= 2**u
    # rejects the extension before 2**(10**6) is formed
    "q-3001-digits": (lambda tmp: ["--q", str(10 ** 3000 + 7)], 2, "mobius"),
    "field-u-million": (lambda tmp: _gens_file(
        tmp, dict(_gl22_spec(_GL22_GENS[0]), field={"p": 2, "u": 10 ** 6})),
        2),
    "out-dir-missing": (lambda tmp: [
        *_GL22, "--out", str(tmp / "missing" / "out.jsonl")], 2),
    "subgroup-file-whole-group": (lambda tmp: _subgroups_file(
        tmp, [_GL22_GENS]), 2),
    "subgroup-file-matrix-outside-group": (lambda tmp: _subgroups_file(
        tmp, [[_SINGULAR]]), 2),
    "subgroup-file-entry-string": (lambda tmp: _subgroups_file(
        tmp, [[[[1, "a"], [0, 1]]]]), 2),
    "subgroup-file-entry-float": (lambda tmp: _subgroups_file(
        tmp, [[[[1, 1.5], [0, 1]]]]), 2),
    "subgroup-file-entry-not-list": (lambda tmp: _subgroups_file(
        tmp, ["x"]), 2),
    "generator-entry-string": (lambda tmp: _gens_file(
        tmp, _gl22_spec([[1, "a"], [0, 1]])), 2),
    "generator-entry-float": (lambda tmp: _gens_file(
        tmp, _gl22_spec([[1, 1.5], [0, 1]])), 2),
    # [[true, 1], [0, 1]] would be the transvection if true were read as 1
    "generator-entry-boolean": (lambda tmp: _gens_file(
        tmp, _gl22_spec([[True, 1], [0, 1]])), 2),
    # a matrix given as one flat row of integers, in each kind of file
    "generator-flat-row": (lambda tmp: _gens_file(
        tmp, {"field": {"p": 2, "u": 1}, "n": 2, "generators": [[1, 0]]}), 2),
    "mobius-from-flat-row": (lambda tmp: [
        *_GL22, "--from", _matrices_file(tmp, [[1, 0]]), "--to", "full"],
        2, "mobius"),
    "subgroup-file-flat-row": (lambda tmp: _subgroups_file(
        tmp, [[[1, 0], [0, 1]]]), 2),
    # GL(2,2) has order 6
    "order-cap": (lambda tmp: [*_GL22, "--max-order", "5"], 2),
    # the row space is checked from q and n before any n x n generator is
    # formed, and 2^n is never printed in full
    "n-20000": (lambda tmp: ["--preset", "GL", "--n", "20000", "--q", "2"],
                2),
    "n-million": (lambda tmp: [
        "--preset", "GL", "--n", "1000000", "--q", "2"], 2, "mobius"),
    "n-negative-401-digits": (lambda tmp: [
        "--preset", "GL", "--n", str(-10 ** 400), "--q", "2"], 2),
    "report-deep-nesting": (lambda tmp: [_text_file(tmp, _DEEP)], 2,
                            "report"),
    "generator-file-deep-nesting": (lambda tmp: [
        "--gens", _text_file(tmp, '{"field": {"p": 2, "u": 1}, "n": 2, '
                                  f'"generators": {_DEEP}}}')], 2),
    "subgroup-file-deep-nesting": (lambda tmp: [
        *_GL22, "--subgroups", "file", "--subgroups-file",
        _text_file(tmp, _DEEP)], 2),
    "mobius-from-deep-nesting": (lambda tmp: [
        *_GL22, "--from", _text_file(tmp, _DEEP), "--to", "full"], 2,
        "mobius"),
    # the whole group is not contained in the trivial subgroup
    "mobius-endpoints-not-nested": (lambda tmp: [
        "--preset", "GL", "--n", "2", "--q", "3", "--from", "full",
        "--to", "trivial"], 2, "mobius"),
}


@pytest.mark.parametrize("case", sorted(EXIT_CASES))
def test_verify_exit_codes(tmp_path, case):
    build_args, code, *command = EXIT_CASES[case]
    proc = _run_module(*(command or ["verify"]), *build_args(tmp_path))
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    if code == 2:
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines


@pytest.mark.parametrize("case", ["q-3001-digits", "field-u-million"])
def test_oversized_fields_name_the_subspace_cap(tmp_path, case, capsys):
    # the table cap's own line, not Python's int-to-str limit message
    build_args, _, *command = EXIT_CASES[case]
    assert run_cli([*(command or ["verify"]), *build_args(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.endswith("table entries, over subspace cap 1000000\n"), err


@pytest.mark.parametrize("command,flag,value,message", [
    ("verify", "--max-index", "0", "--max-index 0 is below 1"),
    ("verify", "--max-index", "-1", "--max-index -1 is below 1"),
    ("verify", "--max-order", "-2", "--max-order -2 is negative"),
    ("verify", "--max-interval", "-1", "--max-interval -1 is negative"),
    ("verify", "--max-powerset", "-1", "--max-powerset -1 is negative"),
    ("mobius", "--max-order", "-1", "--max-order -1 is negative"),
    ("mobius", "--max-powerset", "-3", "--max-powerset -3 is negative"),
])
def test_meaningless_cap_names_flag_and_value(capsys, command, flag, value,
                                              message):
    assert run_cli([command, *_GL22, flag, value]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("flag", ["--timing", "--dump-faces"])
def test_csv_verify_rejects_flags_it_would_drop(tmp_path, capsys, flag):
    out = tmp_path / "out.csv"
    assert run_cli(["verify", *_GL22, "--format", "csv", flag,
                    "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: --format csv has no column for --timing or --dump-faces\n")
    assert not out.exists()


def test_csv_verify_names_skipped_pairs_on_stderr(tmp_path, capsys):
    # a CSV report has no summary, so each pair the JSON summary lists as
    # skipped gets one stderr line with its order and the reason
    json_out, csv_out = tmp_path / "out.jsonl", tmp_path / "out.csv"
    assert run_cli(["verify", *_GL22, "--max-powerset", "1",
                    "--out", str(json_out)]) == 3
    assert capsys.readouterr().err == ""
    skips = json.loads(json_out.read_text().splitlines()[-1])["skips"]
    assert run_cli(["verify", *_GL22, "--max-powerset", "1",
                    "--format", "csv", "--out", str(csv_out)]) == 3
    assert capsys.readouterr().err.splitlines() == [
        f"skipped: H of order {s['h_order']}: {s['reason']}" for s in skips]
    assert skips


def test_zero_size_caps_are_kept(tmp_path):
    # a size cap of 0 is meaningful: every pair with a stabilizer is skipped
    assert run_cli(["verify", *_GL22, "--max-powerset", "0",
                    "--out", str(tmp_path / "out.jsonl")]) == 3


@pytest.mark.parametrize("flag", ["--from", "--to"])
def test_mobius_names_matrix_outside_group(tmp_path, flag):
    path = tmp_path / "gens.json"
    path.write_text(json.dumps([_SINGULAR]))
    ends = {"--from": "trivial", "--to": "full", flag: str(path)}
    proc = _run_module("mobius", *_GL22, "--from", ends["--from"],
                       "--to", ends["--to"])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert "matrix [[1, 0], [0, 0]] is not an element of the group" in lines[0]


def test_bad_matrix_entry_names_value(tmp_path):
    proc = _run_module("verify", *_gens_file(
        tmp_path, _gl22_spec([[1, "a"], [0, 1]])))
    assert proc.returncode == 2
    assert proc.stderr.strip() == (
        "error: cannot read generator file: 'a' is not an element of "
        "GF(2): expected an integer or a list of 1 integer")


@pytest.mark.parametrize("n,shown", [(2.0, "2.0"), (True, "true"),
                                     ("2", '"2"'), (0, "0"), (None, "null")])
def test_generator_file_n_names_value(tmp_path, capsys, n, shown):
    args = _gens_file(tmp_path, dict(_gl22_spec(_GL22_GENS[0]), n=n))
    assert run_cli(["verify", *args]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot read generator file: n is {shown}, not an integer "
        f"of at least 1\n")


@pytest.mark.parametrize("generators,message", [
    ([[1, 0]], "expected a list of entries for a row, got 1"),
    ([1], "expected a list of rows for a matrix, got 1"),
], ids=["flat-row", "flat-matrix"])
def test_flat_matrix_names_value(tmp_path, generators, message):
    proc = _run_module("verify", *_gens_file(
        tmp_path, {"field": {"p": 2, "u": 1}, "n": 2,
                   "generators": generators}))
    assert proc.returncode == 2
    assert proc.stderr.strip() == (
        f"error: cannot read generator file: {message}")


@pytest.mark.parametrize("flag", ["--from", "--to"])
def test_mobius_rejects_generator_file_object(tmp_path, flag):
    # a --gens file is a JSON object; an endpoint file is a list of matrices
    args = _gens_file(tmp_path, {"field": {"p": 2, "u": 1}, "n": 2,
                                 "generators": _GL22_GENS})
    ends = {"--from": "trivial", "--to": "full", flag: args[1]}
    proc = _run_module("mobius", *_GL22, "--from", ends["--from"],
                       "--to", ends["--to"])
    assert proc.returncode == 2
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert "expected a JSON list of matrices" in lines[0]


def test_report_malformed_line_names_file_and_line(tmp_path):
    path = tmp_path / "cut.jsonl"
    path.write_text('{"group": "a", "h_generators": []}\n\n'
                    '{"group": "b", "h_generators": "[[1\n')
    proc = _run_module("report", str(path))
    assert proc.returncode == 2
    lines = proc.stderr.strip().splitlines()
    assert lines == [f"error: malformed report: {path}: line 3, column 32: "
                     f"Unterminated string starting at"], lines


def test_exit_two_leaves_no_report_file_of_its_own(tmp_path, capsys):
    # an empty report left by a failed run would merge as zero rows
    out = tmp_path / "x.jsonl"
    assert run_cli(["verify", "--q", "6", "--out", str(out)]) == 2
    assert not out.exists()
    bad = tmp_path / "bad.jsonl"
    bad.write_text("[1]\n")
    merged = tmp_path / "merged.csv"
    assert run_cli(["report", str(bad), "--out", str(merged)]) == 2
    assert not merged.exists()
    # a file that was there before the run stays as it was
    out.write_text("kept\n")
    assert run_cli(["verify", "--q", "6", "--out", str(out)]) == 2
    assert run_cli(["report", str(bad), "--out", str(out)]) == 2
    assert out.read_text() == "kept\n"
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: --q 6 is not a prime power",
                   f"error: malformed report: {bad}: line 1 is not a JSON "
                   f"object"] * 2


def test_report_not_utf8_exits_two(tmp_path):
    path = tmp_path / "binary.jsonl"
    path.write_bytes(b"\xff\xfe\x00")
    proc = _run_module("report", str(path))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith("error: malformed report: "), lines


def test_verify_exit_one_on_failed_identity(tmp_path, monkeypatch, capsys):
    unequal = identities.IdentityReport(1, 0, 0, 0, 0, 0, 0, 0)
    monkeypatch.setattr(cli, "verify_identities",
                        lambda *args, **kwargs: unequal)
    out = tmp_path / "out.jsonl"
    assert run_cli(["verify", *_GL22, "--out", str(out)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    assert read_jsonl(out)[-1]["failures"] == 5


def test_report_out_dir_missing_exits_two(tmp_path, capsys):
    report = tmp_path / "gl22.jsonl"
    assert run_cli(["verify", *_GL22, "--out", str(report)]) == 0
    assert run_cli(["report", str(report),
                    "--out", str(tmp_path / "missing" / "x.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write report")
