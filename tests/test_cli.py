import dataclasses
import errno
import hashlib
import io
import json
import os
import shutil
import stat
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest

import cycleq.equation_solver as es
from cycleq import cli, oracle
from cycleq.cli import ENV_ORACLE_BOUND, build_parser, main
from cycleq.class_graph import build_gamma, export_dot
from cycleq.counting import InexactDivision, count_table, q_count
from cycleq.equation_solver import (
    _chunk_rows,
    check_parameters,
    enumerate_solutions,
)
from cycleq.oracle import enumerate_classes
from cycleq.permutation import one_line

GOLDEN = [
    (2, 1), (3, 2), (4, 3), (5, 8), (6, 24), (7, 108), (8, 640),
    (9, 4492), (10, 36336), (11, 329900), (12, 3326788), (13, 36846288),
    (14, 444790512), (15, 5811886656), (16, 81729688428),
    (17, 1230752346368), (18, 19760413251956), (19, 336967037143596),
]

GRAPH_2_DOT = (
    "digraph gamma_2 {\n"
    '    "1,1" [label="<1,1>"];\n'
    '    "2,2" [label="<2,2>"];\n'
    '    "1,1" -> "2,2";\n'
    "}\n"
)

SOLVE_5_1_2 = (
    "count=5\n"
    "[1 3 5 2 4]\n"
    "[2 4 1 3 5]\n"
    "[3 5 2 4 1]\n"
    "[4 1 3 5 2]\n"
    "[5 2 4 1 3]\n"
)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- compute ---------------------------------------------------------------

def test_compute_text(capsys):
    assert run(["compute", "12"], capsys) == (0, "3326788\n", "")


def test_compute_large(capsys):
    assert run(["compute", "19"], capsys) == (0, "336967037143596\n", "")


def test_compute_smallest(capsys):
    assert run(["compute", "1"], capsys) == (0, "1\n", "")


def test_compute_json(capsys):
    code, out, err = run(["compute", "12", "-f", "json"], capsys)
    assert code == 0
    assert out == '{"n": 12, "classes": "3326788"}\n'
    assert json.loads(out) == {"n": 12, "classes": "3326788"}


def test_compute_rejects_nonpositive(capsys):
    code, out, err = run(["compute", "0"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_compute_rejects_garbage(capsys):
    code, out, err = run(["compute", "twelve"], capsys)
    assert code == 2
    assert "invalid int value" in err


# -- table -----------------------------------------------------------------

def test_table_text_alignment(capsys):
    code, out, err = run(["table", "2", "5"], capsys)
    assert code == 0
    assert out == ("n  classes\n"
                   "2        1\n"
                   "3        2\n"
                   "4        3\n"
                   "5        8\n")


def test_table_csv_golden(capsys):
    code, out, err = run(["table", "2", "19", "-f", "csv"], capsys)
    assert code == 0
    expected = "n,classes\n" + "".join(f"{n},{c}\n" for n, c in GOLDEN)
    assert out == expected


def test_table_single_row(capsys):
    code, out, err = run(["table", "7", "7", "-f", "csv"], capsys)
    assert code == 0
    assert out == "n,classes\n7,108\n"


def test_table_json(capsys):
    code, out, err = run(["table", "2", "3", "-f", "json"], capsys)
    assert code == 0
    assert out == '[{"n": 2, "classes": "1"}, {"n": 3, "classes": "2"}]\n'
    assert json.loads(out) == [{"n": 2, "classes": "1"},
                               {"n": 3, "classes": "2"}]


def test_table_rejects_bad_range(capsys):
    assert run(["table", "5", "3"], capsys)[0] == 2
    assert run(["table", "0", "4"], capsys)[0] == 2


# -- matrix ----------------------------------------------------------------

def test_matrix_text(capsys):
    code, out, err = run(["matrix", "12"], capsys)
    assert code == 0
    assert out == count_table(12).to_text()
    assert out.endswith("|Q_12| = 3326788\n")


def test_matrix_json(capsys):
    code, out, err = run(["matrix", "4", "-f", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 4
    assert doc["total"] == "3"
    assert doc["columns"][0] == {"k": 1, "phi": "2", "h": "1", "product": "2"}


# -- counts past Python's 4300-digit int/str guard --------------------------

def parse_decimal(s):
    """int(s) read in chunks, so digit strings of any length parse."""
    assert s.isascii() and s.isdigit(), s[:40]
    value = 0
    for i in range(0, len(s), 4000):
        part = s[i:i + 4000]
        value = value * 10 ** len(part) + int(part)
    return value


def test_compute_past_digit_limit(capsys):
    # |Q_2520| has about 7.5k digits
    want = q_count(2520)
    code, out, err = run(["compute", "2520"], capsys)
    assert (code, err) == (0, "")
    assert out.endswith("\n") and len(out) > 7000
    assert parse_decimal(out[:-1]) == want
    code, out, err = run(["compute", "2520", "-f", "json"], capsys)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["n"] == 2520
    assert parse_decimal(doc["classes"]) == want


def test_table_past_digit_limit(capsys):
    code, out, err = run(["table", "2520", "2520"], capsys)
    assert (code, err) == (0, "")
    header, row, tail = out.split("\n")
    assert tail == ""
    n, classes = row.split("  ")
    assert n == "2520"
    assert parse_decimal(classes) == q_count(2520)
    assert header == "   n  " + "classes".rjust(len(classes))


def test_matrix_past_digit_limit(capsys):
    table = count_table(2520)
    code, out, err = run(["matrix", "2520"], capsys)
    assert (code, err) == (0, "")
    lines = out.split("\n")
    assert len(lines) == 6 and lines[5] == ""
    rows = [line.split()[1:] for line in lines[:4]]
    assert [int(k) for k in rows[0]] == [c.k for c in table.columns]
    for cells, field in zip(rows[1:], ("phi", "h", "product")):
        assert [parse_decimal(c) for c in cells] == [getattr(c, field) for c in table.columns]
    assert lines[4].startswith("|Q_2520| = ")
    assert parse_decimal(lines[4][len("|Q_2520| = "):]) == table.total
    code, out, err = run(["matrix", "2520", "-f", "json"], capsys)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert [(c["k"], parse_decimal(c["phi"]), parse_decimal(c["h"]),
             parse_decimal(c["product"])) for c in doc["columns"]] == list(table.columns)
    assert parse_decimal(doc["total"]) == table.total


# -- graph -----------------------------------------------------------------

def test_graph_dot_small(capsys):
    code, out, err = run(["graph", "2"], capsys)
    assert code == 0
    assert out == GRAPH_2_DOT


def test_graph_dot_shape(capsys):
    code, out, err = run(["graph", "12"], capsys)
    assert code == 0
    assert out == export_dot(build_gamma(12))
    lines = out.splitlines()
    assert lines[0] == "digraph gamma_12 {"
    assert lines[-1] == "}"
    assert sum(1 for ln in lines if "label=" in ln) == 12
    assert sum(1 for ln in lines if "->" in ln) == 17


def test_graph_json(capsys):
    code, out, err = run(["graph", "12", "-f", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 12
    assert len(doc["vertices"]) == 12
    assert len(doc["arcs"]) == 17


def test_graph_rejects_unknown_format(capsys):
    code, out, err = run(["graph", "12", "-f", "text"], capsys)
    assert code == 2
    assert "invalid choice" in err


# -- solve -----------------------------------------------------------------

def test_solve_text_golden(capsys):
    code, out, err = run(["solve", "5", "1", "2"], capsys)
    assert code == 0
    assert out == SOLVE_5_1_2


def test_solve_full_group(capsys):
    code, out, err = run(["solve", "3", "3", "3"], capsys)
    assert code == 0
    assert out == ("count=6\n"
                   "[1 2 3]\n[1 3 2]\n[2 1 3]\n"
                   "[2 3 1]\n[3 1 2]\n[3 2 1]\n")


def test_solve_json(capsys):
    code, out, err = run(["solve", "4", "2", "2", "-f", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert (doc["n"], doc["k"], doc["l"], doc["count"]) == (4, 2, 2, 8)
    got = {tuple(s) for s in doc["solutions"]}
    assert got == {
        (1, 2, 3, 4), (1, 4, 3, 2), (3, 2, 1, 4), (3, 4, 1, 2),
        (2, 1, 4, 3), (2, 3, 4, 1), (4, 1, 2, 3), (4, 3, 2, 1),
    }


def test_solve_rendering_matches_one_line(capsys):
    # the row format against one_line (text) and str(list(images)) (json),
    # with two-digit images at n = 10 and 12
    cases = [(n, k, l) for n in range(1, 9) for k in range(1, n + 1)
             for l in range(1, n + 1) if check_parameters(n, k, l) is None]
    cases += [(10, 5, 5), (12, 4, 4)]
    for n, k, l in cases:
        solutions = enumerate_solutions(n, k, l)
        argv = ["solve", str(n), str(k), str(l)]
        code, out, err = run(argv, capsys)
        assert (code, err) == (0, "")
        assert out == (f"count={len(solutions)}\n"
                       + "\n".join(one_line(s) for s in solutions) + "\n"), (n, k, l)
        code, out, err = run(argv + ["-f", "json"], capsys)
        assert (code, err) == (0, "")
        body = ", ".join(str(list(s.images)) for s in solutions)
        assert out == (f'{{"n": {n}, "k": {k}, "l": {l}, '
                       f'"count": {len(solutions)}, "solutions": [{body}]}}\n'), (n, k, l)
    assert run(["solve", "1", "1", "1"], capsys) == (0, "count=1\n[1]\n", "")


# n on both sides of each change in digit count and of the byte boundary
# at 255; 12 6 6 and 100 2 2 are k < n over several chunks
SOLVE_FORMAT_CASES = [
    (1, 1, 1), (2, 1, 1), (2, 2, 2), (9, 1, 2), (9, 3, 6), (10, 2, 4),
    (10, 5, 5), (12, 4, 8), (12, 6, 6), (99, 1, 98), (100, 1, 3), (100, 2, 2),
    (255, 1, 2), (255, 1, 254), (256, 1, 3), (256, 1, 255),
]


@pytest.mark.parametrize("chunk", [None, 7])
def test_solve_rows_match_the_row_format(capsys, monkeypatch, solve_by_format, chunk):
    # text and json byte for byte against one % format per image tuple, in
    # chunks of the real size and of 7 rows, where every case but the
    # smallest spans several chunks
    if chunk is not None:
        monkeypatch.setattr(es, "_chunk_rows", lambda n: chunk)
    for n, k, l in SOLVE_FORMAT_CASES:
        for fmt in ("text", "json"):
            code, out, err = run(["solve", str(n), str(k), str(l), "-f", fmt], capsys)
            assert (code, err) == (0, ""), (n, k, l, fmt)
            # a bare flag: pytest takes minutes to diff megabytes of rows
            same = out == solve_by_format(n, k, l, fmt)
            assert same, (n, k, l, fmt)


@pytest.mark.parametrize("argv, digest, size", [
    (["solve", "9", "9", "9"],
     "38acf8a89f230b4174d407226e3ea283ec20674b6e24b56117d2f06828beb94e", 7257613),
    (["solve", "9", "9", "9", "-f", "json"],
     "dad7aa659cf42bad43b1785593d574c3d206f1e179d0d1d62a0256fa3537a688", 10523577),
    (["solve", "10", "5", "5", "-f", "json"],
     "659844d8f41c137b7c3a2f3db7f8cec79de9968a3ad1446a53a6e6ab42a6c241", 126776),
    (["solve", "12", "4", "4"],
     "79770a8b39800f589b2971121e968a8b05d1c7e0bcccbc1168bceae967bda125", 56387),
])
def test_solve_golden_digests(capsys, argv, digest, size):
    # the full listings, pinned by length and sha256 of stdout
    code, out, err = run(argv, capsys)
    assert (code, err) == (0, "")
    data = out.encode()
    assert len(data) == size
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize("argv, digest, size", [
    (["graph", "12"],
     "d7714e200472373ad84836108d5dc5d6389bd77dc07bb2de47e409c9265eb49e", 705),
    (["graph", "5040", "-f", "dot"],
     "cc2b2ff70e327d8fb55692c7f2fb5dec74c7d5ffcad494e1c0df99213a6538a3", 634560),
    (["graph", "5040", "-f", "json"],
     "5273e3e19e59267d81e9fd9d0f0b7e38c76f2c27d0e65d834aeae25743e47ebe", 487828),
])
def test_graph_golden_digests(capsys, argv, digest, size):
    # the whole exports, pinned by length and sha256 of stdout as the
    # saturating builder and its sorted, json.dumps exports wrote them
    code, out, err = run(argv, capsys)
    assert (code, err) == (0, "")
    data = out.encode()
    assert len(data) == size
    assert hashlib.sha256(data).hexdigest() == digest


def test_solve_invalid_pair(capsys):
    code, out, err = run(["solve", "6", "1", "2"], capsys)
    assert code == 2
    assert out == ""
    assert "no solution family" in err
    assert "coprime" in err


def test_solve_rejects_bad_exponents(capsys):
    assert run(["solve", "6", "4", "2"], capsys)[0] == 2  # 4 does not divide 6
    assert run(["solve", "6", "0", "2"], capsys)[0] == 2


@pytest.mark.parametrize("k, l", [(2, 5), (0, 2)])
def test_solve_exponents_outside_1_to_n(capsys, k, l):
    # the range check on the command line, ahead of the solver's own check
    assert run(["solve", "4", str(k), str(l)], capsys) == (
        2, "", f"error: exponents must lie in 1..4, got k={k}, l={l}\n")


# -- verify ----------------------------------------------------------------

def test_verify_pass(capsys, monkeypatch):
    monkeypatch.delenv(ENV_ORACLE_BOUND, raising=False)
    code, out, err = run(["verify", "2", "4"], capsys)
    assert code == 0
    assert out == "n=2 PASS\nn=3 PASS\nn=4 PASS\n"


def test_verify_bound_guard(capsys, monkeypatch):
    monkeypatch.delenv(ENV_ORACLE_BOUND, raising=False)
    code, out, err = run(["verify", "9", "9"], capsys)
    assert code == 2
    assert "exceeds the brute-force bound" in err


def test_verify_env_bound(capsys, monkeypatch):
    monkeypatch.setenv(ENV_ORACLE_BOUND, "6")
    code, out, err = run(["verify", "7", "7"], capsys)
    assert code == 2
    assert "bound 6" in err


def test_verify_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv(ENV_ORACLE_BOUND, "4")
    code, out, err = run(["verify", "5", "5", "--oracle-bound", "5"], capsys)
    assert code == 0
    assert out == "n=5 PASS\n"


def test_verify_env_bound_garbage(capsys, monkeypatch):
    monkeypatch.setenv(ENV_ORACLE_BOUND, "junk")
    code, out, err = run(["verify", "2", "2"], capsys)
    assert code == 2
    assert "must be an integer" in err


def test_verify_reports_failure(capsys, monkeypatch):
    # doctor the oracle so the class count disagrees with the formula:
    # the command must say FAIL and exit 1
    monkeypatch.delenv(ENV_ORACLE_BOUND, raising=False)

    def doctored(n, sigma=None, bound=8, with_classes=False):
        real = enumerate_classes(n, sigma, bound, with_classes)
        return dataclasses.replace(real, class_count=real.class_count + 1)

    monkeypatch.setattr(oracle, "enumerate_classes", doctored)
    code, out, err = run(["verify", "2", "2"], capsys)
    assert code == 1
    assert out.startswith("n=2 FAIL:")
    assert "formula says 1" in out


def test_verify_reports_wrong_solution_count(capsys, monkeypatch):
    # doctor the solution counts of the canonical shift's walk, one count
    # off by one or one pair missing: the equation check must say FAIL and
    # exit 1, not raise
    monkeypatch.delenv(ENV_ORACLE_BOUND, raising=False)
    real = oracle.enumerate_classes

    def doctoring(change):
        def doctored(n, sigma=None, bound=8, with_classes=False):
            report = real(n, sigma, bound, with_classes)
            counts = dict(report.solution_counts)
            change(counts)
            return dataclasses.replace(report, solution_counts=counts)
        return doctored

    monkeypatch.setattr(oracle, "enumerate_classes",
                        doctoring(lambda c: c.update({(2, 2): c[2, 2] + 1})))
    assert run(["verify", "4", "4"], capsys) == (
        1, "n=4 FAIL: equation (k=2, l=2) has 9 solutions, formula says 8\n", "")
    monkeypatch.setattr(oracle, "enumerate_classes",
                        doctoring(lambda c: c.pop((1, 3))))
    assert run(["verify", "4", "4"], capsys) == (
        1, "n=4 FAIL: equation (k=1, l=3) has 0 solutions, formula says 4\n", "")


def test_verify_walks_each_shift_once(capsys, monkeypatch):
    # the class walk of the canonical shift that checks the count gives the
    # solution counts and is the base of the sigma-independence check too:
    # per n one walk for the shift, one for its inverse and one per seeded
    # conjugate, and no other pass over S_n
    monkeypatch.delenv(ENV_ORACLE_BOUND, raising=False)
    walks = []
    counts = []
    real_count = oracle.count_equation_solutions

    def counting(*args, **kwargs):
        counts.append(args)
        return real_count(*args, **kwargs)

    for module in (cli, oracle):
        monkeypatch.setattr(module, "count_equation_solutions", counting,
                            raising=False)

    def recording(walk):
        def wrapper(n, sigma=None, bound=8, with_classes=False):
            walks.append(n)
            return walk(n, sigma, bound, with_classes)
        return wrapper

    monkeypatch.setattr(oracle, "enumerate_classes", recording(oracle.enumerate_classes))
    code, out, err = run(["verify", "2", "6"], capsys)
    assert (code, err) == (0, "")
    assert out == "n=2 PASS\nn=3 PASS\nn=4 PASS\nn=5 PASS\nn=6 PASS\n"
    assert walks == [n for n in range(2, 7) for _ in range(5)]
    assert counts == []


def test_verify_counts_each_n_once(capsys, monkeypatch):
    # one pass of the count recursion per n serves both the class count
    # and the size histogram
    import cycleq.counting as counting
    monkeypatch.delenv(ENV_ORACLE_BOUND, raising=False)
    calls = []
    real = counting._h_values

    def recording(n, ks):
        calls.append(n)
        return real(n, ks)

    monkeypatch.setattr(counting, "_h_values", recording)
    assert run(["verify", "2", "6"], capsys)[0] == 0
    assert calls == [2, 3, 4, 5, 6]


# -- plumbing --------------------------------------------------------------

def test_output_file(capsys, tmp_path):
    target = tmp_path / "count.txt"
    code, out, err = run(["compute", "12", "-o", str(target)], capsys)
    assert code == 0
    assert out == ""
    assert target.read_text() == "3326788\n"
    # an existing PATH is replaced whole, with no temporary file left over
    target.write_text("a longer old content\n")
    assert run(["compute", "12", "-o", str(target)], capsys) == (0, "", "")
    assert target.read_text() == "3326788\n"
    assert os.listdir(tmp_path) == ["count.txt"]


def test_output_file_graph(capsys, tmp_path):
    target = tmp_path / "gamma.dot"
    code, out, err = run(["graph", "2", "-o", str(target)], capsys)
    assert code == 0
    assert target.read_text() == GRAPH_2_DOT


def test_byte_determinism(capsys, monkeypatch):
    monkeypatch.delenv(ENV_ORACLE_BOUND, raising=False)
    first = run(["graph", "12"], capsys)
    second = run(["graph", "12"], capsys)
    assert first == second
    first = run(["verify", "2", "4"], capsys)
    second = run(["verify", "2", "4"], capsys)
    assert first == second


def test_internal_error_exit_code(capsys, monkeypatch):
    def exploding(n):
        raise InexactDivision("synthetic division failure")

    monkeypatch.setattr(cli, "count_table", exploding)
    code, out, err = run(["matrix", "12"], capsys)
    assert code == 3
    assert err.startswith("internal error:")


def corrupt_construction(monkeypatch, index, corrupt):
    """Make the construction hand the solver's checks the images of
    corrupt(xi) in place of its row number index, xi the row's image
    tuple."""
    real = es._blocks

    def corrupted(n, *args):
        start = 0
        for block in real(n, *args):
            at = (index - start) * n
            start += len(block) // n
            if 0 <= at < len(block):
                block = block[:at] + bytes(corrupt(tuple(block[at:at + n]))) + block[at + n:]
            yield block

    monkeypatch.setattr(es, "_blocks", corrupted)


def test_failed_self_check_exit_code(capsys, monkeypatch):
    # a constructed solution that fails its own re-verification is an
    # internal error, not a usage error and not a traceback; one solution
    # with its first two images swapped fails the check of the first chunk,
    # before any byte is written
    corrupt_construction(monkeypatch, 0, lambda xi: xi[1::-1] + xi[2:])
    code, out, err = run(["solve", "5", "1", "2"], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: constructed")


def test_failed_self_check_mid_stream(capsys, monkeypatch, tmp_path):
    # a bad tuple in the third chunk: the count line and the rows of the
    # first two chunks are already on stdout, whole, and nothing after them
    golden = run(["solve", "9", "9", "9"], capsys)[1]
    rows = _chunk_rows(9)
    corrupt_construction(monkeypatch, 2 * rows + 5, lambda xi: xi[1:2] + xi[1:])
    # that row of the listing, after the count line, with its first image
    # replaced by its second
    images = golden.splitlines()[1 + 2 * rows + 5][1:-1].split()
    bad = " ".join(images[1:2] + images[1:])
    code, out, err = run(["solve", "9", "9", "9"], capsys)
    assert code == 3
    assert golden.startswith(out) and out.endswith("\n")
    assert out.count("\n") == 1 + 2 * rows
    assert err == f"internal error: constructed [{bad}] is not a bijection of 1..9\n"
    # -o PATH stays as it was, with no temporary file left
    target = tmp_path / "solutions.txt"
    target.write_text("old\n")
    code, out, err = run(["solve", "9", "9", "9", "-o", str(target)], capsys)
    assert (code, out) == (3, "")
    assert err.startswith(f"internal error: constructed [{bad}]")
    assert target.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["solutions.txt"]


def test_miscounted_listing_exit_code(capsys, monkeypatch, edit_construction):
    # a construction one solution short passes every row check and fails
    # the tally after its last chunk: an internal error in verify, with
    # nothing on stdout, and in solve after the rows already written
    monkeypatch.delenv(ENV_ORACLE_BOUND, raising=False)
    golden = run(["solve", "4", "2", "2"], capsys)[1]
    edit_construction(list.pop)
    assert run(["verify", "2", "4"], capsys) == (
        3, "", "internal error: constructed 1 solutions of (n=2, k=1, l=1), expected 2\n")
    assert run(["solve", "4", "2", "2"], capsys) == (
        3, "".join(golden.splitlines(keepends=True)[:-1]),
        "internal error: constructed 7 solutions of (n=4, k=2, l=2), expected 8\n")


def test_verify_reports_a_repeated_solution(capsys, monkeypatch, edit_construction):
    # the 8 solutions of (n=4, k=2, l=2) listed with the first in place of
    # the second: every row passes its check and the count holds, but the
    # listing is not the solution set
    monkeypatch.delenv(ENV_ORACLE_BOUND, raising=False)

    def repeat_first(tuples):
        if len(tuples) == 8:
            tuples[1] = tuples[0]

    edit_construction(repeat_first)
    assert run(["verify", "2", "4"], capsys) == (
        1, "n=2 PASS\nn=3 PASS\n"
           "n=4 FAIL: enumerator repeated a solution of (k=2, l=2)\n", "")


def test_output_file_error(capsys, tmp_path):
    target = tmp_path / "missing-dir" / "count.txt"
    code, out, err = run(["compute", "12", "-o", str(target)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert not target.exists()


@pytest.mark.parametrize("path", ["", "a\0b"])
def test_output_path_the_os_refuses(capsys, monkeypatch, tmp_path, path):
    # an empty PATH is not "no -o", and a NUL byte in it is not a
    # traceback: both are usage errors, with nothing written anywhere
    monkeypatch.chdir(tmp_path)
    code, out, err = run(["compute", "2", "-o", path], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: -o PATH must be a non-empty path with no NUL byte, got {path!r}\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("existing", [True, False])
def test_output_file_failure_mid_write(capsys, monkeypatch, tmp_path, existing):
    # a write that fails halfway leaves an existing PATH as it was, creates
    # no PATH otherwise, and leaves no temporary file behind
    target = tmp_path / "gamma.dot"
    if existing:
        target.write_text("old\n")
    real_open = open

    class HalfWrite:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[:len(text) // 2])
            self.fh.flush()
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "open", lambda *a, **kw: HalfWrite(real_open(*a, **kw)),
                        raising=False)
    code, out, err = run(["graph", "12", "-o", str(target)], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: [Errno 28] No space left on device\n"
    if existing:
        assert target.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["gamma.dot"]
    else:
        assert os.listdir(tmp_path) == []


class FailingStdout:
    def __init__(self, error):
        self.error = error

    def write(self, text):
        raise self.error

    def flush(self):
        pass

    def fileno(self):
        raise io.UnsupportedOperation("fileno")


@pytest.mark.parametrize("argv", [["compute", "5"], ["solve", "9", "9", "9"]])
@pytest.mark.parametrize("error", [BrokenPipeError(errno.EPIPE, "Broken pipe"),
                                   OSError(errno.ENOSPC, "No space left on device")])
def test_stdout_write_failure(capsys, monkeypatch, argv, error):
    # a reader that quit or a full device: one error line and exit 2
    monkeypatch.setattr(sys, "stdout", FailingStdout(error))
    code, out, err = run(argv, capsys)
    assert code == 2
    assert err == f"error: {error}\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_stdout_full_device():
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "cycleq", "compute", "5"],
                              stdout=full, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 2
    assert proc.stderr == "error: [Errno 28] No space left on device\n"


def test_stdout_reader_quits():
    # rows go out as they are made, so a reader can stop after the first
    # line; the next write fails and ends the run with one error line
    proc = subprocess.Popen([sys.executable, "-m", "cycleq", "solve", "9", "9", "9"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.stdout.readline() == "count=362880\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 2
    assert proc.stderr.read() == "error: [Errno 32] Broken pipe\n"
    proc.stderr.close()


class CountingSink:
    def __init__(self):
        self.size = 0

    def write(self, text):
        self.size += len(text)

    def flush(self):
        pass


def test_solve_memory_stays_flat(capsys, monkeypatch, tmp_path):
    # rows are made, written and dropped a block at a time, to stdout and to
    # -o PATH alike: the 7.3 MB listing of 9 9 9 never exists as a whole,
    # and the 29 MB one of 254 2 2, in blocks of 516 rows, stays under
    # 4 MiB
    sink = CountingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    target = tmp_path / "out.txt"
    for argv, ceiling in ((["solve", "9", "9", "9"], 8 * 2 ** 20),
                          (["solve", "9", "9", "9", "-o", str(target)], 8 * 2 ** 20),
                          (["solve", "254", "2", "2"], 4 * 2 ** 20)):
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < ceiling, (argv, peak)
    assert sink.size == 7257613 + 29354792
    assert target.stat().st_size == 7257613


def test_output_file_onto_directory(capsys, tmp_path):
    # the rename onto PATH fails: the temporary file goes, the message names
    # PATH
    target = tmp_path / "out"
    target.mkdir()
    code, out, err = run(["compute", "12", "-o", str(target)], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: [Errno 21] Is a directory: {str(target)!r}\n"
    assert os.listdir(tmp_path) == ["out"]
    assert os.listdir(target) == []


def test_output_file_through_symlink(capsys, tmp_path_factory):
    # a symbolic link at PATH is followed: the file it names gets the
    # output, the link stays, and neither directory keeps a temporary file
    outside = tmp_path_factory.mktemp("outside")
    links = tmp_path_factory.mktemp("links")
    target = outside / "count.txt"
    target.write_text("old\n")
    link = links / "count.txt"
    link.symlink_to(target)
    assert run(["compute", "12", "-o", str(link)], capsys) == (0, "", "")
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_text() == "3326788\n"
    assert os.listdir(outside) == ["count.txt"]
    assert os.listdir(links) == ["count.txt"]


def test_output_file_fifo(capsys, tmp_path):
    # a FIFO at PATH is written through, not replaced by a regular file
    fifo = tmp_path / "gamma.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(
        target=lambda: received.append(fifo.read_text()), daemon=True)
    reader.start()
    assert run(["graph", "2", "-o", str(fifo)], capsys) == (0, "", "")
    reader.join(timeout=10)
    assert received == [GRAPH_2_DOT]
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert os.listdir(tmp_path) == ["gamma.fifo"]


def test_output_file_long_name(capsys, tmp_path):
    # a name at NAME_MAX still works: the temporary name is cut to fit
    target = tmp_path / ("c" * 255)
    assert run(["compute", "12", "-o", str(target)], capsys) == (0, "", "")
    assert target.read_text() == "3326788\n"
    assert os.listdir(tmp_path) == [target.name]


def test_output_file_foreign_temporary(capsys, monkeypatch, tmp_path):
    # a file already at the temporary name belongs to someone else: it is
    # left alone and PATH is written through instead
    target = tmp_path / "count.txt"
    monkeypatch.setattr(cli.os, "urandom", lambda k: b"\0" * k)
    foreign = tmp_path / f".count.txt.{os.getpid()}.00000000.tmp"
    foreign.write_text("not ours\n")
    assert run(["compute", "12", "-o", str(target)], capsys) == (0, "", "")
    assert target.read_text() == "3326788\n"
    assert foreign.read_text() == "not ours\n"


def test_help_exits_clean(capsys):
    code, out, err = run(["--help"], capsys)
    assert code == 0
    assert "compute" in out and "verify" in out
    code, out, err = run(["solve", "--help"], capsys)
    assert code == 0


def test_missing_command(capsys):
    assert run([], capsys)[0] == 2


def test_parser_builds_once():
    parser = build_parser()
    ns = parser.parse_args(["compute", "5"])
    assert ns.command == "compute" and ns.n == 5


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "cycleq", "compute", "12"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "3326788\n"


@pytest.mark.parametrize("code, loaded, absent", [
    ("import cycleq",
     [], ["cycleq.class_graph", "cycleq.counting", "cycleq.equation_solver",
          "cycleq.oracle", "cycleq.permutation", "cycleq.zn_ring"]),
    ("from cycleq.cli import main; main(['compute', '2'])",
     ["cycleq.counting", "cycleq.zn_ring"],
     ["cycleq.class_graph", "cycleq.equation_solver", "cycleq.oracle",
      "cycleq.permutation", "dataclasses", "json"]),
    ("from cycleq.cli import main; main(['solve', '3', '3', '3'])",
     ["cycleq.equation_solver", "cycleq.permutation"],
     ["cycleq.class_graph", "cycleq.oracle"]),
])
def test_a_start_loads_only_what_its_command_runs(code, loaded, absent):
    # -S keeps the site module's own imports out of sys.modules
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         f"{code}\nimport sys; print(' '.join(sys.modules))"],
        env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    modules = set(proc.stdout.splitlines()[-1].split())
    assert "cycleq" in modules
    assert modules.issuperset(loaded)
    assert modules.isdisjoint(absent)


def test_console_script():
    # the installed script when there is one, else the same entry point
    # from the source tree
    script = shutil.which("cycleq")
    command = [script] if script else [sys.executable, "-m", "cycleq"]
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(command + ["table", "2", "4", "-f", "csv"],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "n,classes\n2,1\n3,2\n4,3\n"
