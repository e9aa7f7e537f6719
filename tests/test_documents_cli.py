"""Tests for document round-trips and the command-line interface."""

import io
import json
import os
import re
import stat
import threading
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from qgvertex import (
    FIG1_PARAMS,
    FIG2_PARAMS,
    documents,
    filters,
    linalg,
    random_coupling,
    to_pqrs_form,
    to_projector_form,
    to_reverse_st_form,
    to_st_form,
    to_unitary,
    validate,
)
from qgvertex import cli
from qgvertex.cli import main
from qgvertex.errors import DocumentError
from qgvertex.filters import AmplitudeLimits, LimitMismatch

from conftest import assert_same_csv, block_means, couplings_equivalent, grid_table, smatrix_distance
from test_coupling import delta_pair, far_scale_coupling


def dirichlet_doc(n=2):
    c = validate(np.eye(n), np.zeros((n, n)))
    return documents.coupling_to_document(c, label="dirichlet")


#: [re, im] entries that are not two finite non-bool numbers, with the error they raise
BAD_ENTRIES = [
    pytest.param([1.0, 2.0, 3.0], "entries must be [re, im] pairs", id="three-values"),
    pytest.param([1.0], "entries must be [re, im] pairs", id="one-value"),
    pytest.param(["1.5", "2"], "entries must be [re, im] pairs", id="strings"),
    pytest.param([True, False], "entries must be [re, im] pairs", id="booleans"),
    pytest.param([None, 1.0], "entries must be [re, im] pairs", id="null"),
    pytest.param(1.0, "entries must be [re, im] pairs", id="bare-number"),
    pytest.param({"re": 1.0, "im": 0.0}, "entries must be [re, im] pairs", id="object"),
    pytest.param([float("nan"), 0.0], "entries must be finite", id="nan"),
    pytest.param([1.0, float("inf")], "entries must be finite", id="infinity"),
    pytest.param([-float("inf"), 0.0], "entries must be finite", id="minus-infinity"),
    pytest.param([10**400, 0], "entries must be finite", id="huge-int"),
]


def bad_entry_documents(entry):
    """(document, matrix name): a coupling with ``entry`` in A, an ST form with it in S."""
    c = validate(*delta_pair(2.0))
    coupling_doc = documents.coupling_to_document(c)
    coupling_doc["A"][1][0] = entry
    st_doc = documents.form_to_document(to_st_form(c))
    st_doc["S"][0][0] = entry
    return [(coupling_doc, "A"), (st_doc, "S")]


def write_doc(tmp_path, doc, name="coupling.json"):
    path = tmp_path / name
    path.write_text(documents.dumps(doc), encoding="utf-8")
    return str(path)


class TestDocuments:
    def test_coupling_roundtrip_is_exact(self, rng):
        c = random_coupling(4, rng=rng)
        doc = documents.coupling_to_document(c)
        back = documents.parse_document(json.loads(documents.dumps(doc)))
        assert np.array_equal(np.asarray(back.A), np.asarray(c.A))
        assert np.array_equal(np.asarray(back.B), np.asarray(c.B))

    def test_form_documents_roundtrip(self, rng):
        c = random_coupling(5, 3, 4, rng)
        records = [
            to_st_form(c),
            to_reverse_st_form(c),
            to_pqrs_form(c),
            to_unitary(c),
            to_projector_form(c),
        ]
        for record in records:
            doc = json.loads(documents.dumps(documents.form_to_document(record)))
            parsed = documents.parse_document(doc)
            assert type(parsed) is type(record)
            back = documents.as_coupling(parsed)
            assert smatrix_distance(back, c) < 1e-9

    @pytest.mark.parametrize("n", [5, 60])
    def test_matrix_json_matches_per_entry_conversion(self, n, rng, monkeypatch):
        def per_entry(m):
            m = np.asarray(m, dtype=complex)
            return [[[float(z.real), float(z.imag)] for z in row] for row in m]

        c = random_coupling(n, round(0.6 * n), round(0.8 * n), rng)
        records = [c, to_st_form(c), to_reverse_st_form(c), to_pqrs_form(c),
                   to_unitary(c), to_projector_form(c)]
        for record in records:
            planted = {}
            for name, value in vars(record).items():
                if isinstance(value, np.ndarray) and value.size:
                    m = np.array(value)
                    m[0, 0] = complex(-0.0, -0.0)
                    planted[name] = m
            record = replace(record, **planted)
            text = documents.dumps(documents.form_to_document(record))
            assert "-0.0" in text
            with monkeypatch.context() as patched:
                patched.setattr(documents, "matrix_to_json", per_entry)
                assert documents.dumps(documents.form_to_document(record)) == text

    def test_zero_dimensional_blocks_survive(self):
        c = validate(*delta_pair(2.0))
        f = to_pqrs_form(c)  # Q and R are zero-dimensional
        doc = json.loads(documents.dumps(documents.form_to_document(f)))
        parsed = documents.parse_document(doc)
        assert parsed.Q.shape == (0, 1)
        assert parsed.R.shape == (0, 1)
        assert couplings_equivalent(documents.as_coupling(parsed), c)

    def test_malformed_documents_rejected(self):
        bad = [
            ({"n": 2, "A": [[[1, 0]]], "B": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]},
             r"^A: expected shape \(2, 2\), got 1 rows$"),
            ({"n": 2, "A": "nope", "B": "nope"}, r"^A: expected a list of rows$"),
            ({"n": 2, "A": ["nope"], "B": []}, r"^A: expected a list of rows$"),
            ({"n": 2, "A": [[[1, 0], [0, 0]], [[0, 1]]], "B": []},
             r"^A: rows have unequal lengths$"),
            ({"n": "two"}, r"^missing or non-integer field 'n'$"),
            ({"n": True}, r"^missing or non-integer field 'n'$"),
            ({"n": 0}, r"^n must be a positive integer$"),
            ({"form": "mystery", "n": 2}, r"^unknown form 'mystery'$"),
            ({"form": ["st"], "n": 2}, r"^unknown form \['st'\]$"),
            ({"form": "st", "n": 2, "permutation": [1, 2]},
             r"^missing or non-integer field 'r_b'$"),
            ({"form": "reverse-st", "n": 2, "permutation": [1, 2]},
             r"^missing or non-integer field 'r_a'$"),
            ({"form": "pqrs", "n": 2, "r_a": 0, "r_b": 0, "permutation": [1, 2],
              "P": [], "Q": [], "R": [], "S": []}, r"^r_a \+ r_b must be at least n$"),
            ({"form": "reverse-st", "n": 2, "r_a": 1, "permutation": [1, 1]},
             r"^permutation must list 1\.\.2 exactly once$"),
            ({"form": "st", "n": 2, "r_b": 1, "permutation": [1, "a"]},
             r"^permutation must list 1\.\.2 exactly once$"),
            ({"form": "st", "n": 2, "r_b": 1, "permutation": [True, 2]},
             r"^permutation must list 1\.\.2 exactly once$"),
            ({"form": "st", "n": 2, "r_b": 1, "permutation": [1.0, 2.0]},
             r"^permutation must list 1\.\.2 exactly once$"),
            ({"form": "st", "n": 2, "r_b": -1, "permutation": [1, 2]},
             r"^r_b must lie in 0\.\.2, got -1$"),
            ({"form": "reverse-st", "n": 2, "r_a": 3, "permutation": [1, 2]},
             r"^r_a must lie in 0\.\.2, got 3$"),
            ({"form": "pqrs", "n": 2, "r_a": 3, "r_b": 1, "permutation": [1, 2]},
             r"^r_a must lie in 0\.\.2, got 3$"),
            ({"form": "pqrs", "n": 2, "r_a": 2, "r_b": -1, "permutation": [1, 2]},
             r"^r_b must lie in 0\.\.2, got -1$"),
            ([1, 2, 3], r"^document must be a JSON object$"),
        ]
        for doc, message in bad:
            with pytest.raises(DocumentError, match=message):
                documents.parse_document(doc)

    def test_other_document_errors(self):
        for convert in (documents.form_to_document, documents.as_coupling):
            with pytest.raises(TypeError, match="^needs a VertexCoupling or a form record, got dict$"):
                convert({})
        with pytest.raises(DocumentError, match=r"^not valid JSON: Expecting"):
            documents.loads("{not json")
        with pytest.raises(DocumentError, match=r"^not valid JSON: maximum recursion depth"):
            documents.loads("[" * 100000 + "]" * 100000)

    def test_matrix_from_json_shapes(self):
        assert documents.matrix_from_json([], (0, 3), "M").shape == (0, 3)
        assert documents.matrix_from_json([[], []], (2, 0), "M").shape == (2, 0)
        m = documents.matrix_from_json([[[1, -0.0], [2.5, 3]]], (1, 2), "M")
        assert m.dtype == complex and m.shape == (1, 2)
        assert np.array_equal(m, [[1 - 0j, 2.5 + 3j]])
        assert np.signbit(m[0, 0].imag)

    @pytest.mark.parametrize("entry, message", BAD_ENTRIES)
    def test_bad_entries_rejected(self, entry, message, tmp_path, capsys):
        for doc, name in bad_entry_documents(entry):
            with pytest.raises(DocumentError, match=f"^{re.escape(f'{name}: {message}')}$"):
                documents.parse_document(json.loads(json.dumps(doc)))
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            assert main(["validate", str(path)]) == 1
            assert capsys.readouterr().err == f"error: {name}: {message}\n"

    def test_permutation_is_one_based(self, rng):
        c = random_coupling(4, 2, 3, rng)
        f = to_pqrs_form(c)
        doc = documents.form_to_document(f)
        assert sorted(doc["permutation"]) == [1, 2, 3, 4]


class TestEmitter:
    """``dumps`` must write exactly the bytes of ``json.dumps(doc, indent=2)``."""

    @staticmethod
    def assert_same(doc):
        assert documents.dumps(doc) == json.dumps(doc, indent=2)

    @pytest.mark.parametrize("n", [5, 60])
    def test_every_form_kind(self, n, rng):
        c = random_coupling(n, round(0.6 * n), round(0.8 * n), rng)
        for record in (c, to_st_form(c), to_reverse_st_form(c), to_pqrs_form(c),
                       to_unitary(c), to_projector_form(c)):
            self.assert_same(documents.form_to_document(record))

    def test_zero_size_blocks(self):
        self.assert_same(documents.form_to_document(to_pqrs_form(validate(*delta_pair(2.0)))))
        self.assert_same(documents.form_to_document(to_st_form(validate(np.eye(2), np.zeros((2, 2))))))
        self.assert_same(documents.form_to_document(to_st_form(validate(np.zeros((3, 3)), np.eye(3)))))
        for shape in ((0, 3), (3, 0), (0, 0)):
            doc = {"M": documents.matrix_to_json(np.zeros(shape)), "n": 3}
            self.assert_same(doc)
        self.assert_same({"M": [], "N": [[]], "K": [[], []]})

    def test_special_values(self):
        values = [-0.0, 1e308, 5e-324, -5e-324, float("nan"), float("inf"), -float("inf"), 0.1]
        for v in values:
            self.assert_same({"M": [[[v, 1.0], [2.0, -v]]], "x": v})
        self.assert_same({"M": [[[a, b] for a in values] for b in values]})

    def test_non_float_entries(self):
        for v in (1, 0, -3, True, False, None, np.float64(1.5), np.float64(-0.0), 10**30):
            self.assert_same({"M": [[[v, 1.0]], [[2.0, 3.0]]]})
            self.assert_same({"M": [[[1.0, 2.0]], [[3.0, v]]], "v": v})
        # numpy 2 prints np.float64(1.5) for %r; JSON writes 1.5
        assert '"M": [\n    [\n      [\n        1.5,' in documents.dumps({"M": [[[np.float64(1.5), 0.0]]]})

    def test_irregular_values(self):
        docs = [
            {},
            {"M": [[[1.0, 2.0]], [[1.0, 2.0], [3.0, 4.0]]]},
            {"M": [[[1.0, 2.0, 3.0]]]},
            {"M": [[[1.0]]]},
            {"M": [[(1.0, 2.0)]]},
            {"M": [[1.0, 2.0]]},
            {"M": [1.0, 2.0]},
            {"M": (((1.0, 2.0),),)},
            {"outer": {"M": [[[1.0, 2.0]]], "inner": {"deep": [1, [2, {}]], "e": []}}},
            {"label": "caf\u00e9 \u2192 \U0001d54a", "text": "line one\nline two\t\"quoted\"\\"},
            {"caf\u00e9\nkey": "x", "": 0},
            {"permutation": [3, 1, 2], "blocks": [2, 2, 1], "flag": True, "nothing": None},
        ]
        for doc in docs:
            self.assert_same(doc)
        for doc in ([], [1, [2.0, "x"]], "text", 1.5, None, {1: "int key"}, {"a": 1, 2: "b"}):
            self.assert_same(doc)

    def test_cli_documents(self, tmp_path, capsys, monkeypatch, rng):
        written = []
        emit = documents.dumps

        def recording(doc):
            written.append(doc)
            return emit(doc)

        path = write_doc(tmp_path, documents.coupling_to_document(random_coupling(5, 3, 4, rng)))
        monkeypatch.setattr(documents, "dumps", recording)
        commands = [["smatrix", path, "--k", "2.0"], ["filter-demo", "--preset", "fig1"]]
        commands += [["convert", path, "--to", kind] for kind in documents.FORM_KINDS]
        for argv in commands:
            assert main(argv) == 0
            assert capsys.readouterr().out == json.dumps(written[-1], indent=2) + "\n"
        assert len(written) == len(commands)


class TestCliValidate:
    def test_valid_document(self, tmp_path, capsys):
        code = main(["validate", write_doc(tmp_path, dirichlet_doc())])
        out = capsys.readouterr().out
        assert code == 0
        assert "valid n=2 r_A=2 r_B=0 parameters=0" in out

    def test_inadmissible_document_exits_2(self, tmp_path, capsys):
        doc = {"n": 2,
               "A": documents.matrix_to_json(np.array([[1.0, 0.0], [0.0, 0.0]])),
               "B": documents.matrix_to_json(np.array([[1.0, 0.0], [0.0, 0.0]]))}
        code = main(["validate", write_doc(tmp_path, doc)])
        err = capsys.readouterr().err
        assert code == 2
        assert "rank(A|B)" in err

    def test_malformed_file_exits_1(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["validate", str(path)]) == 1

    def test_bad_permutation_exits_1(self, tmp_path, capsys):
        doc = {"form": "st", "n": 2, "r_b": 1, "permutation": [1, "a"],
               "S": [[[1.0, 0.0]]], "T": [[[0.0, 0.0]]]}
        assert main(["validate", write_doc(tmp_path, doc)]) == 1
        assert capsys.readouterr().err == "error: permutation must list 1..2 exactly once\n"

    def test_missing_file_exits_1(self, capsys):
        assert main(["validate", "/nonexistent/file.json"]) == 1

    UTF8_ERROR = ("error: not valid UTF-8: 'utf-8' codec can't decode byte 0xff in position 0: "
                  "invalid start byte\n")

    def test_file_that_is_not_utf8_exits_1(self, tmp_path, capsys):
        # reading it raised UnicodeDecodeError, a ValueError, and the CLI exited 2
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{}")
        for argv in (["validate", str(path)], ["convert", str(path), "--to", "st"],
                     ["sweep", str(path), "--k-min", "1", "--k-max", "2", "--points", "2"]):
            assert main(argv) == 1
            assert capsys.readouterr() == ("", self.UTF8_ERROR)

    def test_stdin_that_is_not_utf8_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"\xff\xfe{}"), "latin-1"))
        assert main(["validate", "-"]) == 1
        assert capsys.readouterr() == ("", self.UTF8_ERROR)

    def test_bytes_that_are_not_utf8_raise_document_error(self):
        with pytest.raises(DocumentError, match="^not valid UTF-8: "):
            documents._decode(b"\xff\xfe{}")
        assert documents._decode('{"label": "\u00e9"}'.encode()) == {"label": "\u00e9"}


class TestCliConvert:
    def test_delta_to_pqrs(self, tmp_path, capsys):
        c = validate(*delta_pair(2.0))
        path = write_doc(tmp_path, documents.coupling_to_document(c))
        code = main(["convert", path, "--to", "pqrs"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert doc["form"] == "pqrs"
        assert doc["P"] == [[[1.0, 0.0]]]
        assert doc["S"] == [[[2.0, 0.0]]]

    def test_neumann_to_unitary(self, tmp_path, capsys):
        c = validate(np.zeros((2, 2)), np.eye(2))
        path = write_doc(tmp_path, documents.coupling_to_document(c))
        assert main(["convert", path, "--to", "unitary"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["form"] == "unitary"
        assert np.allclose(documents.matrix_from_json(doc["U"], (2, 2), "U"), np.eye(2))

    def test_dirichlet_to_st_degenerates(self, tmp_path, capsys):
        path = write_doc(tmp_path, dirichlet_doc())
        assert main(["convert", path, "--to", "st"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["r_b"] == 0
        assert doc["S"] == []

    def test_converted_documents_reparse(self, tmp_path, capsys, rng):
        c = random_coupling(4, rng=rng)
        path = write_doc(tmp_path, documents.coupling_to_document(c))
        for kind in documents.FORM_KINDS:
            assert main(["convert", path, "--to", kind]) == 0
            parsed = documents.parse_document(json.loads(capsys.readouterr().out))
            assert isinstance(parsed, documents.FORM_KINDS[kind].record)
            assert smatrix_distance(documents.as_coupling(parsed), c) < 1e-9


class TestCliSmatrix:
    def test_reports_unitary_matrix(self, tmp_path, capsys):
        path = write_doc(tmp_path, dirichlet_doc())
        assert main(["smatrix", path, "--k", "2.0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert np.allclose(documents.matrix_from_json(doc["S"], (2, 2), "S"), -np.eye(2))
        assert doc["unitarity_defect"] < 1e-12
        assert doc["bc_residual"] < 1e-12

    def test_bad_momentum_exits_2(self, tmp_path, capsys):
        path = write_doc(tmp_path, dirichlet_doc())
        assert main(["smatrix", path, "--k", "-1.0"]) == 2

    @pytest.mark.parametrize("k", ["1e-14", "1e14"])
    def test_non_unitary_momentum_exits_2_with_one_line(self, tmp_path, capsys, k):
        path = write_doc(tmp_path, documents.coupling_to_document(far_scale_coupling()))
        assert main(["smatrix", path, "--k", k]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"error: S\(k\) is not finite or not unitary .*\n", captured.err)


class TestCliSweep:
    def test_kirchhoff_rows_are_identical(self, tmp_path, capsys):
        a = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0], [0.0, 0.0, 0.0]])
        b = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        path = write_doc(tmp_path, documents.coupling_to_document(validate(a, b)))
        out_path = tmp_path / "sweep.csv"
        code = main(["sweep", path, "--k-min", "0.1", "--k-max", "10", "--points", "5",
                     "--out", str(out_path)])
        assert code == 0
        assert list(tmp_path.glob("sweep.csv*")) == [out_path]  # the sibling was renamed onto it
        lines = out_path.read_text().strip().splitlines()
        assert lines[0].startswith("k,S11,S12")
        assert len(lines) == 6
        first = np.array([float(v) for v in lines[1].split(",")[1:]])
        for line in lines[2:]:
            row = np.array([float(v) for v in line.split(",")[1:]])
            assert np.max(np.abs(row - first)) < 1e-12

    @staticmethod
    def dirichlet_sweep(tmp_path, capsys, out):
        """(stdout CSV, exit code of ``--out out``) of one small Dirichlet sweep."""
        path = write_doc(tmp_path, dirichlet_doc())
        argv = ["sweep", path, "--k-min", "1", "--k-max", "2", "--points", "3", "--out"]
        assert main(argv + ["-"]) == 0
        return capsys.readouterr().out, main(argv + [str(out)])

    def test_out_in_a_missing_directory_names_out(self, tmp_path, capsys):
        out = tmp_path / "nodir" / "sweep.csv"
        _, code = self.dirichlet_sweep(tmp_path, capsys, out)
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: [Errno 2] No such file or directory: {str(out)!r}\n"
        assert list(tmp_path.iterdir()) == [tmp_path / "coupling.json"]

    def test_out_fifo_is_written_in_place(self, tmp_path, capsys):
        fifo = tmp_path / "sweep.fifo"
        os.mkfifo(fifo)
        # a reader that never blocks: the CSV fits the pipe buffer, and a read
        # ends at once if no writer ever opened the FIFO
        fd = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            expected, code = self.dirichlet_sweep(tmp_path, capsys, fifo)
            received = os.read(fd, 1 << 16).decode()
        finally:
            os.close(fd)
        assert code == 0
        assert received == expected
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert list(tmp_path.glob("sweep.fifo*")) == [fifo]

    def test_out_symlink_writes_its_target(self, tmp_path, capsys):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("earlier\n", encoding="utf-8")
        link.symlink_to(target)
        expected, code = self.dirichlet_sweep(tmp_path, capsys, link)
        assert code == 0
        assert link.is_symlink()
        assert_same_csv(target.read_text(encoding="utf-8"), expected)

    def test_out_hard_link_keeps_both_names(self, tmp_path, capsys):
        out, other = tmp_path / "sweep.csv", tmp_path / "other.csv"
        out.write_text("earlier\n", encoding="utf-8")
        os.link(out, other)
        expected, code = self.dirichlet_sweep(tmp_path, capsys, out)
        assert code == 0
        assert os.path.samefile(out, other)
        assert_same_csv(other.read_text(encoding="utf-8"), expected)

    def test_out_regular_file_keeps_its_mode(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        out.write_text("earlier\n", encoding="utf-8")
        out.chmod(0o640)
        expected, code = self.dirichlet_sweep(tmp_path, capsys, out)
        assert code == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o640
        assert_same_csv(out.read_text(encoding="utf-8"), expected)
        assert list(tmp_path.glob("sweep.csv*")) == [out]

    def test_two_points_two_rows(self, tmp_path, capsys):
        path = write_doc(tmp_path, dirichlet_doc())
        assert main(["sweep", path, "--k-min", "1", "--k-max", "2", "--points", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3

    def test_rows_ascending_and_doubly_stochastic(self, tmp_path, capsys, rng):
        c = random_coupling(3, rng=rng)
        path = write_doc(tmp_path, documents.coupling_to_document(c))
        assert main(["sweep", path, "--k-min", "0.01", "--k-max", "100", "--points", "12"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        ks = []
        for line in lines[1:]:
            vals = [float(v) for v in line.split(",")]
            ks.append(vals[0])
            probs = np.array(vals[1:]).reshape(3, 3)
            assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-8
            assert np.max(np.abs(probs.sum(axis=0) - 1.0)) < 1e-8
        assert all(k1 < k2 for k1, k2 in zip(ks, ks[1:]))

    def test_overflowing_momentum_exits_2(self, tmp_path, capsys):
        assert main(["filter-demo", "--preset", "fig1"]) == 0
        path = write_doc(tmp_path, json.loads(capsys.readouterr().out), "fig1.json")
        out_path = tmp_path / "sweep.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["sweep", path, "--k-min", "0.1", "--k-max", "1e308", "--points", "5",
                         "--out", str(out_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "not finite" in err
        # the error line is the only report: numpy's overflow warning stays silent
        assert "RuntimeWarning" not in err
        assert [str(w.message) for w in caught] == []
        assert not out_path.exists()

    def test_non_unitary_table_exits_2_with_one_line(self, tmp_path, capsys):
        # a column of |S(k)|^2 at k = 1e16 sums to 1.66
        path = write_doc(tmp_path, documents.coupling_to_document(far_scale_coupling()))
        out_path = tmp_path / "sweep.csv"
        assert main(["sweep", path, "--k-min", "1", "--k-max", "1e16", "--points", "5",
                     "--out", str(out_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out_path.exists()
        assert re.fullmatch(r"error: S\(k\) is not finite or not unitary .*\n", captured.err)

    def test_malformed_document_exits_1(self, tmp_path, capsys):
        broken = tmp_path / "broken.json"
        broken.write_text("{not json", encoding="utf-8")
        not_object = tmp_path / "list.json"
        not_object.write_text("[1, 2]", encoding="utf-8")
        for path in (broken, not_object):
            assert main(["sweep", str(path), "--k-min", "1", "--k-max", "2", "--points", "2"]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_deeply_nested_document_exits_1(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
        assert main(["validate", str(deep)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: not valid JSON"), err

    def test_bad_range_exits_2(self, tmp_path, capsys):
        path = write_doc(tmp_path, dirichlet_doc())
        assert main(["sweep", path, "--k-min", "5", "--k-max", "1", "--points", "4"]) == 2
        assert main(["sweep", path, "--k-min", "1", "--k-max", "5", "--points", "1"]) == 2

    @pytest.mark.parametrize("scale", ["log", "linear"])
    def test_infinite_k_max_exits_2_with_one_line(self, tmp_path, capsys, scale):
        path = write_doc(tmp_path, dirichlet_doc())
        assert main(["sweep", path, "--k-min", "1", "--k-max", "inf", "--points", "3",
                     "--scale", scale]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: need finite 0 < k_min < k_max, got 1, inf\n"
        assert captured.out == ""

    def test_grid_too_large_for_memory_exits_2_with_one_line(self, tmp_path, capsys,
                                                             monkeypatch):
        # the grid builder raises as numpy does for 10**12 points; nothing is allocated
        def unallocatable(k_min, k_max, points, scale):
            raise MemoryError(f"Unable to allocate 7.28 TiB for an array with shape ({points},)")
        monkeypatch.setattr(cli, "_k_grid", unallocatable)
        path = write_doc(tmp_path, dirichlet_doc())
        assert main(["sweep", path, "--k-min", "0.1", "--k-max", "10",
                     "--points", "1000000000000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: Unable to allocate 7.28 TiB for an array with shape "
                                "(1000000000000,)\n")

    def test_singular_momentum_names_both_causes(self, tmp_path, capsys):
        # at k = 1e-320, k B is subnormal and A + ikB is as singular as A
        assert main(["filter-demo", "--preset", "fig1"]) == 0
        path = write_doc(tmp_path, json.loads(capsys.readouterr().out), "fig1.json")
        assert main(["sweep", path, "--k-min", "1e-320", "--k-max", "1", "--points", "3"]) == 2
        err = capsys.readouterr().err
        assert "not finite" in err
        assert "k B overflows or A + ikB is numerically singular" in err


class TestSweepGridAndBlocks:
    @pytest.mark.parametrize("scale", ["log", "linear"])
    def test_grid_ends_at_the_requested_momenta(self, tmp_path, capsys, scale):
        path = write_doc(tmp_path, dirichlet_doc())
        assert main(["sweep", path, "--k-min", "0.3", "--k-max", "7", "--points", "3",
                     "--scale", scale]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split(",")[0] for row in (rows[0], rows[-1])] == ["0.3", "7.0"]
        gen = np.random.default_rng(31)
        for _ in range(200):
            k_min, k_max = np.sort(10.0 ** gen.uniform(-3, 3, size=2)).tolist()
            ks = cli._k_grid(k_min, k_max, int(gen.integers(2, 50)), scale)
            assert (ks[0], ks[-1]) == (k_min, k_max)

    @pytest.fixture
    def fig1_doc(self, capsys):
        assert main(["filter-demo", "--preset", "fig1"]) == 0
        return json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("blocks", [["2", "2", "1"], [2, 2, 1.0], [2, 2, True], "2,2,1"])
    def test_document_blocks_must_be_ints(self, tmp_path, capsys, fig1_doc, blocks):
        path = write_doc(tmp_path, {**fig1_doc, "blocks": blocks})
        assert main(["sweep", path, "--k-min", "1", "--k-max", "2", "--points", "2"]) == 2
        assert capsys.readouterr().err == f"error: bad block sizes {blocks!r}\n"

    @pytest.mark.parametrize("text, message", [
        ("a,b,c", "bad block sizes 'a,b,c'"),
        ("2,2", "block sizes must be three values summing to n=5"),
        ("2,2,2", "block sizes must be three values summing to n=5"),
    ])
    def test_bad_blocks_option(self, tmp_path, capsys, fig1_doc, text, message):
        path = write_doc(tmp_path, fig1_doc)
        assert main(["sweep", path, "--k-min", "1", "--k-max", "2", "--points", "2",
                     "--blocks", text]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_blocks_option_overrides_the_document(self, tmp_path, capsys, fig1_doc):
        path = write_doc(tmp_path, fig1_doc)
        assert main(["sweep", path, "--k-min", "1", "--k-max", "2", "--points", "2",
                     "--blocks", "1,1,3"]) == 0
        header = capsys.readouterr().out.splitlines()[0].split(",")
        assert "b33_intra" in header and "b11_intra" not in header


#: a real uniform-block design whose orbits have 3 and 6 members: their mean
#: as sum over count can miss the members' common value by a spacing
SYMMETRIC_321 = filters.FilterParams(n=6, r_a=4, r_b=5, p=0.7, q=-1.1, r=0.4, s=1.3)


def per_value_csv(table) -> str:
    """The sweep CSV with one ``repr`` call per value, row by row, built without the
    writer's orbit map: k, the full grid ``table.probabilities`` and its block means.
    An orbit whose members are all equal has their value as its exact mean; any other
    gets ``_block_means``, the sum over the count."""
    probs = table.probabilities
    flat = probs.reshape(len(probs), -1)
    columns = [table.ks, flat]
    if table.block_sizes is not None:
        members = filters._orbit_members(table.block_sizes).values()
        for pairs, mean in zip(members, block_means(probs, table.block_sizes).values()):
            equal = (flat[:, pairs] == flat[:, pairs[:1]]).all(axis=1)
            columns.append(np.where(equal, flat[:, pairs[0]], mean))
    lines = [",".join(table.header())]
    lines += [",".join(map(repr, row)) for row in np.column_stack(columns).tolist()]
    return "\n".join(lines) + "\n"


def written_csv(table) -> str:
    out = io.StringIO()
    documents.write_sweep_csv(table, out)
    return out.getvalue()


class TestSweepCsv:
    # crosses the row blocks of the table and the slices of the writer
    KS = np.logspace(-2, 2, 2 * filters.SWEEP_BLOCK + 3)

    @pytest.mark.parametrize("fp", [FIG1_PARAMS, FIG2_PARAMS], ids=["fig1", "fig2"])
    def test_presets_match_per_value_repr(self, fp):
        table = filters.probability_sweep(fp, self.KS)
        assert table.values.shape[1] == 1 + 8 < len(table.header())  # k and 8 orbits
        assert_same_csv(written_csv(table), per_value_csv(table))

    def test_orbits_of_three_and_six_pairs_match_per_value_repr(self):
        table = filters.probability_sweep(SYMMETRIC_321, self.KS)
        assert_same_csv(written_csv(table), per_value_csv(table))

    def test_generic_coupling_matches_per_value_repr(self, rng):
        c = random_coupling(5, rng=rng)
        table = filters.pair_sweep(c.A, c.B, self.KS, None)
        assert_same_csv(written_csv(table), per_value_csv(table))

    def test_generic_coupling_with_blocks_matches_per_value_repr(self, rng):
        c = random_coupling(5, rng=rng)
        table = filters.pair_sweep(c.A, c.B, self.KS, (2, 2, 1))
        assert table.values.shape[1] == len(table.header()) - 1  # b33_refl is S55
        assert_same_csv(written_csv(table), per_value_csv(table))

    def test_signed_zeros_subnormals_and_nans_keep_their_text(self):
        probs = np.array([[[0.0, -0.0], [5e-324, np.nan]],
                          [[-0.0, 0.0], [-np.nan, -5e-324]],
                          [[0.25, 0.25], [np.nan, -np.nan]]])
        table = grid_table(np.array([0.5, 1.0, 2.0]), probs, None)
        text = written_csv(table)
        assert_same_csv(text, per_value_csv(table))
        assert text.splitlines()[1:] == ["0.5,0.0,-0.0,5e-324,nan",
                                         "1.0,-0.0,0.0,nan,-5e-324",
                                         "2.0,0.25,0.25,nan,nan"]

    def test_integer_table_is_written_as_floats(self):
        table = grid_table(np.array([1, 2]), np.array([[[1]], [[0]]]), None)
        assert written_csv(table) == "k,S11\n1.0,1.0\n2.0,0.0\n"


@pytest.fixture
def forks(monkeypatch):
    """The pids that ``os.fork`` returns to the caller while the test runs, in order."""
    pids, fork = [], os.fork

    def recording_fork():
        pid = fork()
        pids.append(pid)  # a worker appends its 0 to its own copy of the list
        return pid
    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def usable_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def fig2_table(blocks):
    """The fig2 sweep over ``blocks`` row blocks, the last one 5 rows short."""
    return filters.probability_sweep(FIG2_PARAMS, np.logspace(-2, 2, blocks * filters.SWEEP_BLOCK - 5))


class TestSweepCsvShares:
    """Row blocks go to one share per usable CPU; each share but the first
    is written by a forked worker, and the text never depends on the split."""

    @pytest.mark.parametrize("points, workers", [(filters.SWEEP_BLOCK, 0),
                                                 (filters.SWEEP_BLOCK + 1, 1)])
    def test_one_share_per_block_up_to_the_cpus(self, monkeypatch, forks, points, workers):
        usable_cpus(monkeypatch, 2)
        table = filters.probability_sweep(FIG1_PARAMS, np.logspace(-2, 2, points))
        assert_same_csv(written_csv(table), per_value_csv(table))
        assert len(forks) == workers

    @pytest.mark.parametrize("cpus, blocks, workers", [(3, 7, 2), (8, 3, 2), (1, 3, 0)])
    def test_shares_are_capped_by_cpus_and_blocks(self, monkeypatch, forks, cpus, blocks, workers):
        usable_cpus(monkeypatch, cpus)
        table = fig2_table(blocks)
        assert_same_csv(written_csv(table), per_value_csv(table))
        assert len(forks) == workers

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_symmetric_and_generic_tables_at_every_share_count(self, monkeypatch, forks, cpus):
        usable_cpus(monkeypatch, cpus)
        ks = np.logspace(-2, 2, 3 * filters.SWEEP_BLOCK - 5)
        c = random_coupling(5, 3, 4, np.random.default_rng(27))
        tables = [filters.probability_sweep(SYMMETRIC_321, ks),
                  filters.pair_sweep(c.A, c.B, ks, (2, 2, 1))]
        for table in tables:
            assert_same_csv(written_csv(table), per_value_csv(table))
        assert len(forks) == 2 * (cpus - 1)

    def test_one_share_without_fork(self, monkeypatch):
        usable_cpus(monkeypatch, 2)
        monkeypatch.delattr(os, "fork")
        table = fig2_table(3)
        assert_same_csv(written_csv(table), per_value_csv(table))

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert documents._usable_cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert documents._usable_cpus() == 1

    @pytest.fixture
    def failing_worker(self, monkeypatch):
        """Each worker raises where it would write its share; the caller writes as before."""
        caller, write_rows = os.getpid(), documents._write_rows

        def write(table, stream):
            if os.getpid() != caller:
                raise RuntimeError("worker failed")
            write_rows(table, stream)
        monkeypatch.setattr(documents, "_write_rows", write)

    def test_worker_failure_raises_oserror(self, monkeypatch, forks, failing_worker):
        usable_cpus(monkeypatch, 2)
        with pytest.raises(OSError, match=r"^sweep CSV worker \d+ exited with status 1$"):
            written_csv(fig2_table(3))
        assert len(forks) == 1

    @staticmethod
    def sweep_fig1_to(out, capsys):
        """Exit code of ``sweep --out out`` on a fig1 grid of two row blocks, after
        checking that its error report is the one line of a failed worker."""
        assert main(["filter-demo", "--preset", "fig1"]) == 0
        path = write_doc(out.parent, json.loads(capsys.readouterr().out))
        code = main(["sweep", path, "--k-min", "0.1", "--k-max", "10", "--points",
                     str(2 * filters.SWEEP_BLOCK), "--out", str(out)])
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: sweep CSV worker \d+ exited with status 1\n", err), err
        return code

    def test_worker_failure_exits_1_with_one_line(self, tmp_path, capsys, monkeypatch,
                                                  failing_worker):
        usable_cpus(monkeypatch, 2)
        assert self.sweep_fig1_to(tmp_path / "sweep.csv", capsys) == 1
        assert list(tmp_path.glob("sweep.csv*")) == []  # no short table, no sibling left

    def test_worker_failure_keeps_the_earlier_out_file(self, tmp_path, capsys, monkeypatch,
                                                       failing_worker):
        usable_cpus(monkeypatch, 2)
        out = tmp_path / "sweep.csv"
        out.write_text("earlier\n", encoding="utf-8")
        assert self.sweep_fig1_to(out, capsys) == 1
        assert out.read_text(encoding="utf-8") == "earlier\n"
        assert list(tmp_path.glob("sweep.csv*")) == [out]

    def test_stream_failure_kills_and_reaps_the_worker(self, monkeypatch, forks):
        usable_cpus(monkeypatch, 2)
        caller, write_rows = os.getpid(), documents._write_rows

        def write(table, stream):
            if os.getpid() != caller:
                time.sleep(60)  # only a kill ends the worker in time
            write_rows(table, stream)
        monkeypatch.setattr(documents, "_write_rows", write)

        class FullStream(io.StringIO):
            def write(self, text):
                if self.tell() > 1000:
                    raise OSError("no space left")
                return super().write(text)

        start = time.perf_counter()
        with pytest.raises(OSError, match="^no space left$"):
            documents.write_sweep_csv(fig2_table(2), FullStream())
        assert time.perf_counter() - start < 30
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(forks[0], os.WNOHANG)

    def test_fork_in_a_multithreaded_process_warns_nothing(self, monkeypatch):
        # Python >= 3.12 warns in the caller when it forks beside other
        # threads; the writer forks anyway, as its workers take no lock
        fork = os.fork

        def warning_fork():
            pid = fork()
            if pid:
                warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of "
                              "fork() may lead to deadlocks in the child.", DeprecationWarning,
                              stacklevel=2)
            return pid
        monkeypatch.setattr(os, "fork", warning_fork)
        usable_cpus(monkeypatch, 2)
        table = fig2_table(2)
        release = threading.Event()
        beside = threading.Thread(target=release.wait)
        beside.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                text = written_csv(table)
        finally:
            release.set()
            beside.join()
        assert_same_csv(text, per_value_csv(table))


#: stderr of ``filter-demo --preset fig1`` and ``fig2``, line by line
FILTER_DEMO_REPORTS = {
    "fig1": [
        "uniform-block coupling: n=5 r_A=3 r_B=4 blocks {1}=2 {2}=2 {3}=1",
        "constants: p=2.5 q=1.2 r=0 s=3",
        "l_p=2 l_q=2 l_r=4",
        "",
        "pair           high-k       closed        low-k       closed",
        "{1}{2}     0.36630037   0.36630037   0.00000000   0.00000000",
        "{1}{3}     0.30525031                0.00000000             ",
        "{2}{1}     0.36630037                0.00000000             ",
        "{2}{3}     0.14652015   0.14652015   0.61855670   0.61855670",
        "{3}{1}     0.30525031   0.30525031   0.00000000   0.00000000",
        "{3}{2}     0.14652015                0.61855670             ",
        "{1}{1}r    0.23687424                0.00000000",
        "{1}{1}t    0.76312576                1.00000000",
        "{2}{2}r    0.82417582                0.25773196",
        "{2}{2}t    0.17582418                0.74226804",
        "{3}{3}r    0.87789988                0.48453608",
        "",
        "all closed-form amplitudes match the matrix limits",
        "branching classification (threshold 3): delta-delta-deltaprime",
    ],
    "fig2": [
        "uniform-block coupling: n=5 r_A=3 r_B=4 blocks {1}=2 {2}=2 {3}=1",
        "constants: p=0 q=1.2 r=2.1 s=0.2",
        "l_p=2 l_q=2 l_r=4",
        "",
        "pair           high-k       closed        low-k       closed",
        "{1}{2}     0.00000000   0.00000000   0.19516729   0.19516729",
        "{1}{3}     0.00000000                0.46840149             ",
        "{2}{1}     0.00000000                0.19516729             ",
        "{2}{3}     0.61855670   0.61855670   0.11152416   0.11152416",
        "{3}{1}     0.00000000   0.00000000   0.46840149   0.46840149",
        "{3}{2}     0.61855670                0.11152416             ",
        "{1}{1}r    1.00000000                0.81970260",
        "{1}{1}t    0.00000000                0.18029740",
        "{2}{2}r    0.25773196                0.04646840",
        "{2}{2}t    0.74226804                0.95353160",
        "{3}{3}r    0.48453608                0.73234201",
        "",
        "all closed-form amplitudes match the matrix limits",
        "branching classification (threshold 3): delta-deltaprime-deltaprime",
    ],
}


class TestCliFilterDemo:
    @pytest.mark.parametrize("preset", sorted(FILTER_DEMO_REPORTS))
    def test_preset_report_verbatim(self, preset, capsys):
        assert main(["filter-demo", "--preset", preset]) == 0
        assert capsys.readouterr().err == "\n".join(FILTER_DEMO_REPORTS[preset]) + "\n"

    def test_report_lists_each_mismatch(self):
        fp = filters.FilterParams(n=3, r_a=3, r_b=2, p=1.0, q=0.5, r=2.0, s=1.5)
        limits = AmplitudeLimits(
            l_p=2, l_q=0, l_r=0, high_k={(1, 3): 0.5, (3, 1): 0.5},
            low_k={(1, 3): 0.25, (3, 1): 0.25}, high_k_reflection={1: 0.75, 3: 1.0},
            low_k_reflection={1: 0.125, 3: 0.0}, high_k_intra={1: 0.0625}, low_k_intra={1: 0.5},
            closed_form_high={(3, 1): 0.5}, closed_form_low={(3, 1): 0.3},
            mismatches=(LimitMismatch("low-k", (3, 1), 0.3, 0.25),))
        assert documents.render_limits_report(fp, limits, "none", 3.0) == "\n".join([
            "uniform-block coupling: n=3 r_A=3 r_B=2 blocks {1}=2 {2}=0 {3}=1",
            "constants: p=1 q=0.5 r=2 s=1.5",
            "l_p=2 l_q=0 l_r=0",
            "",
            "pair           high-k       closed        low-k       closed",
            "{1}{3}     0.50000000                0.25000000             ",
            "{3}{1}     0.50000000   0.50000000   0.25000000   0.30000000",
            "{1}{1}r    0.75000000                0.12500000",
            "{1}{1}t    0.06250000                0.50000000",
            "{3}{3}r    1.00000000                0.00000000",
            "",
            "closed-form values disagreeing with the matrix limits:",
            "  low-k {3}{1}: closed 0.3 vs matrix 0.25",
            "branching classification (threshold 3): none",
            "",
        ])

    def test_fig1_document_and_classification(self, capsys):
        assert main(["filter-demo", "--preset", "fig1"]) == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["n"] == 5
        assert doc["blocks"] == [2, 2, 1]
        assert "-0.0" not in captured.out  # exact zeros print unsigned
        assert "delta-delta-deltaprime" in captured.err
        assert "all closed-form amplitudes match" in captured.err

    def test_fig2_classification(self, capsys):
        assert main(["filter-demo", "--preset", "fig2"]) == 0
        assert "delta-deltaprime-deltaprime" in capsys.readouterr().err

    def test_explicit_zero_design_has_no_label(self, capsys):
        assert main(["filter-demo", "--n", "5", "--ra", "3", "--rb", "4",
                     "--p", "0", "--q", "0", "--r", "0", "--s", "1"]) == 0
        assert "classification (threshold 3): none" in capsys.readouterr().err

    def test_missing_explicit_parameters_exit_2(self, capsys):
        assert main(["filter-demo", "--n", "5"]) == 2

    def test_demo_document_feeds_sweep(self, tmp_path, capsys):
        assert main(["filter-demo", "--preset", "fig1"]) == 0
        doc_text = capsys.readouterr().out
        path = tmp_path / "fig1.json"
        path.write_text(doc_text, encoding="utf-8")
        out_path = tmp_path / "fig1.csv"
        assert main(["sweep", str(path), "--k-min", "0.01", "--k-max", "100",
                     "--points", "7", "--out", str(out_path)]) == 0
        header = out_path.read_text().splitlines()[0]
        assert "b12" in header  # blocks metadata picked up from the document

    def test_demo_pipes_into_sweep_via_stdin(self, capsys, monkeypatch):
        assert main(["filter-demo", "--preset", "fig2"]) == 0
        doc_text = capsys.readouterr().out
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(doc_text.encode())))
        assert main(["sweep", "-", "--k-min", "0.1", "--k-max", "10",
                     "--points", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4
        assert "b23" in lines[0]


class TestCliParams:
    def test_counts(self, capsys):
        assert main(["params", "5", "3", "4"]) == 0
        out = capsys.readouterr().out
        assert "parameters=20" in out and "delta=16" in out and "subfamilies=21" in out

    def test_full_rank(self, capsys):
        assert main(["params", "3", "3", "3"]) == 0
        out = capsys.readouterr().out
        assert "parameters=9" in out and "delta=0" in out and "subfamilies=10" in out

    def test_inadmissible_pair_exits_2(self, capsys):
        assert main(["params", "3", "1", "1"]) == 2


class TestGoldenStability:
    def test_sweep_is_byte_stable(self, tmp_path, capsys):
        assert main(["filter-demo", "--preset", "fig1"]) == 0
        path = tmp_path / "fig1.json"
        path.write_text(capsys.readouterr().out, encoding="utf-8")
        outputs = []
        for name in ("a.csv", "b.csv"):
            out_path = tmp_path / name
            assert main(["sweep", str(path), "--k-min", "0.01", "--k-max", "100",
                         "--points", "41", "--out", str(out_path)]) == 0
            outputs.append(out_path.read_bytes())
        assert outputs[0] == outputs[1]
