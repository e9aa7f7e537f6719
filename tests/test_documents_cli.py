"""Tests for document round-trips and the command-line interface."""

import json
import warnings
from dataclasses import replace

import numpy as np
import pytest

from qgvertex import (
    FIG1_PARAMS,
    couplings_equivalent,
    documents,
    linalg,
    random_coupling,
    smatrix_distance,
    to_pqrs_form,
    to_projector_form,
    to_reverse_st_form,
    to_st_form,
    to_unitary,
    validate,
)
from qgvertex.cli import main
from qgvertex.errors import DocumentError

from test_coupling import delta_pair


def dirichlet_doc(n=2):
    c = validate(np.eye(n), np.zeros((n, n)))
    return documents.coupling_to_document(c, label="dirichlet")


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
            {"n": 2, "A": [[[1, 0]]], "B": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]},
            {"n": 2, "A": "nope", "B": "nope"},
            {"n": "two"},
            {"form": "mystery", "n": 2},
            {"form": "pqrs", "n": 2, "r_a": 0, "r_b": 0, "permutation": [1, 2],
             "P": [], "Q": [], "R": [], "S": []},
            [1, 2, 3],
        ]
        for doc in bad:
            with pytest.raises(DocumentError):
                documents.parse_document(doc)

    def test_permutation_is_one_based(self, rng):
        c = random_coupling(4, 2, 3, rng)
        f = to_pqrs_form(c)
        doc = documents.form_to_document(f)
        assert sorted(doc["permutation"]) == [1, 2, 3, 4]


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

    def test_missing_file_exits_1(self, capsys):
        assert main(["validate", "/nonexistent/file.json"]) == 1


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
        assert np.allclose(documents.matrix_from_json(doc["U"]), np.eye(2))

    def test_dirichlet_to_st_degenerates(self, tmp_path, capsys):
        path = write_doc(tmp_path, dirichlet_doc())
        assert main(["convert", path, "--to", "st"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["r_b"] == 0
        assert doc["S"] == []

    def test_converted_documents_reparse(self, tmp_path, capsys, rng):
        c = random_coupling(4, rng=rng)
        path = write_doc(tmp_path, documents.coupling_to_document(c))
        for target in ("st", "reverse-st", "pqrs", "unitary", "projector"):
            assert main(["convert", path, "--to", target]) == 0
            parsed = documents.parse_document(json.loads(capsys.readouterr().out))
            assert smatrix_distance(documents.as_coupling(parsed), c) < 1e-9


class TestCliSmatrix:
    def test_reports_unitary_matrix(self, tmp_path, capsys):
        path = write_doc(tmp_path, dirichlet_doc())
        assert main(["smatrix", path, "--k", "2.0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert np.allclose(documents.matrix_from_json(doc["S"]), -np.eye(2))
        assert doc["unitarity_defect"] < 1e-12
        assert doc["bc_residual"] < 1e-12

    def test_bad_momentum_exits_2(self, tmp_path, capsys):
        path = write_doc(tmp_path, dirichlet_doc())
        assert main(["smatrix", path, "--k", "-1.0"]) == 2


class TestCliSweep:
    def test_kirchhoff_rows_are_identical(self, tmp_path, capsys):
        a = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0], [0.0, 0.0, 0.0]])
        b = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        path = write_doc(tmp_path, documents.coupling_to_document(validate(a, b)))
        out_path = tmp_path / "sweep.csv"
        code = main(["sweep", path, "--k-min", "0.1", "--k-max", "10", "--points", "5",
                     "--out", str(out_path)])
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0].startswith("k,S11,S12")
        assert len(lines) == 6
        first = np.array([float(v) for v in lines[1].split(",")[1:]])
        for line in lines[2:]:
            row = np.array([float(v) for v in line.split(",")[1:]])
            assert np.max(np.abs(row - first)) < 1e-12

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

    def test_malformed_document_exits_1(self, tmp_path, capsys):
        broken = tmp_path / "broken.json"
        broken.write_text("{not json", encoding="utf-8")
        not_object = tmp_path / "list.json"
        not_object.write_text("[1, 2]", encoding="utf-8")
        for path in (broken, not_object):
            assert main(["sweep", str(path), "--k-min", "1", "--k-max", "2", "--points", "2"]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_bad_range_exits_2(self, tmp_path, capsys):
        path = write_doc(tmp_path, dirichlet_doc())
        assert main(["sweep", path, "--k-min", "5", "--k-max", "1", "--points", "4"]) == 2
        assert main(["sweep", path, "--k-min", "1", "--k-max", "5", "--points", "1"]) == 2


class TestCliFilterDemo:
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
        import io

        assert main(["filter-demo", "--preset", "fig2"]) == 0
        doc_text = capsys.readouterr().out
        monkeypatch.setattr("sys.stdin", io.StringIO(doc_text))
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
