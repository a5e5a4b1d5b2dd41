import json

import numpy as np
import pytest

from nu_analyzer import (
    MagnitudeMatrix,
    ValidationError,
    heuristic_balance,
    read_matrix,
    read_report,
    read_system,
    write_matrix,
    write_report,
    write_trace,
    magnitude_matrix,
)
from nu_analyzer.balancer import StudyRow
from nu_analyzer.cli import build_report
from nu_analyzer.report_io import write_study


class TestMatrixCsv:
    def test_round_trip_full_precision(self, tmp_path):
        rng = np.random.default_rng(50)
        m = rng.random((3, 3))
        path = tmp_path / "m.csv"
        write_matrix(MagnitudeMatrix(m), path)
        back = read_matrix(path)
        np.testing.assert_array_equal(back.m, m)

    def test_negative_entry_names_position(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.0,1.0\n-2.0,0.0\n")
        with pytest.raises(ValidationError, match="row 2, column 1"):
            read_matrix(path)

    def test_malformed_field_names_position(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.0,abc\n1.0,0.0\n")
        with pytest.raises(ValidationError, match="line 1, field 2"):
            read_matrix(path)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.0,1.0\n1.0\n")
        with pytest.raises(ValidationError, match="line 2"):
            read_matrix(path)

    def test_non_square_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.0,1.0\n")
        with pytest.raises(ValidationError, match="square"):
            read_matrix(path)


class TestSystemJson:
    def test_parse_and_reduce(self, tmp_path):
        path = tmp_path / "sys.json"
        path.write_text(
            json.dumps(
                {
                    "n": 2,
                    "entries": [
                        {"i": 1, "j": 2, "impulse": [0.0, 1.0, -0.5]},
                        {"i": 2, "j": 1, "impulse": [2.0]},
                    ],
                }
            )
        )
        sys = read_system(path)
        m = magnitude_matrix(sys).m
        np.testing.assert_allclose(m, [[0.0, 1.5], [2.0, 0.0]])

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "sys.json"
        path.write_text(json.dumps({"n": 1, "entries": [], "extra": 1}))
        with pytest.raises(ValidationError, match="unknown fields"):
            read_system(path)

    def test_duplicate_entry_rejected(self, tmp_path):
        path = tmp_path / "sys.json"
        path.write_text(
            json.dumps(
                {
                    "n": 1,
                    "entries": [
                        {"i": 1, "j": 1, "impulse": [1.0]},
                        {"i": 1, "j": 1, "impulse": [2.0]},
                    ],
                }
            )
        )
        with pytest.raises(ValidationError, match="duplicate"):
            read_system(path)


class TestReportJson:
    def test_identity_report_values(self):
        report = build_report(np.eye(3))
        assert report.mu == pytest.approx(1.0, rel=1e-9)
        assert report.nubar == pytest.approx(1.0, rel=1e-12)
        assert report.nu_lower.bound == pytest.approx(1.0, rel=1e-9)
        assert report.diagnostics.diagonally_maximal

    def test_round_trip(self, tmp_path):
        report = build_report(np.array([[0.5, 1.0], [1.0, 0.5]]), oracle=True)
        path = tmp_path / "report.json"
        write_report(report, path)
        back = read_report(path)
        assert back == report

    def test_schema_field_present(self, tmp_path):
        report = build_report(np.eye(2))
        path = tmp_path / "report.json"
        write_report(report, path)
        data = json.loads(path.read_text())
        assert data["schema"] == 1

    def test_unknown_field_rejected(self, tmp_path):
        report = build_report(np.eye(2))
        path = tmp_path / "report.json"
        write_report(report, path)
        data = json.loads(path.read_text())
        data["surprise"] = True
        path.write_text(json.dumps(data))
        with pytest.raises(ValidationError, match="unknown fields"):
            read_report(path)

    def test_wrong_schema_rejected(self, tmp_path):
        report = build_report(np.eye(2))
        path = tmp_path / "report.json"
        write_report(report, path)
        data = json.loads(path.read_text())
        data["schema"] = 2
        path.write_text(json.dumps(data))
        with pytest.raises(ValidationError, match="schema"):
            read_report(path)

    def test_inconsistent_chain_rejected(self, tmp_path):
        report = build_report(np.array([[0.0, 1.0], [0.25, 0.0]]))
        path = tmp_path / "report.json"
        write_report(report, path)
        data = json.loads(path.read_text())
        data["nu_lower"]["bound"] = 2.0 * data["nubar"]
        path.write_text(json.dumps(data))
        with pytest.raises(ValidationError, match="inconsistent report"):
            read_report(path)


class TestTables:
    def test_study_csv_header(self, tmp_path):
        rows = [StudyRow(n=4, theta=0.5, tol=1e-3, max_iters=12, median_iters=8, failures=0)]
        path = tmp_path / "study.csv"
        write_study(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "n,theta,tol,max_iters,median_iters,failures"
        assert lines[1].startswith("4,0.5,0.001,12,8,0")

    def test_trace_csv_with_d_columns(self, tmp_path):
        trace = heuristic_balance(np.array([[0.0, 1.0], [0.25, 0.0]]), theta=0.5, max_iter=20)
        path = tmp_path / "trace.csv"
        write_trace(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,objective,rel_change,d1,d2"
        assert len(lines) == len(trace.iterations) + 1
