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
    nu_ring,
    ring_matrix,
)
from nu_analyzer.balancer import StudyRow
from nu_analyzer.cli import build_report
from nu_analyzer.report_io import report_json, table_csv

from helpers import mixed_corpus


def _edited_report(tmp_path, edit, oracle=False, scale=1.0):
    """Path of the 2x2 report of ``scale * [[0, 1], [0.25, 0]]`` after
    ``edit`` has changed its parsed JSON in place."""
    path = tmp_path / "report.json"
    write_report(build_report(scale * np.array([[0.0, 1.0], [0.25, 0.0]]), oracle=oracle), path)
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))
    return path


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

    def test_blank_lines_do_not_shift_line_numbers(self, tmp_path):
        # a blank line holds no row, so the third file line is the second row
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n\n3\n")
        with pytest.raises(ValidationError, match="line 3 has 1 fields, expected 2"):
            read_matrix(path)
        path.write_text("0.0,1.0\n\n-2.0,0.0\n")
        with pytest.raises(ValidationError, match=r"row 2, column 1 \(line 3\)"):
            read_matrix(path)

    def test_non_square_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.0,1.0\n")
        with pytest.raises(ValidationError, match="square"):
            read_matrix(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_entry_names_position(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"0.0,1.0\n{cell},0.0\n")
        with pytest.raises(ValidationError, match="line 2, field 1: non-finite value"):
            read_matrix(path)

    @pytest.mark.parametrize("text", ["", "\n \n"], ids=["no-bytes", "blank-lines"])
    def test_empty_file_rejected(self, tmp_path, text):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        with pytest.raises(ValidationError, match="empty matrix file"):
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

    @pytest.mark.parametrize("scale", [1.0, 1e-20], ids=["scale-1", "scale-1e-20"])
    @pytest.mark.parametrize("low, high", [("nu_lower", "nubar"), ("nubar", "mu")])
    def test_inconsistent_chain_rejected(self, tmp_path, low, high, scale):
        # both links are relative: a bound twice its neighbour is rejected at
        # every scale, also where the excess is far below 1e-12
        def edit(d):
            if low == "nu_lower":
                d["nu_lower"]["bound"] = 2.0 * d["nubar"]
            else:
                d["nubar"] = 2.0 * d[high]
        with pytest.raises(ValidationError, match="inconsistent report"):
            read_report(_edited_report(tmp_path, edit, scale=scale))

    @pytest.mark.parametrize("scale", [1.0, 1e-20], ids=["scale-1", "scale-1e-20"])
    @pytest.mark.parametrize("low, high", [("nu_lower", "nubar"), ("nubar", "mu")])
    def test_chain_slack_is_tight(self, tmp_path, low, high, scale):
        # the chain allows rounding, not a loose bound: an excess of 1e-3
        # over the neighbour is refused, one of 1e-8 reads back
        def excess(factor):
            def edit(d):
                if low == "nu_lower":
                    d["nu_lower"]["bound"] = factor * d["nubar"]
                else:
                    d["nubar"] = factor * d[high]
            return edit

        with pytest.raises(ValidationError, match="inconsistent report"):
            read_report(_edited_report(tmp_path, excess(1.0 + 1e-3), scale=scale))
        back = read_report(_edited_report(tmp_path, excess(1.0 + 1e-8), scale=scale))
        if low == "nu_lower":
            assert back.nu_lower.bound == (1.0 + 1e-8) * back.nubar
        else:
            assert back.nubar == (1.0 + 1e-8) * back.mu

    def test_scaling_length_must_match_n(self, tmp_path):
        for edit in (lambda d: d["nubar_scaling"].append(1.0), lambda d: d.update(n=7)):
            with pytest.raises(ValidationError, match="scaling weights"):
                read_report(_edited_report(tmp_path, edit))

    @pytest.mark.parametrize("indices", [[], [2, 1], [1, 1], [0, 1], [1, 3]])
    def test_subset_indices_must_increase_within_range(self, tmp_path, indices):
        def edit(d):
            d["nu_lower"]["indices"] = indices
        with pytest.raises(ValidationError, match="not increasing in 1..2"):
            read_report(_edited_report(tmp_path, edit))

    def test_witness_length_must_match_n(self, tmp_path):
        def edit(d):
            d["nu_exact"]["witness"].append(1.0)
        with pytest.raises(ValidationError, match="witness gains"):
            read_report(_edited_report(tmp_path, edit, oracle=True))


def _set(*keys_and_value):
    *keys, last, value = keys_and_value

    def edit(d):
        for k in keys:
            d = d[k]
        d[last] = value
    return edit


class TestReportReaderRejects:
    @pytest.mark.parametrize(
        "edit, where",
        [
            (_set("nubar_certified", "false"), "nubar_certified"),
            (_set("n", 2.9), "n"),
            (_set("n", True), "n"),
            (_set("ratios", "mu_over_nubar", "1.0"), "ratios: mu_over_nubar"),
            (_set("nu_lower", "indices", [1.7]), "nu_lower: indices"),
            (_set("nubar_scaling", "12"), "nubar_scaling"),
            (_set("mu", "abc"), "mu"),
            (_set("mu", float("nan")), "mu"),
            (_set("nu_lower", [0.25, [1, 2], True]), "nu_lower"),
            (lambda d: d["diagnostics"].pop("acyclic"), "diagnostics: missing fields"),
        ],
        ids=[
            "bool-as-string", "fractional-int", "bool-as-int", "ratio-as-string",
            "fractional-index", "scaling-as-string", "mu-as-string", "mu-nan",
            "nu_lower-not-object", "missing-nested-field",
        ],
    )
    def test_malformed_field(self, tmp_path, edit, where):
        path = _edited_report(tmp_path, edit)
        with pytest.raises(ValidationError, match=f"report.json: {where}"):
            read_report(path)


class TestReportRoundTrip:
    def test_seeded_reports_read_back_equal(self, tmp_path):
        rng = np.random.default_rng(61)
        corpus = [(m, m.shape[0] <= 4, None) for m in mixed_corpus(seed=60, count=30, n_max=7)]
        corpus += [(np.triu(rng.random((n, n)), 1), n == 3, None) for n in range(1, 6)]
        corpus += [(np.exp(rng.uniform(-20, 20, (n, n))), False, None) for n in (3, 6)]
        for w in (np.ones(3), np.array([2.0, 0.5, 1.0, 4.0])):
            corpus.append((ring_matrix(w), False, nu_ring(w)))
        no_ratio, methods = set(), set()
        path = tmp_path / "report.json"
        for m, oracle, nu in corpus:
            report = build_report(m, oracle=oracle, nu_result=nu)
            write_report(report, path)
            assert read_report(path) == report
            no_ratio.add(report.ratios.mu_over_nubar is None)
            methods.add(report.nu_exact and report.nu_exact.method)
        assert no_ratio == {True, False}
        assert methods == {None, "oracle", "closed_form_2x2", "ring"}


class TestPinnedBytes:
    """Key order and number formatting of the file formats, as literals."""

    def test_oracle_2x2_report(self):
        report = build_report(np.array([[0.0, 1.0], [0.25, 0.0]]), oracle=True)
        assert report_json(report) == PINNED_ORACLE_2X2

    def test_acyclic_3x3_report(self):
        report = build_report(np.array([[0.0, 1.0, 2.0], [0.0, 0.0, 3.0], [0.0, 0.0, 0.0]]))
        assert report_json(report) == PINNED_ACYCLIC_3X3

    def test_study_row_mixes_int_and_float_fields(self):
        row = StudyRow(n=4, theta=1 / 3, tol=1e-7, max_iters=12, median_iters=8, failures=3)
        assert table_csv(StudyRow, [row]) == (
            "n,theta,tol,max_iters,median_iters,failures\n4,0.3333333333333333,1e-07,12,8,3"
        )


class TestTables:
    def test_study_csv_header(self):
        rows = [StudyRow(n=4, theta=0.5, tol=1e-3, max_iters=12, median_iters=8, failures=0)]
        lines = table_csv(StudyRow, rows).splitlines()
        assert lines[0] == "n,theta,tol,max_iters,median_iters,failures"
        assert lines[1].startswith("4,0.5,0.001,12,8,0")

    def test_trace_csv_with_d_columns(self, tmp_path):
        trace = heuristic_balance(np.array([[0.0, 1.0], [0.25, 0.0]]), theta=0.5, max_iter=20)
        path = tmp_path / "trace.csv"
        write_trace(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,objective,rel_change,d1,d2"
        assert len(lines) == len(trace.iterations) + 1


PINNED_ORACLE_2X2 = """{
  "schema": 1,
  "n": 2,
  "mu": 0.5,
  "nubar": 0.5,
  "nubar_scaling": [
    0.5,
    1.0
  ],
  "nubar_certified": true,
  "nu_lower": {
    "bound": 0.25000000000000006,
    "indices": [
      1,
      2
    ],
    "exhaustive": true
  },
  "nu_exact": {
    "value": 0.25,
    "method": "closed_form_2x2",
    "witness": [
      2.0,
      2.0
    ]
  },
  "ratios": {
    "nubar_over_nu_lower": 1.9999999999999996,
    "mu_over_nubar": 1.0
  },
  "diagnostics": {
    "diagonally_maximal": false,
    "acyclic": false
  }
}"""

PINNED_ACYCLIC_3X3 = """{
  "schema": 1,
  "n": 3,
  "mu": 0.0,
  "nubar": 0.0,
  "nubar_scaling": [
    0.0,
    0.0,
    1.0
  ],
  "nubar_certified": true,
  "nu_lower": {
    "bound": 0.0,
    "indices": [
      1
    ],
    "exhaustive": true
  },
  "nu_exact": null,
  "ratios": {
    "nubar_over_nu_lower": null,
    "mu_over_nubar": null
  },
  "diagnostics": {
    "diagonally_maximal": false,
    "acyclic": true
  }
}"""
