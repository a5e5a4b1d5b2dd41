import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nu_analyzer
from nu_analyzer import (
    nu_oracle,
    read_matrix,
    read_report,
    ring_matrix,
    write_matrix,
)
from nu_analyzer import _graph, nubar, spectral
from nu_analyzer._graph import strongly_connected_components, support_adjacency
from nu_analyzer.cli import build_report, grid_records, main

from helpers import enum_max_cycle_mean, mixed_corpus, wide_range_input


@pytest.fixture()
def ring4_csv(tmp_path):
    path = tmp_path / "ring4.csv"
    write_matrix(ring_matrix(np.ones(4)), path)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_ring4(self, capsys, ring4_csv):
        code, out, _ = run_cli(capsys, "analyze", ring4_csv)
        assert code == 0
        data = json.loads(out)
        assert data["mu"] == pytest.approx(1.0, rel=1e-9)
        assert data["nubar"] == pytest.approx(1.0, rel=1e-12)
        assert data["nu_lower"]["bound"] == pytest.approx(0.25, abs=1e-9)
        assert data["nu_lower"]["indices"] == [1, 2, 3, 4]

    def test_identity(self, capsys, tmp_path):
        path = tmp_path / "ident.csv"
        write_matrix(np.eye(3), path)
        code, out, _ = run_cli(capsys, "analyze", str(path))
        data = json.loads(out)
        assert code == 0
        assert data["mu"] == pytest.approx(1.0, rel=1e-9)
        assert data["nubar"] == pytest.approx(1.0)
        assert data["nu_lower"]["bound"] == pytest.approx(1.0, rel=1e-9)
        assert data["diagnostics"]["diagonally_maximal"] is True

    def test_oracle_flag(self, capsys, tmp_path):
        path = tmp_path / "m2.csv"
        write_matrix(np.array([[0.5, 1.0], [1.0, 0.5]]), path)
        code, out, _ = run_cli(capsys, "analyze", str(path), "--oracle")
        data = json.loads(out)
        assert data["nu_exact"]["value"] == pytest.approx(0.75, rel=1e-9)
        assert data["nu_exact"]["method"] == "closed_form_2x2"

    @pytest.mark.parametrize("seed", [[3, 0, 3, 0], [1, 0, 4, 0]], ids=["n3", "n4"])
    def test_oracle_flag_grid_search(self, capsys, tmp_path, seed):
        m = np.random.default_rng(seed).random((seed[2], seed[2]))
        path = tmp_path / "m.csv"
        write_matrix(m, path)
        code, out, _ = run_cli(capsys, "analyze", str(path), "--oracle")
        assert code == 0
        data = json.loads(out)
        assert data["nu_exact"]["method"] == "oracle"
        assert data["nu_exact"]["value"] == nu_oracle(read_matrix(path)).value
        assert data["nu_lower"]["bound"] <= data["nu_exact"]["value"] * (1 + 1e-9)
        assert data["nu_exact"]["value"] <= data["nubar"]
        assert run_cli(capsys, "analyze", str(path), "--oracle")[1] == out

    @pytest.mark.parametrize(
        "m",
        [np.array([[0.0, 1e-200], [1e-200, 0.0]]), 1e-16 * np.random.default_rng(5).random((3, 3))],
        ids=["2x2", "3x3"],
    )
    def test_oracle_flag_at_tiny_scale(self, capsys, tmp_path, m):
        path, out_path = tmp_path / "m.csv", tmp_path / "m.json"
        write_matrix(m, path)
        code, _, _ = run_cli(capsys, "analyze", str(path), "--oracle", "--out", str(out_path))
        assert code == 0
        report = read_report(out_path)
        assert 0.0 < report.nu_lower.bound <= report.nu_exact.value * (1 + 1e-9)
        assert report.nu_exact.value <= report.nubar * (1 + 1e-9)

    def test_system_json_input(self, capsys, tmp_path):
        path = tmp_path / "sys.json"
        path.write_text(
            json.dumps({"n": 2, "entries": [{"i": 1, "j": 2, "impulse": [1.0]},
                                            {"i": 2, "j": 1, "impulse": [1.0]}]})
        )
        code, out, _ = run_cli(capsys, "analyze", str(path))
        assert code == 0
        assert json.loads(out)["mu"] == pytest.approx(1.0, rel=1e-9)

    def test_validation_error_exit_code(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.0,-1.0\n1.0,0.0\n")
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert code == 2
        assert out == ""
        assert "negative" in err

    @pytest.mark.parametrize(
        "system",
        [
            {"n": 1, "entries": [{"i": 1, "j": 1, "impulse": ["a"]}]},
            {"n": True, "entries": []},
            {"n": 1, "entries": [{"i": 1, "j": 1, "impulse": [True, 1]}]},
            '{"n": 1, "entries": [',
        ],
        ids=["string-coefficient", "bool-dimension", "bool-coefficient", "invalid-json"],
    )
    def test_malformed_system_is_invalid_input(self, capsys, tmp_path, system):
        path = tmp_path / "sys.json"
        path.write_text(system if isinstance(system, str) else json.dumps(system))
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert code == 2
        assert out == ""
        assert "sys.json: " in err and "internal error" not in err

    @pytest.mark.parametrize(
        "name, content",
        [
            ("missing.csv", None),
            ("dir.csv", "directory"),
            ("latin1.csv", "0,1\n0.5\xb5,0\n".encode("latin-1")),
            ("latin1.json", '{"n": 1, "entries": [], "\xb5": 0}'.encode("latin-1")),
        ],
        ids=["missing", "directory", "non-utf8-csv", "non-utf8-json"],
    )
    def test_unreadable_file_is_invalid_input(self, capsys, tmp_path, name, content):
        path = tmp_path / name
        if content == "directory":
            path.mkdir()
        elif content is not None:
            path.write_bytes(content)
        for command in ("analyze", "balance"):
            code, out, err = run_cli(capsys, command, str(path))
            assert code == 2
            assert out == ""
            assert f"{path}: cannot read" in err and "internal error" not in err

    @pytest.mark.parametrize(
        "name, text",
        [
            ("m.csv", "0,1\n0.25,0\n"),
            ("m.json", '{"n": 2, "entries": [{"i": 1, "j": 2, "impulse": [1.0]}, '
                       '{"i": 2, "j": 1, "impulse": [0.25]}]}'),
        ],
        ids=["csv", "json"],
    )
    def test_byte_order_mark_is_valid_input(self, capsys, tmp_path, name, text):
        plain, marked = tmp_path / name, tmp_path / f"bom-{name}"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        outs = [run_cli(capsys, "analyze", str(path)) for path in (plain, marked)]
        assert outs[0][0] == 0
        assert outs[1] == outs[0]

    def test_unknown_suffix_is_invalid_input(self, capsys, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("0,1\n0.25,0\n")
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert code == 2
        assert out == ""
        assert "expected a .csv matrix or .json system description" in err

    def test_oracle_beyond_n4_is_skipped_with_a_warning(self, capsys, tmp_path):
        path = tmp_path / "m5.csv"
        write_matrix(ring_matrix(np.ones(5)), path)
        code, out, err = run_cli(capsys, "analyze", str(path), "--oracle")
        assert code == 0
        assert json.loads(out)["nu_exact"] is None
        assert "oracle requested but n=5 exceeds 4; skipping exact value" in err

    def test_front_without_tight_cycle_is_internal_error(self, capsys, monkeypatch, ring4_csv):
        # a cyclic input whose tight graph holds no cycle is a solver fault
        monkeypatch.setattr(nubar, "_tight_arcs", lambda w, lam, p, tol: np.zeros(w.shape, bool))
        code, out, err = run_cli(capsys, "analyze", ring4_csv)
        assert code == 1
        assert out == ""
        assert "internal error" in err and "no tight cycle" in err

    def test_subset_max_above_n_is_clipped(self, capsys, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,1\n0.25,0\n")
        outs = []
        for cap in ("99", "2"):
            code, out, _ = run_cli(capsys, "analyze", str(path), "--subset-max", cap)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        code, out, err = run_cli(capsys, "analyze", str(path), "--subset-max", "0")
        assert code == 2 and out == "" and "max_subset_size" in err

    def test_report_file_out(self, capsys, tmp_path, ring4_csv):
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "analyze", ring4_csv, "--out", str(out_path))
        assert code == 0
        report = read_report(out_path)
        assert report.nubar == pytest.approx(1.0)

    def test_inconsistent_report_is_internal_error(self, capsys, monkeypatch, ring4_csv):
        # the input is valid, so a broken measure chain is the program's
        # fault: exit 1, not the input-validation code 2
        monkeypatch.setattr("nu_analyzer.spectral._rho", lambda a, comps=None: 0.0)
        for argv in (["analyze", ring4_csv], ["ring", "--n", "4"]):
            code, out, err = run_cli(capsys, *argv)
            assert code == 1
            assert out == ""
            assert "inconsistent report" in err

    def test_wide_range_input_with_unconverged_eigensolve(self, capsys, tmp_path):
        # entries from e^-300 to e^300: LAPACK's eigensolver fails to converge
        # on a nearly nilpotent block of a screen stack, a valid input
        rng = np.random.default_rng(131)
        m = np.exp(rng.uniform(-300, 300, (18, 18))) * (rng.random((18, 18)) < 0.4)
        path, out_path = tmp_path / "wide.csv", tmp_path / "wide.json"
        write_matrix(m, path)
        code, _, _ = run_cli(capsys, "analyze", str(path), "--out", str(out_path))
        assert code == 0
        r = read_report(out_path)
        assert r.nu_lower.bound <= r.nubar <= r.mu * (1 + 1e-12)

    @pytest.mark.parametrize("s, i", [(600, 131), (700, 78)])
    def test_wide_range_mu_from_normalized_roots(self, s, i):
        # the raw blocks' roots read 1.64e61 for 2.17e77 and 0.0 for 4.01e28
        # here, below nubar
        r = build_report(wide_range_input(s, i))
        assert r.nu_lower.bound <= r.nubar <= r.mu * (1 + 1e-12)

    def test_one_perron_solve_per_component_per_report(self, monkeypatch):
        # mu reads the root of the dense 8x8 block off the one solve that the
        # subset screen makes on the nubar-normalized matrix
        blocks = []
        roots = spectral._perron_roots

        def spy(stack):
            blocks.append(stack.shape)
            return roots(stack)

        monkeypatch.setattr(spectral, "_perron_roots", spy)
        build_report(np.random.default_rng(8).random((8, 8)))
        assert blocks.count((8, 8)) == 1

    def test_one_component_search_per_report(self, monkeypatch):
        # mu, the screen's size cap and the balanced scaling read the
        # components the nubar front half finds on the support
        m = np.random.default_rng(8).random((8, 8)) * (np.random.default_rng(9).random((8, 8)) < 0.5)
        supports = [support_adjacency(m), support_adjacency(m - np.diag(np.diag(m)))]
        assert supports[0] != supports[1]
        calls = []

        def spy(n, adj):
            calls.append(adj)
            return strongly_connected_components(n, adj)

        for module in (_graph, nubar, spectral):
            monkeypatch.setattr(module, "strongly_connected_components", spy, raising=False)
        build_report(m)
        assert sum(adj in supports for adj in calls) == 1

    def test_acyclic_flag_matches_cycle_enumeration(self):
        rng = np.random.default_rng(23)
        corpus = mixed_corpus(seed=22, count=40, n_max=6)
        corpus += [np.triu(rng.random((n, n)), 1) for n in range(2, 7)]
        flags = []
        for m in corpus:
            acyclic = build_report(m).diagnostics.acyclic
            assert acyclic == (enum_max_cycle_mean(m) == 0.0)
            flags.append(acyclic)
        assert True in flags and False in flags


class TestBalance:
    def test_oscillation_note(self, capsys, tmp_path):
        path = tmp_path / "osc.csv"
        write_matrix(np.array([[0.0, 1.0], [0.25, 0.0]]), path)
        code, out, err = run_cli(capsys, "balance", str(path), "--theta", "1.0")
        assert code == 0
        data = json.loads(out)
        assert data["oscillating"] is True
        assert data["note"] == "oscillation detected"
        assert "oscillation detected" in err

    def test_converged_half_step(self, capsys, tmp_path):
        path = tmp_path / "osc.csv"
        write_matrix(np.array([[0.0, 1.0], [0.25, 0.0]]), path)
        code, out, _ = run_cli(capsys, "balance", str(path), "--theta", "0.5")
        data = json.loads(out)
        assert data["converged"] is True
        assert data["objective"] == pytest.approx(0.5, rel=1e-3)

    def test_identity_converges_after_one_update(self, capsys, tmp_path):
        path = tmp_path / "ident.csv"
        write_matrix(np.eye(2), path)
        code, out, _ = run_cli(capsys, "balance", str(path), "--theta", "0.9")
        data = json.loads(out)
        assert data["converged"] is True
        assert data["updates"] == 1

    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1e-3"])
    def test_tolerance_must_be_positive_and_finite(self, capsys, tmp_path, tol):
        path = tmp_path / "m.csv"
        write_matrix(np.array([[0.0, 1.0], [0.25, 0.0]]), path)
        code, out, err = run_cli(capsys, "balance", str(path), f"--tol={tol}")
        assert code == 2
        assert out == ""
        assert "positive and finite" in err

    def test_trace_file(self, capsys, tmp_path):
        path = tmp_path / "m.csv"
        write_matrix(np.array([[0.0, 1.0], [0.25, 0.0]]), path)
        trace_path = tmp_path / "trace.csv"
        code, _, _ = run_cli(capsys, "balance", str(path), "--trace", str(trace_path))
        assert code == 0
        assert trace_path.read_text().startswith("t,objective,rel_change")


class TestGrid:
    def test_record_count_and_bounds(self):
        records = grid_records(5)
        assert len(records) == 125
        for r in records:
            assert 1.0 - 1e-6 <= r.ratio_nubar_nu <= 2.0 + 1e-6

    def test_corner_values(self):
        records = {(r.x, r.w, r.y): r for r in grid_records(2)}
        corner = records[(1.0, 1.0, 1.0)]
        assert corner.mu == pytest.approx(2.0, rel=1e-9)
        assert corner.nu == pytest.approx(1.0, rel=1e-9)
        assert corner.nubar == pytest.approx(1.0, rel=1e-9)
        swap = records[(0.0, 1.0, 0.0)]
        assert swap.mu == pytest.approx(1.0, rel=1e-9)
        assert swap.nu == pytest.approx(0.5, rel=1e-9)
        assert swap.nubar == pytest.approx(1.0, rel=1e-9)

    def test_one_step_is_invalid_input(self, capsys):
        code, out, err = run_cli(capsys, "grid2x2", "--steps", "1")
        assert code == 2
        assert out == ""
        assert "at least 2 steps" in err

    def test_csv_output_and_plot_script(self, capsys, tmp_path):
        out_path = tmp_path / "grid.csv"
        code, _, _ = run_cli(capsys, "grid2x2", "--steps", "3", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "x,w,y,mu,nu,nubar,ratio_mu_nu,ratio_nubar_nu"
        assert len(lines) == 28
        assert (tmp_path / "grid.gp").exists()


class TestBench:
    def test_small_study_deterministic_bytes(self, capsys, tmp_path):
        args = [
            "bench", "--mode", "size", "--trials", "3", "--thetas", "0.5",
            "--ns", "3,4", "--tols", "0.01", "--seed", "11", "--max-iter", "300",
        ]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(capsys, *args, "--out", str(p1))[0] == 0
        assert run_cli(capsys, *args, "--out", str(p2))[0] == 0
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[0]
        assert header == "n,theta,tol,max_iters,median_iters,failures"

    def test_threads_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--trials", "1", "--thetas", "0.5", "--ns", "3", "--threads", "3"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --threads 3" in captured.err

    def test_nonpositive_size_is_invalid_input(self, capsys):
        args = ["bench", "--mode", "size", "--ns", "-2", "--trials", "1", "--thetas", "0.5"]
        code, out, err = run_cli(capsys, *args)
        assert code == 2
        assert out == ""
        assert "at least 1" in err

    def test_nan_tolerance_is_invalid_input(self, capsys):
        args = ["bench", "--trials", "1", "--thetas", "0.5", "--ns", "3", "--tols", "1e-3,nan"]
        code, out, err = run_cli(capsys, *args)
        assert code == 2
        assert out == ""
        assert "positive and finite" in err

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--thetas", "0"], "theta must lie in (0, 1]"),
            (["--thetas", "0.5,1.5"], "theta must lie in (0, 1]"),
            (["--thetas", "0.5", "--max-iter", "0"], "max_iter must be at least 1"),
        ],
        ids=["zero-theta", "theta-above-one", "zero-max-iter"],
    )
    def test_step_parameters_are_validated(self, capsys, extra, message):
        code, out, err = run_cli(capsys, "bench", "--trials", "1", "--ns", "3", *extra)
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("density", ["-1", "0", "1.5", "nan"])
    def test_density_outside_unit_interval_is_invalid_input(self, capsys, density):
        args = ["bench", "--trials", "1", "--thetas", "0.5", "--ns", "3", "--tols", "0.01",
                "--dist", "sparse", "--density", density]
        code, out, err = run_cli(capsys, *args)
        assert code == 2
        assert out == ""
        assert "density must be finite and in (0, 1]" in err


class TestRing:
    def test_ring_report(self, capsys):
        code, out, _ = run_cli(capsys, "ring", "--n", "4")
        data = json.loads(out)
        assert code == 0
        assert data["mu"] == pytest.approx(1.0, rel=1e-9)
        assert data["nubar"] == pytest.approx(1.0)
        assert data["nu_exact"]["value"] == pytest.approx(0.25)
        assert data["nu_exact"]["method"] == "ring"
        assert data["nu_lower"]["bound"] == pytest.approx(0.25, abs=1e-9)

    def test_weighted_ring(self, capsys):
        code, out, _ = run_cli(capsys, "ring", "--weights", "2.0,0.5")
        data = json.loads(out)
        assert data["nu_exact"]["value"] == pytest.approx(0.5, rel=1e-9)

    def test_weight_count_mismatch(self, capsys):
        code, _, err = run_cli(capsys, "ring", "--n", "3", "--weights", "1.0,1.0")
        assert code == 2

    def test_nonpositive_n_is_invalid_input(self, capsys):
        code, out, err = run_cli(capsys, "ring", "--n", "-1")
        assert code == 2
        assert out == ""
        assert "at least 1" in err


class TestListFlags:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["bench", "--thetas", "abc"], "--thetas"),
            (["bench", "--ns", "2,x"], "--ns"),
            (["bench", "--tols", "1e-3,q"], "--tols"),
            (["ring", "--weights", "1,b"], "--weights"),
            (["ring", "--weights", ","], "--weights"),
        ],
        ids=["thetas", "ns", "tols", "weights", "weights-empty"],
    )
    def test_malformed_list_is_invalid_input(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert flag in err
        assert "internal error" not in err


class TestOutputPaths:
    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "RING4", "--out", "OUT"],
            ["balance", "RING4", "--out", "OUT"],
            ["balance", "RING4", "--trace", "OUT"],
            ["grid2x2", "--steps", "3", "--out", "OUT"],
            ["bench", "--mode", "size", "--trials", "2", "--ns", "3", "--out", "OUT"],
            ["ring", "--n", "3", "--out", "OUT"],
        ],
        ids=["analyze", "balance-out", "balance-trace", "grid2x2", "bench", "ring"],
    )
    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unwritable_output_path_is_invalid_input(self, capsys, monkeypatch, tmp_path, ring4_csv, argv, where):
        # rejected before any work: the commands' workers are never reached
        def unreachable(*args, **kwargs):
            raise AssertionError("work started before the output path was checked")

        for name in ("build_report", "heuristic_balance", "grid_records", "convergence_study"):
            monkeypatch.setattr(f"nu_analyzer.cli.{name}", unreachable)
        out_path = str(tmp_path / "nodir" / "r.json" if where == "missing-directory" else tmp_path)
        argv = [ring4_csv if a == "RING4" else out_path if a == "OUT" else a for a in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert f"{out_path}: not a file path" in err and "internal error" not in err
        assert not (tmp_path / "nodir").exists()


class TestParserReuse:
    def test_analyze_after_parser_error_matches_fresh_process(self, capsys, ring4_csv):
        with pytest.raises(SystemExit) as exc:
            main(["ring"])
        assert exc.value.code == 2
        assert "ring needs --n or --weights" in capsys.readouterr().err
        code, out, _ = run_cli(capsys, "analyze", ring4_csv)
        assert code == 0
        src = str(Path(nu_analyzer.__file__).resolve().parents[1])
        paths = [src, os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
        fresh = subprocess.run(
            [sys.executable, "-m", "nu_analyzer.cli", "analyze", ring4_csv],
            capture_output=True, text=True, env=env, check=True,
        )
        assert out == fresh.stdout


class TestStdoutMatchesOut:
    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "RING4"],
            ["ring", "--weights", "2.0,0.5,1.0"],
            ["grid2x2", "--steps", "3"],
            ["bench", "--mode", "size", "--trials", "2", "--thetas", "0.5,1.0", "--ns", "3,4"],
        ],
        ids=["analyze", "ring", "grid2x2", "bench"],
    )
    def test_same_bytes(self, capsys, tmp_path, ring4_csv, argv):
        argv = [ring4_csv if a == "RING4" else a for a in argv]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out
        path = tmp_path / "out.txt"
        assert run_cli(capsys, *argv, "--out", str(path))[0] == 0
        assert path.read_bytes() == out.encode()
