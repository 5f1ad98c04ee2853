"""Tests for the command line tool: exit codes, CSV schemas, determinism."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from levyou import approx, cli, errors, presets, strategy
from levyou.market import SimConfig, simulate_paths

SRC = Path(__file__).resolve().parents[1] / "src"
FLAT_PRICE = 0.074695526567830715 / (0.3333 / 24.0)


def run_cli(capsys, *argv):
    """Run the CLI in-process; return (exit_code, stdout, stderr)."""
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_rows(text):
    return [line for line in text.splitlines()
            if line and not line.startswith("#")][1:]


class TestSolve:
    def test_header_schema(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--s", "5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# levyou solve"
        assert lines[1].startswith("# preset=benth2012 ")
        assert lines[2] == ("s,pi_exact,pi_merton,pi_jump_mean,"
                            "bound_merton,bound_jump_mean")
        assert len(lines) == 4

    def test_all_fractions_vanish_at_the_flat_price(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--s", str(FLAT_PRICE))
        assert code == 0
        row = data_rows(out)[0].split(",")
        assert abs(float(row[1])) <= 1e-9
        assert abs(float(row[2])) <= 1e-9
        assert abs(float(row[3])) <= 1e-9

    def test_unbounded_tail_writes_inf_bound(self, capsys):
        _, out, _ = run_cli(capsys, "solve", "--s", "5")
        row = data_rows(out)[0].split(",")
        assert row[4] == "inf"
        assert math.isfinite(float(row[5]))

    def test_grid_row_count_and_monotone_exact_column(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--s-grid", "4:6:21")
        assert code == 0
        rows = [r.split(",") for r in data_rows(out)]
        assert len(rows) == 21
        exact = [float(r[1]) for r in rows]
        assert all(a >= b - 1e-12 for a, b in zip(exact, exact[1:]))

    def test_columns_keep_the_approximation_ordering(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--b-frac", "0.5",
                               "--s-grid", "0.1:5:40")
        assert code == 0
        for row in data_rows(out):
            _, exact, merton, jump_mean = (float(v)
                                           for v in row.split(",")[:4])
            assert merton <= exact + 1e-8
            assert exact <= jump_mean + 1e-8

    def test_jump_free_model_gives_equal_columns_and_nan_bounds(
            self, capsys):
        _, out, _ = run_cli(capsys, "solve", "--preset", "gaussian",
                            "--s", "0.3")
        row = data_rows(out)[0].split(",")
        assert float(row[1]) == pytest.approx(float(row[2]), rel=1e-12)
        assert float(row[1]) == pytest.approx(float(row[3]), rel=1e-12)
        assert row[4] == "nan" and row[5] == "nan"

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "solve", "--s-grid", "4:6:11")
        _, second, _ = run_cli(capsys, "solve", "--s-grid", "4:6:11")
        assert first == second

    def test_out_flag_writes_file(self, capsys, tmp_path):
        path = tmp_path / "solve.csv"
        code, out, _ = run_cli(capsys, "solve", "--s", "5",
                               "--out", str(path))
        assert code == 0
        assert f"wrote {path}" in out
        assert path.read_text().startswith("# levyou solve\n")


class TestFigure:
    def test_writes_csv_and_svg_per_fraction(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "figure", "--points", "40", "--out", str(tmp_path),
            "--fractions", "1.5,0.2",
        )
        assert code == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [
            "figure_bfrac_0.2.csv", "figure_bfrac_0.2.svg",
            "figure_bfrac_1.5.csv", "figure_bfrac_1.5.svg",
        ]
        csv_text = (tmp_path / "figure_bfrac_1.5.csv").read_text()
        lines = csv_text.splitlines()
        assert lines[0] == "# levyou figure"
        assert lines[2] == "s,pi_exact,pi_merton,pi_jump_mean"
        assert len(lines) == 3 + 40

    def test_grid_spans_ten_percent_past_the_flat_price(
            self, capsys, tmp_path):
        run_cli(capsys, "figure", "--points", "30", "--out", str(tmp_path),
                "--fractions", "0.8")
        rows = [r.split(",") for r in data_rows(
            (tmp_path / "figure_bfrac_0.8.csv").read_text())]
        assert float(rows[0][0]) == 0.0
        # FLAT_PRICE already corresponds to the 0.8 drift fraction.
        assert float(rows[-1][0]) == pytest.approx(1.1 * FLAT_PRICE,
                                                   rel=1e-12)
        # Past the flat price all three surfaces are identically zero.
        assert [float(v) for v in rows[-1][1:]] == [0.0, 0.0, 0.0]

    def test_risk_ratio_gap_shrinks_as_the_drift_shrinks(
            self, capsys, tmp_path):
        # The risk-ratio line only stays inside the fraction interval when
        # the cap is at least max-drift / jump-second-moment (~1.443 for
        # the 1.5 drift fraction); with a tighter cap every curve saturates
        # and gap comparisons degenerate into clamp artifacts.
        run_cli(capsys, "figure", "--points", "200", "--out", str(tmp_path),
                "--fractions", "1.5,0.2", "--pi-max", "1.443")
        gaps = {}
        for frac in ("1.5", "0.2"):
            rows = [r.split(",") for r in data_rows(
                (tmp_path / f"figure_bfrac_{frac}.csv").read_text())]
            gaps[frac] = max(abs(float(r[1]) - float(r[2])) for r in rows)
        assert gaps["0.2"] < gaps["1.5"]

    def test_svg_has_three_series(self, capsys, tmp_path):
        run_cli(capsys, "figure", "--points", "25", "--out", str(tmp_path),
                "--fractions", "0.5")
        svg = (tmp_path / "figure_bfrac_0.5.svg").read_text()
        assert svg.startswith("<svg ")
        assert svg.count("<polyline") == 3
        for label in ("exact", "merton", "jump-mean"):
            assert label in svg

    @pytest.mark.parametrize("name", presets.PRESET_NAMES)
    def test_columns_equal_a_solve_per_level(self, capsys, tmp_path, name):
        # All levels share one exact solve; each column must still carry
        # the bits of that level solved on its own.
        code, _, _ = run_cli(capsys, "figure", "--preset", name, "--points",
                             "60", "--out", str(tmp_path))
        assert code == 0
        base = presets.get_preset(name)
        lo, hi = base.pi_min, base.pi_max
        for frac in (1.5, 0.8, 0.5, 0.2):
            market = presets.get_preset(name, b_frac=frac).market
            rows = np.array([[float(v) for v in r.split(",")] for r in
                             data_rows((tmp_path / f"figure_bfrac_{frac:g}"
                                        ".csv").read_text())])
            s_values = rows[:, 0]
            for column, grid in zip(rows[:, 1:].T, (
                    strategy.optimal_fraction_grid,
                    approx.merton_fraction_grid,
                    approx.jump_mean_fraction_grid)):
                np.testing.assert_array_equal(
                    column, grid(market, 0.0, s_values, lo, hi)[0])

    def test_a_failing_level_writes_no_file(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "figure", "--fractions", "0.8,nan",
                                 "--out", str(tmp_path))
        assert code == errors.EXIT_CONFIG
        assert "b_frac must be finite" in err
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    def test_absolute_drift_flag_is_rejected(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "figure", "--b", "0.1",
                               "--out", str(tmp_path))
        assert code == errors.EXIT_CONFIG
        assert "--fractions" in err

    @pytest.mark.parametrize("line", ["b = 0.9", "b_frac = 0.3"])
    def test_drift_from_a_config_file_is_rejected(self, capsys, tmp_path,
                                                  line):
        ini = tmp_path / "run.ini"
        ini.write_text(f"[benth2012]\n{line}\n")
        code, _, err = run_cli(capsys, "figure", "--config", str(ini),
                               "--out", str(tmp_path / "figs"))
        assert code == errors.EXIT_CONFIG
        assert "--fractions" in err
        assert not (tmp_path / "figs").exists()


class TestSimulate:
    def test_moment_summary_and_determinism(self, capsys):
        argv = ("simulate", "--paths", "4000", "--steps", "32",
                "--seed", "11")
        code, first, _ = run_cli(capsys, *argv)
        assert code == 0
        assert "terminal mean:" in first
        assert "terminal variance:" in first
        assert "analytic" in first
        code, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_moments_match_analytics_within_three_se(self, capsys):
        _, out, _ = run_cli(capsys, "simulate", "--paths", "8000",
                            "--steps", "48", "--seed", "5")
        checked = 0
        for line in out.splitlines():
            if line.startswith(("terminal mean", "terminal variance")):
                z = float(line.rsplit("z = ", 1)[1])
                assert abs(z) <= 3.0
                checked += 1
        assert checked == 2

    @pytest.mark.parametrize("preset", ["benth2012", "gaussian",
                                        "uniform-two-sided"])
    def test_summary_is_the_same_with_and_without_a_file(self, capsys,
                                                         tmp_path, preset):
        # Without --out the walk keeps only each path's last price and
        # range; the summary must be the one the node array gives.
        argv = ("simulate", "--preset", preset, "--paths", "300",
                "--steps", "24", "--seed", "7")
        path = tmp_path / "paths.csv"
        _, free, _ = run_cli(capsys, *argv)
        _, kept, _ = run_cli(capsys, *argv, "--out", str(path))
        assert kept == free + f"wrote {path}\n"
        prices = np.loadtxt(path, delimiter=",", skiprows=3)[:, 2]
        low, high = prices.min(), prices.max()
        assert f"price range:       [{low:.6g}, {high:.6g}]" in free

    def test_summary_holds_no_node_array(self, capsys):
        # 20 000 paths x 97 nodes of float64 are 14.8 MiB; the node-free walk
        # holds one block of rows (2 rows at this size) at a time.
        # simulate_paths, which keeps every node, shows that tracemalloc
        # sees the array.
        node_bytes = 20_000 * 97 * 8
        argv = ["simulate", "--paths", "20000", "--steps", "96"]
        cli.main(argv)  # imports, presets and tables are made once

        def peak(run):
            capsys.readouterr()
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        preset = presets.get_preset("benth2012")
        assert peak(lambda: simulate_paths(
            preset.market, 0.0, preset.s0, preset.horizon,
            SimConfig(20_000, 96))) >= node_bytes
        assert peak(lambda: cli.main(argv)) < node_bytes / 2

    def test_out_writes_loadable_nonnegative_paths(self, capsys, tmp_path):
        path = tmp_path / "paths.csv"
        code, _, _ = run_cli(capsys, "simulate", "--paths", "50",
                             "--steps", "8", "--seed", "3",
                             "--out", str(path))
        assert code == 0
        assert path.read_text().splitlines()[1].startswith("# seed=3 ")
        rows = np.loadtxt(path, delimiter=",", skiprows=3)
        assert np.array_equal(rows[:, 0], np.repeat(np.arange(50), 9))
        # Positive jumps from a positive start: never below zero.
        assert rows[:, 2].min() >= 0.0


class TestValue:
    def test_schema_and_params_header(self, capsys):
        code, out, _ = run_cli(capsys, "value", "--s-grid", "4:6:3",
                               "--paths", "500", "--steps", "16",
                               "--seed", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# levyou value grid"
        assert lines[1].startswith("# preset=benth2012 ")
        assert "seed=2" in lines[1]
        assert lines[3] == "t,s,g_hat,std_err"
        assert len(data_rows(out)) == 3

    def test_reward_is_zero_at_the_horizon(self, capsys):
        _, out, _ = run_cli(capsys, "value", "--t", "24", "--s", "5",
                            "--paths", "10", "--steps", "4")
        row = data_rows(out)[0].split(",")
        assert float(row[2]) == 0.0
        assert float(row[3]) == 0.0


class TestErrorBars:
    """A standard error is finite where the spread is, and nan, not 0,
    where the sample cannot show one."""

    def test_huge_start_price_keeps_a_finite_error(self, capsys):
        # The squared deviations of rewards near 1e200 overflow a float.
        code, out, _ = run_cli(capsys, "value", "--preset", "gaussian",
                               "--s", "1e200", "--paths", "100")
        assert code == 0
        g_hat, se = map(float, data_rows(out)[0].split(",")[2:])
        assert math.isfinite(g_hat) and g_hat > 1e199
        assert math.isfinite(se) and 0.0 < se < 1e-10 * g_hat

    def test_one_path_has_no_error(self, capsys):
        code, out, _ = run_cli(capsys, "value", "--preset", "benth2012",
                               "--paths", "1", "--steps", "1")
        assert code == 0
        g_hat, se = data_rows(out)[0].split(",")[2:]
        assert math.isfinite(float(g_hat))
        assert se == "nan"

    def test_two_paths_give_no_variance_error_or_z(self, capsys):
        # Two paths' squared deviations are equal but for rounding.
        code, out, _ = run_cli(capsys, "simulate", "--preset", "gaussian",
                               "--paths", "2", "--steps", "3")
        assert code == 0
        lines = {line.split(":")[0]: line for line in out.splitlines()}
        mean = lines["terminal mean"]
        assert math.isfinite(float(mean.split("+/- ")[1].split()[0]))
        assert math.isfinite(float(mean.rsplit("z = ", 1)[1]))
        var = lines["terminal variance"]
        assert float(var.split("empirical ")[1].split()[0]) > 0.0
        assert var.split("+/- ")[1].split()[0] == "nan"
        assert var.rsplit("z = ", 1)[1] == "+nan"


class TestCompare:
    ARGS = ("compare", "--paths", "800", "--steps", "24", "--seed", "9")

    def test_all_strategy_rows_present(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS)
        assert code == 0
        rows = {r.split(",")[0]: r.split(",") for r in data_rows(out)}
        assert set(rows) == {"exact", "merton", "jump_mean", "zero"}
        assert float(rows["exact"][3]) == 0.0  # gap to itself
        assert float(rows["zero"][1]) == 0.0   # never invested
        assert "log-value estimate" in out

    def test_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, *self.ARGS)
        _, second, _ = run_cli(capsys, *self.ARGS)
        assert first == second


class TestDescribePreset:
    def test_single_preset(self, capsys):
        code, out, _ = run_cli(capsys, "describe-preset", "benth2012")
        assert code == 0
        assert "time unit:    hour" in out
        assert "24 hours" in out

    def test_listing(self, capsys):
        code, out, _ = run_cli(capsys, "describe-preset")
        assert code == 0
        for name in presets.PRESET_NAMES:
            assert name in out


class TestExitCodes:
    def test_unknown_preset(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--preset", "bogus")
        assert code == errors.EXIT_CONFIG
        assert "unknown preset" in err

    def test_bad_grid_spec(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--s-grid", "4..6x3")
        assert code == errors.EXIT_CONFIG
        assert "min:max:n" in err

    @pytest.mark.parametrize("argv", [
        ("solve", "--s-grid", "0:inf:3"),
        ("solve", "--s-grid=-inf:0:3"),
        ("value", "--s-grid", "0:inf:3", "--paths", "10", "--steps", "2"),
    ])
    def test_non_finite_grid_end(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == errors.EXIT_CONFIG
        assert "finite min < max" in err

    def test_start_time_past_horizon(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--t", "30")
        assert code == errors.EXIT_CONFIG
        assert "horizon" in err

    def test_numerical_failure_maps_to_exit_3(self, capsys, monkeypatch):
        def explode(*args, **kwargs):
            raise errors.ConvergenceError("fabricated for the test")

        monkeypatch.setattr(strategy, "optimal_fraction_gaps", explode)
        code, _, err = run_cli(capsys, "solve", "--s", "5")
        assert code == errors.EXIT_NUMERICAL
        assert "numerical failure" in err

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_backend_other_than_numpy_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--backend", "numba", "--paths", "4",
                      "--steps", "2"])
        assert exc.value.code == errors.EXIT_CONFIG
        assert "invalid choice: 'numba'" in capsys.readouterr().err

    def test_console_script_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "levyou.cli", "describe-preset"],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert proc.returncode == 0
        assert "benth2012" in proc.stdout


class TestParser:
    def test_main_builds_the_parser_once(self, capsys):
        cli._build_parser.cache_clear()
        first = run_cli(capsys, "solve", "--s-grid", "4:6:5")
        second = run_cli(capsys, "solve", "--s-grid", "4:6:5")
        assert first[0] == 0
        assert first == second
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_import_builds_no_parser(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import levyou.cli as c; "
             "print(c._build_parser.cache_info().currsize)"],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert proc.returncode == 0
        assert proc.stdout == "0\n"

    def test_help_and_unknown_command_keep_their_exit_codes(self, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                cli.main(["--help"])
            assert exc.value.code == 0
            assert capsys.readouterr().out.startswith("usage: levyou")
            with pytest.raises(SystemExit) as exc:
                cli.main(["frobnicate"])
            assert exc.value.code == 2
            assert "invalid choice" in capsys.readouterr().err


# Every flag each subcommand takes; the parser must keep exactly these.
MODEL_FLAGS = {"--preset": "gaussian", "--config": "run.ini", "--b": "0.1",
               "--b-frac": "0.5", "--pi-min": "-0.1", "--pi-max": "0.1",
               "--t": "0", "--horizon": "1"}
SIM_FLAGS = {"--paths": "10", "--steps": "4", "--seed": "1",
             "--backend": "numpy"}
COMMAND_FLAGS = {
    "solve": {**MODEL_FLAGS, "--s": "1", "--s-grid": "0:1:3",
              "--out": "x.csv"},
    "figure": {**MODEL_FLAGS, "--fractions": "0.5", "--points": "9",
               "--out": "figs"},
    "simulate": {**MODEL_FLAGS, **SIM_FLAGS, "--s": "1", "--out": "x.csv"},
    "value": {**MODEL_FLAGS, **SIM_FLAGS, "--s": "1", "--s-grid": "0:1:3",
              "--out": "x.csv"},
    "compare": {**MODEL_FLAGS, **SIM_FLAGS, "--s": "1", "--x0": "2",
                "--out": "x.csv"},
}
ALL_FLAGS = {flag: value for flags in COMMAND_FLAGS.values()
             for flag, value in flags.items()}


class TestFlagSets:
    @pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
    def test_every_flag_of_a_subcommand_parses(self, command):
        argv = [command]
        for flag, value in COMMAND_FLAGS[command].items():
            argv += [flag, value]
        args = cli._build_parser().parse_args(argv)
        assert args.command == command

    @pytest.mark.parametrize("command,flag", [
        (command, flag) for command in sorted(COMMAND_FLAGS)
        for flag in sorted(ALL_FLAGS) if flag not in COMMAND_FLAGS[command]
    ])
    def test_a_flag_the_subcommand_does_not_take_is_rejected(
            self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            cli._build_parser().parse_args([command, flag, ALL_FLAGS[flag]])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_describe_preset_takes_no_flags(self, capsys):
        with pytest.raises(SystemExit):
            cli._build_parser().parse_args(["describe-preset", "--preset",
                                            "gaussian"])
        capsys.readouterr()


NON_FINITE_CASES = [
    (command, flag, value)
    for command, flags in COMMAND_FLAGS.items()
    for flag in ("--s", "--t", "--horizon", "--x0") if flag in flags
    for value in ("nan", "inf")
]


class TestNonFiniteSettings:
    @pytest.mark.parametrize("command,flag,value", NON_FINITE_CASES)
    def test_flag_is_a_config_error(self, capsys, tmp_path, command, flag,
                                    value):
        small = ("--paths", "10", "--steps", "2")
        sim = small if "--paths" in COMMAND_FLAGS[command] else ()
        out = tmp_path / ("figs" if command == "figure" else "out.csv")
        code, _, err = run_cli(capsys, command, flag, value, *sim,
                               "--out", str(out))
        assert code == errors.EXIT_CONFIG
        assert f"{flag[2:]} must be finite, got {value}" in err
        assert not out.exists()

    def test_config_file_value_is_a_config_error(self, capsys, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[benth2012]\ns = nan\n")
        code, _, err = run_cli(capsys, "solve", "--config", str(ini))
        assert code == errors.EXIT_CONFIG
        assert "s must be finite, got nan" in err


class TestConfigFile:
    def test_file_overrides_preset_defaults(self, capsys, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[benth2012]\nb_frac = 0.5\n")
        _, out, _ = run_cli(capsys, "solve", "--s", "5",
                            "--config", str(ini))
        b_token = [tok for tok in out.splitlines()[1].split()
                   if tok.startswith("b=")][0]
        expected = 0.5 * presets.get_preset("benth2012").market.measure.moment(1)
        assert float(b_token[2:]) == pytest.approx(expected, rel=1e-15)

    def test_flags_win_over_file(self, capsys, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[benth2012]\nb_frac = 0.5\n")
        _, out, _ = run_cli(capsys, "solve", "--s", "5",
                            "--config", str(ini), "--b-frac", "1.5")
        b_token = [tok for tok in out.splitlines()[1].split()
                   if tok.startswith("b=")][0]
        expected = 1.5 * presets.get_preset("benth2012").market.measure.moment(1)
        assert float(b_token[2:]) == pytest.approx(expected, rel=1e-15)

    def test_sections_of_other_presets_are_ignored(self, capsys, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[gaussian]\nb = 0.9\n")
        _, out, _ = run_cli(capsys, "solve", "--s", "5",
                            "--config", str(ini))
        b_token = [tok for tok in out.splitlines()[1].split()
                   if tok.startswith("b=")][0]
        default_b = presets.get_preset("benth2012").market.b
        assert float(b_token[2:]) == pytest.approx(default_b, rel=1e-15)

    def test_a_section_that_names_no_preset_exits_2(self, capsys, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[benth2021]\nb_frac = 0.5\n")
        code, out, err = run_cli(capsys, "solve", "--s", "5",
                                 "--config", str(ini))
        assert code == errors.EXIT_CONFIG
        assert out == ""
        assert "[benth2021] names no preset" in err


class TestNegativeValues:
    """A value that starts with '-' is read as a value, not as a flag."""

    @pytest.mark.parametrize("command,flag,value,rest", [
        ("solve", "--s-grid", "-2:2:3", ()),
        ("solve", "--s", "-1e-3", ()),
        ("figure", "--fractions", "-0.5,0.2",
         ("--points", "5", "--out", "{tmp}")),
    ])
    def test_spaced_value_prints_what_the_equals_form_prints(
            self, capsys, tmp_path, command, flag, value, rest):
        rest = [arg.format(tmp=tmp_path) for arg in rest]
        spaced = run_cli(capsys, command, flag, value, *rest)
        joined = run_cli(capsys, command, f"{flag}={value}", *rest)
        assert spaced[0] == errors.EXIT_OK
        assert spaced == joined
