"""Command-line interface."""

import os

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    @pytest.mark.parametrize("suite", [[], ["kernels"], ["lint"],
                                       ["serve"], ["diff"], ["lut"]],
                             ids=["none", "kernels", "lint", "serve",
                                  "diff", "lut"])
    def test_bench_takes_only_yield(self, suite, capsys):
        with pytest.raises(SystemExit) as exited:
            build_parser().parse_args(["bench", *suite])
        assert exited.value.code == 2
        assert "yield" in capsys.readouterr().err

    def test_luts_is_no_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exited:
            build_parser().parse_args(["luts", "build", "90nm"])
        assert exited.value.code == 2
        error = capsys.readouterr().err
        assert "invalid choice" in error and "luts" in error


class TestRemovedLutCommands:
    """The characterization-LUT commands are gone: their old command
    lines are usage errors that write nothing."""

    @pytest.mark.parametrize("argv", [
        ["luts", "build", "90nm", "--grid", "coarse", "--output"],
        ["luts", "check", "90nm", "--artifact"],
        ["bench", "lut", "--output"],
        ["bench", "lut", "--quick", "--output"]],
        ids=["luts-build", "luts-check", "bench-lut",
             "bench-lut-quick"])
    def test_exits_2_and_writes_nothing(self, argv, tmp_path, capsys):
        target = tmp_path / "out.json"
        with pytest.raises(SystemExit) as exited:
            main([*argv, str(target)])
        assert exited.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestNodes:
    def test_lists_all_nodes(self, capsys):
        assert main(["nodes"]) == 0
        output = capsys.readouterr().out
        for node in ("90nm", "65nm", "45nm", "32nm", "22nm", "16nm"):
            assert node in output


class TestCalibrate:
    def test_prints_coefficients(self, capsys):
        assert main(["calibrate", "65nm"]) == 0
        output = capsys.readouterr().out
        assert "65nm" in output
        assert "rise" in output and "fall" in output

    def test_buffer_kind(self, capsys):
        assert main(["calibrate", "90nm", "--kind", "buffer"]) == 0
        assert "buffer" in capsys.readouterr().out


class TestLink:
    def test_optimizes_and_reports(self, capsys):
        assert main(["link", "90nm", "5"]) == 0
        output = capsys.readouterr().out
        assert "repeaters" in output
        assert "delay" in output and "power" in output

    def test_staggered_flag(self, capsys):
        assert main(["link", "90nm", "5", "--staggered"]) == 0
        assert "staggered" in capsys.readouterr().out

    def test_delay_weight_changes_result(self, capsys):
        main(["link", "90nm", "5", "--weight", "1.0"])
        fast = capsys.readouterr().out
        main(["link", "90nm", "5", "--weight", "0.2"])
        lean = capsys.readouterr().out
        assert fast != lean


class TestAccuracy:
    def test_mini_table2(self, capsys):
        assert main(["accuracy", "90nm", "--lengths", "1", "3"]) == 0
        output = capsys.readouterr().out
        assert "Prop %" in output
        assert "90nm" in output


class TestSynth:
    def test_dvopd_case(self, capsys):
        assert main(["synth", "dvopd", "90nm"]) == 0
        output = capsys.readouterr().out
        assert "original/self" in output
        assert "underestimated" in output


class TestExperimentPassthroughs:
    def test_staggering(self, capsys):
        assert main(["staggering"]) == 0
        assert "power saving" in capsys.readouterr().out

    def test_leakage_area(self, capsys):
        assert main(["leakage-area", "90nm"]) == 0
        assert "paper" in capsys.readouterr().out

    def test_corners(self, capsys):
        assert main(["corners", "90nm", "--length-mm", "3"]) == 0
        assert "guard band" in capsys.readouterr().out

    def test_mesh(self, capsys):
        assert main(["mesh", "dvopd", "90nm"]) == 0
        output = capsys.readouterr().out
        assert "custom" in output and "mesh" in output

    def test_widths(self, capsys):
        assert main(["widths", "dvopd", "90nm",
                     "--widths", "64", "128"]) == 0
        assert "best width" in capsys.readouterr().out


class _FakeResult:
    def format(self):
        return "fake table"


class TestRuntimeFlags:
    """The shared --workers / --no-cache / --stats options."""

    @pytest.fixture(autouse=True)
    def _isolated_runtime(self, tmp_path, monkeypatch):
        from repro import runtime
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        runtime.reset_configuration()
        yield tmp_path
        runtime.reset_configuration()

    def test_table2_workers_and_stats_footer(self, capsys,
                                             monkeypatch):
        import repro.experiments.table2 as table2
        captured = {}

        def fake_run():
            from repro.runtime import resolve_workers
            captured["workers"] = resolve_workers()
            return _FakeResult()

        monkeypatch.setattr(table2, "run", fake_run)
        assert main(["table2", "--workers", "2", "--stats"]) == 0
        output = capsys.readouterr().out
        assert "fake table" in output
        assert "runtime stats" in output
        assert "workers" in output
        # The flag reached the experiment through the configuration.
        assert captured["workers"] == 2

    def test_accuracy_parallel_real_run(self, capsys):
        assert main(["accuracy", "90nm", "--lengths", "1",
                     "--workers", "2", "--stats"]) == 0
        output = capsys.readouterr().out
        assert "Prop %" in output
        assert "runtime stats" in output

    def test_no_stats_footer_by_default(self, capsys):
        assert main(["nodes"]) == 0
        assert "runtime stats" not in capsys.readouterr().out

    def test_no_cache_creates_no_files(self, _isolated_runtime,
                                       capsys):
        # Synthesis designs links, the heaviest cache writer — with
        # --no-cache not a single file may appear.
        assert main(["widths", "dvopd", "90nm", "--widths", "64",
                     "--no-cache"]) == 0
        assert os.listdir(_isolated_runtime) == []

    def test_cache_populated_without_no_cache(self, _isolated_runtime,
                                              capsys):
        assert main(["widths", "dvopd", "90nm", "--widths", "64"]) == 0
        assert os.listdir(_isolated_runtime) != []

    def test_workers_validation(self):
        with pytest.raises(ValueError):
            main(["nodes", "--workers", "0"])

    def test_removed_max_retries_flag_exits_2(self, capsys):
        # A crashed pool's unfinished chunks re-run serially; there is
        # no pool-rebuild budget to set.
        with pytest.raises(SystemExit) as exited:
            build_parser().parse_args(["nodes", "--max-retries", "2"])
        assert exited.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestMonteCarlo:
    def test_plain_kernel_run(self, capsys):
        assert main(["mc", "90nm", "--samples", "16"]) == 0
        output = capsys.readouterr().out
        assert "model engine, plain estimator" in output
        assert "estimator plain" in output
        assert "P(delay >" in output

    @pytest.mark.parametrize("estimator", ["plain", "importance"])
    def test_kernel_engine_is_another_name_for_model(self, capsys,
                                                     estimator):
        outputs = []
        for engine in ("kernel", "model"):
            assert main(["mc", "90nm", "--samples", "16",
                         "--estimator", estimator, "--prepass", "256",
                         "--engine", engine]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_importance_reports_shift_and_budget(self, capsys):
        assert main(["mc", "90nm", "--samples", "16",
                     "--estimator", "importance",
                     "--prepass", "256", "--stats"]) == 0
        output = capsys.readouterr().out
        assert "estimator importance" in output
        assert "shift" in output
        assert "mc.estimator.importance" in output
        assert "mc.ess" in output

    def test_qmc_lane_report(self, capsys):
        assert main(["mc", "90nm", "--samples", "16",
                     "--estimator", "qmc", "--lanes", "4"]) == 0
        assert "4 lanes x" in capsys.readouterr().out

    def test_target_ci_flag_escalates(self, capsys):
        assert main(["mc", "90nm", "--samples", "8",
                     "--target-ci", "0.4"]) == 0
        # 8 draws cannot reach a 0.4 ps half-width; the run doubles
        # deterministically until the interval is met (128 for this
        # seed).
        output = capsys.readouterr().out
        assert "128 samples" in output

    def test_bad_estimator_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["mc", "--estimator", "bogus"])

    @pytest.mark.parametrize("option", ["--critical-ps", "--target-ci"])
    @pytest.mark.parametrize("value", ["0", "-5", "nan", "inf", "-inf",
                                       "abc"])
    def test_meaningless_picoseconds_are_usage_errors(self, capsys,
                                                      option, value):
        with pytest.raises(SystemExit) as caught:
            main(["mc", "90nm", "--samples", "8", f"{option}={value}"])
        assert caught.value.code == 2
        error = capsys.readouterr().err
        assert f"argument {option}: expected a finite number of " \
            f"picoseconds above 0, got {value!r}" in error

    def test_critical_ps_sets_the_tail_threshold(self, capsys):
        assert main(["mc", "90nm", "--samples", "8",
                     "--critical-ps", "0.5"]) == 0
        assert "P(delay > 0.5 ps)" in capsys.readouterr().out


class TestObservability:
    """--profile / --metrics / report --flamegraph."""

    def test_profile_time_prints_table(self, capsys):
        assert main(["nodes", "--profile", "time"]) == 0
        output = capsys.readouterr().out
        assert "-- profile (time) --" in output
        assert "repro.nodes" in output

    def test_profile_all_prints_memory_columns(self, capsys):
        assert main(["nodes", "--profile", "all"]) == 0
        output = capsys.readouterr().out
        assert "-- profile (all) --" in output
        assert "peak KiB" in output

    def test_profile_off_prints_nothing(self, capsys):
        assert main(["nodes"]) == 0
        assert "-- profile" not in capsys.readouterr().out

    def test_metrics_exports_openmetrics(self, tmp_path):
        out = tmp_path / "metrics.prom"
        assert main(["nodes", "--metrics", str(out)]) == 0
        text = out.read_text()
        assert text.endswith("# EOF\n")
        assert "repro_command_seconds_total" in text

    def test_report_flamegraph_weight_matches_root(self, tmp_path,
                                                   capsys):
        """Acceptance: serial-trace flamegraph weight equals the root
        span's duration within 1%."""
        from repro.runtime.trace import read_trace
        trace = tmp_path / "trace.jsonl"
        flame = tmp_path / "flame.txt"
        assert main(["mc", "90nm", "--samples", "16",
                     "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["report", str(trace),
                     "--flamegraph", str(flame)]) == 0
        assert "flamegraph written" in capsys.readouterr().out
        events = read_trace(trace)
        root_begin = next(e for e in events if e["ph"] == "B"
                          and e.get("parent") is None)
        root_end = next(e for e in events if e["ph"] == "E"
                        and e["span"] == root_begin["span"])
        root_us = (root_end["ts"] - root_begin["ts"]) * 1e6
        total = sum(int(line.rsplit(" ", 1)[1])
                    for line in flame.read_text().splitlines())
        assert abs(total - root_us) <= 0.01 * root_us
