import json

import pytest

from ltpfleo.cli import main
from ltpfleo.config import DEFAULTS, build_sim_config, load_config, parse_config_file

SMOKE_OVERRIDES = [
    # trimmed smoke profile: real geometry, fewer rounds and samples
    "rounds=6",
    "samples_per_satellite=12",
    "eval_fraction=0",
]


class TestConfigFile:
    def test_empty_file_is_smoke_profile(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# all defaults\n")
        cfg = load_config(path)
        assert cfg.constellation.num_satellites == 6
        assert cfg.ltp_level == 2
        assert cfg.rounds == 20

    def test_values_and_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("ltp_level = 3\nseed = 7  # trailing comment\nalpha = t\n")
        cfg = load_config(path)
        assert cfg.ltp_level == 3
        assert cfg.seed == 7
        assert cfg.alpha == "t"

    def test_unknown_key_reports_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("nope = 1\n")
        with pytest.raises(ValueError, match="line 1.*nope"):
            parse_config_file(path)

    def test_bad_number_reports_key(self):
        with pytest.raises(ValueError, match="'seed'"):
            build_sim_config({"seed": "abc"})

    def test_time_budget_replaces_default_rounds(self):
        cfg = build_sim_config({"time_budget_s": "7200"})
        assert cfg.rounds is None
        assert cfg.time_budget_s == 7200.0

    def test_conflicting_round_controls_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("rounds = 5\ntime_budget_s = 100\n")
        with pytest.raises(ValueError, match="only one"):
            load_config(path)

    def test_per_satellite_size_list(self):
        cfg = build_sim_config({"samples_per_satellite": "5, 6, 7, 8, 9, 10"})
        assert cfg.data.samples_per_satellite == (5, 6, 7, 8, 9, 10)

    def test_defaults_cover_every_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("\n".join(f"{k} = {v}" for k, v in DEFAULTS.items() if v != ""))
        load_config(path)  # round-trips without error


def run_cli(*argv):
    return main(list(argv))


class TestCliPipeline:
    def test_visibility_zero_horizon_exits_clean(self, tmp_path, capsys):
        out = tmp_path / "sched.csv"
        code = run_cli("visibility", "--set", "horizon_s=0", "--out", str(out))
        assert code == 0
        assert out.read_text().strip() == "satellite_id,start_s,end_s"

    def test_visibility_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["visibility", "--set", "horizon_s=20000"]
        assert run_cli(*args, "--out", str(a)) == 0
        assert run_cli(*args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_usage_error_exit_code(self, capsys):
        assert run_cli("unknown-command") == 1

    def test_missing_log_exit_code(self, tmp_path):
        assert run_cli("audit", "--log", str(tmp_path / "nope.jsonl")) == 1

    def test_bad_config_value_exit_code(self, tmp_path, capsys):
        code = run_cli("simulate", "--set", "loss_kind=bogus", "--out-dir", str(tmp_path))
        assert code == 1
        assert "bogus" in capsys.readouterr().err

    def _simulate(self, tmp_path, *extra):
        out = tmp_path / "run"
        sets = [x for key in SMOKE_OVERRIDES for x in ("--set", key)]
        code = run_cli("simulate", *sets, "--out-dir", str(out), *extra)
        assert code == 0
        return out

    def test_simulate_produces_manifest_last(self, tmp_path):
        out = self._simulate(tmp_path, "--set", "checkpoint_every=2")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_hash"]
        assert (out / "events.jsonl").exists()
        assert (out / "partitions.csv").exists()
        assert (out / "checkpoints" / "round_000002.bin").exists()
        assert (out / "checkpoints" / "final.bin").exists()

    def test_simulate_deterministic(self, tmp_path):
        # the inverse schedule is a config value with no JSON scalar form
        for name, extra in (("constant", []), ("inverse", ["--set", "lr_schedule=inverse"])):
            out1 = self._simulate(tmp_path / name / "one", *extra)
            out2 = self._simulate(tmp_path / name / "two", *extra)
            for artifact in ("events.jsonl", "partitions.csv"):
                assert (out1 / artifact).read_bytes() == (out2 / artifact).read_bytes()
            m1 = json.loads((out1 / "manifest.json").read_text())
            m2 = json.loads((out2 / "manifest.json").read_text())
            assert m1["config_hash"] == m2["config_hash"]

    def test_audit_partitioned_run_passes(self, tmp_path, capsys):
        out = self._simulate(tmp_path)
        leakage = tmp_path / "leakage.json"
        code = run_cli(
            "audit", "--log", str(out / "events.jsonl"), "--out", str(leakage),
            "--expect-pass",
        )
        assert code == 0
        payload = json.loads(leakage.read_text())
        assert payload["all_pass"]
        assert payload["windows"]

    def test_audit_baseline_fails_with_exit_three(self, tmp_path, capsys):
        # Under the real mask the visible subsets vary round to round, so the
        # baseline's rows expose individual satellites.
        out = tmp_path / "base"
        overrides = ["rounds=12", "samples_per_satellite=12", "eval_fraction=0"]
        sets = [x for key in overrides for x in ("--set", key)]
        assert run_cli("simulate", *sets, "--out-dir", str(out), "--baseline") == 0
        code = run_cli(
            "audit", "--log", str(out / "events.jsonl"), "--ltp-level", "2",
            "--expect-pass",
        )
        assert code == 3
        assert "FAIL" in capsys.readouterr().out

    def test_analyze_full_fairness_gap_zero(self, tmp_path, capsys):
        out = self._simulate(tmp_path)  # smoke profile defaults to alpha=t
        ana = tmp_path / "analysis"
        code = run_cli("analyze", "--log", str(out / "events.jsonl"), "--out-dir", str(ana))
        assert code == 0
        payload = json.loads((ana / "analysis.json").read_text())
        assert payload["fairness"]["gap"] == 0.0
        assert payload["weights_ok"]
        assert "gap 0.0" in capsys.readouterr().out
        assert (ana / "gap_vs_round.csv").exists()

    def test_report_consolidates_directory(self, tmp_path):
        out = self._simulate(tmp_path)
        rep = tmp_path / "report"
        code = run_cli("report", "--manifest", str(out / "manifest.json"),
                       "--out-dir", str(rep))
        assert code == 0
        expected = {"events.jsonl", "partitions.csv", "leakage.json", "analysis.json",
                    "gap_vs_round.csv", "summary.json"}
        assert expected <= {p.name for p in rep.iterdir()}
        summary = json.loads((rep / "summary.json").read_text())
        assert summary["ltp_all_pass"] is True

    def test_report_idempotent(self, tmp_path):
        out = self._simulate(tmp_path)
        rep1, rep2 = tmp_path / "r1", tmp_path / "r2"
        run_cli("report", "--manifest", str(out / "manifest.json"), "--out-dir", str(rep1))
        run_cli("report", "--manifest", str(out / "manifest.json"), "--out-dir", str(rep2))
        for name in ("leakage.json", "analysis.json", "summary.json"):
            assert (rep1 / name).read_bytes() == (rep2 / name).read_bytes()

    @pytest.mark.parametrize(
        "overrides, extra_csv",
        [
            (["rounds=6", "samples_per_satellite=12"], "confusion_matrix.csv"),
            (
                ["rounds=6", "samples_per_satellite=12", "eval_fraction=0",
                 "loss_kind=quadratic", "data_kind=linear-regression", "clip_radius=5"],
                "bound_vs_round.csv",
            ),
        ],
    )
    def test_report_writes_what_audit_and_analyze_write(self, tmp_path, overrides, extra_csv):
        out = tmp_path / "run"
        sets = [x for key in overrides for x in ("--set", key)]
        assert run_cli("simulate", *sets, "--out-dir", str(out)) == 0
        log = str(out / "events.jsonl")
        leakage = tmp_path / "audit" / "leakage.json"
        ana, rep = tmp_path / "analysis", tmp_path / "report"
        assert run_cli("audit", "--log", log, "--out", str(leakage)) == 0
        assert run_cli("analyze", "--log", log, "--out-dir", str(ana)) == 0
        assert run_cli("report", "--manifest", str(out / "manifest.json"),
                       "--out-dir", str(rep)) == 0
        assert (rep / "leakage.json").read_bytes() == leakage.read_bytes()
        written = {p.name for p in ana.iterdir()}
        assert {"analysis.json", "gap_vs_round.csv", extra_csv} <= written
        for name in written:
            assert (rep / name).read_bytes() == (ana / name).read_bytes(), name

    def test_visibility_flagship_constellation(self, tmp_path):
        # 5 planes x 10 satellites over one day: the CSV covers all 50.
        out = tmp_path / "sched.csv"
        code = run_cli(
            "visibility",
            "--set", "num_orbits=5", "--set", "sats_per_orbit=10",
            "--set", "raan_spread_deg=360", "--set", "phasing=1",
            "--set", "horizon_s=86400",
            "--out", str(out),
        )
        assert code == 0
        rows = out.read_text().strip().splitlines()[1:]
        sats_with_passes = {int(r.split(",")[0]) for r in rows}
        assert sats_with_passes <= set(range(50))
        assert len(sats_with_passes) >= 40  # high-inclination: nearly all seen

    @pytest.mark.filterwarnings("ignore:partition 0 has no common visibility")
    def test_runtime_failure_exit_code(self, tmp_path, capsys):
        # Antipodal pair can never be co-visible: the engine aborts, exit 2.
        code = run_cli(
            "simulate",
            "--set", "num_orbits=1", "--set", "sats_per_orbit=2",
            "--set", "raan_spread_deg=360", "--set", "horizon_s=20000",
            "--out-dir", str(tmp_path / "r"),
        )
        assert code == 2
        assert "common visibility" in capsys.readouterr().err

    def test_missing_dataset_path_named_in_error(self, tmp_path, capsys):
        code = run_cli(
            "simulate",
            "--set", "data_kind=csv", "--set", f"csv_dir={tmp_path}/nope",
            "--out-dir", str(tmp_path / "r"),
        )
        assert code == 1
        assert "nope" in capsys.readouterr().err

    def test_full_default_smoke_profile_under_a_minute(self, tmp_path):
        # The documented smoke profile (6 satellites, 3 partitions, 20 rounds
        # over the real two-day schedule) must run fast end to end.
        import time

        start = time.perf_counter()
        code = run_cli("simulate", "--out-dir", str(tmp_path / "smoke"))
        elapsed = time.perf_counter() - start
        assert code == 0
        assert elapsed < 60.0
        assert (tmp_path / "smoke" / "manifest.json").exists()
