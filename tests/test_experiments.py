import csv
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privregion import experiments, strategies
from privregion.cli import main
from privregion.core import BetaParams, Point
from privregion.experiments import (
    TABLE1_SETTINGS,
    ConfigError,
    ScenarioConfig,
    load_config,
    run_bench,
    run_calibrate,
    run_curve,
    run_obfuscate,
    run_table1,
    setting_tag,
)
from privregion.inference import AttackReport
from privregion.strategies import FixedRadius, TwoBalls
from privregion.trajectory import Trajectory, read_track


def tiny_config(out_dir, **kw):
    base = dict(
        master_seed=11,
        out_dir=out_dir,
        settings=TABLE1_SETTINGS[:2],
        n_trajectories=5,
        n_replicates=3,
        sample_sizes=(5, 10),
    )
    base.update(kw)
    return ScenarioConfig(**base)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


@pytest.fixture(scope="module")
def table1_study(tmp_path_factory):
    return run_table1(tiny_config(tmp_path_factory.mktemp("t1")))


@pytest.fixture(scope="module")
def curve_study(tmp_path_factory):
    return run_curve(tiny_config(tmp_path_factory.mktemp("curve"), n_replicates=2))


class TestScenarioConfig:
    def test_defaults_are_the_paper_study(self):
        cfg = ScenarioConfig(master_seed=1)
        assert len(cfg.settings) == 6
        assert cfg.n_replicates == 100
        assert cfg.sample_sizes == (5, 10, 20, 50, 100, 200)

    def test_seed_is_required_and_integral(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(master_seed=1.5)
        with pytest.raises(ConfigError):
            ScenarioConfig(master_seed=-1)

    def test_sample_sizes_strictly_increasing(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(master_seed=1, sample_sizes=(5, 5, 10))
        with pytest.raises(ConfigError):
            ScenarioConfig(master_seed=1, sample_sizes=(10, 5))

    def test_settings_must_be_two_balls(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(master_seed=1, settings=(FixedRadius(1.0),))

    def test_setting_tag(self):
        assert setting_tag(TwoBalls(1.0, 3.0, BetaParams(4.0, 4.0))) == "r1-R3-a4-b4"
        assert setting_tag(TwoBalls(0.5, 2.5, BetaParams(4.0, 2.0))) == "r0.5-R2.5-a4-b2"


class TestRunCalibrate:
    def test_writes_rederivable_rows(self, tmp_path):
        res = run_calibrate(tiny_config(tmp_path))
        rows = read_csv(res.files["calibration"])
        assert len(rows) == 2
        for row, cal in zip(rows, res.calibrations):
            m, v = float(row["sp_mean"]), float(row["sp_var"])
            assert m == cal.sp_mean  # repr round-trip is exact
            assert float(row["matched_alpha"]) == m**2 / v
            assert float(row["matched_beta"]) == m / v
        assert "n_draws" not in rows[0]

    def test_calibration_near_analytic_mean(self, tmp_path):
        res = run_calibrate(tiny_config(tmp_path))
        analytic = [tb.R**2 - tb.r**2 * tb.beta.mean for tb in TABLE1_SETTINGS[:2]]
        assert [cal.sp_mean for cal in res.calibrations] == analytic


class TestRunTable1:
    def test_row_grid_is_complete(self, table1_study):
        assert len(table1_study.rows) == 2 * 2 * 3  # settings x strategies x replicates
        tags = {r.setting for r in table1_study.rows}
        assert tags == {setting_tag(s) for s in TABLE1_SETTINGS[:2]}
        assert all(r.n == 5 for r in table1_study.rows)

    def test_files_exist(self, table1_study):
        for key in ("calibration", "results", "timings", "summary"):
            assert table1_study.files[key].exists(), key

    def test_results_csv_has_no_timing_column(self, table1_study):
        rows = read_csv(table1_study.files["results"])
        assert "wall_time" not in rows[0]
        trows = read_csv(table1_study.files["timings"])
        assert set(trows[0]) == {"setting", "strategy", "replicate", "n", "wall_time"}

    def test_summary_recomputable_from_results(self, table1_study):
        rows = read_csv(table1_study.files["results"])
        for s in read_csv(table1_study.files["summary"]):
            mses = [
                float(r["posterior_mse"])
                for r in rows
                if r["setting"] == s["setting"] and r["strategy"] == s["strategy"]
            ]
            assert int(s["n_replicates"]) == len(mses) == 3
            q = np.quantile(mses, [0.05, 0.5, 0.95])
            assert float(s["mse_q05"]) == q[0]
            assert float(s["mse_median"]) == q[1]
            assert float(s["mse_q95"]) == q[2]

    def test_rows_written_in_plan_order(self, table1_study):
        rows = read_csv(table1_study.files["results"])
        got = [(r["setting"], r["strategy"], int(r["replicate"])) for r in rows]
        expected = [
            (setting_tag(s), strat, rep)
            for s in TABLE1_SETTINGS[:2]
            for strat in ("two-balls", "random-radius")
            for rep in range(3)
        ]
        assert got == expected

    def test_runs_without_sp_sampling(self, tmp_path, monkeypatch):
        # both strategies' mean SP are closed forms, so no SP is sampled
        def no_sampling(*args):
            raise AssertionError("run_table1 sampled SPs")

        monkeypatch.setattr(experiments, "sample_sps", no_sampling)
        monkeypatch.setattr(strategies, "sample_sps", no_sampling)
        study = run_table1(tiny_config(tmp_path))
        for s, cal in zip(study.summary[::2], study.calibrations):
            assert s["strategy"] == "two-balls" and s["mean_sp"] == cal.sp_mean
        for s, cal in zip(study.summary[1::2], study.calibrations):
            assert s["mean_sp"] == cal.matched_gamma.alpha / cal.matched_gamma.beta


# each runner with the files a seed determines, the per-replicate rows first
_DETERMINED = {
    run_table1: ("results", "summary", "calibration"),
    run_curve: ("curve_results", "curve_summary", "calibration", "sp_hist", "mse_curve_svg", "sp_hist_svg"),
}


# nonzero floats of both signs, 1e-300 to 1e300 in magnitude
_MAGNITUDE = st.floats(1e-300, 1e300)
_VALUE = st.builds(lambda m, neg: -m if neg else m, _MAGNITUDE, st.booleans())


class TestQuantiles:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(_VALUE, min_size=1, max_size=250), st.lists(st.integers(0, 249), max_size=250))
    def test_is_np_quantile_bit_for_bit(self, values, repeats):
        # the summary's quantiles, without the numpy.ma that np.quantile
        # loads; repeats adds ties, up to 500 values in all
        values += [values[i % len(values)] for i in repeats]
        ref = np.quantile(np.asarray(values), [0.05, 0.5, 0.95])
        assert [q.hex() for q in experiments._quantiles(values)] == [float(q).hex() for q in ref]


class TestDeterminism:
    def test_same_seed_same_bytes(self, tmp_path):
        for runner, keys in _DETERMINED.items():
            a = runner(tiny_config(tmp_path / runner.__name__ / "a"))
            b = runner(tiny_config(tmp_path / runner.__name__ / "b"))
            for key in keys:
                assert a.files[key].read_bytes() == b.files[key].read_bytes(), (runner.__name__, key)

    def test_different_seed_different_results(self, tmp_path):
        for runner, keys in _DETERMINED.items():
            a = runner(tiny_config(tmp_path / runner.__name__ / "a"))
            b = runner(tiny_config(tmp_path / runner.__name__ / "b", master_seed=12))
            assert a.files[keys[0]].read_bytes() != b.files[keys[0]].read_bytes(), runner.__name__

    def test_threads_do_not_change_results(self, tmp_path):
        for runner, keys in _DETERMINED.items():
            a = runner(tiny_config(tmp_path / runner.__name__ / "a"))
            b = runner(tiny_config(tmp_path / runner.__name__ / "b", threads=2))
            assert a.files[keys[0]].read_bytes() == b.files[keys[0]].read_bytes(), runner.__name__


class TestRunCurve:
    def test_files(self, curve_study):
        for key in (
            "calibration",
            "curve_results",
            "curve_timings",
            "curve_summary",
            "mse_curve_svg",
            "sp_hist",
            "sp_hist_svg",
        ):
            assert curve_study.files[key].exists(), key

    def test_svgs_are_svg(self, curve_study):
        for key in ("mse_curve_svg", "sp_hist_svg"):
            text = curve_study.files[key].read_text(encoding="utf-8")
            assert text.lstrip().startswith("<svg"), key
            assert "</svg>" in text

    def test_rows_cover_sizes(self, curve_study):
        sizes = {(r.strategy, r.n) for r in curve_study.rows}
        assert sizes == {(s, n) for s in ("two-balls", "random-radius") for n in (5, 10)}

    def test_hist_rows_share_bins(self, curve_study):
        rows = read_csv(curve_study.files["sp_hist"])
        assert len(rows) == 2 * 60
        lefts = {r["bin_left"] for r in rows if r["strategy"] == "two-balls"}
        assert lefts == {r["bin_left"] for r in rows if r["strategy"] == "random-radius"}

    def test_hist_header(self, curve_study):
        with open(curve_study.files["sp_hist"], encoding="utf-8") as f:
            assert f.readline() == "strategy,bin_left,bin_right,mass,density\n"

    def test_hist_masses_are_exact(self, curve_study):
        # each strategy's masses add up to F(hi) - F(0) of its exact SP law,
        # and a density is its mass over the bin width
        tb = TABLE1_SETTINGS[0]
        cal = curve_study.calibrations[0]
        specs = {"two-balls": tb, "random-radius": strategies.RandomRadius(cal.matched_gamma)}
        rows = read_csv(curve_study.files["sp_hist"])
        hi = float(rows[-1]["bin_right"])
        for strat, spec in specs.items():
            sub = [r for r in rows if r["strategy"] == strat]
            masses = [float(r["mass"]) for r in sub]
            expected = float(strategies.sp_cdf(spec, hi) - strategies.sp_cdf(spec, 0.0))
            assert math.fsum(masses) == pytest.approx(expected, abs=1e-14)
            for r, m in zip(sub, masses):
                width = float(r["bin_right"]) - float(r["bin_left"])
                assert float(r["density"]) == pytest.approx(m / width, rel=1e-12)
        # hi is the larger 0.995 quantile: here the random-radius one
        assert float(strategies.sp_cdf(specs["random-radius"], hi)) == pytest.approx(0.995, abs=1e-12)

    def test_hist_reaches_the_larger_quantile(self, tmp_path, monkeypatch):
        # with r near R and b < 1 the two-balls law has the longer upper
        # tail, so hi is its 0.995 quantile, found by bisection. The matched
        # Gamma's shape is 0.1 here, where most random-radius attacks cannot
        # resolve the posterior's peaks at the exits, so attacks are stubbed
        def stub_attack(obs, theta, rng):
            return AttackReport(Point(0.0, 0.0), 1.0, 0.5, 0.5, 0.0, 0, 0, 0.0)

        monkeypatch.setattr(experiments, "attack", stub_attack)
        tb = TwoBalls(2.9, 3.0, BetaParams(4.0, 0.5))
        study = run_curve(tiny_config(tmp_path, settings=(tb,), n_replicates=1, sample_sizes=(5,)))
        hi = float(read_csv(study.files["sp_hist"])[-1]["bin_right"])
        assert strategies.sp_cdf(tb, hi) >= 0.995 > strategies.sp_cdf(tb, np.nextafter(hi, 0.0))
        rr = strategies.RandomRadius(study.calibrations[0].matched_gamma)
        assert strategies.sp_cdf(rr, hi) > 0.995

    def test_runs_without_sp_sampling(self, tmp_path, monkeypatch):
        def no_sampling(*args):
            raise AssertionError("run_curve sampled SPs")

        monkeypatch.setattr(experiments, "sample_sps", no_sampling)
        monkeypatch.setattr(strategies, "sample_sps", no_sampling)
        study = run_curve(tiny_config(tmp_path, n_replicates=1, sample_sizes=(5,)))
        assert study.files["sp_hist"].exists()

    def test_hist_does_not_depend_on_seed(self, tmp_path):
        a = run_curve(tiny_config(tmp_path / "a", n_replicates=1, sample_sizes=(5,)))
        b = run_curve(tiny_config(tmp_path / "b", n_replicates=1, sample_sizes=(5,), master_seed=12))
        assert a.files["sp_hist"].read_bytes() == b.files["sp_hist"].read_bytes()
        assert a.files["curve_results"].read_bytes() != b.files["curve_results"].read_bytes()


class TestRunObfuscate:
    @pytest.fixture()
    def tracks(self, tmp_path):
        from privregion.trajectory import write_track

        crossing = Trajectory(
            np.arange(4, dtype=float),
            np.array([[0.0, 0.0], [5.0, 0.0], [6.0, 0.0], [0.1, 0.0]]),
        )
        sitting = Trajectory(
            np.arange(3, dtype=float),
            np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1]]),
        )
        ta = tmp_path / "crossing.csv"
        tb = tmp_path / "sitting.csv"
        write_track(crossing, ta)
        write_track(sitting, tb)
        return ta, tb

    def test_report_and_published_files(self, tracks, tmp_path):
        out = tmp_path / "obf"
        res = run_obfuscate(list(tracks), Point(0.0, 0.0), FixedRadius(1.0), 3, out)
        rows = {r["file"]: r for r in res.rows}
        assert rows["crossing.csv"]["published"] is True
        assert rows["sitting.csv"]["published"] is False
        assert math.isinf(rows["sitting.csv"]["sp"])

        pub = read_track(res.files["crossing.csv"])
        assert pub.times[0] == 1.0 and pub.times[-1] == 2.0
        assert "sitting.csv" not in res.files

        report = read_csv(res.files["report"])
        by_file = {r["file"]: r for r in report}
        assert by_file["sitting.csv"]["published"] == "false"
        assert by_file["sitting.csv"]["sp"] == "inf"
        assert by_file["sitting.csv"]["t1"] == ""
        assert float(by_file["crossing.csv"]["t1"]) == 1.0

    def test_published_track_is_exact_restriction(self, tracks, tmp_path):
        res = run_obfuscate([tracks[0]], Point(0.0, 0.0), FixedRadius(1.0), 3, tmp_path / "o2")
        orig = read_track(tracks[0])
        pub = read_track(res.files["crossing.csv"])
        i0 = int(np.searchsorted(orig.times, pub.times[0]))
        assert np.array_equal(orig.positions[i0 : i0 + len(pub)], pub.positions)

    def test_rerun_into_same_directory_rewrites_identical_files(self, tracks, tmp_path):
        out = tmp_path / "obf"
        spec = TwoBalls(1.0, 3.0, BetaParams(4.0, 4.0))
        first = run_obfuscate(list(tracks), Point(0.0, 0.0), spec, 9, out)
        assert "crossing.csv" in first.files
        blobs = {k: f.read_bytes() for k, f in first.files.items()}
        second = run_obfuscate(list(tracks), Point(0.0, 0.0), spec, 9, out)
        assert {k: f.read_bytes() for k, f in second.files.items()} == blobs

    def test_non_canonical_input_published_in_repr_form(self, tmp_path):
        # padded fields, 1.50, a blank line and CRLF endings in; repr floats, LF out
        walk = tmp_path / "walk.csv"
        walk.write_bytes(
            b"t,x,y\r\n0, 0.0 ,0\r\n1.50,5,0.0\r\n\r\n2 , 6.0,  -0.0\r\n3,0.10,1e-5\r\n"
        )
        res = run_obfuscate([walk], Point(0.0, 0.0), FixedRadius(1.0), 3, tmp_path / "obf")
        assert res.files["walk.csv"].read_bytes() == b"t,x,y\n1.5,5.0,0.0\n2.0,6.0,-0.0\n"
        assert res.files["report"].read_bytes() == (
            b"file,published,t1,t2,sp\nwalk.csv,true,1.5,2.0,59.810000000100004\n"
        )

    def test_deterministic_given_seed(self, tracks, tmp_path):
        a = run_obfuscate(list(tracks), Point(0.0, 0.0), TwoBalls(1.0, 3.0, BetaParams(4.0, 4.0)), 9, tmp_path / "a")
        b = run_obfuscate(list(tracks), Point(0.0, 0.0), TwoBalls(1.0, 3.0, BetaParams(4.0, 4.0)), 9, tmp_path / "b")
        assert a.files["report"].read_bytes() == b.files["report"].read_bytes()


class TestRunBench:
    def test_outputs(self, tmp_path):
        res = run_bench(tiny_config(tmp_path))
        assert set(res.fits) == {"two-balls", "random-radius"}
        assert res.files["bench"].exists() and res.files["bench_summary"].exists()
        rows = read_csv(res.files["bench"])
        assert len(rows) == 2 * 2  # strategies x sizes
        assert all(float(r["wall_mean"]) > 0.0 for r in rows)
        # sizes 5 and 10 only: no t200/t50 ratio can be formed
        assert res.ratios == {}


class TestLoadConfig:
    def test_file_plus_overrides(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(
            json.dumps(
                {
                    "master_seed": 5,
                    "n_replicates": 7,
                    "settings": [{"r": 1, "R": 3, "alpha": 4, "beta": 4}],
                }
            )
        )
        cfg = load_config(p, out_dir=tmp_path / "runs", n_replicates=None)
        assert cfg.master_seed == 5
        assert cfg.n_replicates == 7  # None override ignored
        assert cfg.settings == (TwoBalls(1.0, 3.0, BetaParams(4.0, 4.0)),)

        cfg2 = load_config(p, n_replicates=2)
        assert cfg2.n_replicates == 2  # explicit override wins

    def test_missing_seed(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"n_replicates": 3}))
        with pytest.raises(ConfigError, match="master_seed"):
            load_config(p)

    def test_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown"):
            load_config(None, master_seed=1, replicates=3)
        # the attack takes no options: the sampler section, and with it the
        # Metropolis settings that could only arrive inside it, is gone
        for key in ("quad_nodes", "n_chains", "n_burn", "n_keep", "target_accept", "rhat_max", "ess_min"):
            with pytest.raises(ConfigError, match="unknown config keys: \\['sampler'\\]"):
                load_config(None, master_seed=1, sampler={key: 1})
        # so is the SP draw count of curve's histograms, which are exact now,
        # and two knobs with one value in use: curve and bench take the first
        # setting, and bench times a fixed number of repeats
        for key, value in (("calibration_draws", 100_000), ("curve_setting_index", 0), ("bench_repeats", 3)):
            with pytest.raises(ConfigError, match=f"unknown config keys: \\['{key}'\\]"):
                load_config(None, master_seed=1, **{key: value})

    def test_bad_json_reports_line(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('{"master_seed": 5,,}')
        with pytest.raises(ConfigError, match="c.json:1"):
            load_config(p)

    def test_top_level_must_be_object(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="object"):
            load_config(p)

    def test_bad_setting_shape(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"master_seed": 1, "settings": [{"r": 1}]}))
        with pytest.raises(ConfigError, match="setting"):
            load_config(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.json")


class TestCli:
    @pytest.fixture()
    def cfg_file(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(
            json.dumps(
                {
                    "master_seed": 11,
                    "settings": [{"r": 1, "R": 3, "alpha": 4, "beta": 4}],
                    "n_trajectories": 5,
                    "n_replicates": 2,
                    "sample_sizes": [5, 10],
                }
            )
        )
        return p

    def test_calibrate(self, cfg_file, tmp_path, capsys):
        rc = main(["calibrate", "--config", str(cfg_file), "--out", str(tmp_path / "cal")])
        assert rc == 0
        assert (tmp_path / "cal" / "calibration.csv").exists()
        assert "Gamma(alpha=" in capsys.readouterr().out

    def test_table1(self, cfg_file, tmp_path, capsys):
        rc = main(["table1", "--config", str(cfg_file), "--out", str(tmp_path / "t1")])
        assert rc == 0
        out = capsys.readouterr().out
        assert (tmp_path / "t1" / "results.csv").exists()
        assert "mse_median=" in out

    def test_curve(self, cfg_file, tmp_path):
        rc = main(["curve", "--config", str(cfg_file), "--out", str(tmp_path / "cv")])
        assert rc == 0
        assert (tmp_path / "cv" / "mse_curve.svg").exists()

    def test_bench(self, cfg_file, tmp_path):
        rc = main(["bench", "--config", str(cfg_file), "--out", str(tmp_path / "b")])
        assert rc == 0
        assert (tmp_path / "b" / "bench_summary.csv").exists()

    def test_replicates_flag_overrides(self, cfg_file, tmp_path):
        rc = main(
            [
                "table1",
                "--config",
                str(cfg_file),
                "--out",
                str(tmp_path / "t1"),
                "--replicates",
                "1",
            ]
        )
        assert rc == 0
        rows = read_csv(tmp_path / "t1" / "results.csv")
        assert len(rows) == 2  # 1 setting x 2 strategies x 1 replicate

    def test_attack_random_radius(self, cfg_file, capsys):
        rc = main(
            [
                "attack",
                "--strategy",
                "random-radius",
                "--alpha",
                "4",
                "--beta",
                "4",
                "--n",
                "6",
                "--config",
                str(cfg_file),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "posterior_mse=" in out and "edge_mass=" in out
        assert re.search(r"^grid=\d+x\d+ grids=\d+ ", out, re.M)

    def test_attack_prints_its_rule_and_gap(self, capsys):
        # two-balls at n = 50: the polar rule, N nodes in u by 2N angles,
        # certified against its half-size rule
        argv = ["attack", "--strategy", "two-balls", "--r", "1", "--R", "3", "--alpha", "4", "--beta", "4"]
        assert main(argv + ["--n", "50", "--seed", "4"]) == 0
        got = re.search(r"^grid=(\d+)x(\d+) grids=(\d+) rule=polar rule_gap=(\S+) ", capsys.readouterr().out, re.M)
        assert got and int(got[2]) == 2 * int(got[1]) and int(got[3]) >= 2
        assert 0.0 <= float(got[4]) <= 1e-6

    def test_attack_fixed_radius_writes_report(self, tmp_path, capsys):
        rc = main(
            [
                "attack",
                "--strategy",
                "fixed-radius",
                "--r-star",
                "2.0",
                "--n",
                "5",
                "--seed",
                "4",
                "--out",
                str(tmp_path / "atk"),
            ]
        )
        assert rc == 0
        assert (tmp_path / "atk" / "attack_report.csv").exists()

    @pytest.mark.parametrize("n, variance", [(1, "4.0"), (2, None)])
    def test_attack_fixed_radius_below_three_exits(self, n, variance, capsys):
        # one exit leaves theta on a circle, two leave a pair of centers
        argv = ["attack", "--strategy", "fixed-radius", "--r-star", "2.0", "--seed", "4"]
        assert main(argv + ["--n", str(n)]) == 0
        out = capsys.readouterr().out
        got = re.search(r"^bias2=(\S+) variance=(\S+)$", out, re.M)
        assert got and float(got[2]) > 0.0
        assert variance is None or got[2] == variance

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_attack_needs_an_exit(self, n, capsys):
        argv = ["attack", "--strategy", "fixed-radius", "--r-star", "1", "--seed", "4"]
        assert main(argv + ["--n", n]) == 2
        assert capsys.readouterr().err.startswith("error: --n must be >= 1")

    def test_attack_missing_strategy_params(self, capsys):
        rc = main(["attack", "--strategy", "two-balls", "--seed", "1"])
        assert rc == 2
        assert "needs" in capsys.readouterr().err

    def test_missing_seed_everywhere(self, capsys):
        assert main(["calibrate"]) == 2
        assert "master_seed" in capsys.readouterr().err

    def test_bad_config_json(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text("{nope")
        assert main(["table1", "--config", str(p), "--seed", "1"]) == 2

    def test_unknown_config_key(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"master_seed": 1, "wat": True}))
        assert main(["calibrate", "--config", str(p)]) == 2

    def test_diagnostics_failure_exit_code(self, capsys, monkeypatch):
        # a window that truncates posterior mass fails loudly: with no edge
        # mass allowed, every open random-radius window truncates
        from privregion import inference

        monkeypatch.setattr(inference, "EDGE_MASS_MAX", 0.0)
        rc = main(
            [
                "attack",
                "--strategy",
                "random-radius",
                "--alpha",
                "4",
                "--beta",
                "4",
                "--n",
                "6",
                "--seed",
                "3",
            ]
        )
        assert rc == 3
        err = capsys.readouterr().err
        assert "DiagnosticsFailed" in err and "edge mass" in err

    def test_uncertified_two_balls_exit_code(self, capsys):
        # exits 0.1 from the support (r = 2.9, R = 3): at seed 1 the
        # 512-node polar rule is 2.6e-3 from its half-size rule, and with no
        # grid to fall back to the attack fails loudly
        rc = main(
            "attack --strategy two-balls --r 2.9 --R 3 --alpha 4 --beta 0.5 --n 50 --seed 1".split()
        )
        assert rc == 3
        err = capsys.readouterr().err
        assert "DiagnosticsFailed" in err and "512-node polar rule" in err

    @pytest.mark.parametrize(
        "argv, error",
        [
            # three exits of a 1e-9 circle 1e7 from the origin: their
            # coordinates' rounding leaves them collinear to the circle fit
            (
                "--strategy fixed-radius --r-star 1e-9 --theta 1e7,0 --n 3",
                "DegenerateConfiguration: points are collinear",
            ),
            # Gamma(0.001) draws of r^2 underflow to 0 about half the time
            (
                "--strategy random-radius --alpha 1e-3 --beta 1 --n 5",
                "ThetaOutsideRegion: an r^2 draw",
            ),
        ],
    )
    def test_degenerate_geometry_exit_code(self, argv, error, capsys):
        rc = main(["attack", "--seed", "3", *argv.split()])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith(f"numerical failure: {error}")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_sampler_keys_rejected(self, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"master_seed": 3, "sampler": {"ess_min": 1e9}}))
        assert main(["calibrate", "--config", str(p)]) == 2
        assert "unknown config keys: ['sampler']" in capsys.readouterr().err

    def test_obfuscate(self, tmp_path, capsys):
        from privregion.trajectory import write_track

        tr = Trajectory(
            np.arange(3, dtype=float), np.array([[0.0, 0.0], [4.0, 0.0], [0.1, 0.0]])
        )
        tpath = tmp_path / "walk.csv"
        write_track(tr, tpath)
        rc = main(
            [
                "obfuscate",
                str(tpath),
                "--strategy",
                "fixed-radius",
                "--r-star",
                "1.0",
                "--seed",
                "2",
                "--out",
                str(tmp_path / "obf"),
            ]
        )
        assert rc == 0
        assert (tmp_path / "obf" / "report.csv").exists()
        assert (tmp_path / "obf" / "walk_published.csv").exists()

    def test_obfuscate_needs_seed(self, tmp_path):
        rc = main(
            ["obfuscate", str(tmp_path / "x.csv"), "--strategy", "fixed-radius", "--r-star", "1"]
        )
        assert rc == 2

    def test_obfuscate_malformed_track(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,x,y\n0,0,0\n1,oops,0\n")
        rc = main(
            [
                "obfuscate",
                str(bad),
                "--strategy",
                "fixed-radius",
                "--r-star",
                "1",
                "--seed",
                "2",
                "--out",
                str(tmp_path / "obf"),
            ]
        )
        assert rc == 2
        assert "bad.csv:3" in capsys.readouterr().err

    def test_obfuscate_missing_track(self, tmp_path):
        rc = main(
            [
                "obfuscate",
                str(tmp_path / "nope.csv"),
                "--strategy",
                "fixed-radius",
                "--r-star",
                "1",
                "--seed",
                "2",
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert rc == 2
