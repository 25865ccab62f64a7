"""Command line interface: the full pipeline and its failure modes."""

import json

import pytest

from rfmloc.cli import run
from rfmloc.model import read_estimates, read_fingerprints


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One synth + build shared by the CLI tests (module scope keeps it cheap)."""
    d = tmp_path_factory.mktemp("cli")
    assert run(["synth", "--seed", "7", "--out-dir", str(d),
                "--passes", "2", "--n-aps", "8"]) == 0
    assert run(["build", "--raw", str(d / "raw.jsonl"),
                "--out", str(d / "map.json")]) == 0
    return d


class TestSynth:
    def test_outputs_exist(self, workdir):
        for name in ("env.json", "raw.jsonl", "test.jsonl"):
            assert (workdir / name).exists()

    def test_synth_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            assert run(["synth", "--seed", "3", "--out-dir", str(d),
                        "--passes", "1"]) == 0
        for name in ("env.json", "raw.jsonl", "test.jsonl"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_seed_changes_data(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["synth", "--seed", "3", "--out-dir", str(a), "--passes", "1"]) == 0
        assert run(["synth", "--seed", "4", "--out-dir", str(b), "--passes", "1"]) == 0
        assert (a / "raw.jsonl").read_bytes() != (b / "raw.jsonl").read_bytes()

    @pytest.mark.parametrize("flag, value", [("--spacing", "0"), ("--passes", "0"),
                                             ("--roi-width", "-5"),
                                             ("--contamination", "2")])
    def test_invalid_flag_exits_1(self, tmp_path, capsys, flag, value):
        out = tmp_path / "out"
        assert run(["synth", "--seed", "3", "--out-dir", str(out), flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} must be ")
        assert "Traceback" not in err
        assert not out.exists()


class TestBuild:
    def test_map_readable(self, workdir):
        from rfmloc.model import ExtendedRfm
        rfm = ExtendedRfm.load(workdir / "map.json")
        assert rfm.n_points > 50

    def test_build_is_deterministic(self, workdir, tmp_path):
        out = tmp_path / "map2.json"
        assert run(["build", "--raw", str(workdir / "raw.jsonl"),
                    "--out", str(out)]) == 0
        assert out.read_bytes() == (workdir / "map.json").read_bytes()

    def test_config_file_layering(self, workdir, tmp_path):
        cfg = tmp_path / "b.cfg"
        cfg.write_text("# comment line\nradius = 3.0\nks_neighbors = 10\n")
        out_file = tmp_path / "map3.json"
        assert run(["build", "--raw", str(workdir / "raw.jsonl"),
                    "--out", str(out_file), "--config", str(cfg),
                    "--radius", "2.5"]) == 0
        obj = json.loads(out_file.read_text())
        # flag beats file, file beats default
        assert obj["config"]["radius"] == 2.5
        assert obj["config"]["ks_neighbors"] == 10

    def test_survey_without_features_builds(self, tmp_path):
        raw = tmp_path / "raw.jsonl"
        raw.write_text("".join(json.dumps({"id": i, "x": float(i), "y": 0.0, "features": {}})
                               + "\n" for i in range(4)))
        out = tmp_path / "map.json"
        assert run(["build", "--raw", str(raw), "--out", str(out)]) == 0
        from rfmloc.model import ExtendedRfm
        rfm = ExtendedRfm.load(out)
        assert (rfm.n_points, rfm.feature_ids) == (4, ())

    def test_unknown_config_key_exits_1(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "b.cfg"
        cfg.write_text("sigma_ceiling = 4\n")
        code = run(["build", "--raw", str(workdir / "raw.jsonl"),
                    "--out", str(tmp_path / "x.json"), "--config", str(cfg)])
        assert code == 1
        assert "sigma_ceiling" in capsys.readouterr().err


class TestLocate:
    @pytest.mark.parametrize("method", ["knn", "cdm", "iterative"])
    def test_methods_run(self, workdir, tmp_path, method):
        out = tmp_path / f"{method}.jsonl"
        assert run(["locate", "--rfm", str(workdir / "map.json"),
                    "--obs", str(workdir / "test.jsonl"),
                    "--out", str(out), "--method", method]) == 0
        estimates = read_estimates(out)
        queries = read_fingerprints(workdir / "test.jsonl")
        assert len(estimates) == len(queries)
        assert [e.query_id for e in estimates] == [q.id for q in queries]

    def test_reruns_byte_identical(self, workdir, tmp_path):
        outs = []
        for name in ("r1.jsonl", "r2.jsonl"):
            out = tmp_path / name
            assert run(["locate", "--rfm", str(workdir / "map.json"),
                        "--obs", str(workdir / "test.jsonl"),
                        "--out", str(out), "--method", "iterative"]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_threads_do_not_change_bytes(self, workdir, tmp_path):
        outs = []
        for name, threads in (("t1.jsonl", "1"), ("t4.jsonl", "4")):
            out = tmp_path / name
            assert run(["locate", "--rfm", str(workdir / "map.json"),
                        "--obs", str(workdir / "test.jsonl"),
                        "--out", str(out), "--method", "iterative",
                        "--threads", threads]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_weight_form_flag(self, workdir, tmp_path):
        a, b = tmp_path / "wp.jsonl", tmp_path / "wq.jsonl"
        assert run(["locate", "--rfm", str(workdir / "map.json"),
                    "--obs", str(workdir / "test.jsonl"), "--out", str(a),
                    "--weight-form", "precision"]) == 0
        assert run(["locate", "--rfm", str(workdir / "map.json"),
                    "--obs", str(workdir / "test.jsonl"), "--out", str(b),
                    "--weight-form", "paper"]) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_missing_required_flag_exits_2(self, workdir):
        with pytest.raises(SystemExit) as exc:
            run(["locate", "--rfm", str(workdir / "map.json")])
        assert exc.value.code == 2

    def test_empty_map_exits_1(self, workdir, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        obj = json.loads((workdir / "map.json").read_text())
        obj["points"] = []
        empty.write_text(json.dumps(obj))
        code = run(["locate", "--rfm", str(empty), "--obs", str(workdir / "test.jsonl"),
                    "--out", str(tmp_path / "o.jsonl")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: {empty}: invalid reference map:" in err
        assert not (tmp_path / "o.jsonl").exists()

    def test_zero_sigma_map_exits_1(self, workdir, tmp_path, capsys):
        bad = tmp_path / "sigma0.json"
        obj = json.loads((workdir / "map.json").read_text())
        obj["points"][3]["entries"][0]["sigma"] = 0.0
        bad.write_text(json.dumps(obj))
        code = run(["locate", "--rfm", str(bad), "--obs", str(workdir / "test.jsonl"),
                    "--out", str(tmp_path / "o.jsonl")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: {bad}: invalid reference map:" in err
        assert "sigma" in err

    @pytest.mark.parametrize("field, literal", [("v", "Infinity"), ("sigma", "NaN")])
    def test_non_finite_map_entry_exits_1(self, workdir, tmp_path, capsys, field, literal):
        bad = tmp_path / "nonfinite.json"
        obj = json.loads((workdir / "map.json").read_text())
        entry = obj["points"][3]["entries"][0]
        entry[field] = float(literal.lower())
        text = json.dumps(obj)
        assert literal in text
        bad.write_text(text)
        code = run(["locate", "--rfm", str(bad), "--obs", str(workdir / "test.jsonl"),
                    "--out", str(tmp_path / "o.jsonl")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: {bad}: invalid reference map:" in err
        assert f"feature {entry['id']!r} at reference point 3" in err
        assert not (tmp_path / "o.jsonl").exists()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exits_1(self, workdir, tmp_path, capsys, threads):
        code = run(["locate", "--rfm", str(workdir / "map.json"),
                    "--obs", str(workdir / "test.jsonl"),
                    "--out", str(tmp_path / "o.jsonl"), "--threads", threads])
        assert code == 1
        assert "--threads" in capsys.readouterr().err
        assert not (tmp_path / "o.jsonl").exists()

    @pytest.mark.parametrize("method", ["iterative", "knn", "cdm"])
    def test_featureless_query_against_empty_point_exits_1(self, workdir, tmp_path,
                                                           capsys, method):
        holey = tmp_path / "holey.json"
        obj = json.loads((workdir / "map.json").read_text())
        obj["points"][0]["entries"] = []
        holey.write_text(json.dumps(obj))
        obs = tmp_path / "featureless.jsonl"
        obs.write_text('{"id": 0, "x": null, "y": null, "features": {}}\n')
        code = run(["locate", "--rfm", str(holey), "--obs", str(obs),
                    "--out", str(tmp_path / "o.jsonl"), "--method", method])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {obs}: query 0 ")
        assert err.count("\n") == 1
        assert not (tmp_path / "o.jsonl").exists()

    def test_bad_observation_file_exits_1(self, workdir, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": 0, "x": null, "y": null, "features": {"a": -60}}\n'
                       "this is not json\n")
        code = run(["locate", "--rfm", str(workdir / "map.json"),
                    "--obs", str(bad), "--out", str(tmp_path / "o.jsonl")])
        assert code == 1
        err = capsys.readouterr().err
        assert "bad.jsonl" in err
        assert "2" in err  # cites the offending line


@pytest.fixture(scope="module")
def scored(workdir, tmp_path_factory):
    d = tmp_path_factory.mktemp("scored")
    for method in ("knn", "cdm", "iterative"):
        assert run(["locate", "--rfm", str(workdir / "map.json"),
                    "--obs", str(workdir / "test.jsonl"),
                    "--out", str(d / f"{method}.jsonl"),
                    "--method", method]) == 0
    (d / "truth.jsonl").write_bytes((workdir / "test.jsonl").read_bytes())
    return d


class TestEvalAndReport:
    def test_eval_stats_csv(self, scored, workdir, tmp_path):
        out = tmp_path / "stats.csv"
        ecdf_out = tmp_path / "ecdf.csv"
        assert run(["eval", "--estimates", str(scored / "iterative.jsonl"),
                    "--truth", str(workdir / "test.jsonl"),
                    "--out", str(out), "--ecdf-out", str(ecdf_out)]) == 0
        header, row = out.read_text().strip().split("\n")
        assert header == "n,ce50,ce75,ce90,max_error,frac_converging,frac_looping,frac_max"
        cells = row.split(",")
        assert int(cells[0]) > 0
        ce = [float(c) for c in cells[1:5]]
        assert ce == sorted(ce)
        fracs = [float(c) for c in cells[5:]]
        assert sum(fracs) == pytest.approx(1.0)
        assert ecdf_out.read_text().startswith("error,fraction\n")

    def test_eval_rejects_mismatched_ids(self, scored, tmp_path, capsys):
        shuffled = tmp_path / "shuffled.jsonl"
        lines = (scored / "truth.jsonl").read_text().strip().split("\n")
        shuffled.write_text("\n".join(lines[1:] + lines[:1]) + "\n")
        code = run(["eval", "--estimates", str(scored / "iterative.jsonl"),
                    "--truth", str(shuffled), "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "does not match" in capsys.readouterr().err

    def test_report_includes_opt_row(self, scored, tmp_path):
        out_dir = tmp_path / "rep"
        assert run(["report", "--runs", str(scored),
                    "--out-dir", str(out_dir)]) == 0
        report = (out_dir / "report.csv").read_text().strip().split("\n")
        assert report[0] == "method,ce50,ce75,ce90,max_error"
        names = [line.split(",")[0] for line in report[1:]]
        assert names == ["cdm", "iterative", "knn", "opt"]
        for name in names:
            assert (out_dir / f"{name}_ecdf.csv").exists()

    def test_report_missing_runs_exits_1(self, tmp_path, scored, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        (empty / "truth.jsonl").write_bytes((scored / "truth.jsonl").read_bytes())
        assert run(["report", "--runs", str(empty)]) == 1
