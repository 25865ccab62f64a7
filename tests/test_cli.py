"""Command line interface: the full pipeline and its failure modes."""

import base64
import json
import math
import re
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from rfmloc.cli import _build_parser, _layer_config, run
from rfmloc.evaluate import radial_errors
from rfmloc.model import (BuilderConfig, ExtendedRfm, PositioningConfig, read_estimates,
                          read_fingerprints)
from tests.conftest import edit_layer, per_entry_format_2


# A map that an earlier version wrote in format 1, with its survey and queries.
FORMAT1 = Path(__file__).resolve().parent / "data" / "format1"
# The map of the same survey as an earlier version wrote it in format 2.
FORMAT2 = Path(__file__).resolve().parent / "data" / "format2"


def _format_2(path) -> dict:
    """The map at ``path`` as a format-2 document, for tests that edit its points."""
    return json.loads(per_entry_format_2(ExtendedRfm.load(path)))


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
                                             ("--contamination", "2"), ("--n-aps", "0")])
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

    def test_survey_below_default_missing_value_builds(self, tmp_path):
        # the builder never compares with the missing-value indicator; locate
        # does, and takes a lower one by flag
        assert run(["synth", "--seed", "3", "--n-aps", "4", "--passes", "1",
                    "--out-dir", str(tmp_path)]) == 0
        lines = (tmp_path / "raw.jsonl").read_text().splitlines()
        at = next(i for i, line in enumerate(lines) if json.loads(line)["features"])
        rec = json.loads(lines[at])
        rec["features"][next(iter(rec["features"]))] = -115.0
        lines[at] = json.dumps(rec)
        (tmp_path / "low.jsonl").write_text("\n".join(lines) + "\n")
        assert run(["build", "--raw", str(tmp_path / "low.jsonl"),
                    "--out", str(tmp_path / "map.json")]) == 0
        assert run(["locate", "--rfm", str(tmp_path / "map.json"),
                    "--obs", str(tmp_path / "test.jsonl"), "--out", str(tmp_path / "est.jsonl"),
                    "--missing-value", "-120"]) == 0

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
        obj = _format_2(workdir / "map.json")
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
        obj = _format_2(workdir / "map.json")
        obj["points"][3]["sigma"][0] = 0.0
        bad.write_text(json.dumps(obj))
        code = run(["locate", "--rfm", str(bad), "--obs", str(workdir / "test.jsonl"),
                    "--out", str(tmp_path / "o.jsonl")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: {bad}: invalid reference map:" in err
        assert "sigma" in err
        assert "is 0.0;" in err  # a plain float, not a numpy repr

    @pytest.mark.parametrize("field, literal", [("v", "Infinity"), ("sigma", "NaN")])
    def test_non_finite_map_entry_exits_1(self, workdir, tmp_path, capsys, field, literal):
        bad = tmp_path / "nonfinite.json"
        obj = _format_2(workdir / "map.json")
        point = obj["points"][3]
        point[field][0] = float(literal.lower())
        text = json.dumps(obj)
        assert literal in text
        bad.write_text(text)
        code = run(["locate", "--rfm", str(bad), "--obs", str(workdir / "test.jsonl"),
                    "--out", str(tmp_path / "o.jsonl")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: {bad}: invalid reference map:" in err
        assert f"feature {obj['features'][point['f'][0]]!r} at reference point 3" in err
        assert not (tmp_path / "o.jsonl").exists()

    @staticmethod
    def _format_3_fault(obj: dict, fault: str) -> str:
        """Apply ``fault`` to the format-3 document ``obj`` at reference
        point 3, in the first feature it carries; return the phrase the
        error must hold."""
        layer = np.frombuffer(base64.b64decode(obj["v"]), "<f8").reshape(
            -1, len(obj["features"]))
        f = int(np.flatnonzero(np.isfinite(layer[3]))[0])
        cell = f"feature {obj['features'][f]!r} at reference point 3"
        if fault == "bad-base64":
            obj["v"] = obj["v"][:40] + "!" + obj["v"][41:]
            return "v is not base64"
        if fault == "truncated":
            data = base64.b64decode(obj["sigma"])[:-8]
            obj["sigma"] = base64.b64encode(data).decode("ascii")
            return f"sigma holds {len(data)} bytes"
        if fault == "empty-locations":
            obj["locations"] = ""
            return "no reference points"
        if fault == "x-nan":
            edit_layer(obj, "locations", lambda a: a.__setitem__((3, 0), np.nan))
            return "reference point 3 has x=nan"
        key, value, phrase = {"v-inf": ("v", np.inf, cell + " has v=inf"),
                              "v-nan": ("v", np.nan, cell + " has v=nan"),
                              "sigma-zero": ("sigma", 0.0, f"sigma of {cell} is 0.0;")}[fault]
        edit_layer(obj, key, lambda a: a.__setitem__((3, f), value))
        return phrase

    @pytest.mark.parametrize("fault", ["bad-base64", "truncated", "v-inf", "v-nan", "x-nan",
                                       "sigma-zero", "empty-locations"])
    def test_bad_format_3_map_exits_1(self, workdir, tmp_path, capsys, fault):
        bad = tmp_path / "bad.json"
        obj = json.loads((workdir / "map.json").read_text())
        phrase = self._format_3_fault(obj, fault)
        bad.write_text(json.dumps(obj))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would print a second line
            code = run(["locate", "--rfm", str(bad), "--obs", str(workdir / "test.jsonl"),
                        "--out", str(tmp_path / "o.jsonl")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: invalid reference map: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert phrase in err
        assert not (tmp_path / "o.jsonl").exists()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exits_1(self, workdir, tmp_path, capsys, threads):
        code = run(["locate", "--rfm", str(workdir / "map.json"),
                    "--obs", str(workdir / "test.jsonl"),
                    "--out", str(tmp_path / "o.jsonl"), "--threads", threads])
        assert code == 1
        assert "--threads" in capsys.readouterr().err
        assert not (tmp_path / "o.jsonl").exists()

    @pytest.mark.parametrize("fmt", [2, 3])
    @pytest.mark.parametrize("method", ["iterative", "knn", "cdm"])
    def test_featureless_query_against_empty_point_exits_1(self, workdir, tmp_path,
                                                           capsys, method, fmt):
        holey = tmp_path / "holey.json"
        if fmt == 2:
            obj = _format_2(workdir / "map.json")
            obj["points"][0].update(f=[], v=[], sigma=[])
        else:
            obj = json.loads((workdir / "map.json").read_text())
            for key in ("v", "sigma"):
                edit_layer(obj, key, lambda layer: layer.__setitem__(0, np.nan))
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

    @pytest.mark.parametrize("threads", ["1", "4"])
    @pytest.mark.parametrize("method", ["iterative", "knn", "cdm"])
    def test_the_first_failing_query_of_a_batch_is_reported(self, workdir, tmp_path, capsys,
                                                            method, threads):
        holey = tmp_path / "holey.json"
        obj = _format_2(workdir / "map.json")
        obj["points"][0].update(f=[], v=[], sigma=[])
        holey.write_text(json.dumps(obj))
        lines = (workdir / "test.jsonl").read_text().splitlines()[:30]
        records = [json.loads(line) for line in lines]
        for empty_at, huge_at in ((7, 20), (20, 7)):
            batch = [dict(r) for r in records]
            batch[empty_at]["features"] = {}  # against a point without features
            batch[huge_at]["features"] = dict(batch[huge_at]["features"], unseen=1e200)
            obs = tmp_path / f"batch-{empty_at}.jsonl"
            obs.write_text("".join(json.dumps(r) + "\n" for r in batch))
            code = run(["locate", "--rfm", str(holey), "--obs", str(obs),
                        "--out", str(tmp_path / "o.jsonl"), "--method", method,
                        "--threads", threads])
            assert code == 1
            err = capsys.readouterr().err
            if empty_at < huge_at:
                assert err.startswith(f"error: {obs}: query {batch[empty_at]['id']} ")
            else:
                assert err == (f"error: {obs}: a feature distance overflows at "
                               "minkowski_p = 2.0\n")
            assert not (tmp_path / "o.jsonl").exists()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_an_overflow_while_aligning_a_later_query_is_not_reported_first(
            self, workdir, tmp_path, capsys, threads):
        # at order 3 the outside distance of 1e200 overflows as the batch
        # aligns its queries, before any lookup
        holey = tmp_path / "holey.json"
        obj = _format_2(workdir / "map.json")
        obj["points"][0].update(f=[], v=[], sigma=[])
        holey.write_text(json.dumps(obj))
        obs = tmp_path / "obs.jsonl"
        obs.write_text('{"id": 0, "x": null, "y": null, "features": {}}\n'
                       '{"id": 1, "x": null, "y": null, "features": {"zz": 1e200}}\n')
        code = run(["locate", "--rfm", str(holey), "--obs", str(obs),
                    "--out", str(tmp_path / "o.jsonl"), "--minkowski-p", "3",
                    "--threads", threads])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {obs}: query 0 has no features ")
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


@pytest.mark.parametrize("method", ["iterative", "knn", "cdm"])
def test_format_1_map_locates_as_a_fresh_build(tmp_path, method):
    """The checked-in format-1 and format-2 maps and a format-3 map built
    now from the same survey give the same estimate bytes, and either old
    map saves as the fresh build's bytes."""
    fresh = tmp_path / "map.json"
    assert run(["build", "--raw", str(FORMAT1 / "raw.jsonl"), "--out", str(fresh)]) == 0
    assert "format" not in json.loads((FORMAT1 / "map.json").read_text())
    assert json.loads((FORMAT2 / "map.json").read_text())["format"] == 2
    assert json.loads(fresh.read_text())["format"] == 3
    estimates = []
    for i, rfm in enumerate((FORMAT1 / "map.json", FORMAT2 / "map.json", fresh)):
        out = tmp_path / f"{i}.jsonl"
        assert run(["locate", "--rfm", str(rfm), "--obs", str(FORMAT1 / "test.jsonl"),
                    "--out", str(out), "--method", method]) == 0
        estimates.append(out.read_bytes())
        ExtendedRfm.load(rfm).save(tmp_path / f"{i}.json")
        assert (tmp_path / f"{i}.json").read_bytes() == fresh.read_bytes()
    assert estimates[0] == estimates[1] == estimates[2]


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

    def test_eval_errors_out(self, scored, workdir, tmp_path):
        out = tmp_path / "errors.csv"
        assert run(["eval", "--estimates", str(scored / "iterative.jsonl"),
                    "--truth", str(workdir / "test.jsonl"), "--out", str(tmp_path / "s.csv"),
                    "--errors-out", str(out)]) == 0
        header, *rows = out.read_text().strip().split("\n")
        assert header == "x,y,error"
        truth = [rec.location for rec in read_fingerprints(workdir / "test.jsonl")]
        errors = radial_errors(read_estimates(scored / "iterative.jsonl"), truth)
        assert [tuple(map(float, row.split(","))) for row in rows] == [
            (loc.x, loc.y, err) for loc, err in zip(truth, errors)]

    def test_eval_and_report_score_a_run_alike(self, scored, tmp_path):
        stats, ecdf_out, out_dir = tmp_path / "stats.csv", tmp_path / "ecdf.csv", tmp_path / "rep"
        assert run(["eval", "--estimates", str(scored / "iterative.jsonl"),
                    "--truth", str(scored / "truth.jsonl"), "--out", str(stats),
                    "--ecdf-out", str(ecdf_out)]) == 0
        assert run(["report", "--runs", str(scored), "--out-dir", str(out_dir)]) == 0
        stats_row = stats.read_text().split("\n")[1].split(",")
        report_rows = {line.split(",")[0]: line.split(",")[1:]
                       for line in (out_dir / "report.csv").read_text().split("\n")[1:] if line}
        assert stats_row[1:5] == report_rows["iterative"]
        assert ecdf_out.read_bytes() == (out_dir / "iterative_ecdf.csv").read_bytes()

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

    def test_failed_report_leaves_no_out_dir(self, tmp_path, scored):
        out_dir = tmp_path / "out"
        assert run(["report", "--runs", str(tmp_path / "missing"),
                    "--truth", str(scored / "truth.jsonl"),
                    "--out-dir", str(out_dir)]) == 1
        assert not out_dir.exists()
        assert run(["report", "--runs", str(tmp_path / "missing"),
                    "--out-dir", str(out_dir)]) == 1
        assert not out_dir.exists()


@pytest.fixture(scope="module")
def below_default_missing(workdir, tmp_path_factory):
    """A run located with ``--missing-value -120`` whose truth file holds a
    value of -115: legal for that run, below the default indicator."""
    d = tmp_path_factory.mktemp("low")
    first, *rest = (workdir / "test.jsonl").read_text().strip().split("\n")
    rec = json.loads(first)
    rec["features"][next(iter(rec["features"]))] = -115.0
    (d / "truth.jsonl").write_text("\n".join([json.dumps(rec), *rest]) + "\n")
    assert run(["locate", "--rfm", str(workdir / "map.json"), "--obs", str(d / "truth.jsonl"),
                "--out", str(d / "iterative.jsonl"), "--missing-value", "-120"]) == 0
    return d


class TestTruthReadsAnyFeatureValue:
    # eval and report read ids and locations from the truth, never feature values
    def test_eval(self, below_default_missing, workdir, tmp_path):
        d = below_default_missing
        for truth, out in ((d / "truth.jsonl", "low.csv"), (workdir / "test.jsonl", "ref.csv")):
            assert run(["eval", "--estimates", str(d / "iterative.jsonl"),
                        "--truth", str(truth), "--out", str(tmp_path / out)]) == 0
        assert (tmp_path / "low.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_report(self, below_default_missing, tmp_path):
        assert run(["report", "--runs", str(below_default_missing),
                    "--out-dir", str(tmp_path)]) == 0
        names = [line.split(",")[0] for line in (tmp_path / "report.csv").read_text().split()]
        assert names == ["method", "iterative", "opt"]


def _ff_on_line_2(src, dst):
    """Copy ``src`` to ``dst`` with a 0xFF byte, never valid UTF-8, inside line 2."""
    first, second, rest = src.read_bytes().split(b"\n", 2)
    dst.write_bytes(b"\n".join([first, second[:5] + b"\xff" + second[5:], rest]))
    return dst


def _deep_on_line_2(src, dst):
    """Copy ``src`` to ``dst`` with line 2 replaced by 100 000 nested JSON arrays."""
    lines = src.read_bytes().split(b"\n")
    lines[1] = b"[" * 100_000
    dst.write_bytes(b"\n".join(lines))
    return dst


def _bad_input(case, workdir, scored, tmp):
    """argv of one malformed or unreadable input case, the stderr prefix it
    must produce, and a phrase the message must hold (or None)."""
    raw, obs, rfm = workdir / "raw.jsonl", workdir / "test.jsonl", workdir / "map.json"
    knn, missing, out = scored / "knn.jsonl", tmp / "missing", tmp / "out"

    def build(*extra, raw=raw):
        return ["build", "--raw", str(raw), "--out", str(out), *extra]

    def locate(*extra, rfm=rfm, obs=obs, out=out):
        return ["locate", "--rfm", str(rfm), "--obs", str(obs), "--out", str(out),
                "--method", "knn", *extra]

    def evaluate(estimates=knn, truth=obs):
        return ["eval", "--estimates", str(estimates), "--truth", str(truth),
                "--out", str(out)]

    def bad_config():
        cfg = tmp / "b.cfg"
        cfg.write_bytes(b"radius = 3.0\nks_neighbors = 1\xff0\n")
        return cfg

    def huge_value_survey():
        # an integer too large for a float: JSON parses it, float() overflows
        lines = raw.read_text().splitlines(keepends=True)
        record = json.loads(lines[1])
        record["features"] = {"a": -60}
        lines[1] = json.dumps(record).replace('"a": -60', '"a": -6' + "0" * 400) + "\n"
        (tmp / "raw.jsonl").write_text("".join(lines))
        return tmp / "raw.jsonl"

    def reversed_runs():
        runs = tmp / "runs"
        runs.mkdir()
        (runs / "truth.jsonl").write_bytes(obs.read_bytes())
        lines = knn.read_text().splitlines(keepends=True)
        (runs / "knn.jsonl").write_text("".join(reversed(lines)))
        return runs

    def bad_map(edit, source=None):
        """``source``, by default the built map as a format-2 document, with
        ``edit`` applied to its document and its point 3."""
        obj = _format_2(rfm) if source is None else json.loads(source.read_text())
        edit(obj, obj["points"][3])
        (tmp / "map.json").write_text(json.dumps(obj))
        return tmp / "map.json"

    def bad_format1_map(edit):
        return bad_map(lambda obj, point: edit(point["entries"]), FORMAT1 / "map.json")

    def set_first(key, value):
        return lambda entries: entries[0].update({key: value})

    def set_in(key, i, value):
        return lambda obj, point: point[key].__setitem__(i, value)

    def swap_first_features(obj, point):
        obj["features"][:2] = obj["features"][1::-1]

    def tiny_sigmas(obj, point):
        # each sigma is finite and > 0, as the load checks; its square is 0
        for pt in obj["points"]:
            pt["sigma"] = [1e-200] * len(pt["sigma"])

    def bad_point(key, value):
        return bad_map(lambda obj, point: point.update({key: value}))

    def blank_lines_then_wrong_id():
        # line 1, two blank lines, then on line 4 the estimate that belongs on line 5
        lines = knn.read_text().splitlines(keepends=True)
        (tmp / "e.jsonl").write_text("".join([lines[0], "\n", "\n", lines[2], lines[1],
                                              *lines[3:]]))
        return tmp / "e.jsonl"

    def deep_map():
        (tmp / "map.json").write_bytes(b"[" * 100_000)
        return tmp / "map.json"

    def ok_config():
        (tmp / "ok.cfg").write_text("radius = 3.0\n")
        return tmp / "ok.cfg"

    def edit_line(src, lineno, edit, name):
        lines = src.read_text().splitlines(keepends=True)
        obj = json.loads(lines[lineno - 1])
        edit(obj)
        lines[lineno - 1] = json.dumps(obj) + "\n"
        (tmp / name).write_text("".join(lines))
        return tmp / name

    def empty_path_runs():
        runs = tmp / "runs"
        runs.mkdir()
        (runs / "truth.jsonl").write_bytes(obs.read_bytes())
        edit_line(knn, 2, lambda e: e.update(path=[]), "runs/knn.jsonl")
        return runs

    def run_named(stem):
        runs = tmp / "runs"
        runs.mkdir()
        (runs / "truth.jsonl").write_bytes(obs.read_bytes())
        (runs / f"{stem}.jsonl").write_bytes(knn.read_bytes())
        return runs

    def unseen_feature_query(value=1000.0):
        # a feature the map never saw: its distance to the missing value is 1110 dB
        lines = obs.read_text().splitlines(keepends=True)
        record = json.loads(lines[0])
        record["features"]["zz:unseen"] = value
        (tmp / "q.jsonl").write_text(json.dumps(record) + "\n")
        return tmp / "q.jsonl"

    def bad_config_block(key, value):
        obj = json.loads(rfm.read_text())
        obj["config"][key] = value
        (tmp / "map.json").write_text(json.dumps(obj))
        return tmp / "map.json"

    cases = {
        "missing-raw": lambda: (build(raw=missing), f"{missing}: ", None),
        "missing-rfm": lambda: (locate(rfm=missing), f"{missing}: ", None),
        "missing-obs": lambda: (locate(obs=missing), f"{missing}: ", None),
        "missing-config": lambda: (build("--config", str(missing)), f"{missing}: ", None),
        "missing-truth": lambda: (evaluate(truth=missing), f"{missing}: ", None),
        "out-in-missing-dir": lambda: (locate(out=missing / "o.jsonl"),
                                       f"{missing / 'o.jsonl'}: ", None),
        "ff-survey": lambda: (build(raw=_ff_on_line_2(raw, tmp / "raw.jsonl")),
                              f"{tmp / 'raw.jsonl'}:2: ", None),
        "ff-query": lambda: (locate(obs=_ff_on_line_2(obs, tmp / "q.jsonl")),
                             f"{tmp / 'q.jsonl'}:2: ", None),
        "ff-estimates": lambda: (evaluate(estimates=_ff_on_line_2(knn, tmp / "e.jsonl")),
                                 f"{tmp / 'e.jsonl'}:2: ", None),
        "ff-config": lambda: (build("--config", str(bad_config())), f"{tmp / 'b.cfg'}:2: ",
                              None),
        "deep-survey": lambda: (build(raw=_deep_on_line_2(raw, tmp / "raw.jsonl")),
                                f"{tmp / 'raw.jsonl'}:2: ", "recursion"),
        "deep-map": lambda: (locate(rfm=deep_map()),
                             f"{tmp / 'map.json'}: invalid reference map: ", "recursion"),
        "deep-query": lambda: (locate(obs=_deep_on_line_2(obs, tmp / "q.jsonl")),
                               f"{tmp / 'q.jsonl'}:2: ", "recursion"),
        "deep-estimates": lambda: (evaluate(estimates=_deep_on_line_2(knn, tmp / "e.jsonl")),
                                   f"{tmp / 'e.jsonl'}:2: ", "recursion"),
        "int-overflow-survey": lambda: (build(raw=huge_value_survey()),
                                        f"{tmp / 'raw.jsonl'}:2: ", None),
        "report-reversed": lambda: (["report", "--runs", str(reversed_runs())],
                                    f"{tmp / 'runs' / 'knn.jsonl'}:1: ", "does not match"),
        "nan-bandwidth": lambda: (build("--bandwidth", "nan"), "bandwidth must be finite",
                                  None),
        "nan-beta": lambda: (locate("--beta", "nan"), "beta must be finite", None),
        "nan-converge-tol": lambda: (locate("--converge-tol", "nan"),
                                     "converge_tol must be finite", None),
        "n-aps-0": lambda: (["synth", "--seed", "3", "--out-dir", str(out), "--n-aps", "0"],
                            "--n-aps must be at least 1", None),
        "map-id-not-string": lambda: (locate(rfm=bad_format1_map(set_first("id", 7))),
                                      f"{tmp / 'map.json'}: invalid reference map: ",
                                      "at reference point 3"),
        "map-v-true": lambda: (locate(rfm=bad_format1_map(set_first("v", True))),
                               f"{tmp / 'map.json'}: invalid reference map: ",
                               "at reference point 3"),
        "map-id-twice": lambda: (locate(rfm=bad_format1_map(lambda e: e.append(dict(e[0])))),
                                 f"{tmp / 'map.json'}: invalid reference map: ",
                                 "listed twice at reference point 3"),
        "map-format-1-x-string": lambda: (
            locate(rfm=bad_map(lambda obj, point: point.update(x="1.5"), FORMAT1 / "map.json")),
            f"{tmp / 'map.json'}: invalid reference map: ", "reference point 3 has x='1.5'"),
        "map-index-out-of-range": lambda: (
            locate(rfm=bad_map(lambda obj, point: point["f"].__setitem__(
                0, len(obj["features"])))),
            f"{tmp / 'map.json'}: invalid reference map: ", "at reference point 3"),
        "map-index-negative": lambda: (locate(rfm=bad_map(set_in("f", 0, -1))),
                                       f"{tmp / 'map.json'}: invalid reference map: ",
                                       "feature index -1 at reference point 3"),
        "map-index-too-large-an-int": lambda: (locate(rfm=bad_map(set_in("f", 0, 10 ** 30))),
                                               f"{tmp / 'map.json'}: invalid reference map: ",
                                               "at reference point 3"),
        "map-index-twice": lambda: (
            locate(rfm=bad_map(lambda obj, point: point["f"].__setitem__(1, point["f"][0]))),
            f"{tmp / 'map.json'}: invalid reference map: ", "listed twice at reference point 3"),
        "map-index-bool": lambda: (locate(rfm=bad_map(set_in("f", 1, True))),
                                   f"{tmp / 'map.json'}: invalid reference map: ",
                                   "at reference point 3"),
        "map-index-float": lambda: (locate(rfm=bad_map(set_in("f", 1, 1.0))),
                                    f"{tmp / 'map.json'}: invalid reference map: ",
                                    "at reference point 3"),
        "map-lengths-differ": lambda: (
            locate(rfm=bad_map(lambda obj, point: point["v"].append(-60.0))),
            f"{tmp / 'map.json'}: invalid reference map: ", "reference point 3"),
        "map-f-not-a-list": lambda: (
            locate(rfm=bad_map(lambda obj, point: point.update(f={}, v={}, sigma={}))),
            f"{tmp / 'map.json'}: invalid reference map: ", "reference point 3"),
        "map-v-string": lambda: (locate(rfm=bad_map(set_in("v", 0, "-60"))),
                                 f"{tmp / 'map.json'}: invalid reference map: ",
                                 "at reference point 3"),
        "map-sigma-true": lambda: (locate(rfm=bad_map(set_in("sigma", 0, True))),
                                   f"{tmp / 'map.json'}: invalid reference map: ",
                                   "at reference point 3"),
        "map-v-nan": lambda: (locate(rfm=bad_map(set_in("v", 0, math.nan))),
                              f"{tmp / 'map.json'}: invalid reference map: ",
                              "at reference point 3"),
        "map-sigma-infinity": lambda: (locate(rfm=bad_map(set_in("sigma", 0, math.inf))),
                                       f"{tmp / 'map.json'}: invalid reference map: ",
                                       "at reference point 3"),
        "map-x-nan": lambda: (locate(rfm=bad_point("x", math.nan)),
                              f"{tmp / 'map.json'}: invalid reference map: ",
                              "reference point 3"),
        # ints too large for a float: not finite, so the point is named
        "map-v-too-large-an-int": lambda: (locate(rfm=bad_map(set_in("v", 0, 10 ** 400))),
                                           f"{tmp / 'map.json'}: invalid reference map: ",
                                           "reference point 3"),
        "map-x-too-large-an-int": lambda: (locate(rfm=bad_point("x", 10 ** 400)),
                                           f"{tmp / 'map.json'}: invalid reference map: ",
                                           "reference point 3"),
        "map-format-1-sigma-too-large-an-int": lambda: (
            locate(rfm=bad_format1_map(set_first("sigma", 10 ** 400))),
            f"{tmp / 'map.json'}: invalid reference map: ", "reference point 3"),
        "map-features-unsorted": lambda: (locate(rfm=bad_map(swap_first_features)),
                                          f"{tmp / 'map.json'}: invalid reference map: ",
                                          "strictly ascending"),
        "map-features-twice": lambda: (
            locate(rfm=bad_map(lambda obj, point: obj["features"].__setitem__(
                1, obj["features"][0]))),
            f"{tmp / 'map.json'}: invalid reference map: ", "strictly ascending"),
        "map-features-not-strings": lambda: (
            locate(rfm=bad_map(lambda obj, point: obj.update(
                features=list(range(1, len(obj["features"]) + 1))))),
            f"{tmp / 'map.json'}: invalid reference map: ", "non-empty strings"),
        "map-feature-empty": lambda: (
            locate(rfm=bad_map(lambda obj, point: obj["features"].__setitem__(0, ""))),
            f"{tmp / 'map.json'}: invalid reference map: ", "non-empty strings"),
        "map-format-4": lambda: (locate(rfm=bad_map(lambda obj, point: obj.update(format=4))),
                                 f"{tmp / 'map.json'}: invalid reference map: ",
                                 "unknown map format 4"),
        "map-x-string": lambda: (locate(rfm=bad_point("x", "1.5")),
                                 f"{tmp / 'map.json'}: invalid reference map: ",
                                 "reference point 3"),
        "map-y-true": lambda: (locate(rfm=bad_point("y", True)),
                               f"{tmp / 'map.json'}: invalid reference map: ",
                               "reference point 3"),
        "estimates-blank-lines": lambda: (evaluate(estimates=blank_lines_then_wrong_id()),
                                          f"{tmp / 'e.jsonl'}:4: ", "does not match"),
        "config-ok-flag-nan": lambda: (build("--config", str(ok_config()), "--bandwidth",
                                             "nan"), "bandwidth must be finite", None),
        "estimates-empty-path": lambda: (
            evaluate(estimates=edit_line(knn, 2, lambda e: e.update(path=[]), "e.jsonl")),
            f"{tmp / 'e.jsonl'}:2: ", "path is empty"),
        "report-empty-path": lambda: (["report", "--runs", str(empty_path_runs())],
                                      f"{tmp / 'runs' / 'knn.jsonl'}:2: ", "path is empty"),
        "survey-x-true": lambda: (
            build(raw=edit_line(raw, 2, lambda r: r.update(x=True, y=False), "raw.jsonl")),
            f"{tmp / 'raw.jsonl'}:2: ", "x must be"),
        "estimates-iterations-float": lambda: (
            evaluate(estimates=edit_line(knn, 3, lambda e: e.update(iterations=2.7),
                                         "e.jsonl")),
            f"{tmp / 'e.jsonl'}:3: ", "iterations must be"),
        "map-config-radius-string": lambda: (locate(rfm=bad_config_block("radius", "2.0")),
                                             f"{tmp / 'map.json'}: invalid reference map: ",
                                             "radius must be"),
        "report-run-named-opt": lambda: (["report", "--runs", str(run_named("opt"))],
                                         f"{tmp / 'runs' / 'opt.jsonl'}: ",
                                         "cannot name a run 'opt'"),
        "report-run-name-comma": lambda: (["report", "--runs", str(run_named("knn,k1"))],
                                          f"{tmp / 'runs' / 'knn,k1.jsonl'}: ",
                                          "cannot name a run 'knn,k1'"),
        "overflow-iterative": lambda: (
            locate("--minkowski-p", "120", "--method", "iterative", obs=unseen_feature_query()),
            f"{tmp / 'q.jsonl'}: ", "minkowski_p"),
        "overflow-knn": lambda: (locate("--minkowski-p", "120", obs=unseen_feature_query()),
                                 f"{tmp / 'q.jsonl'}: ", "minkowski_p"),
        # every feature seen: the map-wide kernel overflows, not the scalar distance
        "overflow-kernel-iterative": lambda: (
            locate("--minkowski-p", "1000", "--method", "iterative"), f"{obs}: ",
            "minkowski_p = 1000"),
        "overflow-kernel-knn": lambda: (locate("--minkowski-p", "1000"), f"{obs}: ",
                                        "minkowski_p = 1000"),
        # a squared float overflows to inf without raising
        "overflow-square": lambda: (locate(obs=unseen_feature_query(1e200)),
                                    f"{tmp / 'q.jsonl'}: ", "minkowski_p = 2.0"),
        # a softmax exponent beta / sigma^2 too large for a float
        "overflow-weight-beta": lambda: (locate("--method", "iterative", "--beta", "1e308"),
                                         f"{rfm}: ", "beta = 1e+308"),
        "overflow-weight-sigma": lambda: (
            locate("--method", "iterative", rfm=bad_map(tiny_sigmas)),
            f"{tmp / 'map.json'}: ", "beta = 2.0"),
    }
    return cases[case]()


@pytest.mark.parametrize("case", [
    "missing-raw", "missing-rfm", "missing-obs", "missing-config", "missing-truth",
    "out-in-missing-dir", "ff-survey", "ff-query", "ff-estimates", "ff-config",
    "deep-survey", "deep-map", "deep-query", "deep-estimates",
    "int-overflow-survey", "report-reversed", "nan-bandwidth", "nan-beta",
    "nan-converge-tol", "n-aps-0", "map-id-not-string", "map-v-true", "map-id-twice",
    "map-x-string", "map-y-true", "estimates-blank-lines", "config-ok-flag-nan",
    "estimates-empty-path", "report-empty-path", "survey-x-true", "estimates-iterations-float",
    "map-config-radius-string", "report-run-named-opt", "report-run-name-comma",
    "overflow-iterative", "overflow-knn", "overflow-kernel-iterative", "overflow-kernel-knn",
    "overflow-square", "overflow-weight-beta", "overflow-weight-sigma",
    "map-format-1-x-string", "map-index-out-of-range", "map-index-negative",
    "map-index-too-large-an-int", "map-index-twice", "map-index-bool", "map-index-float",
    "map-lengths-differ", "map-f-not-a-list", "map-v-string", "map-sigma-true", "map-v-nan",
    "map-sigma-infinity", "map-x-nan", "map-v-too-large-an-int", "map-x-too-large-an-int",
    "map-format-1-sigma-too-large-an-int", "map-features-unsorted", "map-features-twice",
    "map-features-not-strings", "map-feature-empty", "map-format-4"])
def test_bad_input_exits_1_with_one_error_line(workdir, scored, tmp_path, capsys, case):
    argv, prefix, phrase = _bad_input(case, workdir, scored, tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would print a second line
        assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {prefix}")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err
    if phrase is not None:
        assert phrase in err


def _config_fields():
    return [(cls, f.name) for cls in (BuilderConfig, PositioningConfig) for f in fields(cls)]


# Two non-default values per str field: (flag text, field value). The flag's
# choices stand for the field's values, which the config file names directly.
_STR_VALUES = {"weight_form": [("paper", "paper_verbatim"), ("precision", "precision_softmax")],
               "init_mode": [("random", "random"), ("knn", "knn")]}


def _other_values(cls, name):
    """Two (flag text, field value) pairs; the first differs from the default."""
    if name in _STR_VALUES:
        return _STR_VALUES[name]
    default = getattr(cls(), name)
    values = [default + 1, default + 2] if type(default) is int else [default * 2, default * 3]
    return [(repr(v), v) for v in values]


def _parse_config(cls, tmp_path, flags=(), file_text=None):
    argv = (["build", "--raw", "r", "--out", "o"] if cls is BuilderConfig
            else ["locate", "--rfm", "m", "--obs", "q", "--out", "o"])
    if file_text is not None:
        (tmp_path / "c.cfg").write_text(file_text)
        argv += ["--config", str(tmp_path / "c.cfg")]
    return _layer_config(cls, _build_parser().parse_args(argv + list(flags)))


@pytest.mark.parametrize("cls, name", _config_fields(),
                         ids=[name for _, name in _config_fields()])
def test_every_config_field_has_a_flag_and_a_file_key(tmp_path, cls, name):
    (flag_text, value), (other_text, other) = _other_values(cls, name)
    flag = "--seed" if name == "init_seed" else "--" + name.replace("_", "-")
    assert getattr(_parse_config(cls, tmp_path, [f"{flag}={flag_text}"]), name) == value
    assert getattr(_parse_config(cls, tmp_path, file_text=f"{name} = {value}\n"), name) == value
    layered = _parse_config(cls, tmp_path, [f"{flag}={other_text}"], f"{name} = {value}\n")
    assert getattr(layered, name) == other


@pytest.mark.parametrize("command", ["build", "locate"])
def test_readme_names_every_flag(capsys, command):
    with pytest.raises(SystemExit):
        run([command, "--help"])
    flags = set(re.findall(r"--[a-z0-9-]+", capsys.readouterr().out)) - {"--help"}
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert sorted(f for f in flags if not re.search(re.escape(f) + r"(?![a-z0-9-])", readme)) == []
