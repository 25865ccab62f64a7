"""Command line interface: synth, build, locate, eval, report.

Exit codes: 0 on success, 1 on bad or unreadable input (one
``error: <file>[:<line>]: ...`` line on stderr), 2 on usage errors.
Values given as flags override the config file, which overrides the
built-in defaults.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from rfmloc import evaluate
from rfmloc.builder import build
from rfmloc.dissim import EmptyComparison, WeightOverflow
from rfmloc.model import (BuilderConfig, DataError, ExtendedRfm, PositioningConfig, RawRfm,
                          field_types, read_estimates, read_fingerprints, read_lines,
                          write_estimates, write_fingerprints, write_lines)
from rfmloc.positioner import locate_batch
from rfmloc.synth import SurveyPlan, generate_dataset, make_environment

# The config flags that differ from "--" + the field name with "_" as "-",
# with the add_argument settings they take instead. A choice listed in
# _FLAG_VALUES stands for the field value it maps to; any other value
# given to a flag is the field value itself.
_FLAG_SETTINGS = {
    "init_seed": {"flag": "--seed", "metavar": "SEED",
                  "help": "seed for random initialization"},
    "weight_form": {"choices": ["paper", "precision"]},
    "init_mode": {"choices": ["knn", "random"]},
}
_FLAG_VALUES = {"weight_form": {"paper": "paper_verbatim", "precision": "precision_softmax"}}


def _add_config_flags(parser, cls) -> None:
    """One flag per field of the config dataclass ``cls``, defaulting to None."""
    for name, kind in field_types(cls).items():
        settings = {"type": kind, **_FLAG_SETTINGS.get(name, {})}
        flag = settings.pop("flag", "--" + name.replace("_", "-"))
        parser.add_argument(flag, dest=name, **settings)


def _layer_config(cls, args):
    """Build a config dataclass from defaults, then the values of the
    ``--config`` file, then the flags :func:`_add_config_flags` added.

    The file holds ``key = value`` lines; blank lines and lines starting
    with ``#`` are ignored.
    """
    spec = field_types(cls)

    def parse(line: str):
        if line.startswith("#"):
            return None
        key, sep, raw = (part.strip() for part in line.partition("="))
        if not sep:
            raise ValueError(f"expected 'key = value', got {line!r}")
        if key not in spec:
            raise ValueError(f"unknown config key {key!r}")
        try:
            return key, spec[key](raw)
        except ValueError:
            raise ValueError(f"bad value for {key!r}: {raw!r}") from None

    file_values = dict(read_lines(args.config, parse)) if args.config is not None else {}
    flags = {}
    for name in spec:
        value = getattr(args, name)
        if value is not None:
            flags[name] = _FLAG_VALUES.get(name, {}).get(value, value)
    # the defaults are valid, so a failure here is a flag's, and one after it the file's
    try:
        cls(**flags)
    except ValueError as exc:
        raise DataError(str(exc)) from None
    try:
        return cls(**{**file_values, **flags})
    except ValueError as exc:
        raise DataError(str(exc), source=args.config) from None


def _check_synth_flags(args) -> None:
    """Reject the flag values the generator refuses, naming the flag."""
    rules = (
        ("--roi-width", args.roi_width, math.isfinite(args.roi_width) and args.roi_width >= 0,
         "finite and at least 0"),
        ("--roi-height", args.roi_height,
         math.isfinite(args.roi_height) and args.roi_height >= 0, "finite and at least 0"),
        ("--n-aps", args.n_aps, args.n_aps >= 1, "at least 1"),
        ("--passes", args.passes, args.passes >= 1, "at least 1"),
        ("--spacing", args.spacing, args.spacing > 0, "positive"),
        ("--contamination", args.contamination, 0 <= args.contamination < 1,
         "at least 0 and below 1"),
    )
    for flag, value, ok, requirement in rules:
        if not ok:
            raise DataError(f"{flag} must be {requirement}, got {value}")


def _cmd_synth(args) -> int:
    _check_synth_flags(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    env = make_environment(args.seed, width=args.roi_width, height=args.roi_height,
                           n_aps=args.n_aps, contamination=args.contamination)
    plan = SurveyPlan(seed=args.seed, n_passes=args.passes, sample_spacing=args.spacing)
    raw, test = generate_dataset(env, plan)
    env.save(out_dir / "env.json")
    write_fingerprints(out_dir / "raw.jsonl", raw.records)
    write_fingerprints(out_dir / "test.jsonl", test)
    print(f"wrote {len(raw.records)} survey records and {len(test)} test queries "
          f"to {out_dir}")
    return 0


def _cmd_build(args) -> int:
    cfg = _layer_config(BuilderConfig, args)
    # the builder never compares with the missing-value indicator
    records = read_fingerprints(args.raw, require_location=True, missing_value=None)
    rfm = build(RawRfm.from_records(records), cfg)
    rfm.save(args.out)
    print(f"built a map with {rfm.n_points} reference points and "
          f"{len(rfm.feature_ids)} features at {args.out}")
    return 0


def _cmd_locate(args) -> int:
    if args.threads < 1:
        raise DataError(f"--threads must be at least 1, got {args.threads}")
    cfg = _layer_config(PositioningConfig, args)
    rfm = ExtendedRfm.load(args.rfm)
    observations = read_fingerprints(args.obs, missing_value=cfg.missing_value)
    try:
        estimates = locate_batch(observations, rfm, cfg, method=args.method,
                                 threads=args.threads)
    except EmptyComparison as exc:
        raise DataError(str(exc), source=args.obs) from None
    except WeightOverflow as exc:  # beta against the map's spread layer
        raise DataError(str(exc), source=args.rfm) from None
    except OverflowError:
        raise DataError(f"a feature distance overflows at minkowski_p = {cfg.minkowski_p}",
                        source=args.obs) from None
    write_estimates(args.out, estimates)
    print(f"located {len(estimates)} queries ({args.method}) into {args.out}")
    return 0


def _read_run(path, truth_records) -> list:
    """The estimates in ``path``, which must pair up with the truth records:
    same count, and the same id record by record wherever the estimate
    carries one."""
    numbered = read_estimates(path, numbered=True)
    if len(numbered) != len(truth_records):
        raise DataError(f"{len(numbered)} estimates but {len(truth_records)} "
                        f"truth records", source=path)
    for (line, est), rec in zip(numbered, truth_records):
        if est.query_id is not None and est.query_id != rec.id:
            raise DataError(f"estimate id {est.query_id} does not match truth id "
                            f"{rec.id}", source=path, line=line)
    return [est for _, est in numbered]


def _cmd_eval(args) -> int:
    # the truth gives ids and locations: its feature values are never scored
    truth_records = read_fingerprints(args.truth, require_location=True, missing_value=None)
    estimates = _read_run(args.estimates, truth_records)
    truth = [rec.location for rec in truth_records]
    errors = evaluate.radial_errors(estimates, truth)
    shares = evaluate.tf_stats(estimates)
    header = ",".join(["n", evaluate.ERROR_COLUMNS, *(f"frac_{state}" for state in shares)])
    write_lines(args.out, evaluate.csv_lines(
        header, [(len(errors), *evaluate.error_row(errors), *shares.values())]))
    if args.ecdf_out:
        write_lines(args.ecdf_out, evaluate.ecdf_lines(errors))
    if args.errors_out:
        rows = [(loc.x, loc.y, err) for loc, err in zip(truth, errors)]
        write_lines(args.errors_out, evaluate.csv_lines("x,y,error", rows))
    print(f"scored {len(errors)} estimates into {args.out}")
    return 0


def _cmd_report(args) -> int:
    runs_dir = Path(args.runs)
    truth_path = Path(args.truth) if args.truth else runs_dir / "truth.jsonl"
    out_dir = Path(args.out_dir) if args.out_dir else runs_dir
    truth_records = read_fingerprints(truth_path, require_location=True, missing_value=None)
    runs = {}
    for path in sorted(runs_dir.glob("*.jsonl")):
        if path.resolve() == truth_path.resolve():
            continue
        # a run is named by its file stem, which becomes a report.csv cell
        if path.stem == "opt" or "," in path.stem:
            raise DataError(f"cannot name a run {path.stem!r}: 'opt' is the row of the "
                            f"path lower bound and a ',' would split the row", source=path)
        runs[path.stem] = _read_run(path, truth_records)
    if not runs:
        raise DataError("no estimate files found", source=runs_dir)
    table = evaluate.compare_report(runs, [rec.location for rec in truth_records])
    out_dir.mkdir(parents=True, exist_ok=True)  # only once there is a report to write
    write_lines(out_dir / "report.csv", table.csv_lines())
    for name, errors in table.errors.items():
        write_lines(out_dir / f"{name}_ecdf.csv", evaluate.ecdf_lines(errors))
    print(f"wrote report.csv and {len(table.errors)} ECDF files to {out_dir}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rfmloc",
        description="Variability-aware fingerprint maps and iterative positioning")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic survey dataset")
    p.add_argument("--seed", type=int, required=True, help="master random seed")
    p.add_argument("--out-dir", required=True, help="directory for env.json, raw.jsonl, test.jsonl")
    p.add_argument("--n-aps", type=int, default=12)
    p.add_argument("--roi-width", type=float, default=50.0)
    p.add_argument("--roi-height", type=float, default=30.0)
    p.add_argument("--passes", type=int, default=3)
    p.add_argument("--spacing", type=float, default=1.0)
    p.add_argument("--contamination", type=float, default=0.0)
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("build", help="build the extended map from survey records")
    p.add_argument("--raw", required=True, help="survey records (JSON lines)")
    p.add_argument("--out", required=True, help="output map path (JSON)")
    p.add_argument("--config", help="key = value config file")
    _add_config_flags(p, BuilderConfig)
    p.set_defaults(handler=_cmd_build)

    p = sub.add_parser("locate", help="position observations against a map")
    p.add_argument("--rfm", required=True, help="extended map (JSON)")
    p.add_argument("--obs", required=True, help="observations (JSON lines)")
    p.add_argument("--out", required=True, help="output estimates (JSON lines)")
    p.add_argument("--method", choices=["knn", "cdm", "iterative"], default="iterative")
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--threads", type=int, default=1)
    _add_config_flags(p, PositioningConfig)
    p.set_defaults(handler=_cmd_locate)

    p = sub.add_parser("eval", help="score estimates against ground truth")
    p.add_argument("--estimates", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--out", required=True, help="output statistics CSV")
    p.add_argument("--ecdf-out", help="optional ECDF CSV")
    p.add_argument("--errors-out", help="optional per-query (x, y, error) CSV")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("report", help="side-by-side method comparison")
    p.add_argument("--runs", required=True,
                   help="directory of <method>.jsonl estimate files plus truth.jsonl")
    p.add_argument("--truth", help="truth records (default: <runs>/truth.jsonl)")
    p.add_argument("--out-dir", help="output directory (default: the runs directory)")
    p.set_defaults(handler=_cmd_report)
    return parser


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {DataError(exc.strerror, source=exc.filename)}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
