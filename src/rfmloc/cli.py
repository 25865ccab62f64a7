"""Command line interface: synth, build, locate, eval, report.

Exit codes: 0 on success, 1 on bad or unreadable input (one
``error: <file>[:<line>]: ...`` line on stderr), 2 on usage errors.
Values given as flags override the config file, which overrides the
built-in defaults.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from dataclasses import fields
from pathlib import Path

from rfmloc import evaluate
from rfmloc.builder import BuilderConfig, build
from rfmloc.dissim import EmptyComparison
from rfmloc.model import (DataError, ExtendedRfm, PositioningConfig, RawRfm,
                          read_estimates, read_fingerprints, read_lines, write_estimates,
                          write_fingerprints)
from rfmloc.positioner import locate_batch
from rfmloc.synth import SurveyPlan, generate_dataset, make_environment

_WEIGHT_FORMS = {"paper": "paper_verbatim", "precision": "precision_softmax"}


def _layer_config(cls, config_path, overrides: dict):
    """Build a config dataclass from defaults, then file values, then flags.

    The file holds ``key = value`` lines; blank lines and lines starting
    with ``#`` are ignored.
    """
    coercers = {"int": int, "float": float, "str": str}
    spec = {f.name: coercers[f.type] for f in fields(cls)}

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

    file_values = dict(read_lines(config_path, parse)) if config_path is not None else {}
    flags = {key: value for key, value in overrides.items() if value is not None}
    # the defaults are valid, so a failure here is a flag's, and one after it the file's
    try:
        cls(**flags)
    except ValueError as exc:
        raise DataError(str(exc)) from None
    try:
        return cls(**{**file_values, **flags})
    except ValueError as exc:
        raise DataError(str(exc), source=config_path) from None


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
    overrides = {
        "max_neighbors": args.max_neighbors, "radius": args.radius,
        "ks_neighbors": args.ks_neighbors, "bandwidth": args.bandwidth,
        "mad_scale": args.mad_scale, "sigma_floor": args.sigma_floor,
    }
    cfg = _layer_config(BuilderConfig, args.config, overrides)
    records = read_fingerprints(args.raw, require_location=True)
    rfm = build(RawRfm.from_records(records), cfg)
    rfm.save(args.out)
    print(f"built a map with {rfm.n_points} reference points and "
          f"{len(rfm.feature_ids)} features at {args.out}")
    return 0


def _positioning_overrides(args) -> dict:
    overrides = {
        "alpha1": args.alpha1, "alpha2": args.alpha2,
        "missing_value": args.missing_value, "beta": args.beta, "k": args.k,
        "converge_tol": args.converge_tol, "max_iterations": args.max_iterations,
        "loop_min_points": args.loop_min_points,
        "loop_max_diameter": args.loop_max_diameter,
        "minkowski_p": args.minkowski_p, "init_mode": args.init_mode,
        "init_seed": args.seed,
    }
    if args.weight_form is not None:
        overrides["weight_form"] = _WEIGHT_FORMS[args.weight_form]
    return overrides


def _cmd_locate(args) -> int:
    if args.threads < 1:
        raise DataError(f"--threads must be at least 1, got {args.threads}")
    cfg = _layer_config(PositioningConfig, args.config, _positioning_overrides(args))
    rfm = ExtendedRfm.load(args.rfm)
    observations = read_fingerprints(args.obs, missing_value=cfg.missing_value)
    try:
        estimates = locate_batch(observations, rfm, cfg, method=args.method,
                                 threads=args.threads)
    except EmptyComparison as exc:
        raise DataError(str(exc), source=args.obs) from None
    write_estimates(args.out, estimates)
    print(f"located {len(estimates)} queries ({args.method}) into {args.out}")
    return 0


def _check_aligned(numbered, truth_records, source) -> list:
    """The estimates of ``numbered`` (line, estimate) pairs, which must pair
    up with the truth records: same count, and the same id record by record
    wherever the estimate carries one."""
    if len(numbered) != len(truth_records):
        raise DataError(f"{len(numbered)} estimates but {len(truth_records)} "
                        f"truth records", source=source)
    for (line, est), rec in zip(numbered, truth_records):
        if est.query_id is not None and est.query_id != rec.id:
            raise DataError(f"estimate id {est.query_id} does not match truth id "
                            f"{rec.id}", source=source, line=line)
    return [est for _, est in numbered]


def _cmd_eval(args) -> int:
    numbered = read_estimates(args.estimates, numbered=True)
    truth_records = read_fingerprints(args.truth, require_location=True)
    estimates = _check_aligned(numbered, truth_records, args.estimates)
    truth = [rec.location for rec in truth_records]
    errors = evaluate.radial_errors(estimates, truth)
    shares = evaluate.tf_stats(estimates)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "ce50", "ce75", "ce90", "max_error",
                     "frac_converging", "frac_looping", "frac_max"])
    writer.writerow([len(errors),
                     repr(evaluate.circular_error(errors, 50)),
                     repr(evaluate.circular_error(errors, 75)),
                     repr(evaluate.circular_error(errors, 90)),
                     repr(evaluate.circular_error(errors, 100)),
                     repr(shares["converging"]), repr(shares["looping"]),
                     repr(shares["max"])])
    Path(args.out).write_text(buf.getvalue(), encoding="utf-8")
    if args.ecdf_out:
        Path(args.ecdf_out).write_text(evaluate.ecdf_csv(errors), encoding="utf-8")
    if args.errors_out:
        lines = ["x,y,error"]
        for loc, err in evaluate.error_map(estimates, truth):
            lines.append(f"{loc.x!r},{loc.y!r},{err!r}")
        Path(args.errors_out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"scored {len(errors)} estimates into {args.out}")
    return 0


def _cmd_report(args) -> int:
    runs_dir = Path(args.runs)
    truth_path = Path(args.truth) if args.truth else runs_dir / "truth.jsonl"
    out_dir = Path(args.out_dir) if args.out_dir else runs_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    truth_records = read_fingerprints(truth_path, require_location=True)
    truth = [rec.location for rec in truth_records]
    runs = {}
    for path in sorted(runs_dir.glob("*.jsonl")):
        if path.resolve() == truth_path.resolve():
            continue
        runs[path.stem] = _check_aligned(read_estimates(path, numbered=True),
                                         truth_records, path)
    if not runs:
        raise DataError("no estimate files found", source=runs_dir)
    table = evaluate.compare_report(runs, truth)
    (out_dir / "report.csv").write_text(table.to_csv(), encoding="utf-8")
    for name, errors in table.errors.items():
        (out_dir / f"{name}_ecdf.csv").write_text(evaluate.ecdf_csv(errors),
                                                  encoding="utf-8")
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
    p.add_argument("--max-neighbors", type=int)
    p.add_argument("--radius", type=float)
    p.add_argument("--ks-neighbors", type=int)
    p.add_argument("--bandwidth", type=float)
    p.add_argument("--mad-scale", type=float)
    p.add_argument("--sigma-floor", type=float)
    p.set_defaults(handler=_cmd_build)

    p = sub.add_parser("locate", help="position observations against a map")
    p.add_argument("--rfm", required=True, help="extended map (JSON)")
    p.add_argument("--obs", required=True, help="observations (JSON lines)")
    p.add_argument("--out", required=True, help="output estimates (JSON lines)")
    p.add_argument("--method", choices=["knn", "cdm", "iterative"], default="iterative")
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--weight-form", choices=sorted(_WEIGHT_FORMS))
    p.add_argument("--seed", type=int, help="seed for random initialization")
    p.add_argument("--alpha1", type=float)
    p.add_argument("--alpha2", type=float)
    p.add_argument("--missing-value", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--k", type=int)
    p.add_argument("--converge-tol", type=float)
    p.add_argument("--max-iterations", type=int)
    p.add_argument("--loop-min-points", type=int)
    p.add_argument("--loop-max-diameter", type=float)
    p.add_argument("--minkowski-p", type=float)
    p.add_argument("--init-mode", choices=["knn", "random"])
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
