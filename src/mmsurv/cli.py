"""Command-line entry point.

Subcommands cover the whole workflow: synthesize cohorts, train per-modality
encoders, train a fusion model, evaluate under a missingness scenario, run
the full ablation grid, check every analytic gradient, and print model
sizes. All randomness is seeded from mandatory flags and outputs carry no
timestamps, so identical invocations produce identical files.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import fields

from .atomic import atomic_write
from .cohort import (MODALITIES, SCENARIOS, Cohort, ModalityId, embedding_schema,
                     generate_synthetic, load_cohort, load_schema, save_cohort, save_schema,
                     scenario_by_name)
from .config import TrainConfig
from .errors import ConfigError, DataError, NumericalError
from .fusion import FUSION_KINDS, FusionStrategy, init_fusion_model, model_footprint
from .gradcheck import DEFAULT_STEP, DEFAULT_TOLERANCE, run_gradient_checks
from .pipeline import (DATA_REGIMES, MODES, ExperimentCell, _regime_pool,
                       default_synthetic_pair, evaluate, load_predictor, run_ablation_grid,
                       save_predictor, table_cells, train_cell, train_fusion_on_table)
from .unimodal import load_unimodal, save_unimodal, train_unimodal


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _int_at_least(low: int, wording: str):
    """An argparse type for ints of at least ``low``; a smaller value is a usage error."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be a {wording} integer, got {value}")
        return value
    return parse


_non_negative_int = _int_at_least(0, "non-negative")  # seeds and counts
_positive_int = _int_at_least(1, "positive")  # worker counts


def _add_quiet(p):
    p.add_argument("--quiet", action="store_true", help="suppress progress output")


def _add_config_flags(p, stage1=True, fusion=True):
    d = {f.name: f.default for f in fields(TrainConfig)}
    if stage1:
        p.add_argument("--stage1-epochs", type=int, default=d["stage1_epochs"])
        p.add_argument("--stage1-batch", type=int, default=d["stage1_batch"])
        p.add_argument("--stage1-lr", type=float, default=d["stage1_lr"])
    if fusion:
        p.add_argument("--fusion-epochs", type=int, default=d["fusion_epochs"])
        p.add_argument("--fusion-batch", type=int, default=d["fusion_batch"])
        p.add_argument("--fusion-lr", type=float, default=d["fusion_lr"])
        p.add_argument("--dropout-rate", type=float, default=d["dropout_rate"])
        p.add_argument("--lam", type=float, default=d["lam"],
                       help="reconstruction loss weight")
    p.add_argument("--patience", type=int, default=d["patience"])
    p.add_argument("--val-fraction", type=float, default=d["val_fraction"])
    p.add_argument("--optimizer", choices=("adam", "sgd"), default=d["optimizer"])
    p.add_argument("--bootstrap", type=_non_negative_int, default=d["bootstrap"],
                   help="bootstrap resamples for the c-index std")


def _config_from(args) -> TrainConfig:
    kwargs = {"seed": args.seed}
    for f in fields(TrainConfig):
        if f.name != "seed" and hasattr(args, f.name):
            kwargs[f.name] = getattr(args, f.name)
    return TrainConfig(**kwargs)


def _schema_path(args) -> str:
    return args.schema if args.schema else args.data + ".schema"


def _load_data(args) -> Cohort:
    return load_cohort(args.data, load_schema(_schema_path(args)))


def _progress(args):
    if args.quiet:
        return lambda msg: None
    return lambda msg: print(msg, flush=True)


def _print_config(args) -> None:
    # quiet runs keep the configuration record but move it off stdout
    stream = sys.stderr if getattr(args, "quiet", False) else sys.stdout
    skip = {"func", "cmd"}
    print("resolved configuration:", file=stream)
    for k, v in sorted(vars(args).items()):
        if k not in skip:
            print(f"  {k} = {v}", file=stream)


def _write_trace(trace, path: str) -> None:
    with atomic_write(path) as fh:
        w = csv.writer(fh)
        w.writerow(["epoch", "train_loss", "val_cindex"])
        for row in trace.epochs:
            w.writerow([row["epoch"], repr(float(row["train_loss"])),
                        "" if row["val_cindex"] is None else repr(float(row["val_cindex"]))])


# ── subcommands ──────────────────────────────────────────────────────────────

def _cmd_synth(args) -> int:
    cohort = generate_synthetic(args.n, args.seed, missing_rate=(args.missing_rate,) * 4,
                                censor_rate=args.censor_rate, mnar=args.mnar,
                                family_seed=args.family_seed)
    save_cohort(cohort, args.out)
    save_schema(cohort.schema, args.out + ".schema")
    if not args.quiet:
        avail = cohort.availability.sum(axis=0)
        counts = ", ".join(f"{m.label}={int(avail[m])}" for m in MODALITIES)
        print(f"wrote {len(cohort)} records ({cohort.n_events} events) to {args.out}")
        print(f"modality availability: {counts}")
    return 0


def _cmd_train_uni(args) -> int:
    cohort = _load_data(args)
    config = _config_from(args)
    notify = _progress(args)
    pool = _regime_pool(cohort, args.data_regime, f"stage 1 ({args.data_regime} data)")
    wanted = MODALITIES if args.modality == "all" else (ModalityId.from_name(args.modality),)
    os.makedirs(args.out_dir, exist_ok=True)
    for m in wanted:
        bundle = train_unimodal(pool, m, config)
        save_unimodal(bundle, os.path.join(args.out_dir, f"{m.label}.json"))
        _write_trace(bundle.trace, os.path.join(args.out_dir, f"{m.label}_trace.csv"))
        last = bundle.trace.epochs[-1]
        notify(f"{m.label}: {len(bundle.trace.epochs)} epochs, "
               f"final loss {last['train_loss']:.4f}, val c-index {last['val_cindex']}")
    return 0


def _load_encoder_dir(path: str) -> dict:
    out = {}
    for m in MODALITIES:
        f = os.path.join(path, f"{m.label}.json")
        if not os.path.exists(f):
            raise DataError(f"{path}: missing encoder checkpoint {m.label}.json")
        out[m] = load_unimodal(f)
        if out[m].modality != m:
            raise DataError(f"{f}: holds the {out[m].modality.label} encoder, not {m.label}")
    return out


def _is_embedding_table(cohort: Cohort) -> bool:
    return cohort.schema.raw_dims == embedding_schema(cohort.schema).raw_dims


def _cmd_train_fuse(args) -> int:
    if args.encoders and args.mode == "joint-scratch":
        raise ConfigError("--encoders does not apply to --mode joint-scratch, "
                          "which trains its encoders from scratch")
    cohort = _load_data(args)
    config = _config_from(args)
    cell = ExperimentCell(args.strategy, args.stage1_data, args.stage2_data,
                          dropout=args.dropout, recon=args.recon, mode=args.mode)
    encoders = _load_encoder_dir(args.encoders) if args.encoders else None
    if cell.mode == "two-stage" and encoders is None and _is_embedding_table(cohort):
        predictor = train_fusion_on_table(cohort, config, cell)
    else:
        predictor = train_cell(cohort, config, cell, stage1_encoders=encoders)
    os.makedirs(args.out_dir, exist_ok=True)
    save_predictor(predictor, os.path.join(args.out_dir, "model.json"))
    _write_trace(predictor.trace, os.path.join(args.out_dir, "fusion_trace.csv"))
    if not args.quiet:
        fp = model_footprint(predictor.fusion)
        last = predictor.trace.epochs[-1]
        print(f"trained {cell.label()} ({fp.total_params} fusion parameters)")
        print(f"{len(predictor.trace.epochs)} epochs, final loss {last['train_loss']:.4f}, "
              f"val c-index {last['val_cindex']}")
    return 0


def _cmd_eval(args) -> int:
    predictor = load_predictor(args.model)
    test = _load_data(args)
    result = evaluate(predictor, test, scenario_by_name(args.scenario),
                      args.bootstrap, args.seed)
    std = "n/a" if result.std is None else f"{result.std:.4f}"
    print(f"c-index {result.cindex:.4f} ± {std} "
          f"(n={result.n_test}, dropped={result.n_dropped}, scenario={args.scenario})")
    if args.out:
        payload = {"cindex": result.cindex, "std": result.std, "n_test": result.n_test,
                   "n_dropped": result.n_dropped, "n_resamples": result.n_resamples,
                   "scenario": args.scenario,
                   "bootstrap": args.bootstrap, "seed": args.seed}
        with atomic_write(args.out) as fh:
            json.dump(payload, fh, indent=2)
    return 0


def _cmd_ablate(args) -> int:
    if (args.train is None) != (args.test is None):
        raise ConfigError("--train and --test must be given together")
    if args.train:
        train = load_cohort(args.train, load_schema(args.train + ".schema"))
        test = load_cohort(args.test, load_schema(args.test + ".schema"))
    else:
        train, test = default_synthetic_pair(args.seed, n_train=args.n_train,
                                             n_test=args.n_test, missing=args.missing_rate,
                                             censor=args.censor_rate)
    cells = table_cells(scenarios=tuple(args.scenarios))
    if args.strategies:
        cells = [c for c in cells if c.strategy in args.strategies]
        if not cells:
            raise ConfigError(f"no grid cells left after filtering to {args.strategies}")
    config = _config_from(args)
    report = run_ablation_grid(train, test, cells, config, workers=args.workers,
                               out_dir=args.out_dir, progress=_progress(args))
    if not args.quiet:
        print(report.to_markdown_text(), end="")
    failed = [r for r in report.rows if r["error"]]
    if failed and not args.quiet:
        print(f"{len(failed)} cells failed; see report.json", file=sys.stderr)
    return 0


def _cmd_gradcheck(args) -> int:
    notify = _progress(args)
    results = run_gradient_checks(seed=args.seed, instances=args.instances,
                                  h=args.h, tolerance=args.tol, progress=notify)
    worst = max(r.max_rel_err for r in results)
    bad = [r.name for r in results if not r.passed]
    if bad:
        raise NumericalError(f"gradient checks failed: {', '.join(bad)} (worst rel err {worst:.3g})")
    if not args.quiet:
        print(f"all {len(results)} gradient checks passed (worst rel err {worst:.3g})")
    return 0


def _cmd_footprint(args) -> int:
    kinds = FUSION_KINDS if args.strategy == "all" else (args.strategy,)
    for kind in kinds:
        strategy = FusionStrategy(kind, embed_dim=args.embed_dim)
        model = init_fusion_model(strategy, seed=0, recon=args.recon)
        fp = model_footprint(model)
        print(f"{kind} (fused width {strategy.fused_dim}):")
        for name, count in fp.parts.items():
            print(f"  {name:24s} {count:10d}")
        print(f"  {'total':24s} {fp.total_params:10d}  ({fp.total_bytes} bytes)")
    return 0


# ── parser ───────────────────────────────────────────────────────────────────

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mmsurv",
                     description="Multi-modal survival prediction with missing modalities.")
    sub = parser.add_subparsers(dest="cmd", required=True, metavar="SUBCOMMAND")

    p = sub.add_parser("synth", parents=[], help="generate a synthetic cohort file",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--n", type=int, default=500, help="number of records")
    p.add_argument("--seed", type=_non_negative_int, required=True)
    p.add_argument("--out", required=True, help="cohort file path; schema goes to PATH.schema")
    p.add_argument("--missing-rate", type=float, default=0.3,
                   help="per-modality missingness probability")
    p.add_argument("--censor-rate", type=float, default=0.2)
    p.add_argument("--mnar", action="store_true",
                   help="make pathology missingness depend on risk")
    p.add_argument("--family-seed", type=_non_negative_int, default=0,
                   help="seed of the generative family shared across cohorts")
    _add_quiet(p)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train-uni", help="train per-modality encoders",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--data", required=True, help="cohort file")
    p.add_argument("--schema", default=None, help="schema file (default: DATA.schema)")
    p.add_argument("--seed", type=_non_negative_int, required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--modality", default="all",
                   choices=("all",) + tuple(m.label for m in MODALITIES))
    p.add_argument("--data-regime", choices=DATA_REGIMES, default="all",
                   help="train on all records or only complete-modality ones")
    _add_config_flags(p, fusion=False)
    _add_quiet(p)
    p.set_defaults(func=_cmd_train_uni)

    p = sub.add_parser("train-fuse", help="train a fusion model",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--data", required=True,
                   help="cohort file (raw features, or an embedding table)")
    p.add_argument("--schema", default=None)
    p.add_argument("--seed", type=_non_negative_int, required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--strategy", choices=FUSION_KINDS, required=True)
    p.add_argument("--encoders", default=None,
                   help="directory of train-uni checkpoints; omit to train encoders "
                        "here (raw data) or to fuse an embedding table directly")
    p.add_argument("--mode", choices=MODES, default="two-stage")
    p.add_argument("--stage1-data", choices=DATA_REGIMES, default="all")
    p.add_argument("--stage2-data", choices=DATA_REGIMES, default="all")
    p.add_argument("--dropout", action="store_true", help="enable modality dropout")
    p.add_argument("--recon", action="store_true", help="add the reconstruction loss")
    _add_config_flags(p)
    _add_quiet(p)
    p.set_defaults(func=_cmd_train_fuse)

    p = sub.add_parser("eval", help="score a trained model on a cohort",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--model", required=True, help="predictor checkpoint from train-fuse")
    p.add_argument("--data", required=True, help="test cohort file")
    p.add_argument("--schema", default=None)
    p.add_argument("--scenario", choices=sorted(SCENARIOS), default="complete")
    p.add_argument("--bootstrap", type=_non_negative_int, default=1000)
    p.add_argument("--seed", type=_non_negative_int, required=True)
    p.add_argument("--out", default=None, help="also write metrics to this JSON file")
    _add_quiet(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("ablate", help="run the ablation grid and write reports",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--seed", type=_non_negative_int, required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--train", default=None, help="training cohort (default: synthesize)")
    p.add_argument("--test", default=None, help="test cohort (default: synthesize)")
    p.add_argument("--n-train", type=int, default=500)
    p.add_argument("--n-test", type=int, default=200)
    p.add_argument("--missing-rate", type=float, default=0.3)
    p.add_argument("--censor-rate", type=float, default=0.2)
    p.add_argument("--strategies", nargs="+", choices=FUSION_KINDS, default=None,
                   help="restrict the grid to these fusion strategies")
    p.add_argument("--scenarios", nargs="+", choices=sorted(SCENARIOS),
                   default=("complete", "pathology-missing", "gene-pathology-missing"))
    p.add_argument("--workers", type=_positive_int, default=1)
    _add_config_flags(p)
    _add_quiet(p)
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("gradcheck", help="verify analytic gradients by finite differences",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--instances", type=int, default=50)
    p.add_argument("--h", type=float, default=DEFAULT_STEP, help="finite-difference step")
    p.add_argument("--tol", type=float, default=DEFAULT_TOLERANCE,
                   help="relative error tolerance")
    _add_quiet(p)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("footprint", help="print fusion model parameter counts",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--strategy", choices=FUSION_KINDS + ("all",), default="all")
    p.add_argument("--embed-dim", type=int, default=32)
    p.add_argument("--recon", action="store_true", help="include a reconstruction head")
    _add_quiet(p)
    p.set_defaults(func=_cmd_footprint)

    return parser


def main(argv=None) -> int:
    # the c-index line and the reports print "±": write UTF-8 whatever the locale
    for stream in (sys.stdout, sys.stderr):
        if hasattr(stream, "reconfigure"):
            stream.reconfigure(encoding="utf-8", errors=stream.errors)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except SystemExit as e:  # --help
        return 0 if not e.code else int(e.code)
    _print_config(args)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (DataError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
