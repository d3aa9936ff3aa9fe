"""Command-line entry point.

The stagewise subcommands each run one entry of `experiment.STAGES`
against a run directory, in the order of the table, and load what the
earlier entries left there:

    generate   write config.ini and the dataset files
    train      train one transducer (--mode)
    train-lms  train the source and external character LMs
    decode     write an n-best file for one model and split (needs the LMs)
    rescore    tune fusion weights on dev and report WERs (--condition)

The others read a run directory or run the whole experiment:

    score      WER of a decoded n-best file against the references
    verify     recompute every reported WER from stored artifacts
    report     re-render report.txt from report.json
    run        the whole experiment

Exit codes: 0 success, 1 validation failure (bad config/data/arguments),
2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .data import atomic_write
from .errors import ConfigError, ContractViolation, DimensionError, IngestError, WorkbenchError
from .experiment import (
    CONDITIONS,
    STAGES,
    ExperimentReport,
    Run,
    artifact,
    default_config,
    format_config,
    load_cached_nbests,
    load_report,
    load_run_data,
    parse_config,
    render_report,
    run_experiment,
    verify_report,
    weights_from_dict,
    with_settings,
)
from .fusion import FusionWeights, top1_wer

# The stagewise subcommands, by the `STAGES` entry each runs.
STAGE_COMMANDS = {"generate": "generate", "train": "train", "train-lms": "train_lms",
                  "decode": "decode", "rescore": "fuse_score"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="transducer-workbench",
                                     description="Desk-scale neural transducer workbench")
    parser.add_argument("--config", type=Path, help="experiment config file (.ini)")
    parser.add_argument("--run-dir", type=Path, default=Path("run"), help="artifact directory")
    parser.add_argument("--seed", type=int, help="override [experiment] seed")
    parser.add_argument(
        "--log-level",
        default="WARNING",
        choices=("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"),
        help="least severe workbench log message to emit, e.g. ERROR hides combination's "
        "length-cap warning (default: WARNING)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("generate", help="write config.ini and synthesize dataset files")

    p_train = sub.add_parser("train", help="train one transducer")
    p_train.add_argument("--mode", default=None, help="joint mode (default: first configured)")

    sub.add_parser("train-lms", help="train the source and external character LMs")

    p_decode = sub.add_parser("decode", help="decode one split with one model (needs the LMs)")
    p_decode.add_argument("--mode", default=None)
    p_decode.add_argument("--split", default="test", choices=("dev", "test"))

    p_rescore = sub.add_parser("rescore", help="tune fusion weights and report WER")
    p_rescore.add_argument("--condition", default="density_ratio", choices=CONDITIONS)

    p_score = sub.add_parser("score", help="score an n-best file (top-1 by stored weights)")
    p_score.add_argument("--nbest", type=Path, required=True)
    p_score.add_argument("--split", default="test", choices=("dev", "test"))
    p_score.add_argument("--weights", type=Path, help="weights json (default: transducer only)")

    sub.add_parser("verify", help="recompute reported WERs from artifacts")
    sub.add_parser("report", help="re-render the text report")
    sub.add_parser("run", help="run the full experiment")
    sub.add_parser("default-config", help="print the default config file")
    return parser


def _load_config(args) -> dict:
    if args.config is not None:
        config = parse_config(args.config)
    else:
        config = default_config()
    if args.seed is not None:
        config = with_settings(config, "experiment", seed=args.seed)
    return config


def _mode(args, config) -> str:
    mode = args.mode or config["model"]["modes"][0]
    if mode not in config["model"]["modes"]:
        raise ConfigError(f"mode {mode!r} not in configured modes")
    return mode


def _dispatch(args) -> int:
    config = _load_config(args)
    run_dir = args.run_dir

    if args.command == "default-config":
        print(format_config(config), end="")
        return 0

    if args.command == "run":
        report = run_experiment(config, run_dir)
        print(render_report(report), end="")
        return 0 if report.failure_stage is None else 2

    if args.command == "verify":
        problems = verify_report(run_dir)
        if problems:
            for p in problems:
                print(f"MISMATCH {p}")
            return 2
        print("report verified: all WERs reproducible from artifacts")
        return 0

    if args.command == "report":
        text = render_report(ExperimentReport.from_dict(load_report(run_dir)))
        with atomic_write(run_dir / artifact("report", "txt")) as f:
            f.write(text)
        print(text, end="")
        return 0

    if args.command == "score":
        alphabet, datasets = load_run_data(config, run_dir, (args.split,))
        cached = load_cached_nbests(args.nbest, alphabet, datasets[args.split])
        weights = FusionWeights() if args.weights is None else weights_from_dict(
            json.loads(args.weights.read_text()))
        wer = top1_wer(cached, weights)
        print(f"{args.split} WER {100 * wer:.2f}% ({args.nbest})")
        return 0

    # One stage; only generate may start a run directory.
    if args.command == "rescore":
        config = with_settings(config, "experiment", conditions=(args.condition,))
    run = Run(config, run_dir, modes=(_mode(args, config),) if "mode" in args else None,
              splits=(args.split,) if "split" in args else None)
    STAGES[STAGE_COMMANDS[args.command]](run)
    for mode, records in run.report.epochs.items():
        print(f"trained {mode}: final train NLL {records[-1]['train_nll']:.4f}, "
              f"dev WER {100 * (records[-1]['dev_wer'] or 0):.2f}%" if records
              else f"loaded existing checkpoint for {mode} (epochs=0)")
    for condition, entries in run.report.conditions.items():
        for name, entry in entries.items():
            print(f"{condition} [{name}]: dev WER {100 * entry['dev_wer']:.2f}%, "
                  f"test WER {100 * entry['test_wer']:.2f}%, weights {entry['weights']}")
    print(f"{args.command}: done under {run_dir}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.getLogger(__package__).setLevel(args.log_level)
    try:
        return _dispatch(args)
    except (ConfigError, IngestError, ContractViolation, DimensionError,
            FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except WorkbenchError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
