"""Command-line entry point.

Subcommands mirror the pipeline stages so each is independently re-runnable
against the same run directory:

    generate   synthesize the dataset files
    train      train one transducer (--mode)
    decode     write an n-best file for one model and split
    rescore    tune fusion weights on dev and report WERs (--condition)
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

from .data import atomic_write, read_transcripts
from .errors import ConfigError, ContractViolation, IngestError, WorkbenchError
from .experiment import (
    CONDITIONS,
    decode_to_nbest,
    default_config,
    format_config,
    load_report,
    load_run_data,
    parse_config,
    render_report,
    run_experiment,
    stage_fusion_conditions,
    stage_generate,
    stage_train_mode,
    verify_report,
    weights_from_dict,
    with_settings,
    ExperimentReport,
    config_fingerprint,
)
from .fusion import FusionWeights, cached_nbests, read_nbest, top1_wer
from .model import load_char_lm, load_checkpoint
from .numerics import RandomStream


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transducer-workbench",
        description="Desk-scale neural transducer workbench",
    )
    parser.add_argument("--config", type=Path, help="experiment config file (.ini)")
    parser.add_argument("--run-dir", type=Path, default=Path("run"), help="artifact directory")
    parser.add_argument("--seed", type=int, help="override [experiment] seed")
    parser.add_argument(
        "--log-level",
        default="WARNING",
        choices=("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"),
        help="least severe workbench log message to emit, e.g. ERROR hides the greedy-fallback "
        "and length-cap warnings (default: WARNING)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("generate", help="synthesize dataset files")

    p_train = sub.add_parser("train", help="train one transducer")
    p_train.add_argument("--mode", default=None, help="joint mode (default: first configured)")

    p_decode = sub.add_parser("decode", help="decode one split with one model")
    p_decode.add_argument("--mode", default=None)
    p_decode.add_argument("--split", default="test", choices=("dev", "test"))

    p_rescore = sub.add_parser("rescore", help="tune fusion weights and report WER")
    p_rescore.add_argument(
        "--condition",
        default="density_ratio",
        choices=CONDITIONS,
    )

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
    seed = config["experiment"]["seed"]
    rng = RandomStream(seed)

    if args.command == "default-config":
        print(format_config(config), end="")
        return 0

    # Only `generate` and `run` may start a run directory; every other
    # command reads files that must already be in it.
    if args.command == "generate":
        run_dir.mkdir(parents=True, exist_ok=True)
        stage_generate(config, run_dir, rng.child(100))
        print(f"wrote dataset under {run_dir} (config {config_fingerprint(config)})")
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
        with atomic_write(run_dir / "report.txt") as f:
            f.write(text)
        print(text, end="")
        return 0

    # Remaining commands operate on generated data files.
    alphabet, datasets = load_run_data(config, run_dir)

    if args.command == "train":
        mode = _mode(args, config)
        idx = config["model"]["modes"].index(mode)
        _, result = stage_train_mode(
            config, run_dir, rng.child(200 + idx), datasets, alphabet, mode
        )
        last = result.metrics[-1] if result.metrics else None
        if last is not None:
            print(
                f"trained {mode}: final train NLL {last.train_nll:.4f}, "
                f"dev WER {100 * (last.dev_wer or 0):.2f}%"
            )
        else:
            print(f"loaded existing checkpoint for {mode} (epochs=0)")
        return 0

    if args.command == "decode":
        mode = _mode(args, config)
        model, _ = load_checkpoint(run_dir / f"model_{mode}.npz")
        try:
            source_lm, _ = load_char_lm(run_dir / "lm_source.npz")
            external_lm, _ = load_char_lm(run_dir / "lm_external.npz")
        except FileNotFoundError:
            # No LMs trained yet: the LM columns are written as 0.0, and
            # only decoding again once the LMs exist fills them.
            source_lm = external_lm = None
        out = run_dir / f"nbest_{mode}_{args.split}.tsv"
        decode_to_nbest(out, model, datasets[args.split], config, alphabet, source_lm, external_lm)
        print(f"wrote {out}")
        return 0

    if args.command == "rescore":
        if args.condition == "combination" and len(config["model"]["modes"]) < 2:
            raise ConfigError("combination rescoring needs two trained modes")
        models = {}
        for mode in config["model"]["modes"]:
            models[mode], _ = load_checkpoint(run_dir / f"model_{mode}.npz")
        report = ExperimentReport(
            config_fingerprint=config_fingerprint(config), seed=seed,
            modes=list(models),
        )
        # The LM columns come from the n-best files; the LMs are not read.
        stage_fusion_conditions(with_settings(config, "experiment", conditions=(args.condition,)),
                                run_dir, models, datasets, alphabet, None, None, report)
        for name, entry in report.conditions[args.condition].items():
            print(
                f"{args.condition} [{name}]: dev WER {100 * entry['dev_wer']:.2f}%, "
                f"test WER {100 * entry['test_wer']:.2f}%, weights {entry['weights']}"
            )
        return 0

    if args.command == "score":
        refs = read_transcripts(run_dir / f"transcripts_{args.split}.tsv", alphabet)
        cached = cached_nbests(read_nbest(args.nbest, alphabet), alphabet, refs)
        if args.weights is not None:
            weights = weights_from_dict(json.loads(args.weights.read_text()))
        else:
            weights = FusionWeights()
        wer = top1_wer(cached, weights)
        print(f"{args.split} WER {100 * wer:.2f}% ({args.nbest})")
        return 0

    raise ConfigError(f"unknown command {args.command}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.getLogger(__package__).setLevel(args.log_level)
    try:
        return _dispatch(args)
    except (ConfigError, IngestError, ContractViolation, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except WorkbenchError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
