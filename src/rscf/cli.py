"""Command-line front end.

Subcommands: ``run`` (one experiment), ``sweep`` (vary one config key over
a list), ``verify`` (consistency suite) and ``cluster-report`` (JSON dump
of one realization's clustering: the partition of the attempt the run
keeps, after redraws and with ``freeze_geometry`` applied).  Exit codes:
0 success, 1 configuration error (a malformed command line among them),
2 verification failure, 3 runtime failure.
"""
from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from . import clustering as clus
from . import config as cfg
from . import harness


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # a malformed command line is a configuration error; exit 2 marks a failed verification
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rscf",
        description="Clustered cell-free MU-MIMO downlink simulator with rate splitting")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out=True, workers=True):
        # each subcommand is offered only the flags it reads
        p.add_argument("--config", metavar="PATH", help="flat key=value config file")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override one config key (repeatable)")
        p.add_argument("--seed", type=int, help="master seed (overrides config)")
        if out:
            p.add_argument("--out", metavar="DIR", help="directory for the output files")
        if workers:
            p.add_argument("--workers", type=int, help="parallel realization workers")
        p.add_argument("--print-config", action="store_true",
                       help="echo the fully resolved config and exit")

    run = sub.add_parser("run", help="run one experiment over the SNR grid")
    common(run)
    run.add_argument("--dump-precoders", action="store_true",
                     help="also write realization 0's precoder matrices as JSON")

    sweep = sub.add_parser("sweep", help="re-run the experiment for each value of one key")
    common(sweep)
    sweep.add_argument("--key", required=True, help="config key to vary")
    sweep.add_argument("--values", required=True,
                       help="comma-separated values for the swept key")

    ver = sub.add_parser("verify", help="run the verification suite")
    common(ver, out=False)

    rep = sub.add_parser("cluster-report", help="print one realization's clustering as JSON")
    common(rep, workers=False)
    rep.add_argument("--realization", type=int, default=0,
                     help="realization index to report (default 0)")
    return parser


def _cmd_run(args, config: cfg.ExperimentConfig) -> int:
    records, _ = harness.run_experiment(config, out_dir=args.out)
    sys.stdout.write(harness.render_csv(records))
    if args.dump_precoders:
        dump = json.dumps(harness.dump_precoders(config), indent=2, sort_keys=True)
        if args.out:
            (Path(args.out) / "precoders.json").write_text(dump + "\n", encoding="utf-8")
        else:
            sys.stdout.write(dump + "\n")
    return 0


def _cmd_sweep(args, config: cfg.ExperimentConfig) -> int:
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise cfg.ConfigError("sweep needs at least one value")
    swept = [cfg.apply_pair(config, args.key, value) for value in values]
    for each in swept:  # every value is checked before the first one runs
        cfg.validate(each)
    for value, each in zip(values, swept):
        out = None
        if args.out:
            out = Path(args.out) / f"sweep_{args.key}={value}"
        sys.stdout.write(f"# {args.key} = {value}\n")
        records, _ = harness.run_experiment(each, out_dir=out)
        sys.stdout.write(harness.render_csv(records))
    return 0


def _cmd_verify(args, config: cfg.ExperimentConfig) -> int:
    from . import checks  # only here: a run never loads the checks
    report = checks.verify(config)
    sys.stdout.write(report.format() + "\n")
    return 0 if report.ok else 2


def _cmd_cluster_report(args, config: cfg.ExperimentConfig) -> int:
    if not 0 <= args.realization < config.n_realizations:
        raise cfg.ConfigError(f"--realization must lie in [0, n_realizations) = "
                              f"[0, {config.n_realizations}), got {args.realization}")
    partition = harness.cluster_partition(config, args.realization)
    payload = clus.cluster_report(partition)
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "cluster_report.json").write_text(text + "\n", encoding="utf-8")
    sys.stdout.write(text + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = cfg.resolve(args.config, args.overrides, seed=args.seed,
                             workers=getattr(args, "workers", None))
    except cfg.ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 1
    if args.print_config:
        sys.stdout.write(cfg.render(config))
        return 0
    handlers = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "verify": _cmd_verify,
        "cluster-report": _cmd_cluster_report,
    }
    try:
        return handlers[args.command](args, config)
    except cfg.ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 1
    except Exception as exc:  # runtime failure contract: exit 3
        sys.stderr.write(f"runtime error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
