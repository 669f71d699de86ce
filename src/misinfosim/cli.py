"""Command-line interface.

Subcommands:

    stats        dataset summary (users, items, interactions, density, labels)
    synth        generate a synthetic labeled dataset from a config file
    ratio-build  rebuild every profile at an exact misinformation ratio
    run          metrics for the typical recommender configurations
    sweep        metrics for the full configuration grid
    simulate     closed feedback loop with per-cycle metrics

Exit codes: 0 success, 1 configuration or usage error, 2 data error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from typing import Optional, Sequence

from .config import (
    experiment_config,
    load_config,
    resolve_dataset,
    sim_config,
    synth_config,
)
from .dataset import (
    compute_stats,
    load_dataset,
    save_dataset,
    stats_csv,
    validate_dataset,
)
from .errors import ConfigError, DataError, MisinfoSimError
from .experiment import (
    REPORT_CSV_HEADER,
    render_table,
    aggregate_levels,
    emit_aggregate,
    emit_report,
    run_grid,
)
from .metrics import MetricReport
from .profiles import RatioSpec, build_ratio_dataset
from .recommenders import RecommenderConfig
from .simulate import run_simulation
from .synth import generate_synthetic, provenance_text


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; route them to the
    configuration-error exit code instead."""

    def error(self, message: str):
        raise ConfigError(f"usage: {message}")


def _write(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise DataError(f"cannot write {path}: {exc}") from exc


def _cmd_stats(args: argparse.Namespace) -> int:
    ds = load_dataset(args.interactions, args.labels)
    report = validate_dataset(ds)
    if report.orphan_users:
        print(f"warning: {len(report.orphan_users)} users have no interactions", file=sys.stderr)
    if report.orphan_items:
        print(f"warning: {len(report.orphan_items)} items have no interactions", file=sys.stderr)
    csv_text = stats_csv(compute_stats(ds))
    if args.format == "csv":
        _write(csv_text, args.out)
    else:
        table = [line.split(",") for line in csv_text.strip().splitlines()]
        _write(render_table(table, "text"), args.out)
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    cfg = synth_config(load_config(args.config))
    ds = generate_synthetic(cfg)
    save_dataset(ds, args.interactions, args.labels)
    if args.provenance:
        _write(provenance_text(cfg), args.provenance)
    stats = compute_stats(ds)
    print(
        f"wrote {stats.interaction_count} interactions for {stats.user_count} users, "
        f"{stats.item_count} items ({stats.misinfo_item_count} labeled)",
        file=sys.stderr,
    )
    return 0


def _cmd_ratio_build(args: argparse.Namespace) -> int:
    ds = load_dataset(args.interactions, args.labels)
    ratio = RatioSpec.parse(args.ratio)
    rebuilt = build_ratio_dataset(ds, ratio, args.seed)
    save_dataset(rebuilt, args.out_interactions, args.out_labels)
    print(
        f"ratio {ratio.label()}: kept {rebuilt.n_users}/{ds.n_users} users, "
        f"{rebuilt.n_items}/{ds.n_items} items, {rebuilt.n_interactions} interactions",
        file=sys.stderr,
    )
    return 0


def _cmd_grid(args: argparse.Namespace, typical_only: bool) -> int:
    parser = load_config(args.config)
    ds = resolve_dataset(parser)
    cfg = experiment_config(parser, args.seed, typical_only=typical_only)
    rows = run_grid(ds, cfg, workers=args.workers)
    _write(emit_report(rows, args.format), args.out)
    if args.aggregate_out:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            agg = aggregate_levels(rows, args.aggregate_dim)
        for warning in caught:
            print(f"warning: {warning.message}", file=sys.stderr)
        if not agg:
            raise ConfigError(
                "nothing to aggregate: no MF/UB/IB rows at cutoff 10; add 10 to [metrics] cutoffs"
            )
        _write(emit_aggregate(agg, args.format), args.aggregate_out)
    failures = sum(1 for row in rows if row.error is not None)
    if failures:
        print(f"warning: {failures} grid cells failed; see error rows", file=sys.stderr)
    return 0


def _sim_table(cycle: int, cfg: RecommenderConfig, report: MetricReport) -> list[str]:
    return [
        str(cycle),
        cfg.kind,
        cfg.params_label(),
        str(report.cutoff),
        f"{report.mc:.3f}",
        f"{report.mrd:.3f}",
        f"{report.mg:.3f}",
    ]


def _cmd_simulate(args: argparse.Namespace) -> int:
    parser = load_config(args.config)
    ds = resolve_dataset(parser)
    cfg = sim_config(parser, args.seed)
    reports = run_simulation(ds, cfg)
    table = [["cycle"] + REPORT_CSV_HEADER.split(",")[1:]]
    for cycle_report in reports:
        stats = cycle_report.stats
        shares = stats.per_user_misinfo_ratio
        mean_share = sum(shares) / len(shares) if shares else 0.0
        print(
            f"cycle {cycle_report.cycle}: interactions={stats.interaction_count} "
            f"(+{cycle_report.new_interactions}), density={100 * stats.density:.3f}%, "
            f"mean profile misinfo share={mean_share:.3f}",
            file=sys.stderr,
        )
        for rec_cfg, metric_report in cycle_report.metrics:
            table.append(_sim_table(cycle_report.cycle, rec_cfg, metric_report))
    _write(render_table(table, args.format), args.out)
    return 0


def _add_dataset_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--interactions", required=True, help="interactions TSV (user<TAB>item)")
    sub.add_argument("--labels", required=True, help="labels TSV (item<TAB>misinfo|neutral)")


def _add_output_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", default=None, help="write the report here instead of stdout")
    sub.add_argument("--format", choices=("csv", "text"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="misinfosim", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True)

    p_stats = subs.add_parser("stats", help="summarize a labeled interaction dataset")
    _add_dataset_args(p_stats)
    _add_output_args(p_stats)
    p_stats.set_defaults(func=_cmd_stats)

    p_synth = subs.add_parser("synth", help="generate a synthetic dataset from [synth] config")
    p_synth.add_argument("--config", required=True)
    p_synth.add_argument("--interactions", required=True, help="output interactions TSV")
    p_synth.add_argument("--labels", required=True, help="output labels TSV")
    p_synth.add_argument("--provenance", default=None, help="also write the generating config here")
    p_synth.set_defaults(func=_cmd_synth)

    p_ratio = subs.add_parser("ratio-build", help="rebuild profiles at an exact misinformation ratio")
    _add_dataset_args(p_ratio)
    p_ratio.add_argument("--ratio", required=True, help="target ratio, e.g. 1/5 or 0.2 or none")
    p_ratio.add_argument("--seed", type=int, default=0)
    p_ratio.add_argument("--out-interactions", required=True)
    p_ratio.add_argument("--out-labels", required=True)
    p_ratio.set_defaults(func=_cmd_ratio_build)

    for name, typical, help_text in (
        ("run", True, "metrics for the typical configurations across ratios"),
        ("sweep", False, "metrics for the full configuration grid across ratios"),
    ):
        p_grid = subs.add_parser(name, help=help_text)
        p_grid.add_argument("--config", required=True)
        p_grid.add_argument("--seed", type=int, default=0, help="master seed for the whole run")
        p_grid.add_argument("--workers", type=int, default=1)
        _add_output_args(p_grid)
        p_grid.add_argument("--aggregate-out", default=None, help="also write level-aggregated MC@10 here")
        p_grid.add_argument("--aggregate-dim", choices=("size", "extra"), default="size")
        p_grid.set_defaults(func=lambda a, _t=typical: _cmd_grid(a, typical_only=_t))

    p_sim = subs.add_parser("simulate", help="closed feedback loop with per-cycle metrics")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--seed", type=int, default=0)
    _add_output_args(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except MisinfoSimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
