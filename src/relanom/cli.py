"""Command-line interface: fit, score, explain, grid, compare, synth, ecdf.

Model files are versioned JSON; every output file is written atomically.
Exit code 0 on success, 1 with a one-line diagnostic on stderr otherwise
(argparse itself exits 2 on unknown flags).
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings

import numpy as np

from .dataset import Dataset, load_csv, write_csv
from .graph import DistanceMetric, dump_graph
from .model_io import (DEFAULT_GAMMA, METHODS, SETTINGS, defaults, fit_config, fit_model,
                       load_model, save_model)
from .popularity import STARTS
from .preprocess import PREPROCESSORS
from .scoring import explain_deviations, label_top_fraction
from .synth import DATASETS, LABEL_ANOMALOUS

__all__ = ["main"]

_METRICS = {"l2": DistanceMetric.EUCLIDEAN, "l1": DistanceMetric.MANHATTAN}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relanom",
        description="Relative anomaly detection on kernel similarity graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    preprocess = dict(choices=PREPROCESSORS, default=defaults(fit_model)["preprocess"])
    top_fraction = dict(type=float, default=defaults(label_top_fraction)["fraction"])
    flag = {metric: name for name, metric in _METRICS.items()}  # --metric's value of a metric

    fit = sub.add_parser("fit", help="fit a detector and write a model file")
    fit.set_defaults(handler=_cmd_fit)
    fit.add_argument("--method", required=True, choices=sorted(METHODS))
    fit.add_argument("--input", required=True,
                     help="training CSV (header row; a trailing 'label' column is ignored)")
    fit.add_argument("--output", "--model", dest="model", required=True,
                     help="output model JSON path")
    fit.add_argument("--gamma", type=float, default=None,
                     help="kernel bandwidth (default depends on method)")
    fit.add_argument("--metric", choices=_METRICS, default=flag[defaults(fit_model)["metric"]])
    fit.add_argument("--preprocess", **preprocess)
    _setting(fit, "q", "normal-set fraction", type=float)
    _setting(fit, "k", "kNN degree of the path graph, dense when unset", type=int)
    _setting(fit, "sparsify", "drop this fraction of the smallest similarity pairs", type=float)
    _setting(fit, "start", "power iteration start vector", choices=STARTS)
    _setting(fit, "rff_dim", "random Fourier features of --start rff", type=int)
    _setting(fit, "tol", "power iteration tolerance", type=float)
    _setting(fit, "max_iter", "power iteration step limit", type=int)
    _setting(fit, "seed", "seed of --start random or rff", type=int)
    fit.add_argument("--train-scores", default=None,
                     help="also write per-row training scores to this CSV")
    fit.add_argument("--dump-graph", default=None,
                     help="write the fitted graph in i,j,s coordinate format")

    score = sub.add_parser("score", help="score new observations with a model")
    score.set_defaults(handler=_cmd_score)
    score.add_argument("--model", required=True)
    score.add_argument("--input", required=True)
    score.add_argument("--output", required=True)
    score.add_argument("--top-fraction", **top_fraction)
    score.add_argument("--neg-log-display", action="store_true",
                       help="add a -ln(-score) display column")

    explain = sub.add_parser("explain", help="explain one observation's deviation")
    explain.set_defaults(handler=_cmd_explain)
    explain.add_argument("--model", required=True)
    explain.add_argument("--input", required=True)
    explain.add_argument("--row", type=int, default=0)
    explain.add_argument("--p-normal", type=float, default=0.5,
                         help="DORA threshold under which training points count as normal")
    explain.add_argument("--metric", choices=_METRICS,
                         default=flag[defaults(explain_deviations)["metric"]])
    explain.add_argument("--output", default=None, help="optional CSV output")

    synth = sub.add_parser("synth", help="generate a labeled synthetic dataset")
    synth.set_defaults(handler=_cmd_synth)
    synth.add_argument("--dataset", required=True, choices=DATASETS)
    for name, default in defaults(DATASETS["scraping"]).items():  # every generator's n, seed
        synth.add_argument(f"--{name}", type=int, default=default)
    synth.add_argument("--output", required=True)

    compare = sub.add_parser(
        "compare", help="precision/recall of all methods on a labeled CSV")
    compare.set_defaults(handler=_cmd_compare)
    compare.add_argument("--input", required=True,
                         help="CSV with a trailing 'label' column")
    compare.add_argument("--top-fraction", **top_fraction)
    compare.add_argument("--preprocess", **preprocess)
    _setting(compare, "q", "normal-set fraction", type=float)
    for method in METHODS:
        compare.add_argument(f"--gamma-{method.replace('_', '-')}", type=float, default=None,
                             help=f"default {DEFAULT_GAMMA[method]}")
    compare.add_argument("--output", default=None, help="optional CSV report")

    grid = sub.add_parser("grid", help="score a rectangular grid (2-D models)")
    grid.set_defaults(handler=_cmd_grid)
    grid.add_argument("--model", required=True)
    grid.add_argument("--output", required=True)
    grid.add_argument("--resolution", type=int, default=50)
    grid.add_argument("--bounds", type=float, nargs=4, default=None,
                      metavar=("XMIN", "XMAX", "YMIN", "YMAX"),
                      help="raw-space bounds (default: training data range)")

    ecdf = sub.add_parser("ecdf", help="export the training-score ECDF for plotting")
    ecdf.set_defaults(handler=_cmd_ecdf)
    ecdf.add_argument("--model", required=True)
    ecdf.add_argument("--output", required=True)
    ecdf.add_argument("--neg-log-display", action="store_true")
    return parser


def _setting(parser, name, what, **kwargs) -> None:
    """Add fit setting ``name``'s flag; its help names the setting's method and default."""
    owner, default = SETTINGS[name]
    default = "" if default is None else f", default {default}"
    parser.add_argument(f"--{name.replace('_', '-')}", help=f"{what} ({owner}{default})",
                        **kwargs)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError, FloatingPointError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _load_features(path) -> Dataset:
    # Tolerate the trailing label column that synth emits; labels are for
    # evaluation only and never enter a fit or a scoring run.
    loaded = load_csv(path, label_column="label")
    return loaded[0] if isinstance(loaded, tuple) else loaded


def _fit(raw, method, **kwargs):
    """``fit_model``, its warnings printed as one ``warning: ...`` line each, failing or not."""
    with warnings.catch_warnings(record=True) as caught:
        try:
            return fit_model(raw, method, **kwargs)
        finally:
            for warning in caught:
                print(f"warning: {warning.message}", file=sys.stderr)


def _cmd_fit(args) -> int:
    raw = _load_features(args.input)
    bundle, graph = _fit(raw, args.method, gamma=args.gamma, metric=_METRICS[args.metric],
                         preprocess=args.preprocess,
                         **{name: getattr(args, name) for name in SETTINGS})
    save_model(args.model, bundle)
    if args.train_scores:
        write_csv(args.train_scores, *bundle.train_table())
    if args.dump_graph:
        dump_graph(graph, args.dump_graph)
    print(f"fitted {args.method} model on {bundle.training.n} rows -> {args.model}")
    return 0


def _cmd_score(args) -> int:
    bundle = load_model(args.model)
    raw = _load_features(args.input)
    scores = bundle.score_raw(raw)
    labels = label_top_fraction(scores, args.top_fraction)
    header, columns = bundle.score_table(scores, labels)
    if args.neg_log_display:
        header.append("display_score")
        columns.append(_neg_log_display(scores))
    write_csv(args.output, header, zip(*columns))
    print(f"scored {raw.n} rows -> {args.output} ({int(labels.sum())} labeled)")
    return 0


def _neg_log_display(scores: np.ndarray):
    return [-math.log(-s) if s < 0.0 else "" for s in scores.tolist()]


def _cmd_explain(args) -> int:
    bundle = load_model(args.model)
    raw = _load_features(args.input)
    if not 0 <= args.row < raw.n:
        raise ValueError(f"--row {args.row} out of range for {raw.n} rows")
    point = bundle.to_model_space(raw).values[args.row]
    train_dora = bundle.dora_of(bundle.train_scores_rowwise())
    explanation = explain_deviations(
        point, bundle.training, train_dora, args.p_normal, _METRICS[args.metric],
    )
    rows = explanation.rows()
    print(f"closest normal training row: {explanation.closest_index}")
    print(f"{'feature':<20}{'anomalous':>14}{'closest_normal':>16}{'difference':>14}")
    for name, av, cv, diff in rows:
        print(f"{name:<20}{av:>14.6g}{cv:>16.6g}{diff:>14.6g}")
    if args.output:
        write_csv(args.output, ["feature", "anomalous_value", "closest_normal_value",
                                "difference"], rows)
    return 0


def _cmd_synth(args) -> int:
    data, labels = DATASETS[args.dataset](args.n, args.seed)
    write_csv(args.output, data.columns + ["label"],
              [list(vals) + [lab] for vals, lab in zip(data.values, labels)])
    print(f"wrote {data.n} rows -> {args.output}")
    return 0


def _cmd_compare(args) -> int:
    loaded = load_csv(args.input, label_column="label")
    if not isinstance(loaded, tuple):
        raise ValueError(f"{args.input}: needs a trailing 'label' column")
    raw, labels = loaded
    truth = labels == LABEL_ANOMALOUS
    if not truth.any():
        raise ValueError("no rows labeled anomalous in the input")
    settings = {method: {"gamma": getattr(args, f"gamma_{method}"),
                         "q": args.q if SETTINGS["q"][0] == method else None}
                for method in METHODS}
    for method in METHODS:  # every setting and the fraction are refused before the first fit
        fit_config(raw.n, method, **settings[method])
    label_top_fraction(truth, args.top_fraction)
    report = []
    for method in METHODS:
        bundle, _ = _fit(raw, method, preprocess=args.preprocess, **settings[method])
        predicted = label_top_fraction(bundle.train_scores_rowwise(), args.top_fraction)
        precision, recall = _precision_recall(predicted, truth)
        report.append((method, precision, recall))
        print(f"{method:<16} precision={precision:.4f} recall={recall:.4f}")
    if args.output:
        write_csv(args.output, ["method", "precision", "recall"], report)
    return 0


def _precision_recall(predicted: np.ndarray, truth: np.ndarray):
    tp = int(np.sum(predicted & truth))
    precision = tp / int(predicted.sum()) if predicted.any() else 0.0
    recall = tp / int(truth.sum()) if truth.any() else 0.0
    return precision, recall


def _cmd_grid(args) -> int:
    bundle = load_model(args.model)
    if bundle.training.d != 2:
        raise ValueError("grid scoring requires a 2-D model")
    if args.resolution < 2:
        raise ValueError("resolution must be at least 2")
    x0, x1, y0, y1 = args.bounds or [b for t in bundle.transforms for b in (t.raw_min, t.raw_max)]
    if not (x1 > x0 and y1 > y0):
        raise ValueError("bounds must satisfy xmax > xmin and ymax > ymin")
    xs, ys = np.linspace(x0, x1, args.resolution), np.linspace(y0, y1, args.resolution)
    raw_points = np.column_stack((np.repeat(xs, len(ys)), np.tile(ys, len(xs))))
    grid_raw = Dataset(raw_points, list(bundle.training.columns))
    scores = bundle.score_raw(grid_raw)
    write_csv(args.output, [*bundle.training.columns, "score"],
              zip(raw_points[:, 0].tolist(), raw_points[:, 1].tolist(), scores.tolist()))
    print(f"scored {scores.size} grid points -> {args.output}")
    return 0


def _cmd_ecdf(args) -> int:
    bundle = load_model(args.model)
    scores = bundle.train_scores.sorted_scores
    n = scores.size
    header = ["score", "ecdf"]
    columns = [scores, (np.arange(1, n + 1)) / n]
    if args.neg_log_display:
        header.append("display_score")
        columns.append(_neg_log_display(scores))
    write_csv(args.output, header, zip(*columns))
    print(f"wrote {n} ECDF rows -> {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
