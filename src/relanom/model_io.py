"""Fitting detectors into model bundles, and their versioned JSON persistence.

``fit_model`` is the one place the method state is written; ``ModelBundle``
and ``load_model`` read it.  A format-2 model file stores each fact once: the
per-column transforms, the graph parameters, the method's fit settings
(``SETTINGS``), the model-space training data and the method state,
popularity's ``s_vec`` and ``denom`` (and the fit's ``iterations`` and
``residual``), vertex degree's ``vd`` or shortest path's ``ra_q`` and
``normal_set``.  The training scores that DORA ranks against and the stationary
column vd / sum(vd) are derived from the state.  Load refuses another format
version (refit a format-1 file), checks the transforms and the state entries
that scoring reads (``_STATE``) and keeps every other entry as JSON gave it, so
a saved bundle saves again to the same bytes.  Floats are written at full
round-trip precision, and every write is atomic (temp file + rename).
"""

from __future__ import annotations

import inspect
import json
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .dataset import Dataset, atomic_write_text
from .degree import vertex_degrees
from .graph import DistanceMetric, check_graph, for_row_blocks, kernel_graph, kernel_rows
from .popularity import check_popularity, fit_popularity, kernel_extension
from .preprocess import FeatureTransform, apply_preprocessor, fit_preprocessor
from .scoring import ScoreDistribution, dora_batch
from .shortest_path import check_q, fit_shortest_path, one_hop_extension

__all__ = [
    "FORMAT_VERSION",
    "DEFAULT_GAMMA",
    "ModelBundle",
    "fit_model",
    "save_model",
    "load_model",
]

FORMAT_VERSION = 2

DEFAULT_GAMMA = {"popularity": 0.2, "vertex_degree": 0.5, "shortest_path": 0.2}

METHODS = tuple(DEFAULT_GAMMA)


def defaults(fn) -> dict:
    """Each parameter of ``fn`` that has a default, with that default, in order."""
    return {name: p.default for name, p in inspect.signature(fn).parameters.items()
            if p.default is not p.empty}


# Each fit setting, in a model file's config order: the method whose fit takes it and its
# default, read off that fit's signature.  Popularity's rff_dim is null unless start is rff.
SETTINGS = {name: (fit.__name__.removeprefix("fit_"), default)
            for fit in (fit_popularity, fit_shortest_path)
            for name, default in defaults(fit).items() if name != "metric"}


def _positive(v, n, state):
    return (0.0 < v) & (v < np.inf)


def _normal_rows(v, n, state):
    ok = (v == np.round(v)) & (0.0 <= v) & (v < n) & np.append(True, v[1:] > v[:-1])
    ok[ok] = state["ra_q"][v[ok].astype(np.int64)] == 0.0
    return ok


# What load_model reads: the document's keys, the float fields of each transform, and
# the state entries that scoring and the train table read, in the order they are
# checked.  Each entry has a shape (_ROW, _LIST or _REAL, worded for the refusal), a
# test of its values, (value, n rows, state) -> True per good value, and what it asks.
_KEYS = ("method", "preprocess", "metric", "gamma", "config", "columns", "transforms",
         "training", "state")
_TRANSFORM_FLOATS = ("delta", "lam", "mean", "sd", "raw_min", "raw_max")
_ROW, _LIST, _REAL = "a list of one entry per training row ({n})", "a nonempty list", "one number"
_POSITIVE = "a positive finite real"
_STATE = {
    "popularity": {"s_vec": (_ROW, _positive, _POSITIVE), "denom": (_REAL, _positive, _POSITIVE)},
    "vertex_degree": {"vd": (_ROW, _positive, _POSITIVE)},
    "shortest_path": {"ra_q": (_ROW, lambda v, n, state: v >= 0.0, "0, positive or +inf"),
                      "normal_set": (_LIST, _normal_rows, "a training row index above the "
                                     "one before it, with ra_q 0")},
}


@dataclass
class ModelBundle:
    """Everything needed to score, normalize, and explain new data."""

    method: str
    preprocess: str
    metric: DistanceMetric
    gamma: float
    config: dict
    transforms: list[FeatureTransform]
    training: Dataset
    state: dict
    train_scores: ScoreDistribution = field(init=False)

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method '{self.method}'")
        self.train_scores = ScoreDistribution.from_scores(self.train_scores_rowwise())

    def train_scores_rowwise(self) -> np.ndarray:
        """Per-training-row anomaly scores (larger = more anomalous)."""
        if self.method == "popularity":
            return -np.asarray(self.state["s_vec"])
        if self.method == "vertex_degree":
            return -np.asarray(self.state["vd"])
        return np.asarray(self.state["ra_q"])

    def to_model_space(self, raw: Dataset) -> Dataset:
        """Raw rows in model space; their columns must be the model's, in its order."""
        if raw.columns != self.training.columns:
            raise ValueError(f"input columns {raw.columns} differ from the model's "
                             f"{self.training.columns}")
        return apply_preprocessor(raw, self.transforms)

    def score_model(self, points: np.ndarray) -> np.ndarray:
        """Score model-space points a row block at a time; larger = more anomalous."""
        t, state, g, m = self.training.values, self.state, self.gamma, self.metric
        x = np.atleast_2d(points)
        score = {
            "popularity": lambda r, out: kernel_extension(
                x[r], t, state["s_vec"], state["denom"], g, m, out),
            "vertex_degree": lambda r, out: -kernel_rows(x[r], t, g, m, out).sum(axis=1),
            "shortest_path": lambda r, out: one_hop_extension(x[r], t, state["ra_q"], g, m, out),
        }[self.method]
        return np.concatenate(for_row_blocks(score, len(x), len(t)))

    def score_raw(self, raw: Dataset) -> np.ndarray:
        return self.score_model(self.to_model_space(raw).values)

    def dora_of(self, scores: np.ndarray) -> np.ndarray:
        return dora_batch(self.train_scores, scores)

    @property
    def score_column(self) -> str:
        return {"popularity": "relative_anomaly", "vertex_degree": "vertex_degree",
                "shortest_path": "ra_q"}[self.method]

    def train_table(self):
        """Header and rows of the per-training-row score table."""
        header = ["row_index", self.score_column]
        if self.method == "vertex_degree":
            # symmetric full kernel S: the stationary distribution is exactly vd / sum(vd)
            # (detailed balance); iterating would stall on well-separated clusters
            vd = np.asarray(self.state["vd"])
            return (header + ["stationary_probability"],
                    list(zip(range(len(vd)), vd, vd / vd.sum())))
        scores = self.train_scores_rowwise()
        columns = [range(len(scores)), scores, self.dora_of(scores)]
        if self.method == "popularity":
            return header + ["dora"], list(zip(*columns))
        normal = np.zeros(len(scores), dtype=bool)
        normal[self.state["normal_set"]] = True
        return header + ["dora", "is_normal_set"], list(zip(*columns, normal))

    def score_table(self, scores: np.ndarray, labels: np.ndarray):
        """Header and columns of the table of scored rows, given their ``labels``.  The
        baseline exports its conventional raw vertex degree (ascending = more anomalous)."""
        exported = -scores if self.method == "vertex_degree" else scores
        header = ["row_index", self.score_column, "dora", "label"]
        columns = [range(len(scores)), exported.tolist(), self.dora_of(scores).tolist(),
                   labels.tolist()]
        if self.method == "shortest_path":  # which rows score as the normal set does
            return header + ["is_normal_set"], columns + [(scores == 0.0).tolist()]
        return header, columns


def fit_config(n: int, method: str, gamma: float | None = None,
               metric: DistanceMetric = DistanceMetric.EUCLIDEAN, **settings):
    """The bandwidth and config of a fit of ``method`` on ``n`` rows, every setting checked.

    ``settings`` are fit settings named in ``SETTINGS``; each is taken only by its
    method, and one left out or None takes its default.  ``rff_dim`` applies only
    with start "rff" and ``seed`` only with start "random" or "rff".  Setting one
    where it does not apply is an error, not ignored.  The config holds every
    setting of its method.  A value is refused by the check its fit runs.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method '{method}'")
    for name, value in settings.items():
        if name not in SETTINGS:
            raise TypeError(f"fit_model() got an unexpected keyword argument '{name}'")
        if value is not None and SETTINGS[name][0] != method:
            raise ValueError(f"{name} applies only to method {SETTINGS[name][0]}, not {method}")
    config = {name: default if settings.get(name) is None else settings[name]
              for name, (owner, default) in SETTINGS.items() if owner == method}
    if settings.get("rff_dim") is not None and config["start"] != "rff":
        raise ValueError(f"rff_dim applies only to start rff, not {config['start']}")
    if settings.get("seed") is not None and config["start"] == "uniform":
        raise ValueError("seed applies only to start random or rff, not uniform")
    if config.get("seed", 0) < 0:
        raise ValueError(f"seed must be nonnegative, got {config['seed']}")
    if method == "popularity" and config["start"] != "rff":
        config["rff_dim"] = None
    gamma = float(DEFAULT_GAMMA[method] if gamma is None else gamma)
    check_graph(gamma, config.get("k"), n)
    if method == "popularity":
        check_popularity(metric, **config)
    elif method == "shortest_path":
        check_q(config["q"])
    return gamma, config


def fit_model(raw: Dataset, method: str, *, gamma: float | None = None,
              metric: DistanceMetric = DistanceMetric.EUCLIDEAN,
              preprocess: str = defaults(fit_preprocessor)["mode"], **settings):
    """Fit one method end to end on raw data; returns (bundle, fitted graph).  Its
    settings are those of ``fit_config``, which refuses a bad one before any fit."""
    gamma, config = fit_config(raw.n, method, gamma, metric, **settings)
    transforms = fit_preprocessor(raw, preprocess)
    data = apply_preprocessor(raw, transforms)
    if method == "popularity":
        model = fit_popularity(data, gamma, metric=metric, **config)
        state = {"s_vec": model.s_vec, "denom": model.lambda1,
                 "iterations": model.iterations, "residual": model.residual}
        graph = model.graph
    elif method == "vertex_degree":
        graph = kernel_graph(data, gamma, metric)
        state = {"vd": vertex_degrees(graph)}
    else:
        model = fit_shortest_path(data, gamma, metric=metric, **config)
        state = {"ra_q": model.ra_q, "normal_set": model.normal_set}
        graph = model.graph
    return ModelBundle(method=method, preprocess=preprocess, metric=metric, gamma=gamma,
                       config=config, transforms=transforms, training=data, state=state), graph


def save_model(path, bundle: ModelBundle) -> None:
    state = {key: (value.tolist() if isinstance(value, np.ndarray) else value)
             for key, value in bundle.state.items()}
    doc = {
        "format_version": FORMAT_VERSION,
        "method": bundle.method,
        "preprocess": bundle.preprocess,
        "metric": bundle.metric.value,
        "gamma": bundle.gamma,
        "config": bundle.config,
        "columns": bundle.training.columns,
        "transforms": [asdict(tf) for tf in bundle.transforms],
        "training": bundle.training.values.tolist(),
        "state": state,
    }
    atomic_write_text(path, json.dumps(doc))


class _Document(dict):
    """A model document that remembers the last key read, for error messages."""
    last = None

    def __getitem__(self, key):
        self.last = key
        return super().__getitem__(key)


def _refuse_unless(path, key, value, ok, what):
    """Refuse a model file whose entry ``key`` fails ``ok``, naming its first bad value."""
    if not np.all(ok):
        bad = value if np.ndim(value) == 0 else f"{value[np.argmin(ok)]} at index {np.argmin(ok)}"
        raise ValueError(f"{path}: model file's '{key}' entry is {bad}, not {what}")


def load_model(path) -> ModelBundle:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: model file is not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: model file holds no JSON object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: model file format version {version} is not supported "
                         f"(expected {FORMAT_VERSION}); refit the model")
    doc = _Document(doc)
    try:
        missing = [key for key in _KEYS if key not in doc]
        if missing:
            raise ValueError(f"{path}: model file has no '{missing[0]}' key")
        columns = list(doc["columns"])
        transforms = [FeatureTransform(**t) for t in doc["transforms"]]
        transforms = [replace(tf, **{key: float(getattr(tf, key)) for key in _TRANSFORM_FLOATS})
                      for tf in transforms]
        if len(transforms) != len(columns):
            raise ValueError(f"{path}: model file's 'transforms' entry holds {len(transforms)} "
                             f"transforms for {len(columns)} columns")
        for tf in transforms:  # scoring divides by sd
            if not (np.isfinite([tf.delta, tf.lam, tf.mean]).all() and 0.0 < tf.sd < np.inf):
                raise ValueError(f"{path}: model file's 'transforms' entry for column "
                                 f"'{tf.column}' is not finite with sd > 0: delta {tf.delta}, "
                                 f"lam {tf.lam}, mean {tf.mean}, sd {tf.sd}")
        gamma = float(doc["gamma"])
        _refuse_unless(path, "gamma", gamma, 0.0 < gamma < np.inf, _POSITIVE)
        checks, n = _STATE.get(doc["method"], {}), len(doc["training"])
        if not isinstance(doc["state"], dict):
            raise TypeError("it is not a JSON object")
        state = dict(doc["state"])  # an entry that scoring does not read stays as JSON gave it
        for key, (shape, test, what) in checks.items():
            if key not in state:
                raise ValueError(f"{path}: model file has no 'state.{key}' key")
            value = np.asarray(state[key], dtype=np.float64)
            if (value.ndim != (shape != _REAL) or shape == _ROW and len(value) != n
                    or shape == _LIST and not value.size):
                raise ValueError(f"{path}: model file's 'state.{key}' entry is not "
                                 + shape.format(n=n))
            _refuse_unless(path, f"state.{key}", value, test(value, n, state), what)
            state[key] = (value if shape == _ROW else value.astype(np.int64) if shape == _LIST
                          else float(value))
        training = Dataset(np.asarray(doc["training"], dtype=np.float64), columns)
        # method is read last, so an unknown method is the entry named below
        return ModelBundle(preprocess=doc["preprocess"], metric=DistanceMetric(doc["metric"]),
                           gamma=gamma, config=doc["config"], transforms=transforms,
                           training=training, state=state, method=doc["method"])
    except (TypeError, ValueError) as exc:
        if str(exc).startswith(f"{path}: "):
            raise
        raise ValueError(f"{path}: model file has a malformed '{doc.last}' entry: {exc}") from None
