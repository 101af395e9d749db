"""Fitting detectors into model bundles, and their versioned JSON persistence.

``fit_model`` is the one place the method state is written; ``ModelBundle``
and ``load_model`` read it.  A model file stores the per-column transforms,
the graph parameters, the method state (eigenvector and denominator, vertex
degrees, or shortest path distances and normal set), the model-space
training data, and the sorted training scores used for DORA.  Floats are
written at full round-trip precision, and every write is atomic (temp file
+ rename).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .dataset import Dataset, atomic_write_text
from .degree import vertex_degrees
from .graph import DistanceMetric, for_row_blocks, kernel_graph, kernel_rows
from .popularity import fit_popularity, kernel_extension
from .preprocess import FeatureTransform, apply_preprocessor, fit_preprocessor
from .scoring import ScoreDistribution, dora_batch
from .shortest_path import fit_shortest_path, one_hop_extension

__all__ = [
    "FORMAT_VERSION",
    "DEFAULT_GAMMA",
    "ModelBundle",
    "fit_model",
    "save_model",
    "load_model",
]

FORMAT_VERSION = 1

DEFAULT_GAMMA = {"popularity": 0.2, "vertex_degree": 0.5, "shortest_path": 0.2}

METHODS = tuple(DEFAULT_GAMMA)

# What load_model reads: the document's keys, the float fields of each transform,
# and the state keys of each method.
_KEYS = ("method", "preprocess", "metric", "gamma", "config", "columns", "transforms",
         "training", "state", "train_scores")
_TRANSFORM_FLOATS = ("delta", "lam", "mean", "sd", "raw_min", "raw_max")
_STATE_KEYS = {"popularity": ("s_vec", "denom"), "vertex_degree": ("vd",),
               "shortest_path": ("ra_q", "normal_set")}


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
        return {
            "popularity": "relative_anomaly",
            "vertex_degree": "vertex_degree",
            "shortest_path": "ra_q",
        }[self.method]

    def train_table(self):
        """Header and rows of the per-training-row score table."""
        if self.method == "vertex_degree":
            stationary = self.state.get("stationary")
            rows = [
                (i, vd, "" if stationary is None else stationary[i])
                for i, vd in enumerate(self.state["vd"])
            ]
            return ["row_index", "vertex_degree", "stationary_probability"], rows
        scores = self.train_scores_rowwise()
        columns = [range(len(scores)), scores, self.dora_of(scores)]
        if self.method == "popularity":
            return ["row_index", "relative_anomaly", "dora"], list(zip(*columns))
        normal = np.zeros(len(scores), dtype=bool)
        normal[self.state["normal_set"]] = True
        return ["row_index", "ra_q", "dora", "is_normal_set"], list(zip(*columns, normal))


def fit_model(
    raw: Dataset,
    method: str,
    *,
    gamma: float | None = None,
    metric: DistanceMetric = DistanceMetric.EUCLIDEAN,
    preprocess: str = "box-cox",
    q: float | None = None,
    k: int | None = None,
    sparsify: float = 0.0,
    start: str | None = None,
    rff_dim: int | None = None,
    tol: float | None = None,
    max_iter: int | None = None,
    seed: int | None = None,
):
    """Fit one method end to end on raw data; returns (bundle, fitted graph).

    ``q`` (default 0.5) and ``k`` apply only to shortest_path; ``sparsify``,
    ``start`` (default "uniform"), ``rff_dim`` (default 256), ``tol``
    (default 1e-8), ``max_iter`` (default 10000) and ``seed`` (default 0)
    only to popularity, ``rff_dim`` only with start "rff" and ``seed`` only
    with start "random" or "rff".  Setting one where it does not apply is an
    error, not ignored.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method '{method}'")
    for name, value, owner in (("q", q, "shortest_path"), ("k", k, "shortest_path"),
                               ("sparsify", sparsify or None, "popularity"),
                               ("start", start, "popularity"), ("rff_dim", rff_dim, "popularity"),
                               ("tol", tol, "popularity"), ("max_iter", max_iter, "popularity"),
                               ("seed", seed, "popularity")):
        if value is not None and method != owner:
            raise ValueError(f"{name} applies only to method {owner}, not {method}")
    if rff_dim is not None and start != "rff":
        raise ValueError(f"rff_dim applies only to start rff, not {start or 'uniform'}")
    if seed is not None and start in (None, "uniform"):
        raise ValueError("seed applies only to start random or rff, not uniform")
    if gamma is None:
        gamma = DEFAULT_GAMMA[method]
    q = 0.5 if q is None else q
    start = "uniform" if start is None else start
    rff_dim = 256 if rff_dim is None else rff_dim
    tol = 1e-8 if tol is None else tol
    max_iter = 10_000 if max_iter is None else max_iter
    seed = 0 if seed is None else seed
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    transforms = fit_preprocessor(raw, preprocess)
    data = apply_preprocessor(raw, transforms)
    config = {"seed": seed, "tol": tol, "max_iter": max_iter}
    if method == "popularity":
        model = fit_popularity(
            data, gamma, metric=metric, sparsify=sparsify, start=start,
            rff_dim=rff_dim, seed=seed, tol=tol, max_iter=max_iter,
        )
        config.update({"sparsify": sparsify, "start": start,
                       "rff_dim": rff_dim if start == "rff" else None})
        state = {"s_vec": model.s_vec, "lambda1": model.lambda1, "denom": model.lambda1,
                 "iterations": model.iterations, "residual": model.residual}
        graph = model.graph
    elif method == "vertex_degree":
        graph = kernel_graph(data, gamma, metric)
        vd = vertex_degrees(graph)
        # symmetric full kernel S: the stationary distribution is exactly vd / sum(vd)
        # (detailed balance); iterating would stall on well-separated clusters
        state = {"vd": vd, "stationary": vd / vd.sum()}
    else:
        model = fit_shortest_path(data, gamma, q, k, metric=metric)
        config.update({"q": q, "k": k})
        state = {"vd": model.vd, "normal_set": model.normal_set, "ra_q": model.ra_q}
        graph = model.graph
    bundle = ModelBundle(
        method=method,
        preprocess=preprocess,
        metric=metric,
        gamma=gamma,
        config=config,
        transforms=transforms,
        training=data,
        state=state,
    )
    return bundle, graph


def save_model(path, bundle: ModelBundle) -> None:
    state = {
        key: (value.tolist() if isinstance(value, np.ndarray) else value)
        for key, value in bundle.state.items()
    }
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
        "train_scores": bundle.train_scores.sorted_scores.tolist(),
    }
    atomic_write_text(path, json.dumps(doc))


class _Document(dict):
    """A model document that remembers the last key read, for error messages."""
    last = None

    def __getitem__(self, key):
        self.last = key
        return super().__getitem__(key)


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
        raise ValueError(
            f"{path}: model file format version {version} is not supported "
            f"(expected {FORMAT_VERSION})"
        )
    doc = _Document(doc)
    try:
        missing = [key for key in _KEYS if key not in doc] or [
            f"state.{key}" for key in _STATE_KEYS.get(doc["method"], ())
            if key not in doc["state"]]
        if missing:
            raise ValueError(f"{path}: model file has no '{missing[0]}' key")
        transforms = [FeatureTransform(**t) for t in doc["transforms"]]
        transforms = [replace(tf, **{key: float(getattr(tf, key)) for key in _TRANSFORM_FLOATS})
                      for tf in transforms]
        state = {
            key: (np.asarray(value, dtype=np.float64) if isinstance(value, list) else float(value))
            for key, value in doc["state"].items()
        }
        n = len(doc["training"])
        for key in ("s_vec", "vd", "ra_q", "stationary"):
            if key in state and np.shape(state[key]) != (n,):
                raise ValueError(f"{path}: state.{key} needs one entry per training row ({n})")
        gamma = float(doc["gamma"])
        for key, value in (("gamma", gamma), ("state.denom", state.get("denom", 1.0))):
            if np.ndim(value) or not 0.0 < value < np.inf:  # a score divides by either
                raise ValueError(f"{path}: model file's '{key}' entry is {value}, "
                                 "not a positive finite real")
        if "normal_set" in state:
            state["normal_set"] = np.asarray(state["normal_set"], dtype=np.int64)
        columns = list(doc["columns"])
        training = Dataset(np.asarray(doc["training"], dtype=np.float64), columns)
        # method is read last, so an unknown method is the entry named below
        bundle = ModelBundle(
            preprocess=doc["preprocess"],
            metric=DistanceMetric(doc["metric"]),
            gamma=gamma,
            config=doc["config"],
            transforms=transforms,
            training=training,
            state=state,
            method=doc["method"],
        )
        stored = np.asarray(doc["train_scores"], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        if str(exc).startswith(f"{path}: "):
            raise
        raise ValueError(f"{path}: model file has a malformed '{doc.last}' entry: {exc}") from None
    if stored.size != bundle.train_scores.n or not np.array_equal(
        stored, bundle.train_scores.sorted_scores
    ):
        raise ValueError(f"{path}: stored training scores disagree with the model state")
    return bundle
