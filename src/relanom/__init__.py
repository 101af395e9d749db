"""Relative anomaly detection on kernel similarity graphs.

Observations are scored not by how infrequent they are (the vertex-degree
baseline) but by how unpopular they are relative to the most typical
observations: either through the dominant eigenvector of the similarity
matrix or through shortest similarity-paths to a selected normal set.
"""

from .dataset import Dataset, load_csv
from .degree import vertex_degrees
from .graph import (
    DistanceMetric,
    SimilarityGraph,
    dump_graph,
    kernel_graph,
    knn_truncate,
    max_symmetrize,
    rbf_similarity_matrix,
    threshold_sparsify,
)
from .model_io import ModelBundle, fit_model, load_model, save_model
from .popularity import (
    ConvergenceError,
    PopularityModel,
    PowerResult,
    fit_popularity,
    power_iteration,
    relative_anomaly,
    rff_warm_start,
)
from .preprocess import (
    FeatureTransform,
    apply_box_cox,
    apply_preprocessor,
    fit_box_cox,
    fit_preprocessor,
)
from .scoring import (
    Explanation,
    ScoreDistribution,
    dora_batch,
    explain_deviations,
    label_top_fraction,
)
from .shortest_path import (
    ShortestPathModel,
    fit_shortest_path,
    multi_source_shortest_paths,
    path_weights,
    select_normal_set,
)
from .synth import (
    LABEL_ANOMALOUS,
    LABEL_NORMAL,
    ClusterSpec,
    generate_mixture,
    scraping_analogue,
    wifi_analogue,
)

__version__ = "0.1.0"
