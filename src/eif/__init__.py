"""Extended isolation forest anomaly detection.

Deterministic, seedable implementation of isolation forests with oblique
hyperplane splits at any extension level (level 0 reproduces the classic
axis-parallel algorithm), the 2-D rotated-trees baseline, synthetic dataset
generators, and an evaluation harness (score maps, level-set statistics,
convergence curves, AUROC/AUPRC).
"""

__version__ = "1.0.0"

from .errors import (
    CsvFormatError,
    EifError,
    ModelFormatError,
    UndefinedMetricError,
    UnsupportedVersionError,
)
from .evaluation import (
    ConvergenceSeries,
    LevelSetStats,
    ScoreGrid,
    auprc,
    auroc,
    convergence_curve,
    levelset_stats,
    line_levelset_stats,
    score_map,
)
from .forest import (
    Forest,
    Hyperplane,
    IsolationTree,
    anomaly_score,
    branch_left,
    build_forest,
    build_tree,
    c_factor,
    expected_depth,
    harmonic_estimate,
    path_length,
    sample_hyperplane,
    score_batch,
)
from .model_io import load_forest, read_csv, save_forest
from .rng import RngStream, derive_stream, draw_standard_normal, draw_uniform, make_rng, subsample
from .rotation import (
    build_rotated_forest,
    rotate_point,
    rotated_score,
    rotated_score_batch,
)
from .synthetic import (
    benchmark_task,
    gen_anomalies_uniform_box,
    gen_double_blob,
    gen_gaussian_blob,
    gen_line_levelset,
    gen_sinusoid,
    gen_sphere_levelset,
)

__all__ = [name for name in dir() if not name.startswith("_")]
