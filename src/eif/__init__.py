"""Extended isolation forest anomaly detection.

Deterministic, seedable implementation of isolation forests with oblique
hyperplane splits at any extension level (level 0 reproduces the classic
axis-parallel algorithm), the 2-D rotated-trees baseline, synthetic dataset
generators, and an evaluation harness (score maps, level-set statistics,
convergence curves, AUROC/AUPRC).
"""

from types import ModuleType as _ModuleType

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
    IsolationTree,
    build_forest,
    build_rotated_forest,
    c_factor,
    path_lengths,
    sample_hyperplane,
    score_batch,
)
from .model_io import load_forest, read_csv, save_forest
from .rng import RngStream, derive_stream, make_rng, subsample
from .synthetic import (
    benchmark_task,
    gen_anomalies_uniform_box,
    gen_double_blob,
    gen_gaussian_blob,
    gen_line_levelset,
    gen_sinusoid,
    gen_sphere_levelset,
)

# The names imported above; importing them also binds the submodules
# (``eif.forest``, ...), which are not part of the flat API.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
