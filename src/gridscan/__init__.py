"""Fast stability scanning of yearly operating points.

Cluster a year of operating points with feature-weighted self-adaptive
PSO-k-means, evaluate stability indices only at cluster centroids, and
quantify the accuracy/speed-up trade-off against an exhaustive scan.

This namespace holds the user-facing API; internals stay in their modules.
"""

from .clustering import AdaptiveParams, ClusterModel, PsoParams, self_adaptive_pso_kmeans
from .dataset import (
    AttributeKind,
    OperatingPointSet,
    SyntheticYearConfig,
    denormalize,
    generate_synthetic_year,
    load_csv,
    normalize,
    save_csv,
)
from .oracles import DampingSurrogate, StabilityTrace, TwoBusMargin, full_scan
from .relief import FeatureReport, ReliefParams, select_features
from .scanning import (
    ScanConfig,
    ScanReport,
    WorstCaseReport,
    compare_full_vs_fast,
    fast_scan,
    validate,
    worst_case_analysis,
)

__version__ = "0.1.0"
