"""Grassmannian constellations on G(2,1) through the Bloch sphere.

Constructions (packing-based and structured), matching low-complexity
detectors, and a reproducible Monte Carlo link simulator for T = 2 resources
and one transmit antenna.
"""

__version__ = "0.1.0"

from .geometry import Constellation, fejes_toth_bound
from .packing import PackingConfig, PackingSet, exact_packing, optimize_packing
from .zopt import (
    CandidateDistances,
    ZOptConstellation,
    ZOptStructure,
    build_z_opt,
    candidate_distances,
    optimize_zopt,
    zopt_structure,
)
from .builders import (
    build_cube_split,
    build_exp_map,
    build_grass_lattice,
    build_man_opt,
    build_s_opt,
    exp_map_constellation,
)
from .detectors import (
    DetectionResult,
    GlrtDetector,
    SoptDetector,
    ZoptDetector,
)
from .channel import SerCurve, bench_detectors, run_ser
from .formats import load_packing

__all__ = [name for name in dir() if not name.startswith("_")]
