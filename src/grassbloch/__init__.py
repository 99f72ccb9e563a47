"""Grassmannian constellations on G(2,1) through the Bloch sphere.

Constructions (packing-based and structured), matching low-complexity
detectors, and a reproducible Monte Carlo link simulator for T = 2 resources
and one transmit antenna.

The names below load their module on first access (PEP 562), so importing
the package, or one module of it, loads no other module.
"""

import importlib

__version__ = "0.1.0"

#: each module's public names
_EXPORTS = {
    "geometry": ("Constellation", "fejes_toth_bound"),
    "packing": ("PackingConfig", "PackingSet", "exact_packing", "optimize_packing"),
    "zopt": ("CandidateDistances", "ZOptConstellation", "ZOptStructure", "build_z_opt",
             "candidate_distances", "optimize_zopt", "zopt_structure"),
    "builders": ("build_cube_split", "build_exp_map", "build_grass_lattice", "build_man_opt",
                 "build_s_opt", "exp_map_constellation"),
    "detectors": ("DetectionResult", "GlrtDetector", "SoptDetector", "ZoptDetector"),
    "channel": ("SerCurve", "bench_detectors", "run_ser"),
    "formats": ("load_packing",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_MODULES = ("builders", "channel", "detectors", "errors", "formats", "geometry",
            "kdtree", "packing", "rng", "zopt")

__all__ = sorted([*_HOME, *_MODULES])


def __getattr__(name):
    if name in _MODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
