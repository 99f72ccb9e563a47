"""Every name the benchmark's tracer wraps must exist where it looks it up.

`benchmark/tracing.py` installs its wrappers by module and attribute name
(class methods through the class's own `__dict__`), so renaming or deleting
one of them would break a traced benchmark run. The file is only read here.
"""

import importlib
import importlib.util
import os
import sys

import pytest

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "benchmark", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("grassbloch_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("layer, mod, attr", [s[:3] for s in tracing.SPANS])
def test_span_target_resolves(layer, mod, attr):
    module = importlib.import_module("grassbloch." + mod)
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, attr))


@pytest.mark.parametrize("mod, attr", tracing.COUNTS)
def test_count_target_resolves(mod, attr):
    assert callable(getattr(importlib.import_module("grassbloch." + mod), attr))


def test_scale_probe_site():
    # builders.scale_probes counts canonicalize_array calls made through builders
    from grassbloch import builders, geometry

    assert vars(builders)["canonicalize_array"] is geometry.canonicalize_array
