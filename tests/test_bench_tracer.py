"""The benchmark's tracer wraps library functions named in ``FUNCTIONS``
(``bench/tracer.py``), a method as ``Class.method`` read from the class's own
namespace.  Every one of them must still resolve, so that a traced run
binds what its metrics are named for.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def traced_functions():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.FUNCTIONS


@pytest.mark.parametrize("metric, module, attribute", traced_functions())
def test_every_traced_function_resolves(metric, module, attribute):
    mod = importlib.import_module(f"polygraph.{module}")
    if "." in attribute:
        cls_name, method = attribute.split(".")
        assert callable(vars(getattr(mod, cls_name)).get(method)), metric
    else:
        assert callable(getattr(mod, attribute, None)), metric
