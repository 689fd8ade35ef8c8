"""The benchmark's span tracer must find every name it traces."""

import importlib
import importlib.util
from pathlib import Path


def test_every_traced_name_resolves():
    path = Path(__file__).parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    for module, attr_path, _name, _hook in tracer.TRACED:
        owner = importlib.import_module(f"regcycles.{module}")
        for part in attr_path.split("."):
            assert hasattr(owner, part), f"regcycles.{module}.{attr_path}"
            owner = getattr(owner, part)
        assert callable(owner), f"regcycles.{module}.{attr_path}"
