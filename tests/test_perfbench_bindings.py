"""perfbench/tracer.py times arm7ik's layers by patching functions under
the names their caller modules bind them to. A name that a change to the
package removes would break only a traced benchmark run, so this checks
every binding against the package as it stands."""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


tracer = _load_tracer()
BINDINGS = sorted({b for names in tracer.LAYER_BINDINGS.values()
                   for b in names} | {tracer.SOLVE_BINDING})


@pytest.mark.parametrize("binding", BINDINGS)
def test_binding_resolves(binding):
    mod_name, attr = binding.split(".")
    module = importlib.import_module(f"arm7ik.{mod_name}")
    assert callable(getattr(module, attr, None)), binding
