"""The benchmark's traced run wraps permflow names it looks up by string.

A rename in ``src/`` would silently drop a layer from the traced report,
so every ``(module, attribute)`` the tracer wraps must resolve to a
callable on the installed package.
"""

import importlib
import importlib.util
import os

TRACER = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracer.py")


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.WRAPPED
    for modname, attr, _layer in tracer.WRAPPED:
        module = importlib.import_module(modname)
        assert callable(getattr(module, attr, None)), f"{modname}.{attr}"
