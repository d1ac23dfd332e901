"""The names the benchmark tracer patches must keep resolving.

`perfbench/tracer.py` wraps weilspin functions, methods and the check
dispatch point from outside the package.  A cleanup that deletes or
reshapes one of them would silently leave a layer untraced, so this test
reads the tracer's tables (without installing it) and checks each name.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

from weilspin import secantpipe

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer_tables", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_and_methods_resolve():
    tracer = _tracer()
    for stem, modname, attr in tracer.FUNCTIONS:
        assert callable(getattr(importlib.import_module(modname), attr, None)), (stem, attr)
    for stem, modname, cls, meth in tracer.METHODS:
        klass = getattr(importlib.import_module(modname), cls, None)
        assert callable(getattr(klass, meth, None)), (stem, cls, meth)


def test_record_is_the_dispatch_point():
    params = list(inspect.signature(secantpipe._Runner.record).parameters)
    assert params == ["self", "name", "anchor", "fn"]


def test_every_check_family_is_declared():
    families = {name.split(".", 1)[0] for name, *_ in secantpipe.CHECKS}
    assert set(_tracer().CHECK_FAMILIES) <= families
