"""The names the benchmark tracer patches must keep resolving.

`perfbench/tracer.py` wraps weilspin functions, methods and the check
dispatch point from outside the package.  A cleanup that deletes or
reshapes one of them would silently leave a layer untraced, so this test
reads the tracer's tables (without installing it) and checks each name.
A traced run of each benchmark workload, in its own process, must also
patch every import site and see every layer `perfbench/run.py` expects.
"""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from weilspin import secantpipe

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


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


# One verify with the tracer installed, as perfbench's worker runs it: the
# package is imported first, then every traced name is patched.
TRACED_RUN = """
import contextlib, io, json, sys
sys.path[:0] = [{src!r}, {bench!r}]
import weilspin.cli as cli
import run
from tracer import Tracer
tracer = Tracer()
tracer.install()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(["verify", "--preset", {preset!r}, "--seed", "1"])
print(json.dumps({{"exit": code, "unpatched": tracer.unpatched_sites(),
                  "boundary": run.boundary_errors({preset!r}, dict(tracer.calls))}}))
"""


@pytest.mark.parametrize("preset", ["sixfold-q2", "fourfold-rm2"])
def test_traced_workload_sees_every_layer(preset):
    code = TRACED_RUN.format(src=str(ROOT / "src"), bench=str(ROOT / "perfbench"), preset=preset)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=300, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"exit": 0, "unpatched": [], "boundary": []}
