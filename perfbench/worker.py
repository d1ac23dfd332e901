"""One `weilspin verify` in a fresh process, timed from outside the program.

    python3 worker.py SPEC_JSON RESULT_JSON

SPEC_JSON holds {"src", "argv", "preset", "input", "trace", "micro", "seed",
"tower"}.  The worker imports weilspin from `src`, runs `cli.main(argv)`
once and writes RESULT_JSON with the exit code, the times below, peak RSS
and, when asked, the per-layer counters and micro-benchmarks.

setup_s = import of weilspin.cli + datum construction and validation (the
preset factory or WeilDatum.from_json, called by cli.main) + the single
WeilStructure(datum) construction inside run_all, each under one timer.
verify_s = wall time of the cli.main call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

perf = time.perf_counter


def _time_into(acc: dict, key: str, fn):
    def timed(*args, **kwargs):
        t0 = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            acc[key] = acc.get(key, 0.0) + perf() - t0

    return timed


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    src = os.path.abspath(spec["src"])
    sys.path.insert(0, src)

    t0 = perf()
    import weilspin.cli as cli
    t_import = perf() - t0

    import weilspin
    if not os.path.abspath(weilspin.__file__).startswith(src + os.sep):
        raise SystemExit(f"weilspin imported from {weilspin.__file__}, not from {src}")
    from weilspin import secantpipe
    from weilspin.weilcm import WeilDatum, WeilStructure

    timers = {}
    if spec["preset"]:
        name = spec["preset"]
        secantpipe.PRESETS[name] = _time_into(timers, "datum", secantpipe.PRESETS[name])
    else:
        WeilDatum.from_json = classmethod(_time_into(timers, "datum", WeilDatum.from_json.__func__))
    WeilStructure.__init__ = _time_into(timers, "structure", WeilStructure.__init__)

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    log = io.StringIO()
    t0 = perf()
    with contextlib.redirect_stderr(log):
        code = cli.main(spec["argv"])
    verify_s = perf() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "exit": code,
        "verify_s": verify_s,
        "setup_s": t_import + timers.get("datum", 0.0) + timers.get("structure", 0.0),
        "setup.import_s": t_import,
        "setup.datum_s": timers.get("datum", 0.0),
        "setup.structure_s": timers.get("structure", 0.0),
        "peak_rss_mb": rss_mb,
        "stderr_tail": log.getvalue().splitlines()[-3:],
    }
    if tracer is not None:
        result["unpatched"] = tracer.unpatched_sites()
        result["calls"] = dict(tracer.calls)
        result["seconds"] = dict(tracer.seconds)
        result["rref_rows"] = tracer.rref_rows
        result["rref_rank"] = tracer.rref_rank
    if spec["micro"]:
        import micro
        from weilspin.fieldtower import TowerSpec

        tower = TowerSpec(spec["tower"]["p"], spec["tower"]["q"])
        result["micro"] = micro.run(tower, spec["seed"])
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
