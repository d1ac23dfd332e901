"""Per-layer call counts and inclusive times, recorded from outside weilspin.

The program is not edited: each traced public function is replaced by a
timing wrapper in every loaded `weilspin` module that holds a reference to
it.  Functions imported by name (`from .exteralg import wedge`) live in the
importing module's globals too, so a wrapper installed only on the defining
module would miss those calls; `Tracer.install` patches every such site and
`Tracer.unpatched_sites` lists any it missed.

A wrapped function that re-enters itself is timed once, at the outermost
call, so inclusive times are not counted twice; every call is counted.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

perf = time.perf_counter

# (metric stem, module, function) traced at every import site; the two
# functions that turn Xi_t into forms share the stem weilcm.xi_forms
FUNCTIONS = [
    ("linalg.rref", "weilspin.linalg", "rref"),
    ("linalg.nullspace", "weilspin.linalg", "nullspace"),
    ("linalg.modp_joint_kernel_dim", "weilspin.linalg", "modp_joint_kernel_dim"),
    ("linalg.modp_kernel", "weilspin.linalg", "modp_kernel"),
    ("weilcm.invariant_dimension_certificate", "weilspin.weilcm", "invariant_dimension_certificate"),
    ("weilcm.generated_subalgebra_degree", "weilspin.weilcm", "generated_subalgebra_degree"),
    ("weilcm.build_spinor", "weilspin.weilcm", "build_spinor"),
    ("weilcm.build_W", "weilspin.weilcm", "build_W"),
    ("weilcm.build_eta", "weilspin.weilcm", "build_eta"),
    ("weilcm.build_WT", "weilspin.weilcm", "build_WT"),
    ("weilcm.build_B", "weilspin.weilcm", "build_B"),
    ("weilcm.build_HW", "weilspin.weilcm", "build_HW"),
    ("weilcm.build_gB", "weilspin.weilcm", "build_gB"),
    ("weilcm.xi_forms", "weilspin.weilcm", "xi_form_matrix"),
    ("weilcm.xi_forms", "weilspin.weilcm", "form_to_element"),
    ("weilcm.gb_int_cols", "weilspin.weilcm", "gb_int_cols"),
    ("clifford.clifford_mul", "weilspin.clifford", "clifford_mul"),
    ("clifford.derivation_int", "weilspin.clifford", "derivation_int"),
    ("exteralg.wedge", "weilspin.exteralg", "wedge"),
    ("purespinor.annihilator", "weilspin.purespinor", "annihilator"),
]

# (metric stem, module, class, method) traced on the class itself
METHODS = [
    ("fmtransform.orlov_init", "weilspin.fmtransform", "OrlovTransform", "__init__"),
    ("fmtransform.transform", "weilspin.fmtransform", "TransformMap", "__call__"),
]

STEMS = list(dict.fromkeys([f[0] for f in FUNCTIONS] + [m[0] for m in METHODS]))

CHECK_FAMILIES = (
    "tower", "exterior", "clifford", "spinor", "cm", "secant", "forms",
    "weil", "lie", "invariants", "bb", "fm", "lemma", "pipeline",
)


class Tracer:
    """Counts and inclusive seconds per traced name; install once per process."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.rref_rows = 0
        self.rref_rank = 0
        self._originals = []

    def _timed(self, name, fn, after=None):
        calls, seconds = self.calls, self.seconds
        depth = [0]

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] = 1
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                seconds[name] += perf() - t0
                depth[0] = 0
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def _count_rank(self, args, out):
        self.rref_rows += len(args[0])
        self.rref_rank += len(out[1])

    def _count_certificate(self, args, out):
        # degree 0 is answered without any prime, so it is not a certificate
        if args[2] > 0:
            self.calls["weilcm.certificates"] += 1

    def install(self):
        after = {"linalg.rref": self._count_rank,
                 "weilcm.invariant_dimension_certificate": self._count_certificate}
        mods = [m for k, m in sys.modules.items() if k.startswith("weilspin") and m is not None]
        for name, modname, attr in FUNCTIONS:
            orig = getattr(sys.modules[modname], attr)
            wrapper = self._timed(name, orig, after.get(name))
            self._originals.append((name, orig))
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapper)
        for name, modname, cls, meth in METHODS:
            klass = getattr(sys.modules[modname], cls)
            setattr(klass, meth, self._timed(name, getattr(klass, meth)))
        self._install_record()

    def _install_record(self):
        """Time each check through `_Runner.record`, the one dispatch point."""
        from weilspin import secantpipe

        orig = secantpipe._Runner.record
        seconds, calls = self.seconds, self.calls

        def record(runner, name, anchor, fn):
            before = len(runner.checks)
            t0 = perf()
            try:
                return orig(runner, name, anchor, fn)
            finally:
                dt = perf() - t0
                if len(runner.checks) > before:
                    family = name.split(".", 1)[0]
                    key = f"secantpipe.check.{family}"
                    calls[key] += 1
                    seconds[key] += dt
                    if family == "invariants":
                        seconds[f"secantpipe.check.invariants.k{name.rsplit('=', 1)[1]}"] += dt

        secantpipe._Runner.record = record

    def unpatched_sites(self):
        """Module globals still bound to an untraced original (should be empty)."""
        missed = []
        for key, mod in list(sys.modules.items()):
            if not key.startswith("weilspin") or mod is None:
                continue
            for attr, val in vars(mod).items():
                for name, orig in self._originals:
                    if val is orig:
                        missed.append(f"{key}.{attr} ({name})")
        return missed
