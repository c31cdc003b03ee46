"""Per-layer tracing for the benchmark's traced runs.

A `Tracer` wraps the public functions of each pshlab layer on every module
attribute through which the program looks them up: ``from .multiplier_ideal
import ideal_of`` copies the binding, so ``pshlab.sequence.ideal_of`` and
``pshlab.bergman.ideal_of`` are wrapped beside ``pshlab.multiplier_ideal
.ideal_of``.  ``numpy.linalg.eigh`` and ``numpy.polyfit`` are wrapped as
``pshlab.bergman`` calls them, through a stand-in for its ``np`` global, so
numpy itself is never patched.  Wrappers are installed for one job and
removed after it; only pshlab modules already imported are wrapped.

Times are inclusive (a call to ``entry`` includes its ``ideal_of``) and a
function re-entered below itself is timed once.

Run as a script, this module is a traced ``python -m pshlab``: it installs
the wrappers, runs the CLI with the remaining arguments and writes the
tracer's totals as JSON to the file named first.

Only the standard library is imported at module level.
"""

from __future__ import annotations

import functools
import json
import statistics
import subprocess
import sys
import time
from collections import defaultdict

# (module, attribute) of every wrapped function and the metric key it feeds.
TIMED = (
    ("pshlab.sequence", "entry", "sequence.entry"),
    ("pshlab.sequence", "verify_paper", "sequence.verify_paper"),
    ("pshlab.multiplier_ideal", "ideal_of", "multiplier_ideal.ideal_of"),
    ("pshlab.singularity", "compare", "singularity.compare"),
    ("pshlab.multiplier_ideal", "generators", "multiplier_ideal.generators"),
    ("pshlab.multiplier_ideal", "contains", "multiplier_ideal.contains"),
    ("pshlab.integrability", "integrability_estimate",
     "integrability.estimate"),
    ("pshlab.bergman", "gram_matrix", "bergman.gram"),
    ("pshlab.bergman", "kernel_values", "bergman.kernel"),
)

IMPORT_PROBES = 5


class Tracer:
    """Call counts, inclusive times and a few outcome counters per layer."""

    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.jobs = 0
        self._depth: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []
        self._entry_pairs: set = set()
        self._seen_arrangements: set = set()

    # -- wrappers ------------------------------------------------------

    def _timed(self, key, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[key] += 1
            if self._depth[key]:
                return fn(*args, **kwargs)
            self._depth[key] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                self._depth[key] -= 1
                self.seconds[key] += elapsed
            if after is not None:
                after(args, kwargs, result, elapsed)
            return result
        return wrapper

    def _counted(self, key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _after_entry(self, args, kwargs, result, elapsed):
        self._entry_pairs.add((args[0], result.m))

    def _after_generators(self, args, kwargs, result, elapsed):
        self.counts["multiplier_ideal.generators.terms"] += sum(
            len(list(g.terms())) for g in result)

    def _after_estimate(self, args, kwargs, result, elapsed):
        arr = args[0] if args else kwargs["arr"]
        if arr in self._seen_arrangements:
            self.samples["integrability.warm_call_ms"].append(1e3 * elapsed)
        else:
            self._seen_arrangements.add(arr)
            self.samples["integrability.first_call_ms"].append(1e3 * elapsed)

    def _after_gram(self, args, kwargs, result, elapsed):
        k = result.basis_size
        n = result.spec.sphere_samples
        same = sum(int((result.degrees == d).sum()) ** 2
                   for d in set(result.degrees.tolist()))
        self.counts["bergman.samples"] += n
        self.counts["bergman.gram_entries"] += k * k
        self.counts["bergman.block_entries"] += same
        # one complex multiply-add = 8 real floating-point operations
        self.counts["bergman.gram_flop"] += 8.0 * n * k * k
        arr = args[0] if args else kwargs["arr"]
        if result.m == 1 and arr.total_mass > 0:
            self.seconds["bergman.gram.m1"] += elapsed
            self.counts["bergman.basis_size.m1"] = k

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> None:
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "pshlab" or name.startswith("pshlab.")}
        hooks = {
            "sequence.entry": self._after_entry,
            "multiplier_ideal.generators": self._after_generators,
            "integrability.estimate": self._after_estimate,
            "bergman.gram": self._after_gram,
        }
        for modname, attr, key in TIMED:
            home = mods.get(modname)
            if home is None:
                continue
            original = getattr(home, attr)
            wrapped = self._timed(key, original, hooks.get(key))
            for mod in mods.values():
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapped)
        polys = mods.get("pshlab.polynomials")
        if polys is not None:
            cls = polys.BivariatePolynomial
            mul = cls.__mul__
            counted = self._counted("polynomials.mul", mul)
            for name, value in list(vars(cls).items()):
                if value is mul:
                    self._patch(cls, name, counted)
        bergman = mods.get("pshlab.bergman")
        if bergman is not None:
            self._patch(bergman, "np", _NumpyView(bergman.np, self))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, value = self._patches.pop()
            setattr(owner, name, value)

    def begin_job(self) -> None:
        self._entry_pairs = set()
        self.install()

    def end_job(self) -> None:
        self.uninstall()
        self.counts["sequence.entry.distinct"] += len(self._entry_pairs)
        self.jobs += 1

    # -- totals shared with traced child processes ---------------------

    def totals(self) -> dict:
        return {"seconds": dict(self.seconds), "calls": dict(self.calls),
                "counts": dict(self.counts), "samples": dict(self.samples)}

    def merge(self, totals: dict) -> None:
        for key, value in totals["seconds"].items():
            self.seconds[key] += value
        for key, value in totals["calls"].items():
            self.calls[key] += value
        for key, value in totals["counts"].items():
            if key == "bergman.basis_size.m1":
                self.counts[key] = value
            else:
                self.counts[key] += value
        for key, values in totals["samples"].items():
            self.samples[key].extend(values)


class _NumpyView:
    """numpy as seen by pshlab.bergman, with eigh and polyfit timed."""

    def __init__(self, np, tracer: Tracer):
        self._np = np
        self.linalg = _Delegate(np.linalg,
                                eigh=tracer._timed("bergman.eigh",
                                                   np.linalg.eigh))
        self.polyfit = tracer._timed("bergman.slope_fit", np.polyfit)

    def __getattr__(self, name):
        return getattr(self._np, name)


class _Delegate:
    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


# -- import layer -----------------------------------------------------------


def _median_wall_ms(argv) -> float:
    times = []
    for _ in range(IMPORT_PROBES):
        t0 = time.perf_counter()
        subprocess.run(argv, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL, check=True, timeout=60)
        times.append(1e3 * (time.perf_counter() - t0))
    return statistics.median(times)


def import_metrics() -> dict[str, float]:
    """Bare interpreter start, and the cumulative import time of pshlab and
    of numpy within it (``-X importtime``; 0 when numpy is not imported)."""
    interpreter = _median_wall_ms([sys.executable, "-c", "pass"])
    pshlab, numpy = [], []
    for _ in range(IMPORT_PROBES):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import pshlab"],
            capture_output=True, check=True, timeout=60)
        cumulative = {}
        for line in done.stderr.decode().splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1e3
        pshlab.append(cumulative["pshlab"])
        numpy.append(cumulative.get("numpy", 0.0))
    return {
        "import.interpreter_ms": interpreter,
        "import.pshlab_ms": statistics.median(pshlab),
        "import.numpy_ms": statistics.median(numpy),
    }


# -- per-layer metrics ---------------------------------------------------------

LAYER_UNITS = {
    "import.interpreter_ms": "ms",
    "import.pshlab_ms": "ms",
    "import.numpy_ms": "ms",
    "cli.lct_ms": "ms",
    "cli.compare_ms": "ms",
    "cli.sequence_ms": "ms",
    "cli.verify_paper_ms": "ms",
    "cli.analyze_ms": "ms",
    "cli.bergman_ms": "ms",
    "cli.stdout_bytes": "B",
    "sequence.entry_s": "s",
    "sequence.entry.calls": "count",
    "sequence.entry.distinct_ratio": "ratio",
    "multiplier_ideal.ideal_of_s": "s",
    "multiplier_ideal.ideal_of.calls": "count",
    "singularity.compare_s": "s",
    "singularity.compare.calls": "count",
    "sequence.verify_paper_s": "s",
    "multiplier_ideal.generators_s": "s",
    "multiplier_ideal.generators.terms": "count",
    "multiplier_ideal.contains_s": "s",
    "multiplier_ideal.contains.calls": "count",
    "polynomials.mul.calls": "count",
    "integrability.estimate_s": "s",
    "integrability.estimate.calls": "count",
    "integrability.first_call_ms.p50": "ms",
    "integrability.warm_call_ms.p50": "ms",
    "bergman.gram_s": "s",
    "bergman.gram_s.m1": "s",
    "bergman.eigh_s": "s",
    "bergman.sphere_points_s": "s",
    "bergman.kernel_s": "s",
    "bergman.slope_fit_s": "s",
    "bergman.samples": "count",
    "bergman.basis_size.m1": "count",
    "bergman.gram_entries": "count",
    "bergman.block_fraction": "ratio",
    "bergman.gram_gflop": "Gflop",
    "trace.overhead_pct": "%",
}


def layer_metrics(tracer: Tracer, workload, plain: list[float],
                  traced: list[float]) -> dict[str, tuple[float, str]]:
    """Per-layer values, per traced job (per CLI session for cli-cold)."""
    jobs = max(tracer.jobs, 1)

    def per_job_s(key):
        return tracer.seconds.get(key, 0.0) / jobs

    def per_job_calls(key):
        return tracer.calls.get(key, 0) / jobs

    def p50(key):
        values = tracer.samples.get(key)
        return statistics.median(values) if values else 0.0

    counts = tracer.counts
    entry_calls = tracer.calls.get("sequence.entry", 0)
    entries = counts.get("bergman.gram_entries", 0.0)
    values = dict(import_metrics())
    values.update(workload.cli_metrics())
    values.update({
        "sequence.entry_s": per_job_s("sequence.entry"),
        "sequence.entry.calls": per_job_calls("sequence.entry"),
        "sequence.entry.distinct_ratio":
            counts.get("sequence.entry.distinct", 0.0) / entry_calls
            if entry_calls else 0.0,
        "multiplier_ideal.ideal_of_s": per_job_s("multiplier_ideal.ideal_of"),
        "multiplier_ideal.ideal_of.calls":
            per_job_calls("multiplier_ideal.ideal_of"),
        "singularity.compare_s": per_job_s("singularity.compare"),
        "singularity.compare.calls": per_job_calls("singularity.compare"),
        "sequence.verify_paper_s": per_job_s("sequence.verify_paper"),
        "multiplier_ideal.generators_s":
            per_job_s("multiplier_ideal.generators"),
        "multiplier_ideal.generators.terms":
            counts.get("multiplier_ideal.generators.terms", 0.0) / jobs,
        "multiplier_ideal.contains_s": per_job_s("multiplier_ideal.contains"),
        "multiplier_ideal.contains.calls":
            per_job_calls("multiplier_ideal.contains"),
        "polynomials.mul.calls": per_job_calls("polynomials.mul"),
        "integrability.estimate_s": per_job_s("integrability.estimate"),
        "integrability.estimate.calls":
            per_job_calls("integrability.estimate"),
        "integrability.first_call_ms.p50": p50("integrability.first_call_ms"),
        "integrability.warm_call_ms.p50": p50("integrability.warm_call_ms"),
        "bergman.gram_s": per_job_s("bergman.gram"),
        "bergman.gram_s.m1": per_job_s("bergman.gram.m1"),
        "bergman.eigh_s": per_job_s("bergman.eigh"),
        "bergman.sphere_points_s": p50("bergman.sphere_points_s"),
        "bergman.kernel_s": per_job_s("bergman.kernel"),
        "bergman.slope_fit_s": per_job_s("bergman.slope_fit"),
        "bergman.samples": counts.get("bergman.samples", 0.0) / jobs,
        "bergman.basis_size.m1": counts.get("bergman.basis_size.m1", 0.0),
        "bergman.gram_entries": entries / jobs,
        "bergman.block_fraction":
            counts.get("bergman.block_entries", 0.0) / entries
            if entries else 0.0,
        "bergman.gram_gflop": counts.get("bergman.gram_flop", 0.0) / 1e9 / jobs,
        "trace.overhead_pct": 100.0 * (statistics.median(traced)
                                       / statistics.median(plain) - 1.0),
    })
    return {name: (float(values[name]), unit)
            for name, unit in LAYER_UNITS.items()}


def _main(argv) -> int:
    """Traced CLI child: ``tracer.py TOTALS_JSON pshlab-args...``."""
    import pshlab.cli

    tracer = Tracer()
    tracer.begin_job()
    try:
        code = pshlab.cli.main(argv[1:])
    finally:
        tracer.end_job()
        with open(argv[0], "w", encoding="utf-8") as handle:
            json.dump(tracer.totals(), handle)
    return code


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
