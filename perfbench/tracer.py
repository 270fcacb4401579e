"""Per-layer tracing of `gkf` from outside the program.

`Tracer.install` wraps every public function of every `gkf` module (plus
the few private ones named in `EXTRA`) and `RngStream.generator`.  Modules
import functions by name, so the wrapper replaces the function object in
every `gkf` module namespace that holds it; `restore` puts every original
back.  Each call records one span: name, layer, start, end, parent span,
job id, and for the functions in `PROBES` a small dict of the sizes that
drive them.  Spans stay in memory until the run writes them out.

A layer is a module.  Self time is a span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = (
    "scalars", "series", "bases", "kinematics", "model_sets", "evaluate",
    "gauss", "rng", "sampling", "functionals", "drivers", "cli",
)
# private functions that carry a layer counter
EXTRA = {"drivers": ("_chunk_task",)}

_misses = lambda fn: fn.cache_info().misses  # noqa: E731


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _law(a) -> str:
    return "inf" if a["law_n"] is None else str(a["law_n"])


# (layer, name) -> f(bound arguments, result, cache miss) -> span extra
PROBES = {
    ("bases", "conversion_matrix"): lambda a, r, miss: {
        "N": a["N"], "nonzeros": sum(len(col) for col in r) if miss else 0},
    ("sampling", "pi_n_batch"): lambda a, r, miss: {
        "N": a["N"], "maps": a["size"], "bytes": 8 * a["size"] * (a["N"] + 1) * (a["n"] + 1)},
    ("sampling", "pi_infinity_batch"): lambda a, r, miss: {
        "maps": a["size"], "bytes": 8 * a["size"] * a["d"] * (a["n"] + 1)},
    ("functionals", "icosphere"): lambda a, r, miss: {"depth": a["depth"]},
    ("functionals", "chi_halfspace_batch"): lambda a, r, miss: {"maps": len(r)},
    ("functionals", "chi_quadratic_batch"): lambda a, r, miss: {"maps": len(r)},
    ("functionals", "chi_intersection"): lambda a, r, miss: {"maps": 1},
    ("drivers", "estimate_lhs"): lambda a, r, miss: {"law": _law(a), "samples": a["n_samples"]},
}


class Tracer:
    """Collects spans while installed.  Set `job` to the id of the job in
    progress; spans recorded with `job` None (set-up, reference checks) are
    left out of the layer metrics."""

    def __init__(self):
        self.spans: list = []
        self.job = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, fn, name: str, layer: str):
        spans = self.spans
        stack = self._stack
        probe = PROBES.get((layer, name))
        cached = hasattr(fn, "cache_info")
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            before = _misses(fn) if cached else 0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[index] = [name, layer, t0, t1, parent, self.job, None]
            miss = cached and _misses(fn) > before
            extra = probe(_bound(fn, args, kwargs), result, miss) if probe else {}
            if miss:
                extra["miss"] = True
            if extra:
                spans[index][6] = extra
            return result

        functools.update_wrapper(wrapper, fn)
        wrapper.__traced__ = True
        if cached:
            wrapper.cache_info = fn.cache_info
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        import gkf
        import gkf.cli  # noqa: F401  (not imported by the package itself)
        from gkf.rng import RngStream

        modules = {layer: sys.modules[f"gkf.{layer}"] for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for name, obj in vars(module).items():
                if name.startswith("_") and name not in EXTRA.get(layer, ()):
                    continue
                if inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                wrappers[id(obj)] = (obj, self._wrap(obj, name, layer))
        for module in (gkf, *modules.values()):
            for name, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((module, name, obj))
                    setattr(module, name, hit[1])
        original = RngStream.generator
        self._patches.append((RngStream, "generator", original))
        RngStream.generator = self._wrap(original, "RngStream.generator", "rng")

    def restore(self) -> None:
        for owner, name, obj in reversed(self._patches):
            setattr(owner, name, obj)
        self._patches.clear()


def leftover_wrappers() -> list[str]:
    """Names in `gkf` namespaces that still hold a tracing wrapper."""
    from gkf.rng import RngStream

    owners = [m for name, m in sys.modules.items() if name == "gkf" or name.startswith("gkf.")]
    owners.append(RngStream)
    return [
        f"{getattr(owner, '__name__', owner)}.{name}"
        for owner in owners
        for name, obj in vars(owner).items()
        if getattr(obj, "__traced__", False)
    ]


# -- metrics -----------------------------------------------------------------------

BUILD_SIZES = (10, 40, 64)
SAMPLER_SIZES = (50, 200, 1000)
MESH_DEPTHS = (6, 7)


def layer_metrics(spans: list) -> tuple[dict, dict]:
    """Per-layer metrics from the spans of traced jobs, and the breakdown
    by driving size (N, depth, law) of every size that occurred."""
    child = defaultdict(float)
    for span in spans:
        if span[4] >= 0:
            child[span[4]] += span[3] - span[2]
    self_s = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(float)
    for index, (name, layer, t0, t1, parent, job, extra) in enumerate(spans):
        if job is None:
            continue
        duration = t1 - t0
        self_s[layer] += duration - child[index]
        calls[layer] += 1
        extra = extra or {}
        if name == "conversion_matrix" and extra.get("miss"):
            counts["bases.build_s"] += duration
            counts[f"bases.build_s.N{extra['N']}"] += duration
            counts["bases.matrices_built"] += 1
            counts["bases.matrix_nonzeros"] += extra["nonzeros"]
        elif name == "change_basis":
            counts["bases.apply_s"] += duration - child[index]
            counts["bases.conversions"] += 1
        elif name == "nu_in_sigma_column" and extra.get("miss"):
            counts["bases.nu_columns_s"] += duration
            counts["bases.nu_columns"] += 1
        elif name == "generalized_binomial":
            counts["scalars.binomial_s"] += duration
            counts["scalars.binomials"] += 1
        elif name == "gkf_predict":
            counts["gauss.predictions"] += 1
        elif name == "icosphere" and extra.get("miss"):
            counts["functionals.icosphere_s"] += duration
            counts[f"functionals.icosphere_s.depth{extra['depth']}"] += duration
        elif name == "mesh_chi_quadratic":
            counts["functionals.mesh_s"] += duration
        elif name == "mesh_chi_sublevel":
            counts["functionals.mesh_levels"] += 1
        elif name in ("pi_n_batch", "pi_infinity_batch"):
            counts["sampling.maps"] += extra["maps"]
            counts["sampling.bytes_drawn"] += extra["bytes"]
            counts["sampling.draw_s"] += duration
            if name == "pi_n_batch":
                counts[f"sampling.pi_n_batch_s.N{extra['N']}"] += duration
                counts[f"sampling.pi_n_batch_calls.N{extra['N']}"] += 1
        elif name == "_chunk_task":
            counts["drivers.chunks"] += 1
        elif name == "RngStream.generator":
            counts["rng.generators"] += 1
        elif name == "estimate_lhs":
            counts["drivers.samples"] += extra["samples"]
            counts["drivers.estimate_s"] += duration
            law = f"law_{extra['law']}"
            counts[f"drivers.estimate_lhs_s.{law}"] += duration
            counts[f"drivers.estimate_lhs_samples.{law}"] += extra["samples"]
            if law != "law_inf":
                counts["drivers.estimate_lhs_s.law_N"] += duration
        elif name.startswith("cmd_"):
            counts["cli.commands"] += 1
        if name in ("chi_halfspace_batch", "chi_quadratic_batch", "chi_intersection"):
            counts["functionals.maps_scored"] += extra["maps"]

    out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    out["evaluate.calls"] = calls["evaluate"]
    keys = [
        "bases.build_s", "bases.matrices_built", "bases.matrix_nonzeros",
        "bases.apply_s", "bases.conversions", "bases.nu_columns_s",
        "bases.nu_columns", "scalars.binomial_s", "scalars.binomials",
        "gauss.predictions", "functionals.mesh_s", "functionals.icosphere_s", "functionals.mesh_levels",
        "functionals.maps_scored", "sampling.maps", "sampling.bytes_drawn",
        "drivers.chunks", "rng.generators", "cli.commands",
        *(f"bases.build_s.N{N}" for N in BUILD_SIZES),
        *(f"sampling.pi_n_batch_s.N{N}" for N in SAMPLER_SIZES),
        *(f"functionals.icosphere_s.depth{d}" for d in MESH_DEPTHS),
        "drivers.estimate_lhs_s.law_inf", "drivers.estimate_lhs_s.law_N",
    ]
    for key in keys:
        out[key] = counts[key]
    draw_s = counts["sampling.draw_s"]
    out["sampling.maps_per_s"] = counts["sampling.maps"] / draw_s if draw_s else 0.0
    est_s = counts["drivers.estimate_s"]
    out["drivers.samples_per_s"] = counts["drivers.samples"] / est_s if est_s else 0.0
    # every other size that occurred, for the detailed record only
    sizes = {k: v for k, v in counts.items() if k not in out and k.count(".") == 2}
    return out, sizes
