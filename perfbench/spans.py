"""Spans around the calls into each ``sadi`` layer, recorded from outside the
package: public names are replaced at the place where callers look them up
(a module global or a class attribute) and restored afterwards.  Nothing in
``src/`` knows about tracing.

Spans stay in memory during the run; ``write_spans`` stores them once the
run is over, and ``layer_metrics`` derives the per-layer metrics from them.
"""

from __future__ import annotations

import functools
import math
import threading
import time
from pathlib import Path


class Span:
    __slots__ = ("name", "parent", "tid", "job", "start", "end", "info")

    def __init__(self, name, parent, tid, job):
        self.name = name
        self.parent = parent
        self.tid = tid
        self.job = job
        self.start = 0.0
        self.end = 0.0
        self.info = None


class Tracer:
    """Records a span per wrapped call: name, start, end, parent span,
    thread id, and the job that was running.  A span opened by a pool
    thread whose own stack is empty gets the main thread's innermost open
    span as its parent, since the main thread is blocked in the call that
    started the pool."""

    def __init__(self):
        self.spans = []
        self.job = "setup"
        self._main_tid = threading.get_ident()
        self._main_stack = []
        self._local = threading.local()
        self._patches = []
        self.missing = []  # names that were not found, so their layer reads 0

    def _stack(self):
        if threading.get_ident() == self._main_tid:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, info=None):
        """``info(result, *args, **kwargs)`` may attach a dict to the span."""
        spans = self.spans
        main_stack = self._main_stack
        stack_of = self._stack
        now = time.perf_counter
        get_ident = threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else None)
            span = Span(name, parent, get_ident(), self.job)
            spans.append(span)
            stack.append(span)
            span.start = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = now()
                stack.pop()
            if info is not None:
                span.info = info(result, *args, **kwargs)
            return result

        return traced

    def patch(self, owner, attr, name, info=None):
        original = owner.__dict__.get(attr)
        if original is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(name, original.__func__, info))
        else:
            replacement = self.wrap(name, original, info)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


# ---------------------------------------------------------------------------
# what is wrapped
# ---------------------------------------------------------------------------


def _ensemble_info(result, spec, seed, n_reps, checkpoints=None,
                   record_paths=False, threads=1):
    # pre-draw held at once by _simulate_reps: one (R, N, dim) array per noise
    # and bias role, an (R, N) selector array, and (R, N, d+1) perturbations
    dims = (spec.noise_xi.dim + spec.noise_zeta.dim + spec.noise_zetatilde.dim
            + spec.bias.dim + 1 + (spec.drift.dim + 1 if spec.drift.m_rule else 0))
    return {"reps": int(n_reps), "steps": int(spec.n_steps), "threads": max(1, int(threads)),
            "spec": spec.name, "predraw_bytes": 8 * int(n_reps) * int(spec.n_steps) * dims}


def _certify_info(result, *args, **kwargs):
    return {"points": len(result.records)}


def _integrate_info(result, *args, **kwargs):
    return {"steps": int(result.n_steps), "events": len(result.events)}


def _sdi_info(result, model, u0, dt, horizon, strategy=None, seed=0, n_reps=1,
              record_paths=True):
    # the simulator's own step count rule
    steps = int(math.ceil(horizon / dt - 1e-12)) if horizon > 0 else 0
    return {"path_steps": int(n_reps) * steps}


def _run_experiment_info(result, config, out_dir=None, threads=1):
    if out_dir is None:
        return {"bytes": 0}
    return {"bytes": sum(p.stat().st_size for p in Path(out_dir).iterdir() if p.is_file())}


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


def install(tracer: Tracer) -> None:
    """Wrap the public names each layer is reached through."""
    import sadi.cli
    import sadi.config
    import sadi.engine
    import sadi.inclusions
    import sadi.nonsmooth
    import sadi.presets
    import sadi.rates
    import sadi.runner
    import sadi.sets

    p = tracer.patch
    p(sadi.cli, "parse_config", "config.parse")
    p(sadi.config, "validate_config", "config.validate")
    p(sadi.config.ExperimentConfig, "resolve", "config.resolve")
    p(sadi.config, "preset_by_name", "presets.build")
    p(sadi.cli, "run_experiment", "runner.run_experiment", _run_experiment_info)
    p(sadi.runner, "run_ensemble", "engine.run_ensemble", _ensemble_info)
    p(sadi.runner, "run", "engine.run")
    p(sadi.engine.Drift, "set_term_rows", "engine.set_term")
    for base in (sadi.engine.NoiseModel, sadi.engine.BiasModel):
        for cls in _subclasses(base):
            if "sample_block" in cls.__dict__:
                p(cls, "sample_block", "engine.sample_block")
    p(sadi.rates.NormalizedSeries, "from_iterates", "rates.normalize")
    p(sadi.runner, "tightness_diagnostic", "rates.tightness")
    p(sadi.runner, "compare_to_sdi", "rates.compare")
    p(sadi.cli, "simulate_sdi", "rates.simulate_sdi", _sdi_info)
    p(sadi.rates, "simulate_sdi", "rates.simulate_sdi", _sdi_info)
    p(sadi.cli, "integrate", "inclusions.integrate", _integrate_info)
    for mod in (sadi.sets, sadi.engine, sadi.inclusions, sadi.rates):
        p(mod, "select", "sets.select")
    for mod in (sadi.sets, sadi.inclusions, sadi.nonsmooth):
        p(mod, "least_norm_point", "sets.least_norm")
    p(sadi.sets.SetValuedMap, "value", "sets.map_value")
    p(sadi.sets.ConvexSet, "support", "sets.support")
    p(sadi.presets, "certify_stability", "nonsmooth.certify", _certify_info)
    p(sadi.nonsmooth, "u_generalized_derivative", "nonsmooth.ugd")
    p(sadi.nonsmooth, "clarke_gradient", "nonsmooth.clarke")
    p(sadi.nonsmooth, "linprog", "nonsmooth.lp")


# ---------------------------------------------------------------------------
# spans -> per-layer metrics
# ---------------------------------------------------------------------------


def write_spans(spans, path: Path, origin: float) -> None:
    """One tab-separated line per span; times in seconds from ``origin``."""
    index = {id(s): i for i, s in enumerate(spans)}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id\tparent\tname\tjob\tthread\tstart_s\tend_s\n")
        for i, s in enumerate(spans):
            parent = index.get(id(s.parent), -1) if s.parent is not None else -1
            fh.write(f"{i}\t{parent}\t{s.name}\t{s.job}\t{s.tid}\t"
                     f"{s.start - origin:.9f}\t{s.end - origin:.9f}\n")


def _outermost(spans, *names):
    """Spans named in ``names`` not nested inside another such span."""
    out = []
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p is not None and p.name not in names:
            p = p.parent
        if p is None:
            out.append(s)
    return out


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced pass.  Names with ``_calls``,
    ``points``, ``events``, ``steps`` or ``bytes`` are exact counts; a layer
    that the workload does not reach reads 0."""
    setup = [s for s in spans if s.job == "setup"]
    job = [s for s in spans if s.job != "setup"]
    by_name = {}
    for s in job:
        by_name.setdefault(s.name, []).append(s)

    def calls(name):
        return len(by_name.get(name, ()))

    def total(*names, pool=None):
        return sum(s.end - s.start for s in _outermost(job if pool is None else pool, *names))

    def mean_us(name):
        top = _outermost(by_name.get(name, ()), name)
        return 1e6 * _ratio(sum(s.end - s.start for s in top), len(top))

    def info_sum(name, key):
        return sum(s.info[key] for s in by_name.get(name, ()) if s.info)

    m = {}
    m["config.parse_s"] = total("config.parse", "config.validate", pool=setup)
    m["config.resolve_s"] = total("config.resolve", pool=setup)
    m["presets.build_s"] = total("presets.build", pool=setup)

    # engine: pre-draw runs from run_ensemble entry to the first set_term call
    children = {}
    for s in job:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(s)

    def first_set_term(span):
        first, todo = None, list(children.get(id(span), ()))
        while todo:
            s = todo.pop()
            if s.name == "engine.set_term" and (first is None or s.start < first):
                first = s.start
            todo.extend(children.get(id(s), ()))
        return first

    ens = _outermost(by_name.get("engine.run_ensemble", ()), "engine.run_ensemble")
    predraw = loop = 0.0
    for s in ens:
        first = first_set_term(s)
        cut = s.end if first is None else first
        predraw += cut - s.start
        loop += s.end - cut
    reps = sum(s.info["reps"] for s in ens)
    steps = sum(s.info["steps"] for s in ens)
    rep_steps = sum(s.info["reps"] * s.info["steps"] for s in ens)
    ens_s = sum(s.end - s.start for s in ens)
    m["engine.run_ensemble_s"] = ens_s
    m["engine.predraw_s"] = predraw
    m["engine.predraw_us_per_rep"] = 1e6 * _ratio(predraw, reps)
    m["engine.predraw_mb"] = max((s.info["predraw_bytes"] for s in ens), default=0) / 1e6
    m["engine.sample_block_calls"] = calls("engine.sample_block")
    m["engine.sample_block_s"] = total("engine.sample_block")
    m["engine.loop_s"] = loop
    m["engine.loop_us_per_step"] = 1e6 * _ratio(loop, steps)
    m["engine.set_term_calls"] = calls("engine.set_term")
    m["engine.set_term_s"] = total("engine.set_term")
    m["engine.rep_steps_per_s"] = _ratio(rep_steps, ens_s)
    # run_ensemble time at 1 thread over the time at 2 threads, same spec
    by_spec = {}
    for s in ens:
        key = (s.info["spec"], s.info["reps"], s.info["steps"])
        by_spec.setdefault(key, {}).setdefault(s.info["threads"], []).append(s.end - s.start)
    one = sum(sum(t[1]) for t in by_spec.values() if 1 in t and 2 in t)
    two = sum(sum(t[2]) for t in by_spec.values() if 1 in t and 2 in t)
    m["engine.thread_speedup"] = _ratio(one, two)

    for short, name in (("map_value", "sets.map_value"), ("support", "sets.support"),
                        ("select", "sets.select"), ("least_norm", "sets.least_norm")):
        m[f"sets.{short}_calls"] = calls(name)
        m[f"sets.{short}_us"] = mean_us(name)

    points = info_sum("nonsmooth.certify", "points")
    certify_s = total("nonsmooth.certify")
    m["nonsmooth.certify_s"] = certify_s
    m["nonsmooth.points"] = points
    m["nonsmooth.us_per_point"] = 1e6 * _ratio(certify_s, points)
    for short, name in (("ugd", "nonsmooth.ugd"), ("clarke", "nonsmooth.clarke"),
                        ("lp", "nonsmooth.lp")):
        m[f"nonsmooth.{short}_calls"] = calls(name)
        m[f"nonsmooth.{short}_s"] = total(name)
    m["nonsmooth.lp_per_point"] = _ratio(calls("nonsmooth.lp"), points)

    integrate_s = total("inclusions.integrate")
    di_steps = info_sum("inclusions.integrate", "steps")
    m["inclusions.integrate_s"] = integrate_s
    m["inclusions.steps"] = di_steps
    m["inclusions.us_per_step"] = 1e6 * _ratio(integrate_s, di_steps)
    m["inclusions.events"] = info_sum("inclusions.integrate", "events")

    sdi_s = total("rates.simulate_sdi")
    m["rates.simulate_sdi_s"] = sdi_s
    m["rates.sdi_path_steps_per_s"] = _ratio(info_sum("rates.simulate_sdi", "path_steps"), sdi_s)
    m["rates.normalize_s"] = total("rates.normalize")
    m["rates.tightness_s"] = total("rates.tightness")
    m["rates.compare_s"] = total("rates.compare")

    runs = _outermost(by_name.get("runner.run_experiment", ()), "runner.run_experiment")
    m["runner.run_experiment_s"] = sum(s.end - s.start for s in runs)
    m["runner.self_s"] = sum(
        (s.end - s.start) - _covered([(max(c.start, s.start), min(c.end, s.end))
                                      for c in children.get(id(s), ())])
        for s in runs)
    m["runner.bytes_written"] = info_sum("runner.run_experiment", "bytes")
    return m
