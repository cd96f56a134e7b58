"""Span tracing of the package from outside it, and the per-layer metrics
derived from the spans.

`Tracer.install` replaces every public function of each `nlkpp` module, plus
a few named private or imported helpers, at every lookup site: the module
attributes that bind it (its own module and every module that imported it
by name) and the values of module-level dicts such as the CLI's dispatch
table.  `uninstall` puts the originals back.  Nothing under `src/` changes.

A span is `[label, parent, start, end, extra]`; `extra` holds counts read
from the returned object, or the command name for a root span.  Spans are
recorded only inside a root span opened by `Tracer.command`, so calls the
benchmark itself makes (set-up, output checks) leave no trace.

Layers are the modules, except that every routine computing `K * phi` is
labelled as the kernels layer, whichever module holds it today.  A name
listed here but missing from the package is skipped, so a refactor that
moves or merges these routines does not break the benchmark.
"""
from __future__ import annotations

import functools
import inspect
from contextlib import contextmanager
from time import perf_counter

# the layers: the package's modules, in the order reports print them
MODULES = ("cli", "kernels", "profiles", "regimes", "spectral", "pdesim",
           "dde")
ROOT = "cli.main"
# routines computing K * phi; ROADMAP item 2 merges them into `kernels`
CONV = frozenset({"kernels.convolve", "profiles._fast_conv",
                  "pdesim.convolve_grid"})
# non-public names wrapped as well: a private helper and an imported solver
EXTRA = frozenset({"profiles._fast_conv", "dde.spsolve"})
OPERATOR = frozenset({"profiles.am_core", "profiles.am_apply"})
# work inside solve_front that is not a Picard sweep
NON_SWEEP = frozenset({"profiles.kpp_upper_front", "profiles.lower_solution",
                       "profiles.residual"})


def _front_counts(prof):
    return {"picard_iters": int(prof.diagnostics["iterations"]),
            "grid_points": int(prof.values.size)}


# counts read from returned objects, keyed by span label
EXTRACT = {
    "profiles.solve_front": _front_counts,
    "dde.heteroclinic": lambda run: {"ladder_rungs": len(run.eps_ladder)},
    "dde.integrate_wright": lambda tr: {"integrate_steps": int(tr.t.size) - 1},
}


def layer_of(label: str) -> str:
    return "kernels" if label in CONV else label.split(".", 1)[0]


class Tracer:
    """Wraps the package's functions and records spans in memory."""

    def __init__(self, modules: dict):
        self.modules = modules          # short name -> module object
        self.spans = []
        self._stack = []
        self._undo = []
        self.wrapped = []

    # -- wrapping ----------------------------------------------------------

    def _targets(self) -> dict:
        found = {}
        for short, mod in self.modules.items():
            for name, obj in vars(mod).items():
                label = f"{short}.{name}"
                if label == ROOT:
                    continue
                own_public = (inspect.isfunction(obj)
                              and obj.__module__ == mod.__name__
                              and not name.startswith("_"))
                if own_public or (label in EXTRA and callable(obj)):
                    found.setdefault(id(obj), (obj, label))
        return found

    def _wrap(self, func, label):
        spans, stack = self.spans, self._stack
        extract = EXTRACT.get(label)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not stack:
                return func(*args, **kwargs)
            idx = len(spans)
            span = [label, stack[-1], 0.0, 0.0, None]
            spans.append(span)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                span[2] = t0
                stack.pop()
            if extract is not None:
                try:
                    span[4] = extract(result)
                except (AttributeError, KeyError, TypeError):
                    pass
            return result

        return traced

    def install(self) -> None:
        targets = self._targets()
        wrappers = {key: self._wrap(f, label)
                    for key, (f, label) in targets.items()}
        for mod in self.modules.values():
            ns = vars(mod)
            for name, obj in list(ns.items()):
                if name.startswith("__"):
                    continue
                if id(obj) in wrappers:
                    self._undo.append((ns, name, obj))
                    ns[name] = wrappers[id(obj)]
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in wrappers:
                            self._undo.append((obj, key, val))
                            obj[key] = wrappers[id(val)]
        self.wrapped = sorted(label for _, label in targets.values())

    def uninstall(self) -> None:
        while self._undo:
            table, key, original = self._undo.pop()
            table[key] = original

    @contextmanager
    def command(self, name: str):
        """Root span around one CLI invocation."""
        idx = len(self.spans)
        span = [ROOT, -1, 0.0, 0.0, name]
        self.spans.append(span)
        self._stack.append(idx)
        t0 = perf_counter()
        try:
            yield
        finally:
            span[3] = perf_counter()
            span[2] = t0
            self._stack.pop()

    def take(self) -> list:
        """The spans recorded so far; the tracer starts a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


# -- spans to metrics ------------------------------------------------------

def _region(spans, dur, region, exclude=frozenset()):
    """(calls, seconds) of the outermost spans labelled in `region`, less
    the time of the outermost `exclude` spans nested inside them."""
    n = len(spans)
    in_region = [False] * n
    in_excl = [False] * n
    calls, total = 0, 0.0
    for i, (label, parent, *_rest) in enumerate(spans):
        if parent >= 0:
            plabel = spans[parent][0]
            in_region[i] = in_region[parent] or plabel in region
            in_excl[i] = in_excl[parent] or plabel in exclude
        if label in region and not in_region[i]:
            calls += 1
            total += dur[i]
        elif label in exclude and in_region[i] and not in_excl[i]:
            total -= dur[i]
    return calls, total


def self_times(spans):
    """Per-span durations and self times (duration less direct children)."""
    dur = [s[3] - s[2] for s in spans]
    self_t = list(dur)
    for i, s in enumerate(spans):
        if s[1] >= 0:
            self_t[s[1]] -= dur[i]
    return dur, self_t


def by_command(spans) -> dict:
    """{command: {"wall_s": traced wall, layer: self seconds, "spsolve_s":
    sparse-solve seconds}}; the layer self times of a command sum to its
    traced wall time."""
    dur, self_t = self_times(spans)
    root = [0] * len(spans)
    out = {}
    for i, s in enumerate(spans):
        root[i] = i if s[1] < 0 else root[s[1]]
        row = out.setdefault(spans[root[i]][4], dict.fromkeys(
            ("wall_s", *MODULES, "spsolve_s"), 0.0))
        if s[1] < 0:
            row["wall_s"] += dur[i]
        row[layer_of(s[0])] += self_t[i]
        if s[0] == "dde.spsolve":
            row["spsolve_s"] += self_t[i]
    return out


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced pass (see BENCHMARK.json)."""
    dur, _ = self_times(spans)
    rows = by_command(spans)
    layer_self = {k: sum(r[k] for r in rows.values()) for k in MODULES}
    connect = rows.get("connect")
    counts = {"picard_iters": 0, "grid_points": 0, "ladder_rungs": 0,
              "integrate_steps": 0}
    for *_, extra in spans:
        if isinstance(extra, dict):
            for k, v in extra.items():
                counts[k] += v
    conv_calls, conv_s = _region(spans, dur, CONV)
    _, operator_s = _region(spans, dur, OPERATOR, CONV)
    _, sweep_s = _region(spans, dur, {"profiles.solve_front"}, NON_SWEEP)
    _, residual_s = _region(spans, dur, {"profiles.residual"})
    steps, step_s = _region(spans, dur, {"pdesim.step"})
    solves, spsolve_s = _region(spans, dur, {"dde.spsolve"})
    iters = counts["picard_iters"]
    return {
        "kernels.conv_calls": conv_calls,
        "kernels.conv_s": conv_s,
        "kernels.self_s": layer_self["kernels"],
        "profiles.picard_iters": iters,
        "profiles.grid_points": counts["grid_points"],
        "profiles.operator_s": operator_s,
        "profiles.sweep_ms": 1e3 * sweep_s / iters if iters else 0.0,
        "profiles.residual_s": residual_s,
        "profiles.self_s": layer_self["profiles"],
        "regimes.self_s": layer_self["regimes"],
        "spectral.self_s": layer_self["spectral"],
        "pdesim.steps": steps,
        "pdesim.step_ms": 1e3 * step_s / steps if steps else 0.0,
        "pdesim.self_s": layer_self["pdesim"],
        "dde.newton_solves": solves,
        "dde.ladder_rungs": counts["ladder_rungs"],
        "dde.spsolve_s": spsolve_s,
        "dde.connect_self_s": (connect["dde"] - connect["spsolve_s"]
                               if connect else 0.0),
        "dde.integrate_steps": counts["integrate_steps"],
        "dde.integrate_s": _region(spans, dur, {"dde.integrate_wright"})[1],
        "dde.floquet_s": _region(spans, dur, {"dde.floquet"})[1],
        "dde.orbit_newton_s": _region(spans, dur, {"dde.find_periodic"})[1],
        "dde.self_s": layer_self["dde"],
        "cli.self_s": layer_self["cli"],
    }
