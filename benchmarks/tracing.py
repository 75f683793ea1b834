"""Outside-in tracing of covertrelay's modules for the per-layer metrics.

The tracer wraps the public functions of each layer module from here, so
nothing in ``src/`` changes. A wrapper records a span around each call and
aggregates it per function: calls, total time, self time (the span minus
the spans of wrapped calls made beneath it), and work counts measured at
the boundary (array elements for ``relaying``, fading blocks for
``montecarlo``). Functions that other modules import by name are patched
in every module that holds them, and every patch is undone on exit.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("cli", "params", "relaying", "detection", "rates", "montecarlo", "experiments", "validate")

# Functions whose n_blocks argument is the number of fading blocks drawn.
BLOCK_FUNCS = ("montecarlo.detection_curve", "montecarlo.simulate_detection", "montecarlo.simulate_covert_rate")
# Functions whose per-call times are kept for the ROADMAP baseline table.
SAMPLED = ("rates.average_covert_rate", "rates.expected_rate_h0", "rates.optimize_harvest_fraction",
           "montecarlo.simulate_covert_rate", "montecarlo.detection_curve", "detection.optimal_threshold")
# Callee -> ancestor pairs whose nested call counts are kept (objective
# evaluations per optimization).
UNDER = {"rates.expected_rate_h0": "rates.optimize_harvest_fraction"}
PACKAGE = "covertrelay"


class Stat:
    __slots__ = ("layer", "calls", "total", "self_s", "elements", "nodes", "blocks", "out_bytes",
                 "under", "flagged", "quad_error_max")

    def __init__(self, layer: str):
        self.layer = layer
        self.calls = 0
        self.total = 0.0
        self.self_s = 0.0
        self.elements = 0      # array elements a relaying function returned
        self.nodes = 0         # elements of outermost relaying calls beneath this function's spans
        self.blocks = 0
        self.out_bytes = 0
        self.under = 0         # calls made beneath this function's UNDER ancestor
        self.flagged = 0
        self.quad_error_max = 0.0


class Tracer:
    """Context manager that installs the wrappers and restores the originals."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.samples = defaultdict(list)  # (name, n_blocks or None) -> per-call seconds
        self._stack: list[list] = []      # [child seconds, Stat] per open span
        self._open = Counter()            # open spans of the UNDER ancestors
        self._patches: list[tuple] = []   # (owner, attribute, original)

    # -- wrapping ---------------------------------------------------------

    def _wrapper(self, name: str, layer: str, fn):
        stats = self.stats.setdefault(name, Stat(layer))
        stack = self._stack
        is_relaying = layer == "relaying"
        is_ancestor = name in UNDER.values()
        ancestor = UNDER.get(name)
        open_spans = self._open
        want_blocks = name in BLOCK_FUNCS
        sampled = name in SAMPLED
        signature = inspect.signature(fn) if want_blocks or sampled else None
        if signature is not None and "n_blocks" not in signature.parameters:
            signature = None
        quad_limit = importlib.import_module(f"{PACKAGE}.rates").QUAD_ERROR_LIMIT

        def traced(*args, **kwargs):
            parent_relaying = bool(stack) and stack[-1][1].layer == "relaying"
            if ancestor is not None and open_spans[ancestor]:
                stats.under += 1
            if is_ancestor:
                open_spans[name] += 1
            frame = [0.0, stats]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                stats.calls += 1
                stats.total += dt
                stats.self_s += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if is_ancestor:
                    open_spans[name] -= 1
            if is_relaying:
                n = int(np.size(getattr(result, "prc", result)))
                stats.elements += n
                if not parent_relaying:
                    for open_frame in stack:
                        open_frame[1].nodes += n
            blocks = None
            if signature is not None:
                blocks = int(signature.bind(*args, **kwargs).arguments["n_blocks"])
                if want_blocks:
                    stats.blocks += blocks
            if sampled:
                self.samples[(name, blocks)].append(dt)
            if isinstance(result, bytes):
                stats.out_bytes += len(result)
            quad_error = getattr(result, "quad_error", None)
            if quad_error is not None:
                stats.flagged += quad_error > quad_limit
                stats.quad_error_max = max(stats.quad_error_max, quad_error)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attribute: str, wrapper) -> None:
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, wrapper)

    def __enter__(self):
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        holders = [importlib.import_module(PACKAGE), *modules.values()]
        wrappers = {}  # id(original) -> wrapper
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                wrappers[id(obj)] = self._wrapper(f"{layer}.{attr}", layer, obj)
        # Patch every module that holds one of the originals, under any name.
        for holder in holders:
            for attr, obj in list(vars(holder).items()):
                if id(obj) in wrappers and not inspect.ismodule(obj):
                    self._patch(holder, attr, wrappers[id(obj)])

        # ChannelDraw is imported by name into several modules: wrap its
        # validation hook on the class itself.
        draw_cls = modules["params"].ChannelDraw
        self._patch(draw_cls, "__post_init__",
                    self._wrapper("params.ChannelDraw.__post_init__", "params", draw_cls.__post_init__))
        stats_mod = modules["validate"].stats
        self._patch(stats_mod, "kstest", self._wrapper("validate.stats.kstest", "scipy", stats_mod.kstest))
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)
        return False

    # -- aggregation ------------------------------------------------------

    def get(self, name: str) -> Stat:
        return self.stats.get(name) or Stat("")

    def layer_self(self, layer: str, exclude=()) -> float:
        return sum(s.self_s for n, s in self.stats.items() if s.layer == layer and n not in exclude)

    def layer_calls(self, layer: str) -> int:
        return sum(s.calls for s in self.stats.values() if s.layer == layer)


def snapshot() -> dict:
    """Identity of every module attribute and wrapped hook, to prove restoration."""
    out = {}
    for mod_name in ("", *LAYERS):
        mod = importlib.import_module(f"{PACKAGE}.{mod_name}" if mod_name else PACKAGE)
        for attr, obj in vars(mod).items():
            out[f"{mod_name}:{attr}"] = id(obj)
    params = importlib.import_module(f"{PACKAGE}.params")
    out["ChannelDraw.__post_init__"] = id(params.ChannelDraw.__dict__["__post_init__"])
    out["stats.kstest"] = id(importlib.import_module(f"{PACKAGE}.validate").stats.kstest)
    return out
