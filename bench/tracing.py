"""Spans around the package's layers, recorded from outside the package.

Every public function of each layer module is wrapped, and the wrapper is
bound at every module-global name that refers to the original, so calls
within a module and calls across modules are both caught.  FqField
construction is traced through its __init__.  Spans live in flat arrays in
memory (name, parent, start, end) and are written out once, at the end.
"""

from __future__ import annotations

import array
import functools
import inspect
import json
import sys
import time
from pathlib import Path

LAYERS = ("field", "characters", "hypergeometric", "diagonal", "dwork", "brute", "verify", "cli")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self._stack = [-1]
        # exact work counters that spans cannot give
        self.counters = {"characters.norm_jacobi.fills": 0, "characters.char_vector.fills": 0, "brute.points": 0}
        self.max_residual = 0.0

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        ids, parents, starts, ends, stack = self.name_id, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def _cache_growth(self, counter: str, cache_attr: str):
        """A probe counting new entries in the per-field cache a call fills.
        A field without that cache counts none."""
        counters = self.counters

        def probe(fn):
            @functools.wraps(fn)
            def probed(field, *args, **kwargs):
                cache = getattr(field, cache_attr, ())
                before = len(cache)
                try:
                    return fn(field, *args, **kwargs)
                finally:
                    counters[counter] += len(cache) - before

            return probed

        return probe

    def _points(self, fn):
        """Points a projective count enumerates: one per point of P^(nvars-1)."""
        counters = self.counters

        @functools.wraps(fn)
        def probed(field, monomials, nvars, *args, **kwargs):
            result = fn(field, monomials, nvars, *args, **kwargs)
            counters["brute.points"] += (field.q**nvars - 1) // (field.q - 1)
            return result

        return probed

    def _residual(self, fn):
        @functools.wraps(fn)
        def probed(value, *args, **kwargs):
            self.max_residual = max(self.max_residual, abs(value - round(value.real)))
            return fn(value, *args, **kwargs)

        return probed

    def install(self, package: str = "dworkcount") -> None:
        modules = {layer: sys.modules[f"{package}.{layer}"] for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrapped[obj] = self.wrap(f"{layer}.{attr}", obj)
        probes = {
            ("characters", "norm_jacobi_exps"): self._cache_growth("characters.norm_jacobi.fills", "_norm_jacobi_cache"),
            ("characters", "char_vector"): self._cache_growth("characters.char_vector.fills", "_char_vec_cache"),
            ("brute", "projective_count"): self._points,
            ("characters", "round_to_int"): self._residual,
        }
        for (layer, attr), probe in probes.items():
            original = getattr(modules[layer], attr)
            wrapped[original] = probe(wrapped[original])
        for name, mod in list(sys.modules.items()):
            if name == package or name.startswith(package + "."):
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrapped:
                        setattr(mod, attr, wrapped[obj])
        fq = modules["field"].FqField
        fq.__init__ = self.wrap("field.FqField", fq.__init__)

    def write(self, stem: Path) -> None:
        stem.parent.mkdir(parents=True, exist_ok=True)
        with open(stem.with_suffix(".bin"), "wb") as fh:
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)
        stem.with_suffix(".json").write_text(json.dumps({"names": self.names, "n": len(self.start)}))


def read_spans(stem: Path) -> tuple[list[str], array.array, array.array, array.array, array.array]:
    header = json.loads(stem.with_suffix(".json").read_text())
    n = header["n"]
    arrays = [array.array(code) for code in "iidd"]
    with open(stem.with_suffix(".bin"), "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, n)
    return (header["names"], *arrays)
