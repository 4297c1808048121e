"""Span tracer over the public functions of the qenm modules.

Spans are recorded from outside the program: ``install`` replaces every
public module-level function of each traced module with a timing wrapper,
at every binding site in the package.  ``cli``, ``encoding`` and
``oracles`` import names with ``from x import y``, so a wrapper placed only
on the defining module would miss those calls.  Methods are wrapped on
their class (``BlockHamiltonian.eig``).  ``uninstall`` restores every
original binding.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span or -1; spans stay in memory until ``take`` hands them over.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from dataclasses import dataclass
from time import perf_counter

PACKAGE = "qenm"
TRACED_MODULES = ("lattice", "enm", "boltzmann", "circuits", "oracles",
                  "encoding", "measure", "cli", "svgplot")
TRACED_METHODS = (("encoding", "BlockHamiltonian", "eig"),)


class Tracer:
    """Collects spans from wrapped qenm functions.

    ``hooks`` maps a span name, or a layer prefix such as ``"oracles."``, to
    ``hook(tracer, args, kwargs, result)``, called after the span closes, for
    counts read off arguments or results.
    """

    def __init__(self, hooks=None):
        self.hooks = dict(hooks or {})
        self.spans: list[list] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def inside(self, prefix: str) -> bool:
        """True when an open span's name starts with ``prefix``."""
        return any(self.spans[i][0].startswith(prefix) for i in self._open)

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        if self._open:
            raise RuntimeError("spans are still open")
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, name: str, fn):
        stack = self._open
        hook = self.hooks.get(name) or self.hooks.get(name.split(".")[0] + ".")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.spans
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {name: importlib.import_module(f"{PACKAGE}.{name}")
                   for name in TRACED_MODULES}
        namespaces = [importlib.import_module(PACKAGE), *modules.values()]
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                traced = self._wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for bound, value in list(vars(ns).items()):
                        if value is fn:
                            self._patch(ns, bound, traced)
        for layer, cls_name, meth in TRACED_METHODS:
            cls = getattr(modules[layer], cls_name)
            fn = cls.__dict__[meth]
            self._patch(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", fn))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


@dataclass
class Stat:
    calls: int = 0
    self: float = 0.0       # duration minus the time covered by child spans


def summarize(spans: list[list]) -> dict[str, Stat]:
    """Per-name call count and self time."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    stats: dict[str, Stat] = {}
    for idx, (name, start, end, parent) in enumerate(spans):
        st = stats.setdefault(name, Stat())
        st.calls += 1
        st.self += end - start - child[idx]
    return stats


def inclusive(spans: list[list], selected) -> float:
    """Time inside spans whose name ``selected(name)`` accepts.

    A selected span nested in another selected span is counted once.
    """
    total = 0.0
    for name, start, end, parent in spans:
        if selected(name) and not _has_ancestor(spans, parent, selected):
            total += end - start
    return total


def _has_ancestor(spans: list[list], parent: int, selected) -> bool:
    while parent >= 0:
        if selected(spans[parent][0]):
            return True
        parent = spans[parent][3]
    return False
