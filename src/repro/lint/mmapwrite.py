"""Mmap-write rule: serving code must not mutate parameter arrays.

Serving processes may hold their model parameters as memory-mapped
**read-only** views (``load_artifact(..., mmap=True)``): one page cache
shared by every serving process on the host.  An in-place write into such
an array either crashes (``writeable=False`` → numpy's opaque
``ValueError: assignment destination is read-only``) or — were the map
writable — would silently privatize pages and corrupt the artifact on
disk.  The serving plane therefore treats parameter storage
(``tensor.data``) as immutable: code that needs to change a table
*rebinds* a private copy (``param.data = param.data.copy()``, the
copy-on-first-write pattern in :mod:`repro.training.online`) or routes
the mutation through the training-side fold-in path, which owns that
policy.

Flagged inside ``serving/``:

- subscript stores into a ``.data`` array — ``p.data[rows] = v``,
  ``p.data[rows] -= v``;
- augmented assignment onto ``.data`` itself — ``p.data += v``
  (numpy ``+=`` mutates in place; ``p.data = p.data + v`` rebinds and
  is fine);
- in-place ndarray method calls — ``p.data.fill(0)``, ``.sort()``, …;
- numpy in-place helpers aimed at a ``.data`` array —
  ``np.copyto(p.data, v)``, ``np.put``, ``np.putmask``, ``np.place``.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.determinism import dotted_name
from repro.lint.engine import Finding, SourceModule
from repro.lint.rules import Rule, register

#: The serving plane: the only place models are rebuilt over read-only
#: mmapped views, so the only place the immutability contract binds.
MMAP_SCOPE = ("serving/",)

#: ndarray methods that mutate the array they are called on.
_INPLACE_METHODS = frozenset({
    "fill", "sort", "partition", "put", "itemset", "setfield", "resize",
})

#: ``np.<helper>(dst, ...)`` functions whose first argument is written.
_INPLACE_NP_FUNCS = frozenset({
    "copyto", "put", "putmask", "place", "put_along_axis",
})


def _is_param_storage(node: ast.AST) -> bool:
    """Whether an expression reads ``<something>.data`` (tensor storage)."""
    return isinstance(node, ast.Attribute) and node.attr == "data"


@register
class MmapWrite(Rule):
    id = "mmap-write"
    summary = ("in-place mutation of parameter storage (tensor .data) in "
               "serving/ crashes on read-only mmapped artifacts; rebind a "
               "private copy or go through the training fold-in path")
    scope = MMAP_SCOPE

    def check_module(self, module: SourceModule) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    yield from self._check_target(module, node, target)
            elif isinstance(node, ast.Call):
                yield from self._check_call(module, node)

    def _check_target(self, module: SourceModule, stmt: ast.stmt,
                      target: ast.expr) -> Iterable[Finding]:
        # p.data[rows] = v / p.data[rows] -= v: a store through a
        # subscript of parameter storage.
        if (isinstance(target, ast.Subscript)
                and _is_param_storage(target.value)):
            yield module.finding(
                self, stmt,
                "subscript store into parameter storage (`.data[...]`) "
                "mutates a possibly mmapped read-only array; rebind a "
                "private copy first (`param.data = param.data.copy()`) or "
                "move the mutation to the training fold-in path")
        # p.data += v: numpy augmented assignment mutates in place
        # (plain rebinding `p.data = ...` is the sanctioned pattern).
        elif isinstance(stmt, ast.AugAssign) and _is_param_storage(target):
            yield module.finding(
                self, stmt,
                "augmented assignment onto parameter storage (`.data`) "
                "mutates the array in place; use a rebinding form "
                "(`param.data = param.data + ...`) on a private copy")

    def _check_call(self, module: SourceModule,
                    call: ast.Call) -> Iterable[Finding]:
        func = call.func
        # p.data.fill(0) and friends: ndarray methods that write self.
        if (isinstance(func, ast.Attribute)
                and func.attr in _INPLACE_METHODS
                and _is_param_storage(func.value)):
            yield module.finding(
                self, call,
                f"`.data.{func.attr}(...)` mutates parameter storage in "
                f"place; operate on a rebound private copy instead")
            return
        # np.copyto(p.data, v) and friends: the first argument is the
        # destination being written.
        name = dotted_name(func) if isinstance(func, ast.Attribute) else None
        if name is None or not call.args:
            return
        parts = name.split(".")
        if (len(parts) == 2 and parts[0] in ("np", "numpy")
                and parts[1] in _INPLACE_NP_FUNCS):
            dst = call.args[0]
            if isinstance(dst, ast.Subscript):
                dst = dst.value
            if _is_param_storage(dst):
                yield module.finding(
                    self, call,
                    f"{name}(...) writes into parameter storage "
                    f"(`.data`) in place; operate on a rebound private "
                    f"copy instead")
