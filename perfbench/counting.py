"""Deterministic call counts: calls into ``src/repro`` code, by package.

A pass of its own runs under ``sys.setprofile``; the hook counts every
Python-level call whose code lives under ``src/repro/<package>/`` while an
op window is open. The hook slows every call, which is why span timing never
runs in the same pass. In the simulation workloads the counts repeat exactly
for a seed, so they can be compared across versions where wall time cannot.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from typing import Dict, Optional

from layers import SRC_MARK


def package_of(filename: str) -> Optional[str]:
    """``container`` for ``.../src/repro/container/links.py``; ``repro``
    for modules at the package root; None outside ``src/repro``."""
    path = filename.replace("\\", "/")
    at = path.rfind(SRC_MARK)
    if at < 0:
        return None
    rel = path[at + len(SRC_MARK):]
    return rel.split("/", 1)[0] if "/" in rel else "repro"


class CallCounter:
    def __init__(self):
        self.by_package: Dict[str, int] = defaultdict(int)
        #: op index -> calls counted in its window
        self.by_op: Dict[int, int] = defaultdict(int)
        self._op: Optional[int] = None
        self._package: Dict[object, Optional[str]] = {}

    def on_op(self, op: Optional[int]) -> None:
        self._op = op

    def _hook(self, frame, event, arg) -> None:
        op = self._op
        if op is None or event != "call":
            return
        code = frame.f_code
        try:
            package = self._package[code]
        except KeyError:
            package = self._package[code] = package_of(code.co_filename)
        if package is not None:
            self.by_package[package] += 1
            self.by_op[op] += 1

    def __enter__(self) -> "CallCounter":
        sys.setprofile(self._hook)
        return self

    def __exit__(self, *exc) -> None:
        sys.setprofile(None)

    def per_op(self, ops: float) -> Dict[str, float]:
        result = {
            f"{package}.calls_per_op": calls / ops
            for package, calls in sorted(self.by_package.items())
        }
        result["total.calls_per_op"] = sum(self.by_package.values()) / ops
        return result
