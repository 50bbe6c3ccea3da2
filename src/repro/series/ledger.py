"""What a series of queries has revealed: the closure, not a log.

The paper bounds it by the transitive closure of the per-query equality
patterns (Corollaries 5.2.1/5.2.2), so that is all a host keeps: the
classes of ``(table, row)`` nodes it has seen with equal handles, and no
handle bytes.  (Not in :mod:`repro.leakage`: that package imports the
server.)
"""

from __future__ import annotations

import threading


class LeakageLedger:
    """Equivalence classes of nodes, as a union-find."""

    def __init__(self):
        self._parent: dict = {}  # node -> a node nearer its class's root
        self._lock = threading.Lock()  # queries link from their threads

    def link(self, pairs) -> None:
        """Put the two nodes of every pair in one class (a node paired
        with itself is a class of its own)."""
        parent = self._parent
        with self._lock:
            for a, b in pairs:
                up = parent.get(b)
                if up is not None and up is parent.get(a):
                    continue  # one parent, one class: linked before
                parent[self._root(b)] = self._root(a)

    def classes(self) -> list[list]:
        """Every class, sorted, in the order its first node was linked."""
        with self._lock:
            members: dict = {}
            for node in self._parent:
                members.setdefault(self._root(node), []).append(node)
        return [sorted(group) for group in members.values()]

    def _root(self, node):
        parent = self._parent
        up = parent.setdefault(node, node)
        while up is not node:
            grand = parent[up]  # path halving: skip a level on the way
            parent[node] = grand
            node, up = grand, parent[grand]
        return node
