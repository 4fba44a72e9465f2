"""Dense indices and integer-bitmask kernels for the dataflow analyses.

Python ``set``-per-node fixpoints dominate the analyzer's profile on
large programs: every pass re-allocates result sets and pays a hashed
membership probe per element.  Packing each family of facts into a
*dense index* (a stable item -> bit position map) turns the same
transfer functions into single big-integer operations — a union over a
thousand globals is one ``|`` on a 1000-bit ``int`` instead of a
thousand hash probes — the fixed-width-bit-vector representation the
register-allocation literature standardizes on for exactly this reason.

This module holds the shared machinery:

* :class:`DenseIndex` — stable item <-> bit position maps;
* :class:`PackedGraph` — per-:class:`~repro.callgraph.graph.CallGraph`
  dense node numbering plus successor/predecessor index lists and
  strongly connected components, memoized on the graph instance;
* bit iteration / conversion helpers shared by every packed kernel.

Every dataflow kernel (liveness, the register-need estimates,
L_REF/P_REF/C_REF, webs, interference, register sets) has exactly one
implementation, on these indices: fact sets are bitmasks, and webs,
whose members are a handful of nodes, are sets of node indices.  A
compact set-based oracle of each lives in
``tests/analysis/set_kernels.py``, and the differential suite
(``tests/analysis/test_dataflow_packed.py``) pins summary, database and
executable bytes across the two — so the web kernels follow the
set-based control flow op for op, web-id consumption included.
"""

from __future__ import annotations

from typing import Iterable, Iterator


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


class DenseIndex:
    """A stable bidirectional item <-> bit position map.

    Bit order follows the order items were supplied in, so building from
    a sorted iterable makes ascending-bit iteration equal to sorted-item
    iteration — the property the web kernels rely on to assign web ids
    in sorted node order.
    """

    __slots__ = ("items", "index_of")

    def __init__(self, items: Iterable):
        self.items = tuple(items)
        self.index_of = {item: i for i, item in enumerate(self.items)}

    def __len__(self) -> int:
        return len(self.items)

    def mask_of(self, items: Iterable) -> int:
        """Bitmask with the bit of every item in ``items`` set."""
        mask = 0
        index_of = self.index_of
        for item in items:
            mask |= 1 << index_of[item]
        return mask

    def set_of(self, mask: int) -> set:
        """The items of ``mask`` as a plain set."""
        result = set()
        if not mask:
            return result
        # Shift the mask down to its lowest set bit first: typical masks
        # are sparse with clustered bits high up, and big-int arithmetic
        # costs O(total width), not O(span).
        items = self.items
        base = ((mask & -mask).bit_length() - 1) & ~63
        mask >>= base
        while mask:
            result.add(items[base + (mask & -mask).bit_length() - 1])
            mask &= mask - 1
        return result

    def frozenset_of(self, mask: int) -> frozenset:
        return frozenset(self.set_of(mask))


class PackedGraph:
    """Dense node numbering + adjacency lists for one call graph.

    Node index order is ``sorted(graph.nodes)``, so an ascending-index
    sweep is a ``for name in sorted(graph.nodes)`` sweep.  ``succ[i]``
    and ``pred[i]`` list the indices of node ``i``'s callees and
    callers, in the order of the node's ``successors`` and
    ``predecessors`` dicts.  The instance is memoized on the graph
    object (topology is immutable once built; only node *weights*
    change afterwards, which nothing here reads).
    """

    __slots__ = ("index", "names", "succ", "pred", "_components", "_scc_of")

    def __init__(self, graph):
        self.index = DenseIndex(sorted(graph.nodes))
        self.names = self.index.items
        index_of = self.index.index_of
        nodes = graph.nodes
        self.succ = [
            [index_of[callee] for callee in nodes[name].successors]
            for name in self.names
        ]
        self.pred = [
            [index_of[caller] for caller in nodes[name].predecessors]
            for name in self.names
        ]
        self._components = None
        self._scc_of = None

    @classmethod
    def of(cls, graph) -> "PackedGraph":
        cached = getattr(graph, "_packed_graph", None)
        if cached is None:
            cached = cls(graph)
            graph._packed_graph = cached
        return cached

    def components(self) -> list:
        """Tarjan's strongly connected components as lists of node
        indices, in reverse topological order (callees first).

        Roots and successors are visited in ascending index (name)
        order.  Memoized and shared: callers must not mutate it.
        """
        if self._components is not None:
            return self._components
        succ = self.succ
        count = len(succ)
        index = [-1] * count
        lowlink = [0] * count
        on_stack = [False] * count
        stack: list = []
        components: list = []
        counter = 0
        for root in range(count):
            if index[root] >= 0:
                continue
            index[root] = lowlink[root] = counter
            counter += 1
            stack.append(root)
            on_stack[root] = True
            work = [(root, iter(sorted(succ[root])))]
            while work:
                node, successors = work[-1]
                advanced = False
                for successor in successors:
                    if index[successor] < 0:
                        index[successor] = lowlink[successor] = counter
                        counter += 1
                        stack.append(successor)
                        on_stack[successor] = True
                        work.append(
                            (successor, iter(sorted(succ[successor])))
                        )
                        advanced = True
                        break
                    if on_stack[successor]:
                        lowlink[node] = min(lowlink[node], index[successor])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
                if lowlink[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack[member] = False
                        component.append(member)
                        if member == node:
                            break
                    components.append(component)
        self._components = components
        return components

    def scc_of(self) -> list:
        """Per-node tuple of the indices in its strongly connected
        component."""
        if self._scc_of is None:
            members = [()] * len(self.names)
            for component in self.components():
                indices = tuple(component)
                for i in indices:
                    members[i] = indices
            self._scc_of = members
        return self._scc_of
