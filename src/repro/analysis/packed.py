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
  dense node numbering plus successor/predecessor adjacency bitmasks,
  memoized on the graph instance;
* bit iteration / conversion helpers shared by every packed kernel.

Every dataflow kernel (liveness, the register-need estimates,
L_REF/P_REF/C_REF, webs, interference, register sets) has exactly one
implementation, on these bitmasks.  A compact set-based oracle of each
lives in ``tests/analysis/set_kernels.py``, and the differential suite
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


#: byte value -> tuple of its set bit offsets (decode table for
#: :meth:`DenseIndex.set_of`).
_BYTE_BITS = tuple(
    tuple(b for b in range(8) if value >> b & 1) for value in range(256)
)


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
        # costs O(total width), not O(span).  Dense masks (web node sets
        # hugging one module's bit range) then decode bytewise — one
        # C-level ``to_bytes`` plus a table lookup per non-zero byte —
        # while sparse-but-wide masks keep the per-bit loop, which never
        # touches the zero gaps.
        items = self.items
        base = ((mask & -mask).bit_length() - 1) & ~63
        mask >>= base
        if mask.bit_count() << 3 >= mask.bit_length():
            add = result.add
            byte_bits = _BYTE_BITS
            offset = base
            for byte in mask.to_bytes(
                (mask.bit_length() + 7) >> 3, "little"
            ):
                if byte:
                    for b in byte_bits[byte]:
                        add(items[offset + b])
                offset += 8
        else:
            while mask:
                result.add(items[base + (mask & -mask).bit_length() - 1])
                mask &= mask - 1
        return result

    def frozenset_of(self, mask: int) -> frozenset:
        return frozenset(self.set_of(mask))


class PackedGraph:
    """Dense node numbering + adjacency bitmasks for one call graph.

    Node bit order is ``sorted(graph.nodes)``, so an ascending-bit sweep
    is a ``for name in sorted(graph.nodes)`` sweep.  The instance
    is memoized on the graph object (topology is immutable once built;
    only node *weights* change afterwards, which nothing here reads).
    """

    __slots__ = ("index", "names", "succ", "pred", "_scc_masks")

    def __init__(self, graph):
        self.index = DenseIndex(sorted(graph.nodes))
        self.names = self.index.items
        index_of = self.index.index_of
        self.succ = [0] * len(self.names)
        self.pred = [0] * len(self.names)
        for name, node in graph.nodes.items():
            i = index_of[name]
            succ_mask = 0
            for callee in node.successors:
                succ_mask |= 1 << index_of[callee]
            self.succ[i] = succ_mask
            pred_mask = 0
            for caller in node.predecessors:
                pred_mask |= 1 << index_of[caller]
            self.pred[i] = pred_mask
        self._scc_masks = None

    @classmethod
    def of(cls, graph) -> "PackedGraph":
        cached = getattr(graph, "_packed_graph", None)
        if cached is None:
            cached = cls(graph)
            graph._packed_graph = cached
        return cached

    def scc_mask_of(self, graph) -> list:
        """Per-node bitmask of its strongly connected component."""
        if self._scc_masks is None:
            masks = [0] * len(self.names)
            index_of = self.index.index_of
            for component in graph.strongly_connected_components():
                mask = 0
                for name in component:
                    mask |= 1 << index_of[name]
                for name in component:
                    masks[index_of[name]] = mask
            self._scc_masks = masks
        return self._scc_masks


def packed_variable_masks(graph, sets) -> tuple:
    """Variable-major node masks of one :class:`ReferenceSets`.

    Returns ``(packed_graph, lref, pref, cref)`` where each of the three
    dicts maps a variable name to the bitmask of nodes carrying it in
    the corresponding reference set (absent variable -> ``0`` via
    ``dict.get``).  Memoized on the ``sets`` instance: web construction
    queries these once per variable.
    """
    cached = getattr(sets, "_packed_variable_masks", None)
    packed = PackedGraph.of(graph)
    if cached is not None and cached[0] is packed:
        return cached
    lref: dict[str, int] = {}
    pref: dict[str, int] = {}
    cref: dict[str, int] = {}
    for accumulator, by_node in (
        (lref, sets.l_ref), (pref, sets.p_ref), (cref, sets.c_ref)
    ):
        for i, name in enumerate(packed.names):
            bit = 1 << i
            for variable in by_node.get(name, ()):
                accumulator[variable] = accumulator.get(variable, 0) | bit
    cached = (packed, lref, pref, cref)
    sets._packed_variable_masks = cached
    return cached
