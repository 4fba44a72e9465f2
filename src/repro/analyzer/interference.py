"""Web interference graph (paper section 4.1.3).

Two webs *interfere* when they share a call graph node — they would need
the same procedure to dedicate two registers to two different globals at
once if colored alike.  Webs for the same variable never interfere (web
construction makes them disjoint and merges overlaps).

The adjacency is built from a shared-node index, choosing per input
between pairwise set inserts and web bitmasks — one integer per web with
the bit of every web sharing a node with it — so a hub node shared by
``k`` webs costs ``k`` mask unions instead of ``k^2/2`` pairwise inserts.
"""

from __future__ import annotations

from collections import defaultdict

from repro.analysis.packed import iter_bits
from repro.analyzer.webs import Web


class WebInterferenceGraph:
    """Adjacency over ``webs``, the webs coloring considers: the live
    ones, taken before coloring rejects any for its priority.

    Coloring itself needs no graph (it keeps a register mask per node,
    :mod:`repro.analyzer.coloring`); the graph serves the database's
    web census, a traced run's ``web-uncolored`` winners and tests.
    """

    def __init__(self, webs: list):
        self.webs = list(webs)
        self._neighbors = self._build()

    def _build(self) -> dict:
        # Shared-node index first (web *positions* per node), then an
        # adaptive kernel choice: when nodes are shared by few webs the
        # pairwise sweep is cheaper than big-int arithmetic, but a hub
        # node shared by k webs costs k^2/2 pairwise inserts vs. k mask
        # unions, so dense sharing switches to one bit per live web.
        # Both branches produce the same neighbor sets.
        webs = self.webs
        by_node: dict[int, list] = defaultdict(list)
        for position, web in enumerate(webs):
            for i in web.members:
                by_node[i].append(position)
        shared = [s for s in by_node.values() if len(s) > 1]
        pair_cost = sum(len(s) * len(s) for s in shared)
        mask_cost = sum(len(s) for s in shared) * ((len(webs) >> 6) + 1)
        if pair_cost <= mask_cost:
            # Accumulate web *ids* directly: converting position sets to
            # id sets afterwards would re-walk every (large) neighbor
            # set, while the per-node groups are small.
            ids = [web.web_id for web in webs]
            result: dict[int, set] = {}
            for sharing in shared:
                group = {ids[p] for p in sharing}
                for web_id in group:
                    existing = result.get(web_id)
                    if existing is None:
                        result[web_id] = set(group)
                    else:
                        existing.update(group)
            for web_id, members in result.items():
                members.discard(web_id)
            return result
        neighbor_masks = [0] * len(webs)
        for sharing in shared:
            mask = 0
            for p in sharing:
                mask |= 1 << p
            for p in sharing:
                neighbor_masks[p] |= mask
        neighbors: dict[int, set] = {}
        for position, web in enumerate(webs):
            mask = neighbor_masks[position] & ~(1 << position)
            if mask:
                neighbors[web.web_id] = {
                    webs[i].web_id for i in iter_bits(mask)
                }
        return neighbors

    def neighbors(self, web: Web) -> set:
        """IDs of webs interfering with ``web``."""
        return set(self._neighbors.get(web.web_id, set()))

    def neighbors_frozen(self, web: Web) -> frozenset:
        """Like :meth:`neighbors`, as a shared immutable set."""
        cache = getattr(self, "_frozen", None)
        if cache is None:
            cache = self._frozen = {}
        value = cache.get(web.web_id)
        if value is None:
            value = frozenset(self._neighbors.get(web.web_id, ()))
            cache[web.web_id] = value
        return value

    def degree(self, web: Web) -> int:
        return len(self._neighbors.get(web.web_id, set()))

    def interferes(self, a: Web, b: Web) -> bool:
        return b.web_id in self._neighbors.get(a.web_id, set())
