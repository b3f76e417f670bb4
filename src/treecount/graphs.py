"""The immutable digraph type, its semidegree margin and its text format.

Vertices are dense integer ids 0..n-1.  A digraph is stored as its n x n
boolean adjacency matrix, ``Digraph.mask``, and nothing else: the hosts
this package embeds into have minimum semidegree above n/2, so they hold
more than n^2/2 arcs, and a bool matrix is both the smallest form of such
a host and the one the numpy kernels read.  The arc set and the sorted
neighbour lists are derived from the mask on first use and cached, so
iteration order is deterministic, which keeps all downstream sampling
reproducible.  Self-loops are rejected at construction.  An undirected
graph is its double orientation: the digraph whose mask is symmetric.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError, ParseError, read_body, read_header


def _row_lists(mask: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Each row's True columns, as a tuple of ascending Python ints."""
    return tuple(tuple(np.flatnonzero(row).tolist()) for row in mask)


class Digraph:
    """A simple digraph: ordered pairs (u, v) with u != v, no parallel arcs.

    ``mask`` is the read-only bool matrix with ``mask[u, v]`` True exactly
    when (u, v) is an arc; it is the digraph's whole state next to ``n``.
    ``edges`` (a frozenset of pairs) and ``out_adj``/``in_adj`` (tuples of
    ascending neighbour ids) are views built from it on first read.
    """

    __slots__ = ("n", "mask", "_edges", "_out_adj", "_in_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise InputError("vertex count must be nonnegative")
        arcs = list(edges)
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"arc ({u},{v}) out of range for n={n}")
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
        mask = np.zeros((n, n), dtype=bool)
        if arcs:
            tails, heads = zip(*arcs)
            mask[tails, heads] = True
        self.__setstate__(mask)

    @classmethod
    def _from_mask(cls, mask: np.ndarray) -> "Digraph":
        """The digraph whose arcs are the True cells of a square bool matrix.

        Trusted: nothing is checked, so the caller guarantees a square bool
        array with a False diagonal: a mask filled from checked text lines
        (``parse_graph_text``, ``matching.parse_pfm_text``), the negated
        identity (``complete_digraph``), a block of a host's mask
        (``induced_subgraph``) or one plus an attached vertex
        (``matching.rebalance_after_removal``).
        The digraph takes the array over and makes it read-only.
        """
        self = cls.__new__(cls)
        self.__setstate__(mask)
        return self

    def __getstate__(self):
        return self.mask

    def __setstate__(self, mask: np.ndarray) -> None:
        """Take ``mask`` over; every constructor ends here."""
        # a pickled or copied array comes back writable
        mask.setflags(write=False)
        self.n = mask.shape[0]
        self.mask = mask
        self._edges = self._out_adj = self._in_adj = None

    @property
    def edges(self) -> frozenset:
        if self._edges is None:
            rows, cols = np.nonzero(self.mask)
            self._edges = frozenset(zip(rows.tolist(), cols.tolist()))
        return self._edges

    @property
    def out_adj(self) -> tuple[tuple[int, ...], ...]:
        if self._out_adj is None:
            self._out_adj = _row_lists(self.mask)
        return self._out_adj

    @property
    def in_adj(self) -> tuple[tuple[int, ...], ...]:
        if self._in_adj is None:
            self._in_adj = _row_lists(self.mask.T)
        return self._in_adj

    def has_arc(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and 0 <= v < self.n and bool(self.mask[u, v])

    @property
    def m(self) -> int:
        return int(np.count_nonzero(self.mask))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Digraph)
            and self.n == other.n
            and np.array_equal(self.mask, other.mask)
        )

    def __hash__(self) -> int:
        return hash((self.n, np.packbits(self.mask).tobytes()))

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, m={self.m})"


def min_semidegree(g: Digraph) -> int:
    """min over v of min(deg+(v), deg-(v)); 0 for the empty graph."""
    if g.n == 0:
        return 0
    return int(min(g.mask.sum(axis=1).min(), g.mask.sum(axis=0).min()))


def induced_subgraph(g: Digraph, keep: Sequence[int]) -> Digraph:
    """Induced subgraph on the given vertex sequence (order defines new ids)."""
    keep = list(keep)
    if len(set(keep)) != len(keep):
        raise InputError("duplicate vertex in induced set")
    for v in keep:
        if not (0 <= v < g.n):
            raise InputError(f"unknown vertex id {v}")
    return Digraph._from_mask(g.mask[np.ix_(keep, keep)])


def epsilon_of(g: Digraph) -> Fraction:
    """The largest epsilon with min-semidegree >= (1/2 + epsilon) * n."""
    if g.n == 0:
        raise InputError("epsilon undefined for the empty graph")
    return Fraction(min_semidegree(g), g.n) - Fraction(1, 2)


def complete_digraph(n: int) -> Digraph:
    """K_n with both orientations of every edge."""
    if n < 0:
        raise InputError("vertex count must be nonnegative")
    return Digraph._from_mask(~np.eye(n, dtype=bool))


def directed_cycle(n: int) -> Digraph:
    return Digraph(n, [(i, (i + 1) % n) for i in range(n)])


# ---------------------------------------------------------------------------
# edge-list text format:
#   first line: "digraph <n> <m>" or "graph <n> <m>"
#   then m lines "<u> <v>" with 0-based ids
# ---------------------------------------------------------------------------

def parse_graph_text(text: str) -> Digraph:
    """The digraph of an edge-list text; a ``graph`` text gives its double orientation."""
    lines, kind, n, m = read_header(
        text, ("digraph", "graph"), "'digraph <n> <m>' or 'graph <n> <m>'",
        "vertex/edge count",
    )
    if n < 0 or m < 0:
        raise ParseError(1, "negative vertex/edge count")
    body = read_body(lines, m, "edge", "<u> <v>")
    mask = np.zeros((n, n), dtype=bool)
    for idx, parts in body:
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(idx, "non-integer vertex id") from None
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(idx, f"vertex id out of range 0..{n - 1}")
        if u == v:
            raise ParseError(idx, "self-loop")
        if mask[u, v]:
            raise ParseError(idx, f"duplicate edge {u} {v}")
        mask[u, v] = True
        if kind == "graph":
            mask[v, u] = True
    return Digraph._from_mask(mask)


def write_graph_text(g: Digraph) -> str:
    """g's ``digraph`` text, arcs ascending: a ``graph`` text is written as its 2m arcs."""
    lines = [f"digraph {g.n} {g.m}", *(f"{u} {v}" for u, v in zip(*np.nonzero(g.mask)))]
    return "\n".join(lines) + "\n"
