"""Undirected simple graphs and distance-regularity machinery.

The Graph type stores sorted neighbor tuples (for deterministic iteration
and BFS) alongside per-vertex sets (for O(1) adjacency tests) and a lazily
built numpy adjacency matrix.  Distance-regularity is checked in one
pass: the intersection numbers of every ordered pair are read off exact
matrix products with the distance layers; counts never exceed the vertex
count, so float32 matmuls are exact and fast at the 486-vertex scale this
library works at.

Isomorphism testing is colour refinement with individualization and
deterministic branching, run as numpy passes over one CSR adjacency of both
graphs.  Each round hashes a vertex's neighbour colours into a 64-bit sum of
fixed weights; a hash collision can only leave a partition coarser, never
prune an isomorphism, and every returned bijection is re-verified edge by
edge before being trusted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from collections.abc import Iterable, Sequence
from itertools import chain

import numpy as np


class GraphStructureError(ValueError):
    """The graph lacks structure an operation requires (connectivity, ...)."""


class IsomorphismBudgetError(RuntimeError):
    """Search budget exhausted before a verdict; not a non-isomorphism proof."""


class Graph6ParseError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class Graph:
    """Undirected simple graph on vertices 0..n-1."""

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        self.n = n
        sets: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            sets[u].add(v)
            sets[v].add(u)
        self._sets = sets
        self._adj = tuple(tuple(sorted(s)) for s in sets)

    @classmethod
    def from_neighbor_sets(cls, sets: Sequence[set[int]]) -> "Graph":
        g = cls.__new__(cls)
        g.n = len(sets)
        g._sets = [set(s) for s in sets]
        g._adj = tuple(tuple(sorted(s)) for s in sets)
        return g

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._sets[u]

    @property
    def edge_count(self) -> int:
        return sum(len(a) for a in self._adj) // 2

    def edges(self):
        """Edges as (u,v) with u < v, lexicographic order."""
        for u in range(self.n):
            for v in self._adj[u]:
                if u < v:
                    yield (u, v)

    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edges())

    @cached_property
    def adjacency_matrix(self) -> np.ndarray:
        a = np.zeros((self.n, self.n), dtype=np.float32)
        for u in range(self.n):
            a[u, self._adj[u]] = 1.0
        return a

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self._adj == other._adj
        )

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count})"


def _csr(*graphs: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Adjacency of the disjoint union of graphs, as (dst, starts, degree).

    The vertices of each graph are numbered after those of the graphs
    before it; the neighbours of vertex x are dst[starts[x]:starts[x] +
    degree[x]], in increasing order.
    """
    dsts, degrees, shift = [], [], 0
    for g in graphs:
        degree = np.fromiter(map(len, g._adj), dtype=np.int32, count=g.n)
        dst = np.fromiter(
            chain.from_iterable(g._adj), dtype=np.int32, count=int(degree.sum())
        )
        dsts.append(dst + shift)
        degrees.append(degree)
        shift += g.n
    degree = np.concatenate(degrees)
    starts = np.cumsum(degree, dtype=np.int64) - degree
    return np.concatenate(dsts), starts, degree


def _bfs(dst, starts, degree, sources) -> np.ndarray:
    """Distance to the nearest source (int64, -1 if unreachable) over a CSR
    adjacency from _csr; each level gathers its frontier's neighbour slices
    in one numpy pass, so each vertex's slice is read once."""
    dist = np.full(len(degree), -1, dtype=np.int64)
    frontier = np.asarray(sources, dtype=np.int64)
    dist[frontier] = 0
    level = 0
    while frontier.size:
        level += 1
        d = degree[frontier]
        offsets = np.cumsum(d, dtype=np.int64) - d
        slots = np.arange(int(offsets[-1] + d[-1])) + np.repeat(
            starts[frontier] - offsets, d
        )
        fresh = np.zeros(len(degree), dtype=bool)
        fresh[dst[slots]] = True
        fresh &= dist < 0
        frontier = np.flatnonzero(fresh)
        dist[frontier] = level
    return dist


def bfs_distances(g: Graph, source: int) -> list[int | float]:
    """Shortest-path distances from source; unreachable vertices get inf."""
    dist = _bfs(*_csr(g), [source])
    return [d if d >= 0 else math.inf for d in dist.tolist()]


def distance_matrix(g: Graph) -> np.ndarray:
    """All-pairs distances (int32, -1 for unreachable) via layered matmuls."""
    n = g.n
    a = g.adjacency_matrix
    dist = np.full((n, n), -1, dtype=np.int32)
    np.fill_diagonal(dist, 0)
    reached = np.eye(n, dtype=bool)
    frontier = reached.copy()
    t = 0
    while True:
        nxt = ((frontier.astype(np.float32) @ a) > 0) & ~reached
        if not nxt.any():
            return dist
        t += 1
        dist[nxt] = t
        reached |= nxt
        frontier = nxt


@dataclass(frozen=True)
class IntersectionArray:
    """The parameter list {b0,...,b_{d-1}; c1,...,c_d} of a distance-regular graph."""

    b: tuple[int, ...]
    c: tuple[int, ...]

    def __post_init__(self):
        if len(self.b) != len(self.c):
            raise ValueError("b and c must have equal length")
        if self.c and self.c[0] != 1:
            raise ValueError("c_1 must be 1")
        if any(x <= 0 for x in self.b) or any(x <= 0 for x in self.c):
            raise ValueError("all defined entries must be positive")
        if any(x < 0 for x in self.a):
            raise ValueError("a_i must be nonnegative")

    @property
    def diameter(self) -> int:
        return len(self.b)

    @property
    def valency(self) -> int:
        return self.b[0] if self.b else 0

    @property
    def a(self) -> tuple[int, ...]:
        """a_1..a_d, from c_i + a_i + b_i = k (with b_d = 0)."""
        d = self.diameter
        k = self.valency
        b_ext = self.b + (0,)
        return tuple(k - b_ext[i] - self.c[i - 1] for i in range(1, d + 1))

    def distance_class_sizes(self) -> tuple[int, ...]:
        """k_0..k_d via k_{i+1} = k_i * b_i / c_{i+1} (divisions must be exact)."""
        sizes = [1]
        for i in range(self.diameter):
            num = sizes[-1] * self.b[i]
            if num % self.c[i]:
                raise ValueError(f"non-integral class size at level {i + 1}")
            sizes.append(num // self.c[i])
        return tuple(sizes)

    def is_bipartite(self) -> bool:
        """Bipartite at the array level: all a_i vanish."""
        return all(x == 0 for x in self.a)

    def is_antipodal(self) -> bool:
        """Antipodal at the array level: b_i = c_{d-i} except possibly i = d//2."""
        d = self.diameter
        return all(
            self.b[i] == self.c[d - i - 1]
            for i in range(d)
            if i != d // 2
        )

    def __str__(self) -> str:
        return "{%s; %s}" % (
            ",".join(map(str, self.b)),
            ",".join(map(str, self.c)),
        )


@dataclass(frozen=True)
class SrgParameters:
    n: int
    k: int
    lam: int
    mu: int

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.n, self.k, self.lam, self.mu)


def is_distance_regular(g: Graph) -> IntersectionArray | None:
    """Return the intersection array if g is distance-regular, else None.

    One pass over the distance matrix: with D_j the distance-j layer and A
    the adjacency matrix, (D_j A)[x, y] counts the neighbors of y at
    distance j from x.  So b_i is read off D_{i+1} A and c_i off D_{i-1} A
    on the pairs at distance i, and each must be one value there; then a_i
    = k - b_i - c_i is constant too.  Raises GraphStructureError if g is
    disconnected.
    """
    dist = distance_matrix(g)
    if (dist < 0).any():
        raise GraphStructureError("graph is disconnected")
    d = int(dist.max())
    a = g.adjacency_matrix
    b: list[int] = []
    c: list[int] = []
    for j in range(d + 1):
        counts = (dist == j).astype(np.float32) @ a
        # on the pairs at distance j - 1 this is b_{j-1}; at j + 1, c_{j+1}
        for i, out in ((j - 1, b), (j + 1, c)):
            if 0 <= i <= d:
                values = np.unique(counts[dist == i])
                if len(values) != 1:
                    return None
                out.append(int(values[0]))
    return IntersectionArray(b=tuple(b), c=tuple(c))


def srg_parameters(g: Graph) -> SrgParameters | None:
    """(n,k,lambda,mu) if g is strongly regular (a connected diameter-2
    DRG), else None."""
    try:
        arr = is_distance_regular(g)
    except GraphStructureError:  # disconnected
        return None
    if arr is None or arr.diameter != 2:
        return None
    return SrgParameters(n=g.n, k=arr.valency, lam=arr.a[0], mu=arr.c[1])


def complement(g: Graph) -> Graph:
    full = set(range(g.n))
    sets = [full - set(g.neighbors(v)) - {v} for v in range(g.n)]
    return Graph.from_neighbor_sets(sets)


def bipartition(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """2-coloring classes of a connected bipartite graph, vertex 0 in the first.

    The classes are the vertices at even and at odd distance from vertex 0;
    an edge whose ends are at equal distance closes an odd walk.
    """
    dist = bfs_distances(g, 0)
    if math.inf in dist:
        raise GraphStructureError("graph is disconnected")
    for u, v in g.edges():
        if dist[u] == dist[v]:
            raise GraphStructureError(
                f"graph is not bipartite: odd closed walk through {u},{v}"
            )
    side0 = tuple(v for v in range(g.n) if dist[v] % 2 == 0)
    side1 = tuple(v for v in range(g.n) if dist[v] % 2 == 1)
    return side0, side1


def distance_two_graph(g: Graph) -> Graph:
    """Graph on the same vertices joining pairs at distance exactly 2."""
    a = g.adjacency_matrix
    two = (a @ a) > 0
    np.fill_diagonal(two, False)
    two &= a == 0
    sets = [set(np.nonzero(two[v])[0].tolist()) for v in range(g.n)]
    return Graph.from_neighbor_sets(sets)


def bipartite_halves(g: Graph) -> tuple[Graph, Graph, tuple[tuple[int, ...], tuple[int, ...]]]:
    """Halved graphs of a connected bipartite graph.

    Returns the distance-2 graph induced on each bipartition class (classes
    relabelled 0..size-1 in sorted label order) plus the class partition.
    """
    side0, side1 = bipartition(g)
    dist2 = distance_two_graph(g)
    half0, _ = induced_subgraph(dist2, side0)
    half1, _ = induced_subgraph(dist2, side1)
    return half0, half1, (side0, side1)


def antipodal_fold(g: Graph) -> tuple[Graph, tuple[tuple[int, ...], ...]]:
    """Quotient on antipodal classes {v} + (vertices at maximal distance from v).

    The distance-d relation (plus identity) must be an equivalence with
    classes of uniform size; the first violating triple is reported otherwise.
    """
    dist = distance_matrix(g)
    if (dist == -1).any():
        raise GraphStructureError("graph is disconnected")
    d = int(dist.max())
    cls = [frozenset([v] + np.nonzero(dist[v] == d)[0].tolist()) for v in range(g.n)]
    for v in range(g.n):
        for w in cls[v]:
            if cls[w] != cls[v]:
                x = next(iter(cls[w] ^ cls[v]))
                raise GraphStructureError(
                    f"distance-{d} relation is not an equivalence: "
                    f"witness triple ({v},{w},{x})"
                )
    classes = sorted(set(cls), key=min)
    if len({len(c) for c in classes}) != 1:
        raise GraphStructureError("antipodal classes have non-uniform sizes")
    index = {c: i for i, c in enumerate(classes)}
    sets: list[set[int]] = [set() for _ in classes]
    for u in range(g.n):
        iu = index[cls[u]]
        for v in g.neighbors(u):
            iv = index[cls[v]]
            if iu != iv:
                sets[iu].add(iv)
    folded = Graph.from_neighbor_sets(sets)
    return folded, tuple(tuple(sorted(c)) for c in classes)


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on the given vertices, relabelled in sorted order.

    Returns (subgraph, labels) where labels[i] is the original label of
    new vertex i.
    """
    labels = tuple(sorted(set(vertices)))
    if labels and not (0 <= labels[0] and labels[-1] < g.n):
        raise ValueError("vertex out of range")
    pos = {v: i for i, v in enumerate(labels)}
    edges = [
        (pos[u], pos[v])
        for u in labels
        for v in g.neighbors(u)
        if u < v and v in pos
    ]
    return Graph(len(labels), edges), labels


# ---------------------------------------------------------------------------
# Isomorphism by color refinement + individualization
# ---------------------------------------------------------------------------


def _weights(colors: np.ndarray) -> np.ndarray:
    """A fixed 64-bit weight per colour id: splitmix64 in wrapping uint64
    arithmetic, so every run hashes alike."""
    z = colors.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _classes(primary: np.ndarray, secondary: np.ndarray) -> tuple[np.ndarray, int]:
    """Dense colour ids of the (primary, secondary) pairs in lexicographic
    order, and how many there are; equal pairs share an id."""
    order = np.lexsort((secondary, primary))
    p, s = primary[order], secondary[order]
    new = np.empty(len(order), dtype=bool)
    new[0] = True
    new[1:] = (p[1:] != p[:-1]) | (s[1:] != s[:-1])
    ids = np.empty(len(order), dtype=np.int64)
    ids[order] = np.cumsum(new) - 1
    return ids, int(np.count_nonzero(new))


def verify_bijection(g1: Graph, g2: Graph, mapping: Sequence[int]) -> bool:
    """Certify a candidate isomorphism edge by edge, both directions."""
    n = g1.n
    if g2.n != n or len(mapping) != n or len(set(mapping)) != n:
        return False
    if not all(0 <= m < n for m in mapping):
        return False
    if g1.edge_count != g2.edge_count:
        return False
    for u in range(n):
        mu = mapping[u]
        for v in g1.neighbors(u):
            if not g2.has_edge(mu, mapping[v]):
                return False
    inverse = [0] * n
    for u, mu in enumerate(mapping):
        inverse[mu] = u
    for u in range(n):
        iu = inverse[u]
        for v in g2.neighbors(u):
            if not g1.has_edge(iu, inverse[v]):
                return False
    return True


def are_isomorphic(
    g1: Graph, g2: Graph, budget: int = 10**7
) -> list[int] | None:
    """A certified vertex bijection g1 -> g2, or None if none exists.

    Colour refinement with individualization-refinement backtracking over
    the disjoint union of the two graphs: vertices 0..n-1 are g1 and
    n..2n-1 are g2.  Branching is deterministic (the smallest cell of
    size > 1, lowest colour id, its lowest vertex of g1 against each
    vertex of g2 in that cell) and each individualization folds in the BFS
    distances to the individualized pair.

    The verdict is exact whatever the hash does.  Every colour is a
    deterministic function of isomorphism-invariant data (the colours of
    the previous round over both graphs, the multiset of each vertex's
    neighbour colours through its hash, the distances to the
    individualized pair), so any isomorphism that respects the colours
    before a round respects them after it: no isomorphism is ever pruned,
    and the branching tries every image of the individualized vertex.  A
    collision of two neighbour multisets can only leave a partition
    coarser, which makes the search longer, and a discrete leaf is
    accepted only after verify_bijection re-checks it edge by edge.

    Raises IsomorphismBudgetError when the step budget runs out, which is a
    resource failure distinct from a non-isomorphism verdict.
    """
    if g1.n != g2.n or g1.edge_count != g2.edge_count:
        return None
    n = g1.n
    dst, starts, degree = _csr(g1, g2)
    touched = degree > 0
    steps = 0

    def refine(col, classes):
        """Colour refinement of both graphs at once.

        A round gives each vertex the id of the pair (its colour, h), where
        h is the wrapping uint64 sum of _weights over its neighbours'
        colours (0 for an isolated vertex).  The old colour is the primary
        sort key, so each round refines the last, and the partition is
        stable once the number of classes no longer grows.  Colour ids are
        shared by the two graphs so their partitions stay comparable.  Each
        round charges one step per vertex of both graphs against the budget.
        """
        nonlocal steps
        while True:
            steps += 2 * n
            if steps > budget:
                raise IsomorphismBudgetError(
                    f"refinement budget exhausted after {steps} steps"
                )
            h = np.zeros(2 * n, dtype=np.uint64)
            h[touched] = np.add.reduceat(_weights(col)[dst], starts[touched])
            col, grown = _classes(col, h)
            if grown == classes:
                return col, classes
            classes = grown

    def search(col, classes):
        sizes = np.bincount(col[:n], minlength=classes)
        if not np.array_equal(sizes, np.bincount(col[n:], minlength=classes)):
            return None
        if sizes.max() == 1:
            position = np.empty(classes, dtype=np.int64)
            position[col[n:]] = np.arange(n)
            mapping = position[col[:n]].tolist()
            return mapping if verify_bijection(g1, g2, mapping) else None
        color = int(np.argmin(np.where(sizes > 1, sizes, n + 1)))
        u = int(np.flatnonzero(col[:n] == color)[0])
        for v in np.flatnonzero(col[n:] == color) + n:
            dist = _bfs(dst, starts, degree, [u, v])
            result = search(*refine(*_classes(col, dist)))
            if result is not None:
                return result
        return None

    return search(*refine(*_classes(np.zeros(2 * n, dtype=np.int64), degree)))


# ---------------------------------------------------------------------------
# graph6 encoding (header-free standard format)
# ---------------------------------------------------------------------------

_G6_MAX_N = 68719476735


def graph6_encode(g: Graph) -> str:
    """Standard graph6 text for g (no >>graph6<< header, no newline)."""
    n = g.n
    if n > _G6_MAX_N:
        raise ValueError(f"n={n} exceeds the graph6 limit")
    if n <= 62:
        head = [n + 63]
    elif n <= 258047:
        head = [126] + [((n >> s) & 63) + 63 for s in (12, 6, 0)]
    else:
        head = [126, 126] + [((n >> s) & 63) + 63 for s in (30, 24, 18, 12, 6, 0)]
    bits = []
    for k in range(1, n):
        for j in range(k):
            bits.append(1 if g.has_edge(j, k) else 0)
    while len(bits) % 6:
        bits.append(0)
    body = []
    for i in range(0, len(bits), 6):
        value = 0
        for bit in bits[i : i + 6]:
            value = (value << 1) | bit
        body.append(value + 63)
    return "".join(chr(x) for x in head + body)


def graph6_decode(text: str) -> Graph:
    """Inverse of graph6_encode; malformed input raises Graph6ParseError."""
    s = text.rstrip("\n")
    if not s:
        raise Graph6ParseError("empty graph6 text", 0)
    for i, ch in enumerate(s):
        if not (63 <= ord(ch) <= 126):
            raise Graph6ParseError(f"invalid graph6 byte {ch!r}", i)
    pos = 0
    if ord(s[0]) != 126:
        n = ord(s[0]) - 63
        pos = 1
    elif len(s) >= 2 and ord(s[1]) != 126:
        if len(s) < 4:
            raise Graph6ParseError("truncated 18-bit vertex count", len(s))
        n = 0
        for ch in s[1:4]:
            n = (n << 6) | (ord(ch) - 63)
        pos = 4
    else:
        if len(s) < 8:
            raise Graph6ParseError("truncated 36-bit vertex count", len(s))
        n = 0
        for ch in s[2:8]:
            n = (n << 6) | (ord(ch) - 63)
        pos = 8
    if n < 1:
        raise Graph6ParseError(f"vertex count {n} out of range", 0)
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(s) - pos != need:
        raise Graph6ParseError(
            f"expected {need} body bytes for n={n}, got {len(s) - pos}", pos
        )
    bits = []
    for i in range(pos, len(s)):
        value = ord(s[i]) - 63
        bits.extend((value >> shift) & 1 for shift in (5, 4, 3, 2, 1, 0))
    for i in range(nbits, len(bits)):
        if bits[i]:
            raise Graph6ParseError("nonzero padding bits", pos + i // 6)
    edges = []
    idx = 0
    for k in range(1, n):
        for j in range(k):
            if bits[idx]:
                edges.append((j, k))
            idx += 1
    return Graph(n, edges)
