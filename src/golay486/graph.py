"""Undirected simple graphs and distance-regularity machinery.

The Graph type stores sorted neighbor tuples (for deterministic iteration
and BFS) alongside per-vertex sets (for O(1) adjacency tests) and a lazily
built numpy adjacency matrix.  Distance-regularity is checked in one
pass: the intersection numbers of every ordered pair are read off exact
matrix products with the distance layers; counts never exceed the vertex
count, so float32 matmuls are exact and fast at the 486-vertex scale this
library works at.

Isomorphism testing is color refinement with individualization and
deterministic branching; returned bijections are re-verified edge by edge
before being trusted.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property
from collections.abc import Iterable, Sequence

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


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete_bipartite_graph(a: int, b: int) -> Graph:
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def empty_graph(n: int) -> Graph:
    return Graph(n)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    edges = list(g.edges()) + [(u + g.n, v + g.n) for u, v in h.edges()]
    return Graph(g.n + h.n, edges)


def bfs_distances(g: Graph, source: int) -> list[int | float]:
    """Shortest-path distances from source; unreachable vertices get inf."""
    dist: list[int | float] = [math.inf] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in g.neighbors(u):
            if dist[v] is math.inf:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


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


def is_connected(g: Graph) -> bool:
    return all(d is not math.inf for d in bfs_distances(g, 0))


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

    def vertex_count(self) -> int:
        return sum(self.distance_class_sizes())

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

    def feasibility_identity_holds(self) -> bool:
        """k(k - lam - 1) = (n - k - 1) mu, the standard counting identity."""
        return self.k * (self.k - self.lam - 1) == (self.n - self.k - 1) * self.mu

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
    """(n,k,lambda,mu) if g is strongly regular (diameter-2 DRG), else None."""
    if not is_connected(g):
        return None
    arr = is_distance_regular(g)
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


def intersection_spectrum(arr: IntersectionArray) -> tuple[float, ...]:
    """Eigenvalues of the tridiagonal intersection matrix, sorted descending.

    The (d+1)x(d+1) matrix has c_i below, a_i on, and b_i above the
    diagonal; its d+1 real eigenvalues are the distinct eigenvalues of any
    graph realizing the array.
    """
    d = arr.diameter
    m = np.zeros((d + 1, d + 1))
    a = (0,) + arr.a
    for i in range(d + 1):
        m[i, i] = a[i]
        if i < d:
            m[i, i + 1] = arr.b[i]
            m[i + 1, i] = arr.c[i]
    eig = np.linalg.eigvals(m)
    if np.abs(eig.imag).max(initial=0.0) > 1e-9:
        raise ValueError(f"intersection matrix of {arr} has non-real spectrum")
    return tuple(sorted(eig.real.tolist(), reverse=True))


# ---------------------------------------------------------------------------
# Isomorphism by color refinement + individualization
# ---------------------------------------------------------------------------


def _refine(adj1, adj2, col1, col2, steps, budget):
    """Synchronized 1-dim color refinement on both graphs.

    Signatures (own color, sorted neighbor color multiset) get shared ids so
    the partitions stay comparable.  Each per-vertex signature counts as one
    refinement step against the budget.
    """
    n = len(adj1)
    while True:
        sig_ids: dict = {}
        new = []
        for adj, col in ((adj1, col1), (adj2, col2)):
            steps[0] += n
            if steps[0] > budget:
                raise IsomorphismBudgetError(
                    f"refinement budget exhausted after {steps[0]} steps"
                )
            out = [0] * n
            for u in range(n):
                counts = Counter(col[v] for v in adj[u])
                sig = (col[u], tuple(sorted(counts.items())))
                out[u] = sig_ids.setdefault(sig, len(sig_ids))
            new.append(out)
        if new[0] == col1 and new[1] == col2:
            return col1, col2
        col1, col2 = new


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

    Color refinement with individualization-refinement backtracking;
    branching is deterministic (lowest color class, lowest vertex) and each
    individualization folds in distances to the individualized vertex.
    Raises IsomorphismBudgetError when the step budget runs out, which is a
    resource failure distinct from a non-isomorphism verdict.
    """
    if g1.n != g2.n or g1.edge_count != g2.edge_count:
        return None
    n = g1.n
    adj1 = [g1.neighbors(v) for v in range(n)]
    adj2 = [g2.neighbors(v) for v in range(n)]
    steps = [0]

    deg_ids: dict = {}
    col1 = [deg_ids.setdefault(len(adj1[v]), len(deg_ids)) for v in range(n)]
    col2 = [deg_ids.setdefault(len(adj2[v]), len(deg_ids)) for v in range(n)]
    col1, col2 = _refine(adj1, adj2, col1, col2, steps, budget)

    def search(col1, col2):
        if Counter(col1) != Counter(col2):
            return None
        cells: dict[int, list[int]] = {}
        for v in range(n):
            cells.setdefault(col1[v], []).append(v)
        branch = [c for c, vs in cells.items() if len(vs) > 1]
        if not branch:
            position = {c: v for v, c in enumerate(col2)}
            mapping = [position[c] for c in col1]
            return mapping if verify_bijection(g1, g2, mapping) else None
        color = min(branch, key=lambda c: (len(cells[c]), c))
        u = min(cells[color])
        du = bfs_distances(g1, u)
        tag = max(max(col1), max(col2)) + 1
        for v in sorted(w for w in range(n) if col2[w] == color):
            dv = bfs_distances(g2, v)
            sig_ids: dict = {}
            nc1 = [
                tag + 1 + sig_ids.setdefault((col1[x], du[x]), len(sig_ids))
                for x in range(n)
            ]
            nc2 = [
                tag + 1 + sig_ids.setdefault((col2[x], dv[x]), len(sig_ids))
                for x in range(n)
            ]
            nc1[u] = tag
            nc2[v] = tag
            r1, r2 = _refine(adj1, adj2, nc1, nc2, steps, budget)
            result = search(r1, r2)
            if result is not None:
                return result
        return None

    return search(col1, col2)


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
