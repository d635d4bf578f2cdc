"""Undirected simple graphs and distance-regularity machinery.

A Graph is one read-only numpy bool adjacency matrix: n x n, symmetric,
with a False diagonal.  Every operation here is array code over that
matrix.  All-pairs distances and distance-regularity share one
breadth-first search by layered matmuls (`_layers`): the intersection
numbers of every ordered pair are read off the products of the distance
layers with the adjacency matrix that the search forms anyway, and a
graph of diameter d needs d - 1 of them.  A connected bipartite graph is
searched from each class in turn against its biadjacency block, so each
product is a quarter of the n x n one, and a regular one needs d - 2 per
class: its last layer follows from an edge count.  Counts never exceed
the vertex count, so float32 matmuls (each function converts the matrix
locally) are exact and fast at the 486-vertex scale this library works
at.  A graph6 body is base64 written in the characters ? to ~, so it goes
through the interpreter's base64 codec (binascii) and one translation
table each way, and its 1-, 3- or 6-character vertex count is written and
read by one path each.

Isomorphism testing is colour refinement with individualization and
deterministic branching, run as numpy passes over one CSR adjacency of both
graphs.  A vertex's hash is the 64-bit sum of fixed weights of its
neighbours' colours.  It is never gathered from scratch: it starts as the
degree times one weight, for the colouring with one cell, and when a cell
splits, its largest part keeps its colour id, and only the vertices that
change colour add the change of their weight to their neighbours' sums
(Hopcroft's "smaller half" rule).  A hash collision can only leave a
partition coarser, never prune an isomorphism, and every returned
bijection is re-verified against both adjacency matrices, by two takes,
before being trusted.  A search that takes more than ISOMORPHISM_BUDGET
refinement steps raises IsomorphismBudgetError, which is no verdict.
"""

from __future__ import annotations

import binascii
from dataclasses import dataclass
from collections.abc import Iterable, Sequence
from itertools import chain

import numpy as np

# Refinement steps an isomorphism search may take (one per vertex of both
# graphs per round) before it raises IsomorphismBudgetError.
ISOMORPHISM_BUDGET = 10**7


class GraphStructureError(ValueError):
    """The graph lacks structure an operation requires (connectivity, ...)."""


class IsomorphismBudgetError(RuntimeError):
    """Search budget exhausted before a verdict; not a non-isomorphism proof."""


class Graph6ParseError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class Graph:
    """Undirected simple graph on vertices 0..n-1.

    Its one field, `adjacency_matrix`, is a read-only n x n bool array,
    symmetric and with a False diagonal; neighbours and edges are read off
    it.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        """The graph on 0..n-1 with the given edges, in any order, each
        given once or more.  Every edge must be a pair of integer ends, and
        loops and out-of-range ends are refused (ValueError).  The ends are
        read in one flat pass, and every edge's length is checked as well:
        a flat count alone would take (0, 1, 2), (3,) for two edges."""
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        edges = list(edges)
        try:
            ends = np.fromiter(chain.from_iterable(edges), np.int64, 2 * len(edges))
            pairs_only = set(map(len, edges)) <= {2}
        except (TypeError, ValueError):  # no sequence, too few ends, or not integers
            pairs_only = False
        if not pairs_only:
            raise ValueError("every edge must be a pair of integer vertices")
        pairs = ends.reshape(len(edges), 2)
        loops = pairs[:, 0] == pairs[:, 1]
        bad = ((pairs < 0) | (pairs >= n)).any(axis=1) | loops
        if bad.any():
            u, v = pairs[np.argmax(bad)].tolist()
            if u == v and 0 <= u < n:
                raise ValueError(f"loop at vertex {u}")
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        a = np.zeros((n, n), dtype=bool)
        a[pairs[:, 0], pairs[:, 1]] = True
        a[pairs[:, 1], pairs[:, 0]] = True
        a.flags.writeable = False
        self.adjacency_matrix = a

    @classmethod
    def from_adjacency(cls, a) -> "Graph":
        """The graph of a copy of `a`, which must be square, symmetric and
        loop-free."""
        a = np.array(a, dtype=bool)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"adjacency matrix of shape {a.shape} is not square")
        if len(a) < 1:
            raise ValueError("graph needs at least one vertex")
        if a.diagonal().any():
            raise ValueError(f"loop at vertex {int(np.argmax(a.diagonal()))}")
        if not np.array_equal(a, a.T):
            raise ValueError("adjacency matrix is not symmetric")
        a.flags.writeable = False
        g = cls.__new__(cls)
        g.adjacency_matrix = a
        return g

    @property
    def n(self) -> int:
        return len(self.adjacency_matrix)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.adjacency_matrix[v]).tolist())

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adjacency_matrix[u, v])

    @property
    def edge_count(self) -> int:
        return int(np.count_nonzero(self.adjacency_matrix)) // 2

    def edges(self):
        """Edges as (u,v) with u < v, lexicographic order."""
        us, vs = np.nonzero(np.triu(self.adjacency_matrix, 1))
        return zip(us.tolist(), vs.tolist())

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and np.array_equal(
            self.adjacency_matrix, other.adjacency_matrix
        )

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count})"


def _csr(*graphs: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Adjacency of the disjoint union of graphs, as (dst, starts, degree).

    The vertices of each graph are numbered after those of the graphs
    before it; the neighbours of vertex x are dst[starts[x]:starts[x] +
    degree[x]], in increasing order.  dst is int32, half the bytes of an
    index array, and is written one graph at a time.
    """
    degree = np.concatenate([np.count_nonzero(g.adjacency_matrix, axis=1) for g in graphs])
    starts = np.cumsum(degree) - degree
    dst = np.empty(int(degree.sum()), dtype=np.int32)
    at = shift = 0
    for g in graphs:
        # column indices: np.nonzero would also build the row indices, an
        # int64 per edge that is not needed
        cols = np.flatnonzero(g.adjacency_matrix)
        cols %= g.n
        cols += shift
        dst[at:at + len(cols)] = cols
        at += len(cols)
        shift += g.n
        del cols  # before the next graph's are built
    return dst, starts, degree


def _bfs(g: Graph, source: int) -> np.ndarray:
    """BFS distances from one vertex (int64, -1 if unreachable), each level
    read off the adjacency rows of its frontier: no CSR is built, whose
    int64 per edge would outweigh the bool matrix eight to one."""
    dist = np.full(g.n, -1, dtype=np.int64)
    frontier = np.zeros(g.n, dtype=bool)
    frontier[source] = True
    level = 0
    while frontier.any():
        dist[frontier] = level
        level += 1
        frontier = g.adjacency_matrix[frontier].any(axis=0)
        frontier &= dist < 0
    return dist


def _layers(g: Graph, degree: np.ndarray):
    """Breadth-first search from every vertex at once, by layered matmuls.

    With D_j the pairs at distance j and A the adjacency matrix, (D_j A)[x,
    y] counts the neighbours of y at distance j from x.  So D_j A is zero
    off D_{j-1}, D_j and D_{j+1} and positive on all of D_{j+1}, which is
    its support less the ball, the pairs reached so far.  D_1 A is the
    product of D_1's block of A with its own transpose, which numpy forms
    as a symmetric rank-k update (syrk), in about 70% of a general
    product's time.

    The sources are searched in blocks.  If g is connected and bipartite,
    its classes X and Y are the parities of the BFS distance from vertex 0,
    and there are two blocks.  From X, the layers of even j lie in the
    columns X and those of odd j in the columns Y, so each D_j A is an |X| x
    |Y| or |X| x |X| product with the biadjacency block B = A[X, Y] or with
    B^T, and the ball is held per parity; then the same from Y.  Any other
    graph is one block: every source, every column, A both ways.

    A block of a k-regular bipartite graph (degree holds every vertex's
    degree) forms no last product.  No edge joins two vertices of one
    layer, so e_j(x), the number of edges from D_j(x) onward, is k |D_j(x)|
    - e_{j-1}(x), with e_0 = k.  Let U(x) be the vertices of the parity of
    j + 1 not yet reached.  Every edge from D_j(x) onward ends in U(x), and
    U(x) lies in one class, with no edge inside it, so e_j(x) <= k |U(x)|,
    with equality exactly when every edge at U(x) ends in D_j(x): then U(x)
    is D_{j+1}(x) and nothing lies beyond it.  Since the inequality holds on
    every row, it is an equality on every row exactly when the sums over
    the block's sources are equal, and these are exact integers read off
    the layer and ball sizes.  Then U is the block's last layer, yielded
    with counts k on every pair (c = k there) in place of D_j A, and the
    block ends.

    Yields (block, j, counts, same, nxt) for j = 0, 1, ... of each block in
    turn.  counts is D_j A as float32 (read it only on nxt and same) and
    nxt is D_{j+1} as bool, both on the part of the n x n pair matrix that
    the index `block` selects; same is D_j on those columns, or None if D_j
    lies in the other class.  A block ends once every pair from its sources
    is reached, or when D_{j+1} is empty.  So from sources of eccentricity
    at most E, a block costs E - 1 products, and E - 2 in a regular
    bipartite graph: D_0 A is A itself, and D_E A is never formed.  The
    buffers are reused in place, so each is valid only until the next
    step, and the second block reuses the first block's when their shapes
    match: the reader still holds the last of them when the second block
    starts.  Counts never exceed n, so float32 is exact.
    """
    n, a = g.n, g.adjacency_matrix
    dist = _bfs(g, 0)
    x, y = np.flatnonzero(dist % 2 == 0), np.flatnonzero(dist % 2 == 1)
    b = a[x][:, y]
    # connected, with an edge, and every edge between the two classes
    if len(y) and len(x) + len(y) == n and 2 * np.count_nonzero(b) == degree.sum():
        b = b.astype(np.float32)
        blocks = [
            (((x[:, None], x), (x[:, None], y)), (b, b.T)),
            (((y[:, None], y), (y[:, None], x)), (b.T, b)),
        ]
        # the valency of a regular graph, or 0: no layer from an edge count
        k = int(degree[0]) if (degree == degree[0]).all() else 0
    else:
        whole = (slice(None), slice(None))
        a = a.astype(np.float32)
        blocks = [((whole, whole), (a, a))]
        k = 0
    shared = len(blocks) == 1
    del b  # in the one-block case, the bool block is not needed again
    floats = layer = ball = None
    # index[p], mult[p], layer[p] and ball[p] serve the layers of parity p:
    # the block they lie in, the block of A that carries them into the next
    # layer, the newest of them and every one so far
    for index, mult in blocks:
        rows = len(mult[0])
        shapes = [(rows, rows), mult[0].shape]
        # the second block writes into the first block's buffers when it
        # can (|X| = |Y|, as in every regular bipartite graph), rather than
        # allocate beside the ones the reader holds
        if floats is None or [f.shape for f in floats] != shapes:
            floats = [np.empty(s, dtype=np.float32) for s in shapes]
            layer = [np.empty(shapes[0], dtype=bool)]
            if shared:
                # both parities lie in every column: one ball, and D_j is
                # yielded beside D_{j+1}
                ball = [np.empty(shapes[0], dtype=bool)] * 2
                layer.append(np.empty(shapes[1], dtype=bool))
            else:
                # only the newest layer is held, so one buffer serves both
                # parities when their shapes agree
                ball = [np.empty(s, dtype=bool) for s in shapes]
                same_shape = shapes[0] == shapes[1]
                layer.append(layer[0] if same_shape else np.empty(shapes[1], dtype=bool))
        ball[0].fill(False)
        np.fill_diagonal(ball[0], True)
        np.greater(mult[0], 0, out=layer[1])
        if shared:  # D_0, the first `same`, and then D_0 + D_1 reached
            np.copyto(layer[0], ball[0])
            ball[0] |= layer[1]
        else:
            np.copyto(ball[1], layer[1])
        counts, nxt, reached, j = mult[0], layer[1], rows, 0
        edges = k * rows  # e_0, summed over the sources
        while True:
            fresh = np.count_nonzero(nxt)
            reached += fresh
            yield index[1 - j % 2], j, counts, layer[j % 2] if shared else None, nxt
            if not fresh or reached == rows * n:
                break
            j += 1
            p, q = j % 2, 1 - j % 2
            if k:
                edges = k * fresh - edges  # fresh is |D_j|
                if edges == k * (ball[q].size - np.count_nonzero(ball[q])):
                    counts = np.broadcast_to(np.float32(k), shapes[q])
                    nxt = np.logical_not(ball[q], out=ball[q])
                    continue
            if j == 1:
                np.matmul(mult[0], mult[0].T, out=floats[q])
            else:
                np.copyto(floats[p], layer[p])
                np.matmul(floats[p], mult[p], out=floats[q])
            counts = floats[q]
            nxt = np.greater(counts, 0, out=layer[q])
            np.greater(nxt, ball[q], out=nxt)
            ball[q] |= nxt


def distance_matrix(g: Graph) -> np.ndarray:
    """All-pairs distances (int32, -1 for unreachable) via layered matmuls.

    Each layer of _layers is written into its block of the matrix: in place
    where the block is a view (the one block of a non-bipartite graph), and
    through a copy stored back where it is gathered (a bipartite block).
    """
    dist = np.full((g.n, g.n), -1, dtype=np.int32)
    np.fill_diagonal(dist, 0)
    for block, j, _, _, nxt in _layers(g, np.count_nonzero(g.adjacency_matrix, axis=1)):
        part = dist[block]
        np.copyto(part, j + 1, where=nxt)
        if part.base is not dist:  # a copy, not a view
            dist[block] = part
    return dist


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


def _constant_on(values: np.ndarray, mask: np.ndarray) -> int | None:
    """The one value of `values` on the True cells of `mask` (at least
    one), or None if there are several: every such cell must equal the
    first.  Unlike values[mask], this gathers nothing."""
    first = values.flat[np.argmax(mask)]
    equal = values == first
    equal &= mask  # in place: one temporary of that shape, not two
    same = np.count_nonzero(equal) == np.count_nonzero(mask)
    return int(first) if same else None


def is_distance_regular(g: Graph) -> IntersectionArray | None:
    """Return the intersection array if g is distance-regular, else None.

    One pass over the layers of the all-pairs BFS: with D_j the distance-j
    layer and A the adjacency matrix, (D_j A)[x, y] counts the neighbors of
    y at distance j from x.  So a_j is read off D_j A on the pairs at
    distance j (it is 0 when g is bipartite) and c_{j+1} on those at
    distance j + 1, and each must be one value there, and the same from
    every block of sources.  If every degree is k as well, the neighbours
    of y at distance j + 1 number b_j = k - a_j - c_j for every pair, so
    D_{d-1} A is the last product a diameter-d graph needs.  A bipartite
    one needs D_{d-2} A at most: its last layer, with c_d = k, is read off
    an edge count (see _layers).  The BFS always runs to the end, and
    GraphStructureError is raised if g is disconnected, whether or not a
    layer was irregular.
    """
    degree = np.count_nonzero(g.adjacency_matrix, axis=1)
    regular = bool((degree == degree[0]).all())
    reached = g.n  # pairs at finite distance
    arrays: list[list[tuple[int, int]]] = []  # (a_j, c_{j+1}) from each block
    for _, j, counts, same, nxt in _layers(g, degree):
        if j == 0:
            arrays.append([])
        size = np.count_nonzero(nxt)
        if not size:  # the layer past the diameter
            continue
        reached += size
        a = 0 if same is None else _constant_on(counts, same)
        c = _constant_on(counts, nxt)
        regular &= a is not None and c is not None
        arrays[-1].append((a, c))
    if reached != g.n * g.n:
        raise GraphStructureError("graph is disconnected")
    if not regular or any(numbers != arrays[0] for numbers in arrays):
        return None
    a, c = (tuple(x) for x in zip(*arrays[0])) if arrays[0] else ((), ())
    k = int(degree[0])
    b = tuple(k - a_j - c_j for a_j, c_j in zip(a, (0,) + c))
    return IntersectionArray(b=b, c=c)


def srg_parameters(g: Graph) -> tuple[int, int, int, int] | None:
    """(n, k, lambda, mu) if g is strongly regular (a connected diameter-2
    DRG), else None."""
    try:
        arr = is_distance_regular(g)
    except GraphStructureError:  # disconnected
        return None
    if arr is None or arr.diameter != 2:
        return None
    return (g.n, arr.valency, arr.a[0], arr.c[1])


def complement(g: Graph) -> Graph:
    c = ~g.adjacency_matrix
    np.fill_diagonal(c, False)
    return Graph.from_adjacency(c)


def bipartition(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """2-coloring classes of a connected bipartite graph, vertex 0 in the first.

    The classes are the vertices at even and at odd distance from vertex 0;
    an edge whose ends are at equal distance closes an odd walk, and the
    lexicographically first such edge is reported.  The ends of an edge are
    at distances at most 1 apart, so they are at equal distance exactly when
    they have equal parity: one parity mask over the adjacency matrix tests
    every edge, and the witness is searched only when the test fails.
    """
    dist = _bfs(g, 0)
    if (dist < 0).any():
        raise GraphStructureError("graph is disconnected")
    odd = dist % 2 == 1
    clash = g.adjacency_matrix & (odd[:, None] == odd)
    if clash.any():
        u, v = np.argwhere(np.triu(clash, 1))[0].tolist()
        raise GraphStructureError(
            f"graph is not bipartite: odd closed walk through {u},{v}"
        )
    side0 = tuple(np.flatnonzero(~odd).tolist())
    side1 = tuple(np.flatnonzero(odd).tolist())
    return side0, side1


def bipartite_halves(g: Graph) -> tuple[Graph, tuple[tuple[int, ...], tuple[int, ...]]]:
    """The halved graph on vertex 0's class of a connected bipartite graph,
    with the class partition (side0, side1) of bipartition.

    The half is the distance-2 graph on side0, relabelled 0..size-1 in
    sorted label order.  With B the biadjacency block between the classes,
    two vertices of side0 are at distance 2 when they share a neighbour:
    the half is the support of B B^T off the diagonal.  The other class's
    half is that of g relabelled so that one of its vertices is vertex 0.
    """
    side0, side1 = bipartition(g)
    b = g.adjacency_matrix[list(side0)][:, list(side1)].astype(np.float32)
    two = b @ b.T > 0
    np.fill_diagonal(two, False)
    return Graph.from_adjacency(two), (side0, side1)


def antipodal_fold(g: Graph) -> tuple[Graph, tuple[tuple[int, ...], ...]]:
    """Quotient on antipodal classes {v} + (vertices at maximal distance from v).

    The distance-d relation (plus identity) must be an equivalence with
    classes of uniform size.  Otherwise the lexicographically first triple
    (v, w, x) is reported where w is related to v and x to exactly one of
    them.  Classes are numbered by their least vertex.

    The relation R is reflexive and symmetric, so one row comparison
    settles it: R is an equivalence iff every row R[v] equals the row of
    its least member m(v).  For if it does and u ~ v, then u ~ m(v), so
    m(u) <= m(v), and likewise m(v) <= m(u); so R[u] = R[m(u)] = R[v].
    The witness is searched for only once that check has failed.
    """
    dist = distance_matrix(g)
    if (dist == -1).any():
        raise GraphStructureError("graph is disconnected")
    d = int(dist.max())
    related = dist == d
    np.fill_diagonal(related, True)
    least = related.argmax(axis=1)
    if not (related == related[least]).all():
        for v in range(g.n):
            partners = np.flatnonzero(related[v])
            differs = (related[partners] != related[v]).any(axis=1)
            if differs.any():
                w = int(partners[np.argmax(differs)])
                x = int(np.argmax(related[v] ^ related[w]))
                raise GraphStructureError(
                    f"distance-{d} relation is not an equivalence: "
                    f"witness triple ({v},{w},{x})"
                )
    index = np.searchsorted(np.flatnonzero(least == np.arange(g.n)), least)
    sizes = np.bincount(index)
    if (sizes != sizes[0]).any():
        raise GraphStructureError("antipodal classes have non-uniform sizes")
    members = np.argsort(index, kind="stable").reshape(len(sizes), -1)
    # classes i and j are joined when some member of i meets some member of j
    folded = g.adjacency_matrix[members].any(axis=1)[:, members].any(axis=2)
    np.fill_diagonal(folded, False)
    return Graph.from_adjacency(folded), tuple(map(tuple, members.tolist()))


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


def _split(col: np.ndarray, key: np.ndarray, classes: int) -> tuple[np.ndarray, int, np.ndarray]:
    """Split every cell of the colouring `col` (ids 0..classes-1, each in
    use) into the parts of equal `key`, keeping colour ids stable.

    The largest part of a cell keeps its id; of several largest, the first
    in key order does.  The other parts take the fresh ids classes,
    classes + 1, ... in (colour, key) order, so the ids stay dense.  Returns
    the new colouring, its class count and the vertices whose id changed:
    all but the largest part of each cell.  When nothing splits, that set is
    empty and the colouring is `col` itself.
    """
    order = np.lexsort((key, col))
    c, k = col[order], key[order]
    # a part starts at each True in sorted order, and one is past the end
    bounds = np.ones(len(order) + 1, dtype=bool)
    bounds[1:-1] = (c[1:] != c[:-1]) | (k[1:] != k[:-1])
    edges = np.flatnonzero(bounds)
    if len(edges) == classes + 1:
        return col, classes, order[:0]
    sizes = edges[1:] - edges[:-1]
    cells = c[edges[:-1]]
    # within each cell, its parts by decreasing size, ties in key order (the
    # sort is stable); cells is sorted, so the cells of `ranked` are too
    ranked = np.lexsort((-sizes, cells))
    leads = np.ones(len(cells), dtype=bool)
    leads[1:] = cells[1:] != cells[:-1]
    keep = np.zeros(len(cells), dtype=bool)
    keep[ranked[leads]] = True
    ids = np.where(keep, cells, classes + np.cumsum(~keep) - 1)
    split = np.empty_like(col)
    split[order] = np.repeat(ids, sizes)
    return split, len(cells), order[np.repeat(~keep, sizes)]


def verify_bijection(g1: Graph, g2: Graph, mapping: Sequence[int]) -> bool:
    """Certify a candidate isomorphism: mapping must be a permutation of
    0..n-1 (checked before it indexes anything) carrying the adjacency
    matrix of g1 onto that of g2, so edges go to edges and non-edges to
    non-edges.  The rows and then the columns of g2's matrix are gathered
    in mapping order by two takes, each a contiguous copy, and compared
    with g1's."""
    n = g1.n
    m = np.asarray(mapping)
    if g2.n != n or m.shape != (n,) or m.dtype.kind not in "iu":
        return False
    if m.min() < 0 or m.max() >= n:
        return False
    seen = np.zeros(n, dtype=bool)
    seen[m] = True
    if not seen.all():
        return False
    return np.array_equal(g2.adjacency_matrix.take(m, 0).take(m, 1), g1.adjacency_matrix)


def are_isomorphic(g1: Graph, g2: Graph) -> list[int] | None:
    """A certified vertex bijection g1 -> g2, or None if none exists.

    Colour refinement with individualization-refinement backtracking over
    the disjoint union of the two graphs: vertices 0..n-1 are g1 and
    n..2n-1 are g2.  Branching is deterministic (the smallest cell of
    size > 1, lowest colour id, its lowest vertex of g1 against each
    vertex of g2 in that cell) and each individualization splits the
    cells by the BFS distances to the individualized pair.

    The refinement is incremental.  h[x] is the wrapping uint64 sum of
    _weights over the colours of x's neighbours: the degree times one
    weight while every vertex has colour 0, and kept current through the
    split by degree and every split after it.  Each round splits every
    cell by h (_split); the largest part of a cell keeps its id, so only
    the vertices of the other parts change colour, and each adds the
    change of its weight to the h of its neighbours (Hopcroft's rule, as
    in McKay and Piperno, "Practical graph isomorphism, II", 2014).  A
    round in which nothing splits ends the refinement.

    The verdict is exact whatever the hash does.  Every colour id is a
    deterministic function of isomorphism-invariant data (the colours
    before the split over both graphs, the part sizes, and a key that is
    the degree, the hash of the neighbour colour multiset, or the distance
    to the individualized pair), so any isomorphism that respects the
    colours before a split respects them after it: no isomorphism is ever
    pruned, and the branching tries every image of the individualized
    vertex.  A collision of two neighbour multisets can only leave a
    partition coarser, which makes the search longer, and a discrete leaf
    is accepted only after verify_bijection re-checks it.

    Each round charges one step per vertex of both graphs against
    ISOMORPHISM_BUDGET, read when the search starts;
    IsomorphismBudgetError when it runs out is a resource failure, distinct
    from a non-isomorphism verdict.
    """
    if g1.n != g2.n or g1.edge_count != g2.edge_count:
        return None
    n = g1.n
    budget = ISOMORPHISM_BUDGET
    dst, starts, degree = _csr(g1, g2)
    steps = 0

    def recolour(h, old, col, moved):
        """Carry the colour changes old -> col of the vertices `moved`
        into h, in place: each adds the change of its weight to its
        neighbours' sums.  Per neighbour entry it carries, it holds 12
        bytes at most (an int64 position and an int32 neighbour, then the
        neighbour and a uint64 change), and it carries at most half the CSR
        at once: all of `moved` when that fits, else one graph at a time.
        So it never holds more than 6 bytes per CSR entry, less than the 8
        of a uint64 gather over the whole CSR."""
        moved = moved[degree[moved] > 0]
        if not len(moved):
            return
        change = _weights(col[moved]) - _weights(old[moved])
        fits = 2 * degree[moved].sum() <= len(dst)
        for side in [slice(None)] if fits else [moved < n, moved >= n]:
            part = moved[side]
            d = degree[part]
            ends = np.cumsum(d)
            # the CSR positions of their neighbour lists, a run per vertex:
            # ones, with the jump to the next run at its first position
            positions = np.ones(ends[-1], dtype=np.int64)
            positions[0] = starts[part[0]]
            positions[ends[:-1]] = starts[part[1:]] - starts[part[:-1]] - d[:-1] + 1
            np.cumsum(positions, out=positions)
            neighbours = dst[positions]
            del positions
            np.add.at(h, neighbours, np.repeat(change[side], d))

    def refine(col, classes, h):
        """Split by h until nothing splits, keeping h current; h is
        updated in place."""
        nonlocal steps
        while True:
            steps += 2 * n
            if steps > budget:
                raise IsomorphismBudgetError(
                    f"refinement budget exhausted after {steps} steps"
                )
            split, classes, moved = _split(col, h, classes)
            if not len(moved):
                return col, classes, h
            recolour(h, col, split, moved)
            col = split

    def children(col, classes, h, color):
        """The refined colourings below col, computed one at a time; u's
        distances in g1 are searched once, for every candidate v."""
        u = int(np.flatnonzero(col[:n] == color)[0])
        from_u = _bfs(g1, u)
        for v in np.flatnonzero(col[n:] == color) + n:
            dist = np.concatenate((from_u, _bfs(g2, int(v) - n)))
            split, count, moved = _split(col, dist, classes)
            child = h.copy()
            recolour(child, col, split, moved)
            node = refine(split, count, child)
            # a suspended level of a deep search keeps only col, h and from_u
            del dist, split, moved, child
            yield node

    # h of the one-cell colouring, then of the split by degree
    one = np.zeros(2 * n, dtype=np.int64)
    h = degree.astype(np.uint64) * _weights(one[:1])
    col, classes, moved = _split(one, degree, 1)
    recolour(h, one, col, moved)
    # depth-first over an explicit stack, so the depth is not bounded by
    # Python's recursion limit
    stack = [iter([refine(col, classes, h)])]
    while stack:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
            continue
        col, classes, h = node
        sizes = np.bincount(col[:n], minlength=classes)
        if not np.array_equal(sizes, np.bincount(col[n:], minlength=classes)):
            continue
        if sizes.max() > 1:
            color = int(np.argmin(np.where(sizes > 1, sizes, n + 1)))
            stack.append(children(col, classes, h, color))
            continue
        position = np.empty(classes, dtype=np.int64)
        position[col[n:]] = np.arange(n)
        mapping = position[col[:n]].tolist()
        if verify_bijection(g1, g2, mapping):
            return mapping
    return None


# ---------------------------------------------------------------------------
# graph6 encoding (header-free standard format)
# ---------------------------------------------------------------------------

_G6_MAX_N = 68719476735
# the vertex count takes 1, 3 or 6 characters after 0, 1 or 2 "~"
_G6_COUNT_WIDTHS = (1, 3, 6)
# graph6 writes the six-bit value v as chr(v + 63), base64 (RFC 4648) as
# the v-th character of this alphabet
_B64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_TO_G6 = bytes.maketrans(_B64, bytes(range(63, 127)))
_FROM_G6 = bytes.maketrans(bytes(range(63, 127)), _B64)


def graph6_encode(g: Graph) -> str:
    """Standard graph6 text for g (no >>graph6<< header, no newline).

    The body is the bits (j, k) for j < k, column by column, six to a
    character: the strict lower triangle row by row, packed into bytes in
    one pass.  Base64 cuts bytes into six-bit characters the same way,
    three bytes to four characters with the last group zero-padded, so
    the body is the packed bytes' base64 text, cut to its length and
    translated into graph6's characters.
    """
    n = g.n
    if n > _G6_MAX_N:
        raise ValueError(f"n={n} exceeds the graph6 limit")
    tildes = (n > 62) + (n > 258047)
    shifts = range(6 * _G6_COUNT_WIDTHS[tildes] - 6, -1, -6)
    head = [126] * tildes + [((n >> s) & 63) + 63 for s in shifts]
    packed = np.packbits(g.adjacency_matrix[np.tri(n, k=-1, dtype=bool)]).tobytes()
    body = binascii.b2a_base64(packed, newline=False)[: (n * (n - 1) // 2 + 5) // 6]
    return (bytes(head) + body.translate(_TO_G6)).decode("ascii")


def graph6_decode(text: str) -> Graph:
    """Inverse of graph6_encode; malformed input raises Graph6ParseError.

    The validated body is padded with "?" (zero) to whole groups of four
    characters, translated into base64's alphabet and decoded to bytes,
    three to a group.  So a nonzero bit past the n(n-1)/2 bits of the
    matrix is the text's own padding, and its error names the character
    that holds it.  The matrix is rebuilt as a | a^T and goes through
    Graph.from_adjacency's checks, like any input.
    """
    s = text.rstrip("\n")
    if not s:
        raise Graph6ParseError("empty graph6 text", 0)
    codes = np.frombuffer(s.encode("utf-32-le", "surrogatepass"), dtype="<u4")
    invalid = np.flatnonzero((codes < 63) | (codes > 126))
    if len(invalid):
        i = int(invalid[0])
        raise Graph6ParseError(f"invalid graph6 byte {s[i]!r}", i)
    # a lone "~" reads as the start of "~~"
    tildes = 2 - len(s.ljust(2, "~")[:2].lstrip("~"))
    width = _G6_COUNT_WIDTHS[tildes]
    pos = tildes + width
    if len(s) < pos:
        raise Graph6ParseError(f"truncated {6 * width}-bit vertex count", len(s))
    n = 0
    for ch in s[tildes:pos]:
        n = (n << 6) | (ord(ch) - 63)
    if n < 1:
        raise Graph6ParseError(f"vertex count {n} out of range", 0)
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(s) - pos != need:
        raise Graph6ParseError(
            f"expected {need} body bytes for n={n}, got {len(s) - pos}", pos
        )
    body = s[pos:].ljust((need + 3) // 4 * 4, "?").encode("ascii").translate(_FROM_G6)
    bits = np.unpackbits(np.frombuffer(binascii.a2b_base64(body), dtype=np.uint8))
    padding = np.flatnonzero(bits[nbits:])
    if len(padding):
        offset = pos + (nbits + int(padding[0])) // 6
        raise Graph6ParseError("nonzero padding bits", offset)
    a = np.zeros((n, n), dtype=bool)
    a[np.tri(n, k=-1, dtype=bool)] = bits[:nbits]
    return Graph.from_adjacency(a | a.T)
