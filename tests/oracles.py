"""Small graph builders, permutation helpers and independent oracles shared
by the tests.  The library does not need any of them: they build fixtures,
or recompute by a second route what the library computes.
"""

import random
import re
from collections import deque
from itertools import product

import numpy as np

from golay486 import codes, gf3
from golay486.gf3 import DimensionError
from golay486.graph import Graph, GraphStructureError, IntersectionArray, distance_matrix
from golay486.permaction import MAX_DEGREE, CycleParseError, GroupAction, Permutation, _point


def vec_add(u, v):
    """Entrywise sum of two GF(3) vectors of equal length."""
    if len(u) != len(v):
        raise DimensionError(f"length mismatch: {len(u)} vs {len(v)}")
    return tuple((a + b) % 3 for a, b in zip(u, v))


def vec_scale(c, v):
    """c times a GF(3) vector."""
    return tuple((c * a) % 3 for a in v)


def dot(u, v):
    """The GF(3) inner product of two vectors of equal length."""
    if len(u) != len(v):
        raise DimensionError(f"length mismatch: {len(u)} vs {len(v)}")
    return sum(a * b for a, b in zip(u, v)) % 3


def in_row_space(m, v):
    """Whether v lies in the row space of m, by rank comparison."""
    basis = gf3.row_space_basis(m)
    _, rank_with, _ = gf3.rref(basis + (tuple(v),))
    return rank_with == len(basis)


def brute_force_functionals(sub_basis, excluded=None, length=None):
    """Every phi in GF(3)^n, in lex order, whose first nonzero entry is 1,
    with phi.s = 0 for each row s of sub_basis and, when `excluded` is
    given, phi.excluded != 0.  n is len(excluded), else `length`."""
    n = len(excluded) if excluded is not None else length
    return [
        phi
        for phi in product((0, 1, 2), repeat=n)
        if next((x for x in phi if x), 0) == 1
        and all(dot(phi, s) == 0 for s in sub_basis)
        and (excluded is None or dot(phi, excluded) != 0)
    ]


def kernel_bases(sub_basis, excluded):
    """The RREF basis of each hyperplane containing span(sub_basis) but not
    `excluded`, one row-reduced null space per functional."""
    n = len(excluded)
    duals = gf3.null_space(sub_basis, width=n)
    return tuple(
        gf3.null_space((phi,), width=n)
        for phi in gf3.hyperplane_functionals(duals, excluded)
    )


def shifted_weight_counts(basis, shift):
    """The Hamming weight tally (weights 0..n) over the coset
    span(basis) + shift: the words of gf3._span, each moved by shift."""
    n = len(shift)
    words = (gf3._span(basis, n) + np.array(shift, dtype=np.uint8)) % 3
    return tuple(np.bincount(np.count_nonzero(words, axis=1), minlength=n + 1).tolist())


def product_antipodal_fold(g):
    """antipodal_fold by the n x n product criterion: rows v and w of the
    distance-d relation (plus identity) are equal iff both hold as many
    vertices as they share.  Raises as antipodal_fold does, with the same
    witness triple."""
    dist = distance_matrix(g)
    if (dist == -1).any():
        raise GraphStructureError("graph is disconnected")
    d = int(dist.max())
    related = (dist == d) | np.eye(g.n, dtype=bool)
    shared = related.astype(np.float32) @ related.astype(np.float32)
    size = related.sum(axis=1)
    bad = np.argwhere(related & ((shared != size[:, None]) | (shared != size)))
    if len(bad):
        v, w = bad[0].tolist()
        x = int(np.argmax(related[v] ^ related[w]))
        raise GraphStructureError(
            f"distance-{d} relation is not an equivalence: "
            f"witness triple ({v},{w},{x})"
        )
    _, index = np.unique(related.argmax(axis=1), return_inverse=True)
    sizes = np.bincount(index)
    if (sizes != sizes[0]).any():
        raise GraphStructureError("antipodal classes have non-uniform sizes")
    folded = np.zeros((len(sizes), len(sizes)), dtype=bool)
    us, vs = np.nonzero(g.adjacency_matrix)
    folded[index[us], index[vs]] = True
    np.fill_diagonal(folded, False)
    members = np.argsort(index, kind="stable").reshape(len(sizes), -1)
    return Graph.from_adjacency(folded), tuple(map(tuple, members.tolist()))


def complete_graph(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete_bipartite_graph(a, b):
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def disjoint_union(g, h):
    edges = list(g.edges()) + [(u + g.n, v + g.n) for u, v in h.edges()]
    return Graph(g.n + h.n, edges)


def neighbour_counts(g, labels, classes):
    """Per vertex v, the number of neighbours of v with each label
    0..classes-1, counted one edge at a time."""
    rows = []
    for v in range(g.n):
        row = [0] * classes
        for w in g.neighbors(v):
            row[labels[w]] += 1
        rows.append(row)
    return rows


def oracle_intersection_array(g):
    """Brute-force pair counting, fully independent of the library checker."""
    n = g.n
    dist = []
    for src in range(n):
        d = [-1] * n
        d[src] = 0
        queue = [src]
        while queue:
            u = queue.pop(0)
            for v in g.neighbors(u):
                if d[v] == -1:
                    d[v] = d[u] + 1
                    queue.append(v)
        if -1 in d:
            return "disconnected"
        dist.append(d)
    diameter = max(max(d) for d in dist)
    table = {}
    for u in range(n):
        for w in range(n):
            i = dist[u][w]
            counts = (
                sum(1 for x in g.neighbors(w) if dist[u][x] == i - 1),
                sum(1 for x in g.neighbors(w) if dist[u][x] == i),
                sum(1 for x in g.neighbors(w) if dist[u][x] == i + 1),
            )
            if table.setdefault(i, counts) != counts:
                return None
    return (
        tuple(table[i][2] for i in range(diameter)),
        tuple(table[i][0] for i in range(1, diameter + 1)),
    )


def ladder_codes(golay):
    """The Golay-family codes of the benchmark's size ladder."""
    return {
        "golay": golay,
        "shortened": codes.shorten(golay, 0),
        "truncated": codes.truncate(golay, 0),
        "extended": codes.linear_code(
            [row + ((-sum(row)) % 3,) for row in golay.generator]
        ),
    }


def petersen_graph():
    return Graph(
        10,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        + [(i, 5 + i) for i in range(5)],
    )


def identity(degree):
    return tuple(range(degree))


def compose(p, q):
    """Apply p, then q."""
    if len(p) != len(q):
        raise ValueError(f"degree mismatch: {len(p)} vs {len(q)}")
    return tuple(q[i] for i in p)


def inverse(p):
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def relabel_action(action, seed):
    """action conjugated by a seeded random permutation sigma, which
    renames point x sigma[x]; returns the action and sigma."""
    sigma = list(range(action.degree))
    random.Random(seed).shuffle(sigma)
    gens = []
    for g in action.generators:
        conj = [0] * action.degree
        for x in range(action.degree):
            conj[sigma[x]] = sigma[g[x]]
        gens.append(tuple(conj))
    return GroupAction(action.degree, tuple(gens)), sigma


# The token-at-a-time cycle parser that permaction.parse_cycles replaced.
_TOKEN = re.compile(r"\s*([(),;.]|[0-9]+)")


def token_parse_cycles(text: str, degree: int) -> Permutation:
    """Parse a product of disjoint cycles of 1-based points in 1..degree,
    one token at a time: the reference for permaction.parse_cycles.

    Whitespace and newlines may appear anywhere between tokens; points not
    mentioned are fixed; optional trailing punctuation (';' or '.') is
    allowed.  Repeated points, out-of-range points and malformed tokens
    raise CycleParseError with the offending position, and so does a
    degree above MAX_DEGREE, before anything is allocated.
    """
    if degree > MAX_DEGREE:
        raise CycleParseError(f"degree above MAX_DEGREE={MAX_DEGREE}", 0)
    images = list(range(degree))
    seen: set[int] = set()
    pos = 0
    length = len(text)

    def next_token():
        nonlocal pos
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                bad = pos + len(text[pos:]) - len(text[pos:].lstrip())
                raise CycleParseError(f"unexpected character {text[bad]!r}", bad)
            pos = length
            return None, length
        pos = m.end()
        return m.group(1), m.start(1)

    while True:
        tok, at = next_token()
        if tok is None:
            return tuple(images)
        if tok in ";.":
            # trailing punctuation: nothing but whitespace may follow
            tok, at = next_token()
            if tok is not None:
                raise CycleParseError(f"unexpected token {tok!r} after terminator", at)
            return tuple(images)
        if tok != "(":
            raise CycleParseError(f"expected '(' but found {tok!r}", at)
        cycle: list[int] = []
        expect_point = True
        while True:
            tok, at = next_token()
            if tok is None:
                raise CycleParseError("unterminated cycle", length)
            if tok == ")":
                if expect_point and cycle:
                    raise CycleParseError("trailing comma in cycle", at)
                break
            if tok == ",":
                if expect_point:
                    raise CycleParseError("misplaced comma", at)
                expect_point = True
                continue
            if not tok.isdigit():
                raise CycleParseError(f"expected a point but found {tok!r}", at)
            if not expect_point:
                raise CycleParseError("missing comma between points", at)
            point = _point(tok, degree)
            if not 1 <= point <= degree:
                raise CycleParseError(f"point {tok} outside 1..{degree}", at)
            if point - 1 in seen:
                raise CycleParseError(f"point {point} repeated", at)
            seen.add(point - 1)
            cycle.append(point - 1)
            expect_point = False
        for i, x in enumerate(cycle):
            images[x] = cycle[(i + 1) % len(cycle)]


def orbit(action, point):
    """Closure of {point} under the generators (breadth-first)."""
    seen = {point}
    queue = deque([point])
    while queue:
        x = queue.popleft()
        for g in action.generators:
            y = g[x]
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return seen


def gathered_orbital_union(decomp, orbital_ids):
    """Adjacency of the union of the chosen orbitals, gathered through a
    per-id selection mask: the reference for permaction.orbital_union_graph,
    which compares the pair table with each chosen id in turn."""
    selected = np.zeros(decomp.rank, dtype=bool)
    selected[list(orbital_ids)] = True
    return selected[decomp.pair_ids]


def ix_block(a, rows, cols):
    """The block of a on rows x cols by np.ix_: the reference for the
    row-then-column slices a[rows][:, cols] of the library."""
    return a[np.ix_(rows, cols)]


def quotient_intersection_array(b_union, diagonal):
    """DRG test on one union's suborbit quotient, one suborbit at a time.

    For a vertex-transitive graph whose edges are a union of orbitals, the
    distance classes around the base vertex are unions of suborbits and the
    neighbor counts are constant on each suborbit, so the graph is
    distance-regular iff the counts agree across all suborbits at the same
    distance.  Returns the array, None for a non-DRG, or "disconnected".
    """
    rank = len(b_union)
    dist = [-1] * rank
    dist[diagonal] = 0
    queue = deque([diagonal])
    while queue:
        s = queue.popleft()
        for t in range(rank):
            if b_union[s][t] and dist[t] == -1:
                dist[t] = dist[s] + 1
                queue.append(t)
    if -1 in dist:
        return "disconnected"
    d = max(dist)
    c_at = [set() for _ in range(d + 1)]
    a_at = [set() for _ in range(d + 1)]
    b_at = [set() for _ in range(d + 1)]
    for s in range(rank):
        i = dist[s]
        c = a = b = 0
        for t in range(rank):
            gap = dist[t] - i
            if gap == -1:
                c += b_union[s][t]
            elif gap == 0:
                a += b_union[s][t]
            elif gap == 1:
                b += b_union[s][t]
            elif b_union[s][t]:
                return None  # neighbors may not skip a distance level
        c_at[i].add(c)
        a_at[i].add(a)
        b_at[i].add(b)
    for i in range(d + 1):
        if len(c_at[i]) > 1 or len(a_at[i]) > 1 or len(b_at[i]) > 1:
            return None
    return IntersectionArray(
        b=tuple(b_at[i].pop() for i in range(d)),
        c=tuple(c_at[i].pop() for i in range(1, d + 1)),
    )


def edge_orbit_graph(action, seed_pairs):
    """Undirected graph on the edge-closure of the seed pairs under the
    action: a pair-by-pair closure, independent of the stabilizer chain
    behind permaction.orbital_union_graph."""
    n = action.degree
    seen = set()
    queue = deque()
    for u, v in seed_pairs:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"seed pair ({u},{v}) out of range")
        if u == v:
            raise ValueError("seed pairs must be off-diagonal")
        for pair in ((u, v), (v, u)):
            if pair not in seen:
                seen.add(pair)
                queue.append(pair)
    while queue:
        i, j = queue.popleft()
        for g in action.generators:
            pair = (g[i], g[j])
            if pair not in seen:
                seen.add(pair)
                seen.add(pair[::-1])
                queue.append(pair)
                queue.append(pair[::-1])
    return Graph(n, [(u, v) for (u, v) in seen if u < v])


class _SequentialLevel:
    """One level of the sequential chain: strong generators gens, the orbit
    of base under them in discovery order, and transversal[x] (with
    inverse[x]) mapping base to x.  tree holds the Schreier-tree edges
    (x, c), and tested[c] counts the orbit points already paired with
    gens[c]."""

    def __init__(self, base, ident):
        self.base = base
        self.gens = []
        self.orbit = [base]
        self.transversal = {base: ident}
        self.inverse = {base: ident}
        self.tree = set()
        self.tested = []

    def add_generator(self, s, ident):
        """Append s and grow the orbit in place: the points already in the
        orbit take only s, the points it reaches take every generator."""
        c = len(self.gens)
        self.gens.append(s)
        self.tested.append(0)
        old = len(self.orbit)
        k = 0
        while k < len(self.orbit):
            x = self.orbit[k]
            for d in range(c if k < old else 0, c + 1):
                y = int(self.gens[d][x])
                if y not in self.transversal:
                    t = self.gens[d][self.transversal[x]]
                    inv = np.empty_like(t)
                    inv[t] = ident
                    self.transversal[y] = t
                    self.inverse[y] = inv
                    self.orbit.append(y)
                    self.tree.add((x, d))
            k += 1


class _SequentialChain:
    """Incremental deterministic Schreier-Sims that sifts one Schreier
    generator per call, in (generator, orbit position) order, skipping only
    Schreier-tree edges; permaction.StabilizerChain must build the same
    chain in blocks.  The input generators are taken one at a time: each is
    sifted through the chain of the ones before it (one row in sifted),
    skipped if it sifts to the identity, and otherwise its residue is added
    and the levels are completed before the next one is read."""

    def __init__(self, action):
        self.degree = action.degree
        self.sifted = 0
        self._dtype = np.min_scalar_type(max(self.degree - 1, 0))
        self._ident = np.arange(self.degree, dtype=self._dtype)
        self.levels = []
        if self.degree:
            self.levels.append(_SequentialLevel(0, self._ident))
        for g in action.generators:
            residue, j = self._sift(np.array(g, dtype=self._dtype), 0)
            self.sifted += 1
            if residue is None:
                continue
            self._add_strong(residue, 0, j)
            while j >= 0:
                j = self._complete_level(j)

    def _add_strong(self, s, first, last):
        if last == len(self.levels):
            moved = int(np.flatnonzero(s != self._ident)[0])
            self.levels.append(_SequentialLevel(moved, self._ident))
        for level in self.levels[first : last + 1]:
            level.add_generator(s, self._ident)

    def _complete_level(self, j):
        level = self.levels[j]
        for c, s in enumerate(level.gens):
            while level.tested[c] < len(level.orbit):
                x = level.orbit[level.tested[c]]
                level.tested[c] += 1
                if (x, c) in level.tree:
                    continue
                schreier = level.inverse[int(s[x])][s[level.transversal[x]]]
                self.sifted += 1
                residue, k = self._sift(schreier, j + 1)
                if residue is not None:
                    self._add_strong(residue, j + 1, k)
                    return k
        return j - 1

    def _sift(self, g, start):
        for k in range(start, len(self.levels)):
            level = self.levels[k]
            inv = level.inverse.get(int(g[level.base]))
            if inv is None:
                return g, k
            g = inv[g]
        return (None if np.array_equal(g, self._ident) else g), len(self.levels)


def sequential_chain(action):
    """The stabilizer chain of action, one Schreier generator at a time."""
    return _SequentialChain(action)


_DOT_STATEMENT = re.compile(
    r"^(\w+ \[label=\"[^\"]*\"\];|\w+ -- \w+ \[label=\"[^\"]*\"\];"
    r"|rankdir=\w+;|node \[shape=\w+\];)$"
)


def check_dot(text):
    """Minimal validity check for the DOT the CLI emits (header, statements,
    brace)."""
    lines = [ln.strip() for ln in text.strip().splitlines()]
    if len(lines) < 2:
        return False
    if not re.fullmatch(r"graph \w+ \{", lines[0]):
        return False
    if lines[-1] != "}":
        return False
    return all(_DOT_STATEMENT.fullmatch(ln) for ln in lines[1:-1])
