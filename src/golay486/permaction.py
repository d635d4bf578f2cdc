"""Permutations and transitive group actions.

Permutations are image tuples on 0..n-1 (1-based only in the external
cycle notation).  The module covers cycle-notation parsing (bounded by
MAX_DEGREE), orbits, exact group order, the orbital (pair-orbit)
decomposition of a transitive action, collapsed adjacency matrices, and
the scan that finds every union of orbitals forming a distance-regular
graph.

Group order and orbitals both come from a stabilizer chain built by
incremental deterministic Schreier-Sims (see StabilizerChain for why it is
certified with no separate verification pass); orbitals() reads the
suborbits and every row of the pair table off the chain, whose base
starts at point 0.
"""

from __future__ import annotations

import re
from array import array
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from collections.abc import Iterable, Sequence

import numpy as np

from .graph import Graph, GraphStructureError, IntersectionArray

Permutation = tuple[int, ...]

# With rank r there are up to 2^(r-1) orbital unions to scan.
MAX_SCAN_RANK = 24

# Largest degree a generator file may have.  At this degree the two
# degree^2 tables behind an orbital decomposition are 64 MiB each: the int32
# pair_ids, and level 0 of the stabilizer chain (its transversal elements
# and their inverses, 2 * degree arrays of degree uint16 points).  Each
# deeper level adds 2 * |orbit| such arrays.
MAX_DEGREE = 4096


class CycleParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def cycles(p: Permutation) -> list[tuple[int, ...]]:
    """Disjoint cycle decomposition (0-based), cycles led by their minimum;
    fixed points are left out."""
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        x = p[start]
        while x != start:
            cycle.append(x)
            seen[x] = True
            x = p[x]
        if len(cycle) > 1:
            out.append(tuple(cycle))
    return out


def format_cycles(p: Permutation) -> str:
    """1-based cycle notation, identity rendered as ()."""
    cs = cycles(p)
    if not cs:
        return "()"
    return "".join("(" + ",".join(str(x + 1) for x in c) + ")" for c in cs)


_TOKEN = re.compile(r"\s*([(),;.]|\d+)")


def _point(token: str, bound: int) -> int:
    """The value of a digit token, or bound + 1 for any value above bound;
    a token too long to be in range is never converted."""
    if len(token.lstrip("0")) > len(str(bound)):
        return bound + 1
    return int(token)


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse a product of disjoint cycles of 1-based points in 1..degree.

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


def parse_generator_file(text: str, degree: int | None = None) -> "GroupAction":
    """Parse "name := cycles" assignments (the bundled-asset layout).

    Assignments may span lines; the degree defaults to the largest point
    mentioned.  Raises CycleParseError on malformed cycle text and, through
    parse_cycles, on a degree (given or inferred) above MAX_DEGREE.
    """
    pieces = re.split(r"^\s*(\w+)\s*:=", text, flags=re.MULTILINE)
    if len(pieces) < 3:
        raise CycleParseError("no 'name := cycles' assignment found", 0)
    bodies = [pieces[i + 1] for i in range(1, len(pieces) - 1, 2)]
    if degree is None:
        points = [_point(t, MAX_DEGREE) for b in bodies for t in re.findall(r"\d+", b)]
        if not points:
            raise CycleParseError("no points in generator file", 0)
        degree = max(points)
    return GroupAction(
        degree=degree,
        generators=tuple(parse_cycles(body, degree) for body in bodies),
    )


@dataclass(frozen=True)
class GroupAction:
    """A permutation group given by generators of common degree."""

    degree: int
    generators: tuple[Permutation, ...]

    def __post_init__(self):
        for g in self.generators:
            if len(g) != self.degree:
                raise ValueError("generator degree mismatch")
            if sorted(g) != list(range(self.degree)):
                raise ValueError("generator is not a permutation")


def orbit(action: GroupAction, point: int) -> set[int]:
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


def is_transitive(action: GroupAction) -> bool:
    return len(orbit(action, 0)) == action.degree


# ---------------------------------------------------------------------------
# Incremental deterministic Schreier-Sims
# ---------------------------------------------------------------------------


class _ChainLevel:
    """One level of a stabilizer chain: strong generators gens, the orbit of
    base under them in discovery order, and transversal[x] (with inverse[x])
    mapping base to x.  tree holds the Schreier-tree edges (x, c), and
    tested[c] counts the orbit points already paired with gens[c].
    """

    __slots__ = ("base", "gens", "orbit", "transversal", "inverse", "tree", "tested")

    def __init__(self, base: int, ident: np.ndarray):
        self.base = base
        self.gens: list[np.ndarray] = []
        self.orbit = [base]
        self.transversal = {base: ident}
        self.inverse = {base: ident}
        self.tree: set[tuple[int, int]] = set()
        self.tested: list[int] = []

    def add_generator(self, s: np.ndarray, ident: np.ndarray):
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


class StabilizerChain:
    """A base and strong generating set, by incremental deterministic
    Schreier-Sims (Seress, *Permutation Group Algorithms*, 2003, ch. 4).

    The base starts at point 0 (orbitals() reads the suborbits of 0 off
    level 1) and is extended by the least point moved by a generator that
    fixes every base point so far; if every generator fixes 0, level 0 just
    has orbit {0}, a factor of 1 in the order.  Level j holds the strong
    generators S_j fixing b_0..b_{j-1}; H_j = <S_j>.  Levels are completed
    deepest first: for x in the orbit of b_j and s in S_j the Schreier
    generator t_x s t_{x^s}^-1 fixes b_j and is sifted through the deeper
    levels.  A residue other than the identity fixes b_0..b_{k-1} for some
    k > j; it joins S_{j+1}..S_k, whose orbits grow in place (H_0..H_j do
    not change, as the residue lies in H_j), and work resumes at level k.
    A pair is sifted once: transversal elements never change once set, and
    a generator that sifted to the identity stays in H_{j+1}, which only
    grows.  Only Schreier-tree edges (x, s) are skipped, because t_{x^s}
    was defined as t_x s, so their Schreier generator is the identity by
    construction.  When the constructor returns every other Schreier
    generator has sifted to the identity, so by Schreier's lemma H_{j+1} is
    the stabilizer of b_j in H_j at every level and order() is exact.
    ``sifted`` counts the Schreier generators sifted.

    Internally permutations are numpy index arrays of the smallest unsigned
    type that holds a point ("p, then q" is q[p]); the public methods take
    and return tuples.
    """

    def __init__(self, action: GroupAction):
        self.degree = action.degree
        self.sifted = 0
        self._dtype = np.min_scalar_type(max(self.degree - 1, 0))
        self._ident = np.arange(self.degree, dtype=self._dtype)
        self.levels: list[_ChainLevel] = []
        if self.degree:
            self.levels.append(_ChainLevel(0, self._ident))
        for g in action.generators:
            s = np.array(g, dtype=self._dtype)
            if np.array_equal(s, self._ident):
                continue
            depth = next(
                (j for j, lv in enumerate(self.levels) if s[lv.base] != lv.base),
                len(self.levels),
            )
            self._add_strong(s, 0, depth)
        j = len(self.levels) - 1
        while j >= 0:
            j = self._complete_level(j)

    def _add_strong(self, s: np.ndarray, first: int, last: int):
        """Add s, which fixes the base points before level `last`, to levels
        first..last; last == len(levels) opens a level at its least moved point."""
        if last == len(self.levels):
            moved = int(np.flatnonzero(s != self._ident)[0])
            self.levels.append(_ChainLevel(moved, self._ident))
        for level in self.levels[first : last + 1]:
            level.add_generator(s, self._ident)

    def _complete_level(self, j: int) -> int:
        """Sift the untested Schreier generators of level j.  Return j - 1
        when all reduce to the identity; else add the first residue as a
        strong generator and return the level it dropped out at."""
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

    def _sift(self, g: np.ndarray, start: int) -> tuple[np.ndarray | None, int]:
        """Strip g through levels start..; (None, depth) when it reduces to
        the identity, else the residue and the level where it dropped out."""
        for k in range(start, len(self.levels)):
            level = self.levels[k]
            inv = level.inverse.get(int(g[level.base]))
            if inv is None:
                return g, k
            g = inv[g]
        return (None if np.array_equal(g, self._ident) else g), len(self.levels)

    def order(self) -> int:
        n = 1
        for level in self.levels:
            n *= len(level.orbit)
        return n

    def contains(self, g: Permutation) -> bool:
        if len(g) != self.degree:
            raise ValueError(f"degree mismatch: {len(g)} vs {self.degree}")
        residue, _ = self._sift(np.array(g, dtype=self._dtype), 0)
        return residue is None

    def base(self) -> tuple[int, ...]:
        return tuple(level.base for level in self.levels)


def group_order(action: GroupAction) -> int:
    """Exact order of the generated group."""
    return StabilizerChain(action).order()


# ---------------------------------------------------------------------------
# Orbitals of a transitive action
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrbitalDecomposition:
    """Orbit partition of ordered pairs under the diagonal action.

    pair_ids[i*n + j] is the orbital id of (i, j).  The orbitals of a
    transitive action match the suborbits (the orbits of the stabilizer of
    the base point) through the pairs (base, y); ids number the suborbits
    by their least point, so the labelling is deterministic.
    """

    action: GroupAction
    base: int
    pair_ids: array
    rank: int
    suborbit_sizes: tuple[int, ...]
    pairing: tuple[int, ...]
    diagonal_id: int

    @cached_property
    def suborbit_of_vertex(self) -> tuple[int, ...]:
        n = self.action.degree
        return tuple(self.pair_ids[self.base * n + v] for v in range(n))

    def suborbit_members(self, orbital: int) -> tuple[int, ...]:
        return tuple(
            v for v, s in enumerate(self.suborbit_of_vertex) if s == orbital
        )

    def nontrivial_ids(self) -> tuple[int, ...]:
        return tuple(k for k in range(self.rank) if k != self.diagonal_id)

    def id_by_suborbit_size(self) -> dict[int, int]:
        """size -> orbital id; raises if any two suborbits share a size."""
        sizes = self.suborbit_sizes
        if len(set(sizes)) != len(sizes):
            raise GraphStructureError("suborbit sizes are not distinct")
        return {size: k for k, size in enumerate(sizes)}


def orbitals(action: GroupAction) -> OrbitalDecomposition:
    """Pair-orbit decomposition of a transitive action, read off the
    stabilizer chain, whose base starts at 0: the orbits of the level-1 strong
    generators, which generate the stabilizer of 0, are the suborbits, and
    as the level-0 transversal element t_x maps (0, z) to (x, t_x[z]), row
    x is pair_ids[x, t_x[z]] = suborbit of z.
    """
    chain = StabilizerChain(action)
    top = chain.levels[0]
    n = action.degree
    if len(top.orbit) != n:
        raise GraphStructureError("action is not transitive")
    stabilizer_gens = chain.levels[1].gens if len(chain.levels) > 1 else []
    stabilizer = GroupAction(n, tuple(tuple(s.tolist()) for s in stabilizer_gens))
    suborbit = [-1] * n
    firsts = []
    for y in range(n):
        if suborbit[y] == -1:
            for z in orbit(stabilizer, y):
                suborbit[z] = len(firsts)
            firsts.append(y)
    ids = array("i", [0]) * (n * n)
    rows = np.frombuffer(ids, dtype=np.intc).reshape(n, n)
    labels = np.array(suborbit, dtype=np.intc)
    for x, t in top.transversal.items():
        rows[x, t] = labels
    return OrbitalDecomposition(
        action=action,
        base=0,
        pair_ids=ids,
        rank=len(firsts),
        suborbit_sizes=tuple(np.bincount(labels).tolist()),
        pairing=tuple(int(rows[y, 0]) for y in firsts),
        diagonal_id=suborbit[0],
    )


def orbital_union_graph(
    decomp: OrbitalDecomposition, orbital_ids: Iterable[int]
) -> Graph:
    """Graph whose edges are exactly the chosen orbital classes."""
    chosen = set(orbital_ids)
    if not chosen:
        raise ValueError("no orbitals chosen")
    if decomp.diagonal_id in chosen:
        raise ValueError("the diagonal orbital is not an edge set")
    for k in chosen:
        if not 0 <= k < decomp.rank:
            raise ValueError(f"orbital id {k} out of range")
        if decomp.pairing[k] not in chosen:
            raise ValueError(
                f"selection is not symmetric: orbital {k} lacks its transpose "
                f"{decomp.pairing[k]}"
            )
    n = decomp.action.degree
    selected = np.zeros(decomp.rank, dtype=bool)
    selected[list(chosen)] = True
    rows = np.frombuffer(decomp.pair_ids, dtype=np.intc).reshape(n, n)
    us, vs = np.nonzero(np.triu(selected[rows], 1))
    return Graph(n, zip(us.tolist(), vs.tolist()))


def verify_invariance(action: GroupAction, graph: Graph) -> bool:
    """True iff every generator maps every edge to an edge."""
    if action.degree != graph.n:
        raise ValueError("degree and vertex count differ")
    for g in action.generators:
        for u, v in graph.edges():
            if not graph.has_edge(g[u], g[v]):
                return False
    return True


def collapsed_matrix(
    graph: Graph, decomp: OrbitalDecomposition
) -> tuple[tuple[int, ...], ...]:
    """B[i][j] = neighbors in suborbit j of any vertex in suborbit i.

    Verified two ways: the edge set must be invariant under the action
    (i.e. a union of orbitals), and the counts must be constant over every
    vertex of each suborbit, not just a representative.
    """
    if not verify_invariance(decomp.action, graph):
        raise ValueError("edge set is not invariant under the action")
    n = graph.n
    sub = decomp.suborbit_of_vertex
    rank = decomp.rank
    rows: list[tuple[int, ...] | None] = [None] * rank
    for v in range(n):
        counts = [0] * rank
        for w in graph.neighbors(v):
            counts[sub[w]] += 1
        counts = tuple(counts)
        i = sub[v]
        if rows[i] is None:
            rows[i] = counts
        elif rows[i] != counts:
            witness = decomp.suborbit_members(i)[0]
            raise ValueError(
                f"counts differ within suborbit {i}: vertices {witness} and {v}"
            )
    return tuple(rows)  # type: ignore[arg-type]


def _orbital_collapsed_rows(decomp: OrbitalDecomposition) -> list[list[list[int]]]:
    """B_k[i][j] for every orbital k, from one representative per suborbit.

    Constancy over each suborbit is guaranteed by invariance of orbitals, so
    representatives suffice here (the public collapsed_matrix re-verifies).
    """
    n = decomp.action.degree
    ids = decomp.pair_ids
    sub = decomp.suborbit_of_vertex
    rank = decomp.rank
    reps: list[int | None] = [None] * rank
    for v in range(n):
        if reps[sub[v]] is None:
            reps[sub[v]] = v
    b = [[[0] * rank for _ in range(rank)] for _ in range(rank)]
    for i, v in enumerate(reps):
        row = v * n
        for w in range(n):
            b[ids[row + w]][i][sub[w]] += 1
    return b


def _quotient_intersection_array(
    b_union: Sequence[Sequence[int]], diagonal: int
) -> IntersectionArray | None | str:
    """DRG test on the suborbit quotient.

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


@dataclass(frozen=True)
class ScanResult:
    orbital_ids: frozenset[int]
    suborbit_sizes: tuple[int, ...]
    array: IntersectionArray


def scan_orbital_unions(decomp: OrbitalDecomposition) -> list[ScanResult]:
    """Every transpose-closed union of nontrivial orbitals that is a
    connected distance-regular graph, with its intersection array.

    Unions are enumerated in ascending-mask order over the transpose-pair
    units, so the output order is deterministic.
    """
    if decomp.rank > MAX_SCAN_RANK:
        raise GraphStructureError(
            f"rank {decomp.rank} exceeds the scan bound {MAX_SCAN_RANK}"
        )
    units = []
    seen: set[int] = set()
    for k in decomp.nontrivial_ids():
        if k in seen:
            continue
        unit = frozenset({k, decomp.pairing[k]})
        seen |= unit
        units.append(unit)
    b_orbit = _orbital_collapsed_rows(decomp)
    rank = decomp.rank
    results = []
    for mask in range(1, 2 ** len(units)):
        chosen: frozenset[int] = frozenset()
        for i, unit in enumerate(units):
            if mask >> i & 1:
                chosen |= unit
        b_union = [
            [sum(b_orbit[k][i][j] for k in chosen) for j in range(rank)]
            for i in range(rank)
        ]
        arr = _quotient_intersection_array(b_union, decomp.diagonal_id)
        if isinstance(arr, IntersectionArray):
            results.append(
                ScanResult(
                    orbital_ids=chosen,
                    suborbit_sizes=tuple(
                        sorted(decomp.suborbit_sizes[k] for k in chosen)
                    ),
                    array=arr,
                )
            )
    return results
