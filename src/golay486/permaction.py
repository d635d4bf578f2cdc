"""Permutations and transitive group actions.

Permutations are image tuples on 0..n-1 (1-based only in the external
cycle notation).  The module covers cycle-notation parsing (bounded by
MAX_DEGREE), orbits, exact group order, the orbital (pair-orbit)
decomposition of a transitive action, collapsed adjacency matrices, and
the scan that finds every union of orbitals forming a distance-regular
graph.

Cycle notation is read in one array pass over the code points of the
text, every generator of a file at once, in memory linear in the text's
length (_parse_bodies): the characters are classed, the token grammar is
one transition test over the tokens, repeated points are counted with
np.bincount, and the images are written by rolling each cycle's points.

Group order and orbitals both read one stabilizer chain per action, built
on first use by incremental deterministic Schreier-Sims and kept as
GroupAction.chain or, when it is refused, as its ChainBudgetError, so
that it is built once either way (see StabilizerChain for why it is
certified with no separate verification pass, and why sifting the
Schreier generators in blocks of rows builds the same chain as sifting
them one at a time).  Each level keeps one table, the inverses of its
transversal elements in orbit order, and writes every Schreier generator
from it.  The chain stops with ChainBudgetError before its arrays would
pass MAX_CHAIN_BYTES, or once it has sifted more than MAX_SIFTED_ROWS
rows.  orbitals() reads the suborbits and the whole pair table off the
chain, whose base starts at point 0.  The pair table is one read-only
n x n intc array; the orbital-union graphs, the collapsed matrices and
the scan index it directly, and row 0 labels every vertex by its
suborbit.

Orbits are labelled by their least point in array passes (orbit_labels), and
the scan tests the suborbit quotients of a block of unions at once, by one
layered breadth-first search over the block.  Both read one table of
per-orbital quotients, and a collapsed matrix is the sum of the rows of
the orbitals its (invariant) graph is made of.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from collections.abc import Iterable, Sequence

import numpy as np

from .graph import Graph, GraphStructureError, IntersectionArray, verify_bijection

Permutation = tuple[int, ...]

# Largest rank the orbital-union scan takes.  The nontrivial orbitals of a
# rank-r action form at most r - 1 transpose-closed units, so at most 2^15
# unions are tested.
MAX_SCAN_RANK = 16

# Bytes of the suborbit quotients (rank x rank int64 each) of one block of
# unions, tested together: 1618 unions at rank 9, the whole bundled scan.
_SCAN_BLOCK_BYTES = 1 << 20

# Largest degree a generator file may have.  At this degree the two
# degree^2 tables behind an orbital decomposition are the int32 pair_ids
# array, 64 MiB, and level 0 of the stabilizer chain, 32 MiB (its inverse
# table, degree rows of degree uint16 points).  Each deeper level adds
# |orbit| such rows, 2 * degree * |orbit| bytes.
MAX_DEGREE = 4096

# Bytes a stabilizer chain may hold: the arrays of its levels (inverse
# tables, strong generators, point index, done marks) and one sift block.
# The bundled rank-9 action peaks at 1.15 MiB (tracemalloc) while it is
# built; a transitive action of degree MAX_DEGREE needs 32 MiB for level 0
# alone.
MAX_CHAIN_BYTES = 128 << 20

# Rows (Schreier generators and input generators) a stabilizer chain may
# sift, which bounds its time.  The bundled action sifts 1164 and S_60 at
# degree 486 (a 60-cycle and a transposition) 58982.
MAX_SIFTED_ROWS = 1 << 17

# Bytes of one block of Schreier generators, sifted together: 67 rows at
# degree 486.
_SIFT_BLOCK_BYTES = 1 << 16


class CycleParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message, self.position = message, position


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


_POINT = re.compile(r"[0-9]+")
_ASSIGNMENT = re.compile(r"^\s*\w+\s*:=", re.MULTILINE)

# The classes of the characters of cycle notation.  A point is a run of
# ASCII digits; whitespace is what re's \s matches (str.isspace); _END
# stands for the start and the end of a body of cycles.  _SPACE is 0, the
# class of every byte of a fresh bytearray.
_SPACE, _DIGIT, _OPEN, _CLOSE, _COMMA, _STOP, _OTHER, _END = range(8)
_PUNCTUATION = {"(": _OPEN, ")": _CLOSE, ",": _COMMA, ";": _STOP, ".": _STOP}
# bytes.translate tables over the text encoded one byte per character, as
# ASCII with "?" for every character beyond it: the class of each byte,
# and the value of each digit (0 for any other byte).
_CLASSES = bytes(
    _SPACE if ch.isspace() else _DIGIT if "0" <= ch <= "9" else _PUNCTUATION.get(ch, _OTHER)
    for ch in map(chr, range(128))
).ljust(256, bytes([_OTHER]))
_DIGIT_VALUES = bytes(int(ch) if "0" <= ch <= "9" else 0 for ch in map(chr, range(256)))
# Whitespace beyond ASCII: the one class that "?" does not stand for.
_WIDE_SPACE = re.compile(r"[^\S\x00-\x7f]")
# The classes of token that may come next after each class of token.
# Between cycles (after the start of a body, read as _END, or after ")")
# come "(", a ";" or "." terminator, or the end; inside a cycle, a point
# or ")" after "(", "," or ")" after a point, and a point after ",";
# after a terminator, only the end.
_NEXT = {
    _END: (_OPEN, _STOP, _END),
    _CLOSE: (_OPEN, _STOP, _END),
    _OPEN: (_DIGIT, _CLOSE),
    _DIGIT: (_COMMA, _CLOSE),
    _COMMA: (_DIGIT,),
    _STOP: (_END,),
}
# _FOLLOWS[8 * a + b]: a token of class b may follow one of class a.
_FOLLOWS = np.array([b in _NEXT.get(a, ()) for a in range(8) for b in range(8)])
# Places of a point's digits, right to left, up to len(str(MAX_DEGREE)).
_PLACES = np.arange(len(str(MAX_DEGREE)) + 1)
_TENS = 10 ** _PLACES[:-1]


def _point(token: str, bound: int) -> int:
    """The value of a digit token, or bound + 1 for any value above bound;
    a token too long to be in range is never converted."""
    if len(token.lstrip("0")) > len(str(bound)):
        return bound + 1
    return int(token)


def _parse_bodies(text: str, bodies: list[tuple[int, int]], degree: int) -> list[Permutation]:
    """The permutation written in each body text[start:end] of bodies, a
    product of disjoint cycles of 1-based points in 1..degree.

    Whitespace and newlines may appear anywhere between tokens; points not
    mentioned are fixed; optional trailing punctuation (';' or '.') is
    allowed.  Repeated points, out-of-range points and malformed text
    raise CycleParseError with the offending position in the whole text,
    and so does a degree above MAX_DEGREE, at 0, before anything is
    allocated.  The error raised is the first in text order: the one a
    walk through the cycles, one at a time, meets first.

    Every body is read in one array pass over the text, encoded one byte per
    character (ASCII, and "?" for every other character), in memory linear
    in its length, apart from degree + 1 counts and degree images per body.
    Bodies are in text order, and each after the first begins at least two
    characters after the one before it ends: an _END stands at the end of
    the one and another at the start of the next, and the rest of the text
    between bodies reads as whitespace.  Every character is classed, and
    each run of digits is one token.  A body is well formed exactly when
    each token may follow the one before it (_FOLLOWS).  A point is read off
    its run's last len(str(degree)) digits; a nonzero digit before them puts
    it out of range, as _point does, and the run is never converted.
    """
    if degree > MAX_DEGREE:
        raise CycleParseError(f"degree above MAX_DEGREE={MAX_DEGREE}", 0)
    data = text.encode("ascii", "replace")
    classes = bytearray(data.translate(_CLASSES))
    if not text.isascii():
        for space in _WIDE_SPACE.finditer(text):
            classes[space.start()] = _SPACE
    # kind[1 + i] is the class of text[i] inside a body; the rest is _SPACE
    # but for an _END just before each body's start and one at its end
    kind = bytearray(len(text) + 2)
    for start, stop in bodies:
        kind[start + 1 : stop + 1] = classes[start:stop]
        kind[start] = kind[stop + 1] = _END
    kind = np.frombuffer(kind, dtype=np.uint8)

    digit = kind == _DIGIT
    first = kind != _SPACE
    first[1:] ^= digit[1:] & digit[:-1]  # a digit after a digit begins no token
    at = first.nonzero()[0]
    token = kind[at]
    at -= 1  # each token's position in the text
    follows = _FOLLOWS[token[:-1] * 8 + token[1:]]
    w = int(follows.argmin()) + 1  # the first token that may not follow the one before it
    broken = not follows[w - 1]
    # the points read before the first misplaced token, each a run of digits
    limit = at[w] if broken else len(text)
    points = (token == _DIGIT).nonzero()[0]
    runs = at[points]
    count = runs.searchsorted(limit)
    points, runs = points[:count], runs[:count]
    ends = np.greater(digit[:-1], digit[1:]).nonzero()[0][:count]

    width = len(str(degree))
    digits = np.frombuffer(data.translate(_DIGIT_VALUES), dtype=np.uint8)
    # the last width characters of each run, right to left, read as 0 before its start
    back = ends[:, None] - _PLACES[1 : width + 1]
    value = (digits.take(back, mode="clip") * (back >= runs[:, None])) @ _TENS[:width]
    long = ends - runs > width
    if long.any():  # out of range unless only zeros precede the last digits
        nonzero = np.append(digits.nonzero()[0], len(text))
        long &= nonzero[np.searchsorted(nonzero, runs)] < ends - width
    point = value - 1
    outside = long | (point.view(np.uint64) >= degree)  # value 0 wraps above degree
    # each point is keyed by its body and value.  An outside point's key can
    # only equal that of an outside point or of a point in a later body, so
    # any repeat it makes lies after the first outside point, an error anyway
    body = np.array([start for start, _ in bodies]).searchsorted(runs, side="right") - 1
    key = body * (max(degree, 0) + 1) + value
    counts = np.bincount(key)
    errors = outside.nonzero()[0][:1]
    if len(counts) and counts.max() > 1:  # a repeat follows its first in the stable order
        shared = (counts[key] > 1).nonzero()[0]
        order = shared[np.argsort(key[shared], kind="stable")]
        errors = np.append(errors, order[1:][key[order[1:]] == key[order[:-1]]])

    if len(errors):
        i = int(errors.min())
        start = int(runs[i])
        if outside[i]:
            raise CycleParseError(f"point {text[start:ends[i]]} outside 1..{degree}", start)
        raise CycleParseError(f"point {value[i]} repeated", start)
    if broken:
        pos = int(limit)
        if token[w - 1] in (_OPEN, _DIGIT, _COMMA):
            found = "the end of the text" if token[w] == _END else repr(text[pos])
            raise CycleParseError(f"malformed cycle: found {found}", pos)
        raise CycleParseError(f"unexpected {text[pos]!r} outside a cycle", pos)

    # each point goes to the next of its cycle, and a cycle's last (the one
    # before a ")") to its first (the one after the last before it)
    last = token[points + 1] == _CLOSE
    successor = np.concatenate((point[1:], point[:1]))
    successor[last] = point[np.concatenate((last[-1:], last[:-1]))]
    identity = np.arange(degree, dtype=np.uint16)  # uint16 holds every point
    images = np.empty((len(bodies), len(identity)), dtype=np.uint16)
    images[:] = identity
    images[body, point] = successor
    return [tuple(row.tolist()) for row in images]


def parse_generator_file(text: str, degree: int | None = None) -> "GroupAction":
    """Parse "name := cycles" assignments (the bundled-asset layout).

    Assignments may span lines; the degree defaults to the largest point
    mentioned.  Text before the first assignment must be blank.  Raises
    CycleParseError on malformed cycle text, at its position in the whole
    file, and at position 0 on a degree (given or inferred) above
    MAX_DEGREE, before any body is parsed.
    """
    heads = list(_ASSIGNMENT.finditer(text))
    if not heads:
        raise CycleParseError("no 'name := cycles' assignment found", 0)
    first = re.match(r"\s*", text).end()
    if first < heads[0].start():
        raise CycleParseError(f"unexpected {text[first]!r} before the first assignment", first)
    bodies = [(h.end(), n.start()) for h, n in zip(heads, heads[1:])]
    bodies.append((heads[-1].end(), len(text)))
    if degree is None:
        points = [_point(t, MAX_DEGREE) for b in bodies for t in _POINT.findall(text, *b)]
        if not points:
            raise CycleParseError("no points in generator file", 0)
        degree = max(points)

    return GroupAction(degree=degree, generators=tuple(_parse_bodies(text, bodies, degree)))


@dataclass(frozen=True)
class GroupAction:
    """A permutation group given by generators of common degree."""

    degree: int
    generators: tuple[Permutation, ...]

    def __post_init__(self):
        points = set(range(self.degree))
        for g in self.generators:
            if len(g) != self.degree:
                raise ValueError("generator degree mismatch")
            if set(g) != points:  # degree images that are all the points
                raise ValueError("generator is not a permutation")

    @property
    def chain(self) -> "StabilizerChain":
        """The stabilizer chain of the generated group, built once.  A chain
        refused with ChainBudgetError is not built again: every later read
        raises the same error."""
        if isinstance(self._chain, ChainBudgetError):
            raise self._chain
        return self._chain

    @cached_property
    def _chain(self) -> "StabilizerChain | ChainBudgetError":
        try:
            return StabilizerChain(self)
        except ChainBudgetError as exc:
            # kept without its traceback, whose frames hold the refused arrays
            return exc.with_traceback(None)


def orbit_labels(generators: Sequence[Permutation] | np.ndarray, degree: int) -> np.ndarray:
    """label[x] = the least point of the orbit of x under the generators.

    Min-label propagation with pointer jumping.  Each round hooks the label
    at either end of every edge (x, g[x]) onto the other end's label, if
    that is less, then jumps each label to its root (label[r] = r).  A label
    never rises and never leaves its point's orbit.  While an edge joins two
    labels, the larger is a root and falls, so the rounds end; then both
    ends of every edge agree, and each orbit carries its least point.
    Hooking both ways keeps the rounds few: one way, a 486-cycle takes 485
    rounds, against 1.
    """
    gens = np.asarray(generators, dtype=np.intp).reshape(len(generators), degree)
    label = np.arange(degree)
    heads, tails = np.tile(label, len(gens)), gens.ravel()
    while True:
        lx, ly = label[heads], label[tails]
        if np.array_equal(lx, ly):
            return label
        np.minimum.at(label, lx, ly)
        np.minimum.at(label, ly, lx)
        up = label[label]
        while not np.array_equal(up, label):
            label, up = up, up[up]


# ---------------------------------------------------------------------------
# Incremental deterministic Schreier-Sims
# ---------------------------------------------------------------------------


class ChainBudgetError(ValueError):
    """The stabilizer chain would hold more than MAX_CHAIN_BYTES, or has
    sifted more than MAX_SIFTED_ROWS rows."""


def _gather(table: np.ndarray, rows: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """out[i] = table[rows[i]][perms[i]], that is perms[i] then table row
    rows[i], as one flat gather over the block."""
    return table.ravel().take(rows[:, None] * table.shape[1] + perms)


def _scatter(table: np.ndarray, rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """out[i][table[rows[i]]] = values[i], as one flat scatter over the
    block."""
    # the index before the output, so the block never holds more than
    # _block_bytes reserves: values, out and one intp index
    at = np.arange(len(rows))[:, None] * table.shape[1] + table[rows]
    out = np.empty_like(values)
    out.ravel()[at] = values
    return out


class _ChainLevel:
    """One level of a stabilizer chain: strong generators gens (one row
    each), the orbit of base under them in discovery order, index[x] (the
    position of x in the orbit, -1 off it), and row i of inverse, the
    inverse of the transversal element t_x that maps base to x = orbit[i],
    so row 0 is the identity.  done[c, i] marks the Schreier generator of
    (orbit[i], gens[c]) as known to sift to the identity.
    """

    __slots__ = ("base", "gens", "orbit", "index", "inverse", "done")

    def __init__(self, base: int, ident: np.ndarray):
        n = len(ident)
        self.base = base
        self.gens = np.empty((0, n), dtype=ident.dtype)
        self.orbit = np.array([base], dtype=np.intp)
        self.index = np.full(n, -1, dtype=np.intp)
        self.index[base] = 0
        self.inverse = ident[None, :].copy()
        self.done = np.empty((0, n), dtype=bool)

    @property
    def nbytes(self) -> int:
        # every slot but base holds an array
        return sum(getattr(self, name).nbytes for name in self.__slots__[1:])


class StabilizerChain:
    """A base and strong generating set, by incremental deterministic
    Schreier-Sims (Seress, *Permutation Group Algorithms*, 2003, ch. 4).

    The input generators are added one at a time, with a membership test
    (Seress 2003, section 4.2).  Each is sifted through the chain that the
    ones before it built.  One that sifts to the identity lies in that group
    already and is skipped, so it never becomes a strong generator.  Any
    other leaves a residue, which fixes b_0..b_{k-1} if it dropped out at
    level k; the residue joins S_0..S_k, and levels k down to 0 are
    completed before the next generator is read.

    The base starts at point 0 (orbitals() reads the suborbits of 0 off
    level 1) and is extended by the least point moved by a residue that
    fixes every base point so far; if every generator fixes 0, level 0 just
    has orbit {0}, a factor of 1 in the order.  Level j holds the strong
    generators S_j fixing b_0..b_{j-1}; H_j = <S_j>.  Levels are completed
    deepest first: for x in the orbit of b_j and s in S_j the Schreier
    generator t_x s t_{x^s}^-1 fixes b_j and is sifted through the deeper
    levels.  A residue other than the identity fixes b_0..b_{k-1} for some
    k > j; it joins S_{j+1}..S_k, whose orbits grow in place (H_0..H_j do
    not change, as the residue lies in H_j), and work resumes at level k.
    When the constructor returns every Schreier generator has sifted to the
    identity, so by Schreier's lemma H_{j+1} is the stabilizer of b_j in
    H_j at every level and order() is exact.

    The Schreier generators of a level are sifted in blocks of rows of a
    matrix, taken in (generator, orbit position) order, each block through
    the deeper levels with one gather per level.  The chain is the one that
    sifting them one at a time, in that order, builds, with the input
    generators taken one at a time as above: the same base, strong
    generators, orbit orders and transversal elements.  Transversal
    elements never change once set and orbits only grow, so a row that sifts
    to the identity does so again later, along the same path; such rows are
    marked done and never sifted again, and so are the Schreier-tree edges (x, s),
    whose Schreier generator is the identity because t_{x^s} was defined as
    t_x s.  The rows ahead of a block's first residue sift to the identity
    and leave the chain as it was, so that residue is the one the
    one-at-a-time sift meets first, against the same chain.  A row that
    drops out of a level (its image of that level's base point is off the
    orbit) is a residue, so the block is cut there.  The residue's row is
    done too: when the level is next completed the levels below are
    complete, so they sift every element of the group they generate, which
    contains it.  Rows after it that were not seen to reach the identity
    are sifted again then; ``sifted`` counts every row sifted, these
    re-sifts and each input generator's own sift included.

    Each level holds only the inverses t_x^-1.  In this module's convention
    the Schreier generator g = t_x s t_{x^s}^-1 is g[t_x^-1[q]] =
    t_{x^s}^-1[s[q]], so a block of them is one gather of inverse rows
    through the strong generators and one scatter to the positions in the
    rows t_x^-1.  Sifting and orbitals() read the same rows.

    The chain is bounded before it allocates.  Before a table grows (the
    old and the new one are both held while it is copied) and before a
    level's pending rows are listed and cut into blocks, the levels' arrays,
    the new ones and one sift block must fit in MAX_CHAIN_BYTES, else
    ChainBudgetError (a ValueError) is raised.  Its time is bounded too:
    each block of Schreier generators is counted in ``sifted`` before it is
    sifted, and a block that takes ``sifted`` past MAX_SIFTED_ROWS raises
    ChainBudgetError.  So S_486 (a 486-cycle and a transposition) is
    refused after about 2^17 rows, long before its levels would fill
    MAX_CHAIN_BYTES.

    Internally permutations are numpy index arrays of the smallest unsigned
    type that holds a point ("p, then q" is q[p]); the public methods take
    and return tuples.
    """

    def __init__(self, action: GroupAction):
        n = self.degree = action.degree
        self.sifted = 0
        self._dtype = np.min_scalar_type(max(n - 1, 0))
        self._ident = np.arange(n, dtype=self._dtype)
        self._block = max(1, _SIFT_BLOCK_BYTES // max(n * self._dtype.itemsize, 1))
        # a block, the block it is gathered into and their intp gather index
        self._block_bytes = self._block * n * (2 * self._dtype.itemsize + 8)
        self.levels: list[_ChainLevel] = []
        if n:
            self.levels.append(_ChainLevel(0, self._ident))
        for g in action.generators:
            residue, j = self._residue(g)
            self.sifted += 1
            if residue is None:
                continue
            self._add_strong(residue, 0, j)
            while j >= 0:
                j = self._complete_level(j)

    def _reserve(self, table_bytes: int):
        """Raise ChainBudgetError unless the arrays the levels hold,
        table_bytes more and one sift block fit in MAX_CHAIN_BYTES."""
        held = sum(level.nbytes for level in self.levels)
        need = held + table_bytes + self._block_bytes
        if need > MAX_CHAIN_BYTES:
            raise ChainBudgetError(
                f"stabilizer chain of degree {self.degree} needs {need} bytes, "
                f"over MAX_CHAIN_BYTES={MAX_CHAIN_BYTES}"
            )

    def _add_strong(self, s: np.ndarray, first: int, last: int):
        """Add s, which fixes the base points before level `last`, to levels
        first..last; last == len(levels) opens a level at its least moved point."""
        if last == len(self.levels):
            moved = int(np.flatnonzero(s != self._ident)[0])
            self.levels.append(_ChainLevel(moved, self._ident))
        for level in self.levels[first : last + 1]:
            self._add_generator(level, s)

    def _add_generator(self, level: _ChainLevel, s: np.ndarray):
        """Append s to level.gens and grow the orbit one breadth-first layer
        at a time, as a queue would: the points already in the orbit take
        only s, each new layer takes every generator, in (point, generator)
        order.  The table is then reallocated once, at its exact size."""
        n = len(s)
        c = len(level.gens)
        level.gens = np.vstack([level.gens, s])
        level.done = np.vstack([level.done, np.zeros((1, n), dtype=bool)])
        old = size = len(level.orbit)
        layers = []
        points, first = level.orbit, c
        while len(points):
            k = len(level.gens) - first
            images = level.gens[first:, points].T.ravel()
            fresh = np.flatnonzero(level.index[images] < 0)
            _, at = np.unique(images[fresh], return_index=True)
            at = fresh[np.sort(at)]
            parents = level.index[points[at // k]]
            via = first + at % k
            level.done[via, parents] = True  # Schreier-tree edges
            points = images[at].astype(np.intp)
            level.index[points] = np.arange(size, size + len(points))
            size += len(points)
            layers.append((points, parents, via))
            first = 0
        if size == old:
            return
        self._reserve(size * n * self._dtype.itemsize)
        inverse = np.empty((size, n), dtype=self._dtype)
        inverse[:old] = level.inverse
        # t_y = t_x s, so t_y^-1 = s^-1 t_x^-1
        gen_inverses = np.empty_like(level.gens)
        np.put_along_axis(gen_inverses, level.gens, self._ident, axis=1)
        row = old
        for _, parents, via in layers:
            for lo in range(0, len(parents), self._block):
                p, v = parents[lo : lo + self._block], via[lo : lo + self._block]
                inverse[row : row + len(p)] = _gather(inverse, p, gen_inverses[v])
                row += len(p)
        level.orbit = np.concatenate([level.orbit] + [p for p, _, _ in layers])
        level.inverse = inverse

    def _complete_level(self, j: int) -> int:
        """Sift the Schreier generators of level j not yet done, one block
        at a time.  Return j - 1 when all reduce to the identity; else add
        the first residue as a strong generator and return the level it
        dropped out at."""
        level = self.levels[j]
        done = level.done[:, : len(level.orbit)]
        # two intp indices per pending row
        self._reserve(16 * (done.size - np.count_nonzero(done)))
        gen_ids, rows = np.nonzero(~done)
        for lo in range(0, len(rows), self._block):
            c, i = gen_ids[lo : lo + self._block], rows[lo : lo + self._block]
            # g = t_x s t_{x^s}^-1 for x = orbit[i] and s = gens[c]:
            # g[t_x^-1[q]] = t_{x^s}^-1[s[q]]
            images = level.gens[c, level.orbit[i]]
            block = _gather(level.inverse, level.index[images], level.gens[c])
            block = _scatter(level.inverse, i, block)
            self.sifted += len(block)
            if self.sifted > MAX_SIFTED_ROWS:
                raise ChainBudgetError(
                    f"stabilizer chain of degree {self.degree} sifted {self.sifted} rows, "
                    f"over MAX_SIFTED_ROWS={MAX_SIFTED_ROWS}"
                )
            block, residue, k = self._sift(block, j + 1)
            moved = (block != self._ident).any(axis=1)
            same = np.flatnonzero(~moved)
            level.done[c[same], i[same]] = True
            if moved.any():
                r = int(np.argmax(moved))
                residue, k = block[r], len(self.levels)
            else:
                r = len(block)  # the row that dropped out, if one did
            if residue is not None:
                level.done[c[r], i[r]] = True
                self._add_strong(residue, j + 1, k)
                return k
        return j - 1

    def _sift(
        self, block: np.ndarray, start: int
    ) -> tuple[np.ndarray, np.ndarray | None, int]:
        """Strip the rows of block through levels start.. until a row drops
        out of one (its image of the base point is off the orbit).  Return
        the rows before the first row that dropped out, stripped through
        every level, and that row's residue and level, or (None,
        len(levels)) if none dropped out."""
        residue, depth = None, len(self.levels)
        for k in range(start, len(self.levels)):
            level = self.levels[k]
            rows = level.index[block[:, level.base]]
            out = np.flatnonzero(rows < 0)
            if len(out):
                residue, depth = block[out[0]], k
                block, rows = block[: out[0]], rows[: out[0]]
            block = _gather(level.inverse, rows, block)
        return block, residue, depth

    def _residue(self, g: Permutation) -> tuple[np.ndarray | None, int]:
        """Sift g through every level.  Return (None, len(levels)) if g is
        in the group; else its residue and the level it dropped out at,
        len(levels) if it passed them all."""
        block, residue, k = self._sift(np.array([g], dtype=self._dtype), 0)
        if residue is None and not np.array_equal(block[0], self._ident):
            residue = block[0]
        return residue, k

    def order(self) -> int:
        n = 1
        for level in self.levels:
            n *= len(level.orbit)
        return n

    def contains(self, g: Permutation) -> bool:
        if len(g) != self.degree:
            raise ValueError(f"degree mismatch: {len(g)} vs {self.degree}")
        return self._residue(g)[0] is None

    def base(self) -> tuple[int, ...]:
        return tuple(level.base for level in self.levels)


def group_order(action: GroupAction) -> int:
    """Exact order of the generated group."""
    return action.chain.order()


# ---------------------------------------------------------------------------
# Orbitals of a transitive action
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class OrbitalDecomposition:
    """Orbit partition of ordered pairs under the diagonal action.

    pair_ids[i, j] is the orbital id of (i, j), in a read-only (n, n) intc
    array.  The orbitals of a transitive action match the suborbits (the
    orbits of the stabilizer of point 0, where the chain's base begins)
    through the pairs (0, y), so pair_ids[0] is the suborbit of every
    vertex.  Ids number the suborbits by their least point, so the
    labelling is deterministic and the diagonal, the suborbit {0}, is id 0:
    the nontrivial orbitals are ids 1 to rank - 1.  Decompositions compare
    by identity (== on an array field has no single truth value).
    """

    action: GroupAction
    pair_ids: np.ndarray
    rank: int
    suborbit_sizes: tuple[int, ...]
    pairing: tuple[int, ...]

    def id_by_suborbit_size(self) -> dict[int, int]:
        """size -> orbital id; raises if any two suborbits share a size."""
        sizes = self.suborbit_sizes
        if len(set(sizes)) != len(sizes):
            raise GraphStructureError("suborbit sizes are not distinct")
        return {size: k for k, size in enumerate(sizes)}


def orbitals(action: GroupAction) -> OrbitalDecomposition:
    """Pair-orbit decomposition of a transitive action, read off the
    stabilizer chain, whose base starts at 0: the orbits of the level-1 strong
    generators, which generate the stabilizer of 0, are the suborbits,
    labelled in one orbit_labels pass and numbered by their least points,
    so the suborbit {0} is id 0.
    As the level-0 transversal element t_x, which maps 0 to x, maps (0, z)
    to (x, t_x[z]), row x is pair_ids[x, t_x[z]] = suborbit of z, that is
    pair_ids[x] = suborbit of t_x^-1, the level's row for x.  The rows are
    gathered from the level-0 inverse table one sift block of rows at a time
    into one (n, n) array, which is then made read-only.  Each block is
    one labels.take of its uint16 inverse rows, about twice as fast at
    n = 486 as indexing labels with them.
    """
    chain = action.chain
    top = chain.levels[0]
    n = action.degree
    if len(top.orbit) != n:
        raise GraphStructureError("action is not transitive")
    stabilizer = chain.levels[1].gens if len(chain.levels) > 1 else ()
    firsts, labels = np.unique(orbit_labels(stabilizer, n), return_inverse=True)
    labels = labels.astype(np.intc)
    rows = np.empty((n, n), dtype=np.intc)
    step = chain._block
    for lo in range(0, n, step):
        rows[top.orbit[lo : lo + step]] = labels.take(top.inverse[lo : lo + step])
    rows.flags.writeable = False
    return OrbitalDecomposition(
        action=action,
        pair_ids=rows,
        rank=len(firsts),
        suborbit_sizes=tuple(np.bincount(labels).tolist()),
        pairing=tuple(rows[firsts, 0].tolist()),
    )


def orbital_union_graph(
    decomp: OrbitalDecomposition, orbital_ids: Iterable[int]
) -> Graph:
    """Graph whose edges are exactly the chosen orbital classes.

    The ids must be in range, off the diagonal and closed under pairing.
    The adjacency is the union of pair_ids == k over the chosen ids, one
    comparison of the intc table per id; a gather through a per-id mask
    would first cast the whole table to intp and runs several times
    slower at n = 486.
    """
    chosen = set(orbital_ids)
    if not chosen:
        raise ValueError("no orbitals chosen")
    if 0 in chosen:
        raise ValueError("the diagonal orbital is not an edge set")
    for k in chosen:
        if not 0 <= k < decomp.rank:
            raise ValueError(f"orbital id {k} out of range")
        if decomp.pairing[k] not in chosen:
            raise ValueError(
                f"selection is not symmetric: orbital {k} lacks its transpose "
                f"{decomp.pairing[k]}"
            )
    adjacency = np.zeros(decomp.pair_ids.shape, dtype=bool)
    for k in chosen:
        adjacency |= decomp.pair_ids == k
    return Graph.from_adjacency(adjacency)


def verify_invariance(action: GroupAction, graph: Graph) -> bool:
    """True iff every generator maps every edge to an edge: each generator,
    read as a vertex map of the graph onto itself, passes verify_bijection."""
    if action.degree != graph.n:
        raise ValueError("degree and vertex count differ")
    return all(verify_bijection(graph, graph, g) for g in action.generators)


def collapsed_matrix(
    graph: Graph, decomp: OrbitalDecomposition
) -> tuple[tuple[int, ...], ...]:
    """B[i][j] = neighbors in suborbit j of any vertex in suborbit i.

    The edge set must be invariant under the action.  An invariant edge set
    is a union of orbitals, so the orbitals that join vertex 0 to its
    neighbours are all of it, and B is the sum of their rows of
    _orbital_collapsed_rows, the table the scan reads.  The counts of a
    union of orbitals are constant on each suborbit, so one representative
    per suborbit gives them.
    """
    if not verify_invariance(decomp.action, graph):
        raise ValueError("edge set is not invariant under the action")
    chosen = np.zeros(decomp.rank, dtype=bool)
    chosen[decomp.pair_ids[0, graph.adjacency_matrix[0]]] = True
    counts = _orbital_collapsed_rows(decomp)[chosen].sum(axis=0)
    return tuple(map(tuple, counts.tolist()))


def _orbital_collapsed_rows(decomp: OrbitalDecomposition) -> np.ndarray:
    """B_k[i][j] for every orbital k, as one rank x rank x rank array, from
    one representative per suborbit.

    Each orbital is invariant, so its counts are constant on each suborbit
    and representatives suffice; collapsed_matrix sums these rows for an
    invariant graph.
    """
    rank = decomp.rank
    sub = decomp.pair_ids[0]
    # the least vertex of each suborbit is its representative
    reps = np.unique(sub, return_index=True)[1]
    cells = (decomp.pair_ids[reps] * rank + np.arange(rank)[:, None]) * rank + sub
    return np.bincount(cells.ravel(), minlength=rank**3).reshape(rank, rank, rank)


def _distance_partitions(quotients: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distance-partition test for distance-regularity (Brouwer, Cohen
    and Neumaier 1989, section 4.1) on a block of suborbit quotients, where
    quotients[u, s, t] counts the neighbours in suborbit t of a vertex in
    suborbit s, in the graph of union u, and suborbit 0 is {0}.

    In a vertex-transitive graph whose edges are a union of orbitals, the
    distance classes around vertex 0 are unions of suborbits and
    the neighbour counts are constant on each suborbit.  So one breadth-first
    search on the quotient, by layered boolean products as in graph._layers,
    gives every suborbit's distance, and the graph is distance-regular iff
    it is connected, no neighbour skips a distance layer, and every
    suborbit's c/a/b counts equal those of the least suborbit at the same
    distance.  Returns dist[u, s] (-1 if unreached), counts[u, s] = (c, a,
    b) and the verdict regular[u].
    """
    m, rank, _ = quotients.shape
    adjacent = quotients > 0
    dist = np.full((m, rank), -1)
    dist[:, 0] = 0
    layer = dist == 0
    for j in range(1, rank):
        layer = np.matmul(layer[:, None, :], adjacent)[:, 0] & (dist < 0)
        dist[layer] = j
    gap = dist[:, None, :] - dist[:, :, None]  # dist of t less dist of s
    counts = np.stack([(quotients * (gap == g)).sum(2) for g in (-1, 0, 1)], axis=2)
    least = np.argmax(dist[:, None, :] == dist[:, :, None], axis=2)
    regular = (
        (dist >= 0).all(1)
        & ~(adjacent & (np.abs(gap) > 1)).any((1, 2))
        & (counts == np.take_along_axis(counts, least[:, :, None], axis=1)).all((1, 2))
    )
    return dist, counts, regular


def _intersection_array(dist: np.ndarray, counts: np.ndarray) -> IntersectionArray:
    """The array of one union that passed _distance_partitions, read off
    the least suborbit at each distance."""
    d = int(dist.max())
    c, _, b = counts[np.argmax(dist == np.arange(d + 1)[:, None], axis=1)].T.tolist()
    return IntersectionArray(b=tuple(b[:d]), c=tuple(c[1:]))


@dataclass(frozen=True)
class ScanResult:
    orbital_ids: frozenset[int]
    suborbit_sizes: tuple[int, ...]
    array: IntersectionArray


def scan_orbital_unions(decomp: OrbitalDecomposition) -> list[ScanResult]:
    """Every transpose-closed union of nontrivial orbitals that is a
    connected distance-regular graph, with its intersection array.

    The nontrivial orbitals form transpose-closed units, led by their least
    orbital; bit i of a mask selects unit i.  The masks are taken in
    ascending order, so the output order is deterministic, in blocks whose
    quotients fill _SCAN_BLOCK_BYTES: one tensor product gives a block's
    suborbit quotients and _distance_partitions tests them all at once.  A
    rank over MAX_SCAN_RANK is refused before anything is built.
    """
    rank = decomp.rank
    if rank > MAX_SCAN_RANK:
        raise GraphStructureError(f"rank {rank} exceeds the scan bound {MAX_SCAN_RANK}")
    leaders = [k for k in range(1, rank) if decomp.pairing[k] >= k]
    members = np.zeros((len(leaders), rank), dtype=np.int64)
    members[np.arange(len(leaders)), leaders] = 1
    members[np.arange(len(leaders)), [decomp.pairing[k] for k in leaders]] = 1
    collapsed = _orbital_collapsed_rows(decomp)
    step = max(1, _SCAN_BLOCK_BYTES // (8 * rank * rank))
    end = 2 ** len(leaders)
    results = []
    for lo in range(1, end, step):
        masks = np.arange(lo, min(lo + step, end))
        # chosen[u, k]: orbital k is in the union of masks[u]
        chosen = ((masks[:, None] >> np.arange(len(leaders))) & 1) @ members
        dist, counts, regular = _distance_partitions(np.tensordot(chosen, collapsed, axes=1))
        for u in np.flatnonzero(regular):
            ids = np.flatnonzero(chosen[u]).tolist()
            results.append(
                ScanResult(
                    orbital_ids=frozenset(ids),
                    suborbit_sizes=tuple(sorted(decomp.suborbit_sizes[k] for k in ids)),
                    array=_intersection_array(dist[u], counts[u]),
                )
            )
    return results
