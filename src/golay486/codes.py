"""Ternary linear codes: the Golay code, weight tallies, derived codes,
the table of coset leaders, and coset graphs.

A code is stored by its canonical (RREF) generator matrix, so structurally
equal codes compare equal, and its dimension is that matrix's row count.
Two facts are derived from that generator once per code object: its
reduced parity check, `LinearCode.check`, against which every syndrome and
functional is taken, and `LinearCode.lifts`, the one table of coset words,
which every builder on the coset side reads.  Cosets are numbered by
syndrome (`syndrome_index`), which pins the row order of `lifts`, of the
leader table and the vertex order of every coset graph across runs.  The
minimum-weight leaders (`syndrome_table`) serve only the coset shape
count, whose definition needs them.  The leader table, its weight shells
and a coset graph's arrays are each checked against MAX_ARRAY_BYTES before
they are allocated.  Nothing else is kept between calls:
`golay486.cli.Run` builds the Golay code once per run and passes it on.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from collections.abc import Iterable, Sequence

import numpy as np

from . import gf3
from .gf3 import Matrix, Vector
from .graph import Graph

# The sign string whose 11 cyclic shifts generate the ternary Golay code;
# '-' is the field element 2 (= -1 mod 3).
GOLAY_SIGNS = "-+-+++---+-"

# An array of more bytes than this is refused before it is allocated.  The
# largest one the program asks for here is the 729 x 729 adjacency of the
# extended Golay code's coset graph (0.5 MB), and its largest graph of all,
# AG(6,3) on 1458 vertices, has a 2.1 MB adjacency.  Coset graphs on 3^7
# vertices (4.8 MB) pass, on 3^8 (43 MB) do not.
MAX_ARRAY_BYTES = 1 << 24


class ResourceLimitError(ValueError):
    """An enumeration would exceed the configured size bound."""


def _check_bytes(what: str, nbytes: int) -> None:
    if nbytes > MAX_ARRAY_BYTES:
        raise ResourceLimitError(
            f"{what} would take {nbytes} bytes, over the bound of {MAX_ARRAY_BYTES}"
        )


@dataclass(frozen=True)
class LinearCode:
    """A subspace of GF(3)^n given by a reduced (RREF) generator matrix."""

    length: int
    generator: Matrix

    def __post_init__(self):
        if any(len(row) != self.length for row in self.generator):
            raise ValueError("generator rows must have the code length")

    @property
    def dimension(self) -> int:
        return len(self.generator)

    @cached_property
    def check(self) -> Matrix:
        """The reduced (RREF) basis of the dual code, the parity check H.

        It is derived once per object and is not a field, so equality and
        hashing still read the generator alone.
        """
        return gf3.null_space(self.generator, width=self.length)

    @cached_property
    def lifts(self) -> np.ndarray:
        """One word of each coset, one read-only uint8 row each, row i in
        coset i (its syndrome_index).

        A word that is zero off the pivot columns of `check`, which is
        reduced, has its pivot entries as its syndrome, so the span of those
        unit vectors meets every coset once; a row's pivot is its first
        nonzero entry, a 1.  _span lists the coefficients in lex order, so
        row i's pivot entries are the base-3 digits of i.  Like `check`, it
        is derived once per object and is not a field.
        """
        units = tuple(gf3.unit_vector(self.length, row.index(1)) for row in self.check)
        words = gf3._span(units, length=self.length)
        words.flags.writeable = False
        return words


def linear_code(rows: Iterable[Iterable[int]], length: int | None = None) -> LinearCode:
    """Build a code from spanning rows (reduced; dependent rows dropped)."""
    m = gf3.matrix(rows)
    if not m:
        if length is None:
            raise ValueError("length required for a zero code")
        return LinearCode(length=length, generator=())
    return LinearCode(length=len(m[0]), generator=gf3.row_space_basis(m))


def golay_code() -> LinearCode:
    """The [11,6,5] ternary Golay code, spanned by the 11 cyclic shifts of
    the sign pattern -+-+++---+- (with '-' mapped to 2)."""
    row = golay_sign_row()
    shifts = [row[i:] + row[:i] for i in range(11)]
    code = linear_code(shifts)
    if code.dimension != 6:
        raise ValueError(f"Golay shifts span dimension {code.dimension}, not 6")
    return code


def golay_sign_row() -> Vector:
    return tuple(1 if ch == "+" else 2 for ch in GOLAY_SIGNS)


def syndrome_index(code: LinearCode, words) -> np.ndarray:
    """The coset number of each word in `words`, a word being a row along
    the last axis.

    It is the base-3 number whose digits are the word's syndrome against
    code.check, the first parity-check row most significant.  This is the
    one encoding of cosets: the rows of code.lifts and of the leader table,
    and the coset graph's vertices, are in its order.
    """
    check = np.array(code.check, dtype=np.int64).reshape(-1, code.length)
    places = 3 ** np.arange(len(check) - 1, -1, -1)
    return (np.asarray(words, dtype=np.int64) @ check.T) % 3 @ places


def weight_distribution(code: LinearCode) -> tuple[int, ...]:
    """counts[w] = number of codewords of Hamming weight w, for w = 0..n."""
    return gf3.subspace_weight_counts(code.generator, length=code.length)


def _krawtchouk(n: int, i: int, x: int) -> int:
    """Ternary Krawtchouk polynomial K_i(x) for length n."""
    return sum(
        (-1) ** j * 2 ** (i - j) * math.comb(x, j) * math.comb(n - x, i - j)
        for j in range(i + 1)
    )


def macwilliams_transform(dual_counts: Sequence[int]) -> tuple[int, ...]:
    """Weight tally of a ternary code from the weight tally of its dual.

    A_i = (1/|dual|) sum_w B_w K_i(w) (MacWilliams-Sloane 1977, ch. 5),
    with dual_counts[w] = B_w for w = 0..n.  A tally that no code's dual
    has can give a non-integral A_i, which raises ValueError.
    """
    n = len(dual_counts) - 1
    size = sum(dual_counts)
    sums = [
        sum(b * _krawtchouk(n, i, w) for w, b in enumerate(dual_counts) if b)
        for i in range(n + 1)
    ]
    if any(total % size for total in sums):
        raise ValueError(f"{tuple(dual_counts)} is not the tally of a dual code")
    return tuple(total // size for total in sums)


def minimum_distance(code: LinearCode) -> int:
    """Smallest nonzero codeword weight (= minimum distance, by linearity)."""
    if code.dimension == 0:
        raise ValueError("minimum distance of the zero code is undefined")
    wd = weight_distribution(code)
    return next(w for w in range(1, code.length + 1) if wd[w])


def sphere_size(length: int, radius: int) -> int:
    """Words within Hamming distance `radius` of a word: sum_{i<=e} C(n,i) 2^i."""
    return sum(math.comb(length, i) * 2**i for i in range(radius + 1))


def is_perfect(code: LinearCode, radius: int) -> bool:
    """Sphere-packing equality: the sphere size equals 3^(n-k)."""
    return sphere_size(code.length, radius) == 3 ** (code.length - code.dimension)


def shorten(code: LinearCode, position: int) -> LinearCode:
    """Keep codewords that are zero at `position`, then delete that coordinate.

    With `position` moved to the front, the reduced generator has at most
    one row that is nonzero there, the first pivot's; the other rows span
    the kept codewords.
    """
    n = code.length
    if not 0 <= position < n:
        raise IndexError(f"position {position} out of range for length {n}")
    reduced, _, _ = gf3.rref(
        [r[position : position + 1] + r[:position] + r[position + 1 :] for r in code.generator]
    )
    return linear_code([r[1:] for r in reduced if not r[0]], length=n - 1)


def shortening_map(code: LinearCode, shortened: LinearCode, position: int) -> np.ndarray:
    """The coset-graph isomorphism that shortening gives, with no search.

    Entry j is the coset of `code` (its syndrome_index) that holds x with a
    0 inserted at `position`, for x a word of coset j of C' = `shortened`,
    which must be shorten(code, position); the caller builds C' once and
    hands it to coset_graph too.  (0 | x) lies in `code` exactly when x
    lies in C', by the definition of shortening, so the map is well defined
    and one-to-one, and it sends the coset of a e_i to that of a e_i', i'
    being i's coordinate in `code`.  So it maps coset_graph(C') onto
    coset_graph(code, positions) with `position` left out of positions,
    once both have as many cosets (for the Golay code at position 0, 243:
    build_lambda_coordinate's graph).  x is row j of C'.lifts, the words
    coset_graph shifts, so no leader table is built.
    """
    return syndrome_index(code, np.insert(shortened.lifts, position, 0, axis=1))


def truncate(code: LinearCode, position: int) -> LinearCode:
    """Delete the coordinate from every codeword (puncturing)."""
    n = code.length
    if not 0 <= position < n:
        raise IndexError(f"position {position} out of range for length {n}")
    punctured = [r[:position] + r[position + 1 :] for r in code.generator]
    return linear_code(punctured, length=n - 1)


def syndrome_table(code: LinearCode) -> np.ndarray:
    """The coset leaders, one uint8 row per coset, in syndrome_index order.

    Row i is the minimum-weight word of coset i, lexicographically first
    among those.  Words are scanned one weight shell at a time, so for a
    perfect code of minimum distance 2e+1 the scan stops after shell e.
    The table and its fill mask, 3^(n-k) (n + 1) bytes, and the shell of
    weight w, C(n, w) 2^w words whose int64 syndrome pass takes 8 n bytes
    each, are each bounded by MAX_ARRAY_BYTES before they are built
    (ResourceLimitError).
    """
    n, k = code.length, code.dimension
    _check_bytes(f"the leaders of 3^{n - k} cosets", 3 ** (n - k) * (n + 1))
    table = np.zeros((3 ** (n - k), n), dtype=np.uint8)
    filled = np.zeros(len(table), dtype=bool)
    for w in range(n + 1):
        _check_bytes(f"the weight-{w} shell", math.comb(n, w) * 2**w * n * 8)
        # every weight-w word: each support with each pattern of nonzero values
        supports = np.array(list(itertools.combinations(range(n), w)), dtype=np.intp)
        values = np.array(list(itertools.product((1, 2), repeat=w)), dtype=np.uint8)
        shell = np.zeros((len(supports) * len(values), n), dtype=np.uint8)
        rows = np.arange(len(shell))[:, None]
        shell[rows, np.repeat(supports, len(values), axis=0)] = np.tile(
            values, (len(supports), 1)
        )
        shell = shell[np.lexsort(shell.T[::-1])]
        index, first = np.unique(syndrome_index(code, shell), return_index=True)
        new = ~filled[index]
        table[index[new]] = shell[first[new]]
        filled[index[new]] = True
        if filled.all():
            break
    return table


_COSET_SHAPES = ("0", "+-e0", "+-ei", "+-e0+-ei", "+-ei+-ej")


def classify_cosets(leaders: np.ndarray) -> dict[str, int]:
    """Count the coset leaders (a syndrome_table) of each of five shapes.

    For the Golay code the counts come out as 1, 2, 20, 40, 180 for 0,
    +-e0, +-ei (i!=0), +-e0+-ei and +-ei+-ej (0<i<j) respectively.  A
    leader of weight over 2 has no shape and raises ValueError.
    """
    weights = np.count_nonzero(leaders, axis=1)
    if weights.max() > 2:
        raise ValueError(f"a leader of weight {weights.max()} has no shape")
    # weight 1 or 2 splits by whether coordinate 0 is in the support
    shapes = 2 * weights - (leaders[:, 0] != 0)
    return dict(zip(_COSET_SHAPES, np.bincount(shapes, minlength=5).tolist()))


def coset_graph(code: LinearCode, positions: Iterable[int] | None = None) -> Graph:
    """Graph on the cosets, adjacent when representatives differ in one place.

    Vertex i is the coset of syndrome_index i, so vertex i has the base-3
    digits of i as its syndrome.  Adjacency is translation-invariant: cosets
    of u and v are adjacent iff u-v's coset contains a weight-1 vector.  So
    row i of code.lifts, a word of coset i, is shifted by each weight-1
    vector, and syndrome_index names the far end of every edge.  `positions`
    restricts those vectors to the given coordinates (default: all of them).
    The dense adjacency and the int64 words are bounded by MAX_ARRAY_BYTES
    before either is allocated.
    """
    n, k = code.length, code.dimension
    width = n - k
    positions = tuple(range(n) if positions is None else positions)
    _check_bytes(f"the adjacency of 3^{width} cosets", 9**width)
    shifts = 2 * len(positions)
    _check_bytes(f"the {shifts} shifts of 3^{width} words", shifts * 3**width * n * 8)
    units = [gf3.unit_vector(n, i, a) for i in positions for a in (1, 2)]
    # shaped (shifts, 1, n), so that an empty `positions` still broadcasts
    units = np.array(units, dtype=np.uint8).reshape(shifts, 1, n)
    index = syndrome_index(code, code.lifts + units)
    adjacency = np.zeros((3**width, 3**width), dtype=bool)
    adjacency[np.arange(3**width), index] = True
    np.fill_diagonal(adjacency, False)  # a weight-1 codeword joins nothing
    return Graph.from_adjacency(adjacency)
