"""Ternary linear codes: the Golay code, weight tallies, derived codes,
syndrome decoding with canonical coset representatives, and coset graphs.

A code is stored by its canonical (RREF) generator matrix, so structurally
equal codes compare equal.  Cosets are keyed by syndrome under a fixed
parity-check matrix derived from that generator, which pins the vertex
order of every coset graph across runs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from collections.abc import Iterable, Sequence

import numpy as np

from . import gf3
from .gf3 import Matrix, Vector
from .graph import Graph

# The sign string whose 11 cyclic shifts generate the ternary Golay code;
# '-' is the field element 2 (= -1 mod 3).
GOLAY_SIGNS = "-+-+++---+-"

# Coset graphs on more than 3^this many vertices are refused.
DEFAULT_COSET_BOUND = 12


class ResourceLimitError(ValueError):
    """An enumeration would exceed the configured size bound."""


class UnsupportedCodeError(ValueError):
    """The operation is specified for the Golay code only."""


@dataclass(frozen=True)
class LinearCode:
    """A subspace of GF(3)^n given by a reduced (RREF) generator matrix."""

    length: int
    dimension: int
    generator: Matrix

    def __post_init__(self):
        if self.dimension != len(self.generator):
            raise ValueError("dimension must equal the generator row count")
        if any(len(row) != self.length for row in self.generator):
            raise ValueError("generator rows must have the code length")


def linear_code(rows: Iterable[Iterable[int]], length: int | None = None) -> LinearCode:
    """Build a code from spanning rows (reduced; dependent rows dropped)."""
    m = gf3.matrix(rows)
    if not m:
        if length is None:
            raise ValueError("length required for a zero code")
        return LinearCode(length=length, dimension=0, generator=())
    basis = gf3.row_space_basis(m)
    return LinearCode(length=len(m[0]), dimension=len(basis), generator=basis)


@lru_cache(maxsize=1)
def golay_code() -> LinearCode:
    """The [11,6,5] ternary Golay code, spanned by the 11 cyclic shifts of
    the sign pattern -+-+++---+- (with '-' mapped to 2)."""
    row = golay_sign_row()
    shifts = [row[i:] + row[:i] for i in range(11)]
    code = linear_code(shifts)
    assert code.dimension == 6
    return code


def golay_sign_row() -> Vector:
    return tuple(1 if ch == "+" else 2 for ch in GOLAY_SIGNS)


@lru_cache(maxsize=None)
def parity_check_matrix(code: LinearCode) -> Matrix:
    """Canonical basis of the dual; syndromes are taken against this matrix."""
    return gf3.null_space(code.generator, width=code.length)


def syndrome(code: LinearCode, v: Vector) -> Vector:
    return tuple(gf3.dot(h, v) for h in parity_check_matrix(code))


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


def is_perfect(code: LinearCode, radius: int) -> bool:
    """Sphere-packing equality: sum_{i<=e} C(n,i) 2^i == 3^(n-k)."""
    n, k = code.length, code.dimension
    spheres = sum(math.comb(n, i) * 2**i for i in range(radius + 1))
    return spheres == 3 ** (n - k)


def shorten(code: LinearCode, position: int) -> LinearCode:
    """Keep codewords that are zero at `position`, then delete that coordinate."""
    n = code.length
    if not 0 <= position < n:
        raise IndexError(f"position {position} out of range for length {n}")
    rows = [list(r) for r in code.generator]
    nonzero = [r for r in rows if r[position]]
    zero = [r for r in rows if not r[position]]
    if nonzero:
        head = nonzero[0]
        inv = head[position]  # self-inverse mod 3
        for r in nonzero[1:]:
            f = (r[position] * inv) % 3
            zero.append([(x - f * y) % 3 for x, y in zip(r, head)])
    punctured = [tuple(r[:position] + r[position + 1 :]) for r in zero]
    return linear_code(punctured, length=n - 1)


def truncate(code: LinearCode, position: int) -> LinearCode:
    """Delete the coordinate from every codeword (puncturing)."""
    n = code.length
    if not 0 <= position < n:
        raise IndexError(f"position {position} out of range for length {n}")
    punctured = [r[:position] + r[position + 1 :] for r in code.generator]
    return linear_code(punctured, length=n - 1)


def _vectors_by_weight(n: int, w: int) -> Iterable[Vector]:
    """All weight-w vectors of length n, lexicographic within the weight class."""
    vectors = []
    for support in itertools.combinations(range(n), w):
        for values in itertools.product((1, 2), repeat=w):
            v = [0] * n
            for i, a in zip(support, values):
                v[i] = a
            vectors.append(tuple(v))
    return sorted(vectors)


@lru_cache(maxsize=None)
def syndrome_table(code: LinearCode) -> dict[Vector, Vector]:
    """syndrome -> minimum-weight coset representative (lex tie-break).

    Built by scanning vectors in increasing weight, so for a perfect code of
    minimum distance 2e+1 it stops after the weight-e shell.
    """
    n, k = code.length, code.dimension
    total = 3 ** (n - k)
    if n - k > DEFAULT_COSET_BOUND:
        raise ResourceLimitError(f"3^{n - k} cosets exceed the configured bound")
    table: dict[Vector, Vector] = {}
    for w in range(n + 1):
        for v in _vectors_by_weight(n, w):
            s = syndrome(code, v)
            if s not in table:
                table[s] = v
                if len(table) == total:
                    return table
    return table


_COSET_SHAPES = ("0", "+-e0", "+-ei", "+-e0+-ei", "+-ei+-ej")


def coset_shape(rep: Vector) -> str:
    """Shape of a weight<=2 canonical representative of a Golay coset."""
    support = [i for i, x in enumerate(rep) if x]
    if not support:
        return "0"
    if len(support) == 1:
        return "+-e0" if support[0] == 0 else "+-ei"
    if len(support) == 2:
        return "+-e0+-ei" if support[0] == 0 else "+-ei+-ej"
    raise ValueError(f"representative of weight {len(support)} has no shape")


def classify_cosets(code: LinearCode) -> dict[str, int]:
    """Partition the 243 Golay coset representatives into the five shapes.

    Counts come out as 1, 2, 20, 40, 180 for 0, +-e0, +-ei (i!=0),
    +-e0+-ei and +-ei+-ej (0<i<j) respectively.
    """
    if code != golay_code():
        raise UnsupportedCodeError("coset shapes are defined for the Golay code")
    counts = {shape: 0 for shape in _COSET_SHAPES}
    for rep in syndrome_table(code).values():
        counts[coset_shape(rep)] += 1
    return counts


def coset_graph(code: LinearCode, positions: Iterable[int] | None = None) -> Graph:
    """Graph on the cosets, adjacent when representatives differ in one place.

    Vertices are the 3^(n-k) syndromes in lexicographic order, so vertex i
    has the base-3 digits of i as its syndrome.  Adjacency is
    translation-invariant: cosets of u and v are adjacent iff u-v's coset
    contains a weight-1 vector, so the edge set is generated by the distinct
    nonzero syndromes of the 2n weight-1 vectors.  Each such offset joins
    every vertex to the one whose digits are its own plus the offset's,
    mod 3: one index vector per offset.  `positions` restricts those
    vectors to the given coordinates (default: all of them).
    """
    n, k = code.length, code.dimension
    if n - k > DEFAULT_COSET_BOUND:
        raise ResourceLimitError(
            f"3^{n - k} coset vertices exceed the bound 3^{DEFAULT_COSET_BOUND}"
        )
    width = n - k
    offsets = set()
    for i in range(n) if positions is None else positions:
        for a in (1, 2):
            s = syndrome(code, gf3.unit_vector(n, i, a))
            if any(s):
                offsets.add(s)
    places = 3 ** np.arange(width - 1, -1, -1)
    vertices = np.arange(3**width)
    digits = vertices[:, None] // places % 3
    adjacency = np.zeros((3**width, 3**width), dtype=bool)
    for t in offsets:
        adjacency[vertices, (digits + t) % 3 @ places] = True
    return Graph.from_adjacency(adjacency)
