"""Exact linear algebra over the 3-element field.

Vectors are tuples of ints in {0,1,2}; matrices are tuples of equal-length
row vectors.  Tuples keep them hashable and immutable, and all arithmetic
is exact.
The one bulk operation, listing all 3^k elements of a subspace, is one
numpy routine, `_span` (one byte per field element).  It serves the
weight tally, the points of AG(n,3), the words a coset graph shifts and
the flat classification, which lists the Golay code once.  The
projective points and the hyperplane functionals are one array pass over
a `_span` as well; the functionals are read off a dual basis that the
caller passes (a code's `check`), so hyperplane_functionals takes no null
space.  Row reduction (`rref`, `row_space_basis`, `null_space`) is plain
Python over tuples.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

Vector = tuple[int, ...]
Matrix = tuple[Vector, ...]

# 3^k coefficient enumerations beyond this are refused rather than swapped.
MAX_ENUM_DIM = 12


class DimensionError(ValueError):
    """Operands have incompatible lengths."""


def vector(entries: Iterable[int]) -> Vector:
    """Validate and freeze a GF(3) vector."""
    v = tuple(int(x) for x in entries)
    if any(x not in (0, 1, 2) for x in v):
        raise ValueError(f"entries must be in {{0,1,2}}, got {v}")
    return v


def matrix(rows: Iterable[Iterable[int]]) -> Matrix:
    """Validate and freeze a GF(3) matrix (rows of equal length)."""
    m = tuple(vector(r) for r in rows)
    if m and len({len(r) for r in m}) != 1:
        raise DimensionError("rows have unequal lengths")
    return m


def unit_vector(length: int, position: int, value: int = 1) -> Vector:
    v = [0] * length
    v[position] = value
    return tuple(v)


def rref(m: Matrix) -> tuple[Matrix, int, tuple[int, ...]]:
    """Reduced row-echelon form over GF(3).

    Returns (reduced matrix, rank, pivot columns).  The reduced matrix has
    the same shape and row space as the input; zero rows sink to the bottom.
    Inverses mod 3 are trivial (1 and 2 are self-inverse).
    """
    rows = [list(r) for r in m]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][c]  # self-inverse mod 3
        rows[r] = [(inv * x) % 3 for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % 3 for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in rows), r, tuple(pivots)


def row_space_basis(m: Matrix) -> Matrix:
    """Canonical (RREF, zero rows dropped) basis of the row space."""
    reduced, rank, _ = rref(m)
    return reduced[:rank]


def null_space(m: Matrix, width: int | None = None) -> Matrix:
    """Canonical basis of {x : m @ x = 0} over GF(3).

    `width` is required when m has no rows (the null space is then the
    full space of that width).
    """
    if not m:
        if width is None:
            raise ValueError("width required for an empty matrix")
        return tuple(unit_vector(width, i) for i in range(width))
    ncols = len(m[0])
    reduced, rank, pivots = rref(m)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for i, p in enumerate(pivots):
            v[p] = (-reduced[i][f]) % 3
        basis.append(tuple(v))
    return row_space_basis(tuple(basis))


def _span(basis: Matrix, length: int | None = None) -> np.ndarray:
    """All 3^rank elements of span(basis), one uint8 row each.

    Rows are lexicographic in the coefficient vectors (the first basis row
    varies slowest), so the zero word comes first.  The array grows by one
    basis row at a time: each word w becomes w, w+row, w+2*row.  `length`
    is required for an empty basis.
    """
    k = len(basis)
    n = len(basis[0]) if basis else length
    if n is None:
        raise ValueError("length required for an empty basis")
    _, rank, _ = rref(basis)
    if rank != k:
        raise ValueError(f"basis rows are dependent (rank {rank} < {k})")
    if k > MAX_ENUM_DIM:
        raise ValueError(f"refusing to enumerate 3^{k} vectors")
    words = np.zeros((1, n), dtype=np.uint8)
    for row in basis:
        multiples = np.outer((0, 1, 2), row).astype(np.uint8) % 3
        words = ((words[:, None, :] + multiples) % 3).reshape(-1, n)
    return words


def subspace_weight_counts(basis: Matrix, length: int | None = None) -> tuple[int, ...]:
    """Tally Hamming weights over all 3^rank elements of span(basis).

    Returns counts indexed by weight 0..n: the weight distribution of a
    code.  The flat classification tallies all 243 Golay cosets at once
    instead (constructions._coset_tallies).
    """
    words = _span(basis, length)
    weights = np.count_nonzero(words, axis=1)
    return tuple(np.bincount(weights, minlength=words.shape[1] + 1).tolist())


def _points(basis: Matrix, length: int | None = None) -> np.ndarray:
    """The rows of projective_points as a lex-sorted uint8 array."""
    words = _span(basis, length)[1:]  # the zero vector comes first
    if not len(words):  # a zero space, of any width, has no points
        return words
    lead = words[np.arange(len(words)), np.argmax(words != 0, axis=1)]
    points = words[lead == 1]
    return points[np.lexsort(points.T[::-1])]


def projective_points(basis: Matrix, length: int | None = None) -> tuple[Vector, ...]:
    """Nonzero vectors of span(basis) up to scalar, canonical and lex-sorted.

    A point is the one vector of its pair {v, 2v} whose first nonzero
    entry is 1; there are (3^rank - 1)/2 of them.  They are read off one
    `_span` of the basis.  `length` is required for an empty basis.
    """
    return tuple(map(tuple, _points(basis, length).tolist()))


def hyperplane_functionals(duals: Matrix, excluded: Vector) -> tuple[Vector, ...]:
    """Canonical functionals in span(duals) that do not vanish on `excluded`.

    With `duals` a basis of the annihilator of a subspace U (for a code, its
    check), each one cuts out a hyperplane of the ambient space that
    contains U but not `excluded`.  They are the projective points of
    span(duals), kept by one product against `excluded`.  A row whose
    length is not len(excluded) raises DimensionError.  Dependent rows
    raise ValueError (_span's rank check), and so does an `excluded` that
    every dual annihilates, which lies in U and leaves no functional.
    """
    n = len(excluded)
    if any(len(row) != n for row in duals):
        raise DimensionError("excluded vector length differs from basis width")
    points = _points(duals, n)
    values = points.astype(np.int64) @ np.array(excluded, dtype=np.int64) % 3
    kept = points[values != 0]
    if not len(kept):
        raise ValueError("excluded vector lies in the subspace")
    return tuple(map(tuple, kept.tolist()))


def intermediate_hyperplanes(duals: Matrix, excluded: Vector) -> tuple[Matrix, ...]:
    """Bases of all hyperplanes containing the subspace that `duals`
    annihilates but not `excluded`.

    Each returned matrix is the canonical (RREF) basis of one kernel, in the
    lex order of the defining functionals from hyperplane_functionals.  It
    has a closed form, so no row reduction runs: with q the last nonzero
    column of phi, the pivots are every column but q, and the row with
    pivot c is e_c - phi[c] phi[q] e_q (phi[q] is its own inverse), which
    phi annihilates.  All bases are written in one uint8 array pass.
    """
    phis = np.array(hyperplane_functionals(duals, excluded), dtype=np.uint8)
    m, n = phis.shape
    rows = np.arange(m)[:, None]
    q = n - 1 - np.argmax(phis[:, ::-1] != 0, axis=1)
    bases = np.zeros((m, n, n), dtype=np.uint8)
    bases[:, np.arange(n), np.arange(n)] = 1
    bases[rows, np.arange(n), q[:, None]] = 2 * phis * phis[rows, q[:, None]] % 3
    kept = bases[np.arange(n) != q[:, None]].reshape(m, n - 1, n)
    return tuple(tuple(map(tuple, basis.tolist())) for basis in kept)

