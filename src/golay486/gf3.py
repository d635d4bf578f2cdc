"""Exact linear algebra over the 3-element field.

Vectors are tuples of ints in {0,1,2}; matrices are tuples of equal-length
row vectors.  Tuples keep everything hashable (cosets, functionals and
subspaces are used as dict keys throughout), and all arithmetic is exact.
The one bulk operation, listing all 3^k elements of a subspace or of one
of its cosets, is one numpy routine, `_span` (one byte per field
element).  It serves the weight tally, `enumerate_subspace`, the points
of AG(n,3), the words a coset graph shifts, and the flat classification,
which lists the Golay code once and broadcasts it against all 243 coset
leaders; everything else is plain Python.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

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


def vec_scale(c: int, v: Vector) -> Vector:
    return tuple((c * a) % 3 for a in v)


def dot(u: Vector, v: Vector) -> int:
    if len(u) != len(v):
        raise DimensionError(f"length mismatch: {len(u)} vs {len(v)}")
    return sum(a * b for a, b in zip(u, v)) % 3


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


def in_row_space(m: Matrix, v: Vector) -> bool:
    """Membership test by rank comparison."""
    basis = row_space_basis(m)
    _, rank_with, _ = rref(basis + (v,))
    return rank_with == len(basis)


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


def _span(
    basis: Matrix, length: int | None = None, shift: Vector | None = None
) -> np.ndarray:
    """All 3^rank elements of span(basis)+shift, one uint8 row each.

    Rows are lexicographic in the coefficient vectors (the first basis row
    varies slowest), so the shift itself comes first.  The array grows by
    one basis row at a time: each word w becomes w, w+row, w+2*row.
    `length` is required for an empty basis.
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
    words = np.array([shift if shift is not None else (0,) * n], dtype=np.uint8)
    for row in basis:
        multiples = np.outer((0, 1, 2), row).astype(np.uint8) % 3
        words = ((words[:, None, :] + multiples) % 3).reshape(-1, n)
    return words


def enumerate_subspace(basis: Matrix, length: int | None = None) -> Iterator[Vector]:
    """Yield all 3^rank combinations of independent basis rows.

    Order is lexicographic in the coefficient vectors, so the zero vector
    comes first.  `length` is required for an empty basis.
    """
    yield from map(tuple, _span(basis, length).tolist())


def subspace_weight_counts(
    basis: Matrix, length: int | None = None, shift: Vector | None = None
) -> tuple[int, ...]:
    """Tally Hamming weights over all 3^rank elements of span(basis)+shift.

    Returns counts indexed by weight 0..n.  The program calls it for the
    weight distribution of a code; `shift` tallies a single coset, which
    the flat classification does for all 243 Golay cosets at once instead.
    """
    words = _span(basis, length, shift)
    weights = np.count_nonzero(words, axis=1)
    return tuple(np.bincount(weights, minlength=words.shape[1] + 1).tolist())


def canonical_functional(phi: Vector) -> Vector:
    """Scale a nonzero functional so its first nonzero coefficient is 1."""
    lead = next((x for x in phi if x), None)
    if lead is None:
        raise ValueError("zero functional has no canonical form")
    return phi if lead == 1 else vec_scale(2, phi)


def projective_points(basis: Matrix, length: int | None = None) -> tuple[Vector, ...]:
    """Nonzero vectors of span(basis) up to scalar, canonical and lex-sorted.

    There are (3^rank - 1)/2 of them.
    """
    points = set()
    for v in enumerate_subspace(basis, length):
        if any(v):
            points.add(canonical_functional(v))
    return tuple(sorted(points))


def hyperplane_functionals(sub_basis: Matrix, excluded: Vector) -> tuple[Vector, ...]:
    """Canonical functionals whose kernels contain span(sub_basis) but miss `excluded`.

    These are the nonzero functionals vanishing on the subspace, taken up to
    scalar and then filtered to those not vanishing on `excluded`.  Each one
    cuts out a hyperplane of the ambient space containing the subspace.
    """
    n = len(excluded)
    if sub_basis and len(sub_basis[0]) != n:
        raise DimensionError("excluded vector length differs from basis width")
    basis = row_space_basis(sub_basis)
    if len(basis) != len(sub_basis):
        raise ValueError("sub_basis rows are dependent")
    if in_row_space(basis, excluded):
        raise ValueError("excluded vector lies in the subspace")
    duals = null_space(basis, width=n)
    return tuple(
        phi for phi in projective_points(duals, length=n) if dot(phi, excluded) != 0
    )


def intermediate_hyperplanes(sub_basis: Matrix, excluded: Vector) -> tuple[Matrix, ...]:
    """Bases of all hyperplanes containing span(sub_basis) but not `excluded`.

    Each returned matrix is the canonical (RREF) basis of one kernel, in the
    lex order of the defining functionals from hyperplane_functionals.
    """
    n = len(excluded)
    return tuple(
        null_space((phi,), width=n)
        for phi in hyperplane_functionals(sub_basis, excluded)
    )

