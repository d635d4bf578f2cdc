import random
import re
from concurrent.futures import ThreadPoolExecutor
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golay486 import gf3
from golay486.codes import golay_code
from oracles import (
    brute_force_functionals,
    dot,
    in_row_space,
    kernel_bases,
    shifted_weight_counts,
    vec_add,
    vec_scale,
)


def random_vector(rng, n):
    return tuple(rng.randrange(3) for _ in range(n))


def brute_force_span(basis, length=None, shift=None):
    """span(basis)+shift in plain Python, one element per coefficient
    vector, coefficient vectors in lexicographic order."""
    n = len(basis[0]) if basis else length
    out = []
    for coeffs in product((0, 1, 2), repeat=len(basis)):
        w = list(shift) if shift is not None else [0] * n
        for c, row in zip(coeffs, basis):
            for i, x in enumerate(row):
                w[i] = (w[i] + c * x) % 3
        out.append(tuple(w))
    return out


def test_vec_arithmetic_examples():
    assert vec_add((1, 2, 0), (2, 2, 1)) == (0, 1, 1)
    assert vec_scale(2, (0, 0, 0, 0)) == (0, 0, 0, 0)
    assert vec_scale(2, (1, 2)) == (2, 1)


def test_vec_add_length_mismatch():
    with pytest.raises(gf3.DimensionError):
        vec_add((1, 2), (1, 2, 0))


def test_vec_properties_random():
    rng = random.Random(101)
    for _ in range(200):
        n = rng.randrange(1, 12)
        u, v = random_vector(rng, n), random_vector(rng, n)
        assert vec_add(u, vec_scale(2, u)) == (0,) * n
        assert vec_add(u, v) == vec_add(v, u)
        assert vec_add(vec_add(u, v), vec_scale(2, v)) == u


def hamming_weight(v):
    """The weight of v as the one-vector tally span()+v counts it."""
    return shifted_weight_counts((), v).index(1)


def test_hamming_weight():
    assert hamming_weight((0, 0, 0)) == 0
    assert hamming_weight((2, 1, 2, 1, 1, 1, 2, 2, 2, 1, 2)) == 11
    assert hamming_weight(gf3.unit_vector(11, 0)) == 1


def test_rref_identity_and_duplicates():
    ident = gf3.matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    reduced, rank, pivots = gf3.rref(ident)
    assert reduced == ident and rank == 3 and pivots == (0, 1, 2)

    reduced, rank, pivots = gf3.rref(gf3.matrix([[1, 2], [1, 2]]))
    assert rank == 1 and pivots == (0,)
    assert reduced == ((1, 2), (0, 0))


def test_rref_golay_circulant_rank():
    row = tuple(1 if ch == "+" else 2 for ch in "-+-+++---+-")
    shifts = gf3.matrix([row[i:] + row[:i] for i in range(11)])
    _, rank, _ = gf3.rref(shifts)
    assert rank == 6


def test_rref_idempotent_and_row_space_random():
    rng = random.Random(202)
    for _ in range(50):
        nrows, ncols = rng.randrange(1, 6), rng.randrange(1, 7)
        m = gf3.matrix([random_vector(rng, ncols) for _ in range(nrows)])
        reduced, rank, _ = gf3.rref(m)
        again, rank2, _ = gf3.rref(reduced)
        assert again == reduced and rank2 == rank
        # row space is preserved both ways
        basis = gf3.row_space_basis(m)
        for row in m:
            assert in_row_space(basis, row)
        for row in basis:
            assert in_row_space(m, row)


def test_null_space_annihilates():
    rng = random.Random(303)
    for _ in range(30):
        nrows, ncols = rng.randrange(1, 5), rng.randrange(2, 7)
        m = gf3.matrix([random_vector(rng, ncols) for _ in range(nrows)])
        kernel = gf3.null_space(m, width=ncols)
        _, rank, _ = gf3.rref(m)
        assert len(kernel) == ncols - rank
        for v in kernel:
            assert all(dot(row, v) == 0 for row in m)


def span_list(basis, length=None):
    """The rows of gf3._span(basis) as tuples, in its order."""
    return list(map(tuple, gf3._span(basis, length).tolist()))


def test_enumerate_subspace_counts():
    assert span_list((), length=5) == [(0, 0, 0, 0, 0)]
    basis = gf3.matrix([[1, 0, 0], [0, 1, 0]])
    vectors = span_list(basis)
    assert len(vectors) == 9
    assert len(set(vectors)) == 9
    ten = golay_code().generator + tuple(
        gf3.unit_vector(11, i) for i in (6, 7, 8, 9)
    )
    assert len(gf3.row_space_basis(ten)) == 10
    count = len(span_list(gf3.row_space_basis(ten)))
    assert count == 59049


def test_enumerate_subspace_closed_under_negation():
    rng = random.Random(404)
    for _ in range(20):
        ncols = rng.randrange(2, 6)
        rows = [random_vector(rng, ncols) for _ in range(rng.randrange(1, 4))]
        basis = gf3.row_space_basis(gf3.matrix(rows))
        if not basis:
            continue
        vectors = set(span_list(basis))
        assert len(vectors) == 3 ** len(basis)
        assert all(vec_scale(2, v) in vectors for v in vectors)


def test_enumerate_subspace_rejects_dependent_basis():
    with pytest.raises(ValueError):
        span_list(gf3.matrix([[1, 2], [2, 1]]))


def test_subspace_weight_counts_against_enumeration():
    # the coset tally is the oracle of constructions._coset_tallies
    rng = random.Random(505)
    for _ in range(20):
        ncols = rng.randrange(1, 7)
        rows = [random_vector(rng, ncols) for _ in range(rng.randrange(0, 4))]
        basis = gf3.row_space_basis(gf3.matrix(rows))
        shift = random_vector(rng, ncols)
        for tally, words in (
            (gf3.subspace_weight_counts(basis, length=ncols), brute_force_span(basis, ncols)),
            (shifted_weight_counts(basis, shift), brute_force_span(basis, ncols, shift)),
        ):
            expected = [0] * (ncols + 1)
            for v in words:
                expected[sum(1 for x in v if x)] += 1
            assert tally == tuple(expected)


def test_intermediate_hyperplanes_of_golay(golay):
    e0 = gf3.unit_vector(11, 0)
    duals = gf3.null_space(golay.generator, width=11)
    assert len(gf3.projective_points(duals, length=11)) == 121
    assert duals == golay.check
    functionals = gf3.hyperplane_functionals(golay.check, e0)
    assert len(functionals) == 81  # 121 - 40 through e0
    hyperplanes = gf3.intermediate_hyperplanes(functionals)
    assert len(hyperplanes) == 81
    assert len(set(hyperplanes)) == 81  # pairwise distinct row spaces
    for basis in hyperplanes:
        assert len(basis) == 10
        _, rank, _ = gf3.rref(basis)
        assert rank == 10
        assert all(in_row_space(basis, row) for row in golay.generator)
        assert not in_row_space(basis, e0)


def test_intermediate_hyperplanes_precondition_errors(golay):
    with pytest.raises(ValueError):
        gf3.hyperplane_functionals(golay.check, golay.generator[0])
    # dependent duals fail _span's rank check
    with pytest.raises(ValueError, match="dependent"):
        gf3.hyperplane_functionals(gf3.matrix([[1, 2], [2, 1]]), (1, 0))
    # a ragged basis: only its second row is short
    with pytest.raises(gf3.DimensionError):
        gf3.hyperplane_functionals(((1, 0, 0), (1, 0)), (0, 0, 1))
    with pytest.raises(ValueError, match="lies in the subspace"):
        gf3.hyperplane_functionals(golay.check, (0,) * 11)


def random_independent_rows(rng, k, n):
    """k random rows of length n that rref shows to be independent."""
    while True:
        rows = tuple(random_vector(rng, n) for _ in range(k))
        if gf3.rref(rows)[1] == k:
            return rows


def test_hyperplane_functionals_match_brute_force():
    rng = random.Random(606)
    for _ in range(200):
        n = rng.randrange(1, 7)
        sub_basis = random_independent_rows(rng, rng.randrange(0, n + 1), n)
        excluded = random_vector(rng, n)
        expected = brute_force_functionals(sub_basis, excluded)
        duals = gf3.null_space(sub_basis, width=n)
        if expected:
            assert list(gf3.hyperplane_functionals(duals, excluded)) == expected
        else:
            with pytest.raises(ValueError, match="lies in the subspace"):
                gf3.hyperplane_functionals(duals, excluded)


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 7), st.integers(0, 7), st.randoms(use_true_random=False))
def test_intermediate_hyperplanes_match_row_reduction(n, k, rng):
    # the closed-form bases against one null_space per functional
    sub_basis = random_independent_rows(rng, min(k, n), n)
    excluded = random_vector(rng, n)
    duals = gf3.null_space(sub_basis, width=n)
    try:
        expected = kernel_bases(sub_basis, excluded)
    except ValueError as error:
        with pytest.raises(type(error), match=re.escape(str(error))):
            gf3.intermediate_hyperplanes(gf3.hyperplane_functionals(duals, excluded))
    else:
        functionals = gf3.hyperplane_functionals(duals, excluded)
        assert gf3.intermediate_hyperplanes(functionals) == expected


def test_intermediate_hyperplanes_of_golay_match_row_reduction(golay):
    e0 = gf3.unit_vector(11, 0)
    expected = kernel_bases(golay.generator, e0)
    functionals = gf3.hyperplane_functionals(golay.check, e0)
    assert gf3.intermediate_hyperplanes(functionals) == expected


def test_projective_points_match_brute_force():
    # span(basis) is the annihilator of its null space
    rng = random.Random(707)
    for _ in range(200):
        n = rng.randrange(1, 7)
        basis = random_independent_rows(rng, rng.randrange(0, n + 1), n)
        expected = brute_force_functionals(gf3.null_space(basis, width=n), length=n)
        assert list(gf3.projective_points(basis, length=n)) == expected
        assert len(expected) == (3 ** len(basis) - 1) // 2


def test_parallel_weight_counts_match_serial(golay):
    e0 = gf3.unit_vector(11, 0)
    bases = gf3.intermediate_hyperplanes(gf3.hyperplane_functionals(golay.check, e0))[:8]
    serial = [gf3.subspace_weight_counts(b) for b in bases]
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(gf3.subspace_weight_counts, bases))
    assert parallel == serial


def test_enumeration_order_is_lexicographic_in_coefficients():
    for basis, length in (
        (gf3.matrix([[1, 0], [0, 1]]), None),
        (gf3.matrix([[2, 1, 1, 0], [1, 1, 0, 2], [0, 2, 1, 1]]), None),
        ((), 3),
    ):
        got = span_list(basis, length)
        assert got == brute_force_span(basis, length)
