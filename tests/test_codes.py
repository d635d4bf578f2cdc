import hashlib
import math
import random
import tracemalloc
from collections import Counter
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golay486 import codes, gf3
from golay486.graph import is_distance_regular, srg_parameters
from oracles import (
    dot,
    in_row_space,
    ladder_codes,
    oracle_intersection_array,
    shifted_weight_counts,
    vec_add,
    vec_scale,
)

# Frozen by enumerating all 3^6 codewords (oracle below re-derives it).
GOLAY_WEIGHT_COUNTS = {0: 1, 5: 132, 6: 132, 8: 330, 9: 110, 11: 24}


def oracle_weight_counts(generator, length):
    """Independent tally: loop over all coefficient tuples, no numpy."""
    counts = [0] * (length + 1)
    for coeffs in product(range(3), repeat=len(generator)):
        word = [0] * length
        for c, row in zip(coeffs, generator):
            for i, x in enumerate(row):
                word[i] = (word[i] + c * x) % 3
        counts[sum(1 for x in word if x)] += 1
    return counts


def zero_code(length):
    return codes.linear_code([], length=length)


def full_space_code(length):
    return codes.linear_code([gf3.unit_vector(length, i) for i in range(length)])


def codewords(code):
    return map(tuple, gf3._span(code.generator, code.length).tolist())


def canonical_representative(code, v):
    """The minimum-weight vector of v + code, read off the leader table."""
    return tuple(codes.syndrome_table(code)[codes.syndrome_index(code, v)].tolist())


def test_golay_first_row_and_shape(golay):
    assert codes.golay_sign_row() == (2, 1, 2, 1, 1, 1, 2, 2, 2, 1, 2)
    assert (golay.length, golay.dimension) == (11, 6)
    assert sum(1 for _ in codewords(golay)) == 729


def test_golay_code_refuses_shifts_of_the_wrong_dimension(monkeypatch):
    # the shifts of a constant row span one dimension; the check is a raise,
    # which python -O keeps
    monkeypatch.setattr(codes, "GOLAY_SIGNS", "+" * 11)
    with pytest.raises(ValueError, match="span dimension 1, not 6"):
        codes.golay_code()


def test_golay_minimum_distance(golay):
    assert codes.minimum_distance(golay) == 5


def test_full_space_minimum_distance():
    assert codes.minimum_distance(full_space_code(4)) == 1


def test_sign_convention_is_immaterial(golay):
    # '+' -> 2, '-' -> 1 negates every generator row, leaving the row space alone
    signs = codes.GOLAY_SIGNS
    rows = [
        tuple({"+": 2, "-": 1}[ch] for ch in signs[i:] + signs[:i]) for i in range(11)
    ]
    assert codes.linear_code(rows) == golay


def test_weight_distribution_examples(golay):
    assert codes.weight_distribution(zero_code(3)) == (1, 0, 0, 0)
    assert codes.weight_distribution(full_space_code(2)) == (1, 4, 4)
    wd = codes.weight_distribution(golay)
    assert sum(wd) == 729
    assert {w: c for w, c in enumerate(wd) if c} == GOLAY_WEIGHT_COUNTS
    assert list(wd) == oracle_weight_counts(golay.generator, 11)


def test_weight_distribution_of_coset_sums_to_codeword_count(golay):
    rng = random.Random(11)
    for _ in range(5):
        shift = tuple(rng.randrange(3) for _ in range(11))
        assert sum(shifted_weight_counts(golay.generator, shift)) == 729


def test_macwilliams_transform(golay):
    dual = codes.linear_code(golay.check)
    assert codes.weight_distribution(dual) == (1, 0, 0, 0, 0, 0, 132, 0, 0, 110, 0, 0)
    assert codes.macwilliams_transform(codes.weight_distribution(dual)) == (
        codes.weight_distribution(golay)
    )
    assert codes.macwilliams_transform(codes.weight_distribution(golay)) == (
        codes.weight_distribution(dual)
    )
    # the full space of length 1 has the zero code as dual
    assert codes.macwilliams_transform((1, 0)) == (1, 2)
    with pytest.raises(ValueError):
        codes.macwilliams_transform((1, 1))  # gives A_1 = 1/2


def test_is_perfect(golay):
    assert codes.is_perfect(golay, 2)
    assert 1 + math.comb(11, 1) * 2 + math.comb(11, 2) * 4 == 243
    assert codes.sphere_size(11, 2) == 243 and codes.sphere_size(10, 2) == 201
    assert codes.is_perfect(full_space_code(4), 0)
    assert not codes.is_perfect(codes.shorten(golay, 0), 2)


def test_shorten(golay):
    short = codes.shorten(golay, 0)
    assert (short.length, short.dimension) == (10, 5)
    assert codes.shorten(full_space_code(2), 0) == full_space_code(1)
    # shortened codewords are exactly the zero-at-position words, punctured
    kept = {
        w[1:] for w in codewords(golay) if w[0] == 0
    }
    assert set(codewords(short)) == kept


def shortened_words(code, position):
    """The definition: codewords that are zero at `position`, punctured there."""
    return {w[:position] + w[position + 1 :] for w in codewords(code) if not w[position]}


def test_shorten_matches_definition_on_golay_and_random_codes(golay):
    cases = [(golay, p) for p in range(11)]
    rng = random.Random(16)
    for _ in range(3000):
        n = rng.randrange(1, 8)
        rows = [tuple(rng.randrange(3) for _ in range(n)) for _ in range(rng.randrange(n + 1))]
        cases.append((codes.linear_code(rows, length=n), rng.randrange(n)))
    for code, position in cases:
        short = codes.shorten(code, position)
        assert short.length == code.length - 1
        assert set(codewords(short)) == shortened_words(code, position)


def test_shorten_commutes_across_positions(golay):
    for i, j in ((0, 4), (2, 7)):
        one = codes.shorten(codes.shorten(golay, j), i)
        two = codes.shorten(codes.shorten(golay, i), j - 1)
        assert one == two


def test_truncate(golay):
    trunc = codes.truncate(golay, 0)
    assert (trunc.length, trunc.dimension) == (10, 6)
    assert 3 ** (trunc.length - trunc.dimension) == 81
    # definitional oracle: puncture every codeword
    punctured = {w[1:] for w in codewords(golay)}
    assert set(codewords(trunc)) == punctured
    assert codes.truncate(zero_code(4), 2) == zero_code(3)
    # minimum distance of the truncation, by exhaustive enumeration
    weights = sorted(
        sum(1 for x in w if x) for w in codewords(trunc) if any(w)
    )
    assert codes.minimum_distance(trunc) == weights[0] == 4


def test_shorten_contained_in_truncate(golay):
    for pos in (0, 5):
        short = set(codewords(codes.shorten(golay, pos)))
        trunc = set(codewords(codes.truncate(golay, pos)))
        assert short <= trunc


def test_canonical_representative_fixed_points(golay):
    zero = (0,) * 11
    assert canonical_representative(golay, zero) == zero
    for word in list(codewords(golay))[:30]:
        assert canonical_representative(golay, word) == zero
    e0 = gf3.unit_vector(11, 0)
    assert canonical_representative(golay, e0) == e0


def test_canonical_representative_against_brute_force(golay):
    # the shortened code is not perfect, so its ties are broken lexicographically
    rng = random.Random(77)
    for code in (golay, codes.shorten(golay, 0)):
        words = list(codewords(code))
        for _ in range(10):
            v = tuple(rng.randrange(3) for _ in range(code.length))
            rep = canonical_representative(code, v)
            coset = [vec_add(v, w) for w in words]
            best = min(coset, key=lambda u: (sum(1 for x in u if x), u))
            assert rep == best
            assert vec_add(rep, vec_scale(2, v)) in set(words)


def test_canonical_representative_constant_on_cosets(golay):
    rng = random.Random(78)
    words = list(codewords(golay))
    for _ in range(20):
        v = tuple(rng.randrange(3) for _ in range(11))
        w = rng.choice(words)
        assert canonical_representative(
            golay, v
        ) == canonical_representative(golay, vec_add(v, w))


def test_representatives_are_all_small_weight_vectors(leaders):
    assert leaders.shape == (243, 11) and leaders.dtype == np.uint8
    reps = set(map(tuple, leaders.tolist()))
    assert len(reps) == 243
    small = {(0,) * 11}
    for i in range(11):
        for a in (1, 2):
            small.add(gf3.unit_vector(11, i, a))
    for i, j in combinations(range(11), 2):
        for a in (1, 2):
            for b in (1, 2):
                v = [0] * 11
                v[i], v[j] = a, b
                small.add(tuple(v))
    assert reps == small  # 1 + 22 + 220 vectors of weight <= 2


def test_classify_cosets(leaders):
    shapes = codes.classify_cosets(leaders)
    assert shapes == {
        "0": 1,
        "+-e0": 2,
        "+-ei": 20,
        "+-e0+-ei": 40,
        "+-ei+-ej": 180,
    }
    assert sum(shapes.values()) == 243
    # the full space has one coset, whose leader is the zero word
    full = codes.syndrome_table(full_space_code(3))
    assert codes.classify_cosets(full) == {
        "0": 1, "+-e0": 0, "+-ei": 0, "+-e0+-ei": 0, "+-ei+-ej": 0,
    }


def test_syndrome_index_reads_the_syndrome_as_base_3(golay):
    check = golay.check
    rng = random.Random(5)
    words = [tuple(rng.randrange(3) for _ in range(11)) for _ in range(30)]
    # the syndrome's digits read in base 3, first parity-check row first
    expected = [
        int("".join(str(dot(h, w)) for h in check), 3) for w in words
    ]
    assert codes.syndrome_index(golay, words).tolist() == expected
    assert codes.syndrome_index(golay, words[0]) == expected[0]
    stacked = np.array(words, dtype=np.uint8).reshape(5, 6, 11)
    assert codes.syndrome_index(golay, stacked).ravel().tolist() == expected


def test_check_annihilates_the_generator_and_is_derived_once(monkeypatch):
    # and so is lifts, the one table of coset words
    calls = Counter()

    def counted(name):
        real = getattr(gf3, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(gf3, name, wrapper)

    counted("null_space")
    counted("_span")
    for name, code in ladder_codes(codes.golay_code()).items():
        calls.clear()
        check = code.check
        assert code.check is check
        lifts = code.lifts
        assert code.lifts is lifts
        assert calls == {"null_space": 1, "_span": 1}, name
        assert len(check) == code.length - code.dimension
        assert gf3.row_space_basis(check) == check  # reduced
        assert all(dot(h, g) == 0 for h in check for g in code.generator)
        # every builder shares the one table, so none may write to it
        assert lifts.dtype == np.uint8 and not lifts.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            lifts[0, 0] = 1
    assert zero_code(3).check == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert full_space_code(3).check == ()
    assert full_space_code(3).lifts.tolist() == [[0, 0, 0]]


def test_a_derived_check_leaves_equality_and_hash_alone():
    # and so do derived lifts, which derive the check they are read from
    golay, with_check, with_lifts = (codes.golay_code() for _ in range(3))
    assert with_check.check
    assert len(with_lifts.lifts) == 243
    assert set(vars(with_check)) - set(vars(golay)) == {"check"}
    assert set(vars(with_lifts)) - set(vars(golay)) == {"check", "lifts"}
    for derived in (with_check, with_lifts):
        assert derived == golay and hash(derived) == hash(golay)
        assert {derived: "golay"}[golay] == "golay"
        assert repr(derived) == repr(golay)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), st.integers(0, 6), st.booleans(), st.randoms(use_true_random=False))
def test_check_starts_with_the_first_unit_vector_unless_e0_is_a_codeword(n, k, with_e0, rng):
    # H e0 = 0 exactly when e0 is a codeword; otherwise the reduced H has
    # its first pivot in column 0.  syndrome_map relies on this.
    e0 = gf3.unit_vector(n, 0)
    rows = [tuple(rng.randrange(3) for _ in range(n)) for _ in range(k)]
    code = codes.linear_code(rows + [e0] * with_e0, length=n)
    column = tuple(row[0] for row in code.check)
    unit = column[:1] == (1,) and not any(column[1:])
    assert unit == (not in_row_space(code.generator, e0))
    assert unit or not any(column)


def test_a_reduced_checks_pivots_are_its_rows_first_ones(golay):
    # lifts and syndrome_map read the pivots off the reduced check, with no
    # second row reduction
    tetracode = codes.linear_code([(1, 0, 1, 1), (0, 1, 1, 2)])
    for code in (golay, codes.shorten(golay, 0), tetracode, zero_code(5), full_space_code(5)):
        check = code.check
        assert [row.index(1) for row in check] == list(gf3.rref(check)[2])
        assert all(not any(row[: row.index(1)]) for row in check)


def test_each_coset_lift_lies_in_its_own_coset(golay):
    for name, code in ladder_codes(golay).items():
        lifts = code.lifts
        assert lifts.shape == (3 ** (code.length - code.dimension), code.length)
        assert codes.syndrome_index(code, lifts).tolist() == list(range(len(lifts))), name


# sha256 of the repr of each leader table as a tuple of tuples in syndrome
# order, recorded from the syndrome -> leader dict that the table replaced.
LEADER_DIGESTS = {
    "golay": "a893ab297c059c4ed440861b36f565e39da4adeccc6e882f49ac6b24837d44ee",
    "shortened": "dcafd74aa40af226c1fd507134ac9ba5d5aa2b2dc03b522991f00b494a5f22b9",
    "truncated": "b2576754470d840cdcf7c91a204deb19259b6851e726a7b9ed6d365634e6078a",
    "extended": "f93a2a9b13a207a31a4861104a58d259ebbd7f6edc3246538c8bf41f37231094",
}


def test_syndrome_table_rows_are_unchanged(golay):
    for name, code in ladder_codes(golay).items():
        table = codes.syndrome_table(code)
        assert table.shape == (3 ** (code.length - code.dimension), code.length)
        assert codes.syndrome_index(code, table).tolist() == list(range(len(table)))
        digest = hashlib.sha256(repr(tuple(map(tuple, table.tolist()))).encode())
        assert digest.hexdigest() == LEADER_DIGESTS[name], name


def test_syndrome_table_of_degenerate_codes():
    assert codes.syndrome_table(full_space_code(3)).tolist() == [[0, 0, 0]]
    table = codes.syndrome_table(zero_code(2))  # every word is its own coset
    assert sorted(map(tuple, table.tolist())) == sorted(product(range(3), repeat=2))
    with pytest.raises(codes.ResourceLimitError):
        codes.syndrome_table(zero_code(13))


def test_coset_graph_of_zero_code_is_hamming_h23():
    g = codes.coset_graph(zero_code(2))
    assert g.n == 9
    assert all(np.count_nonzero(g.adjacency_matrix[v]) == 4 for v in range(9))
    oracle = oracle_intersection_array(g)
    assert oracle == ((4, 2), (1, 2))
    arr = is_distance_regular(g)
    assert arr is not None and (arr.b, arr.c) == oracle


def test_coset_graph_of_golay_is_bvls(gamma):
    assert srg_parameters(gamma) == (243, 22, 1, 2)
    assert all(np.count_nonzero(gamma.adjacency_matrix[v]) == 22 for v in range(gamma.n))


def test_coset_graph_of_shortened_golay(golay):
    g = codes.coset_graph(codes.shorten(golay, 0))
    assert g.n == 243
    assert all(np.count_nonzero(g.adjacency_matrix[v]) == 20 for v in range(g.n))
    arr = is_distance_regular(g)
    assert arr is not None and str(arr) == "{20,18,4,1; 1,2,18,20}"


def test_coset_graph_of_truncated_golay(golay):
    g = codes.coset_graph(codes.truncate(golay, 0))
    assert srg_parameters(g) == (81, 20, 1, 6)


def _adjacency_digest(g) -> str:
    return hashlib.sha256(
        repr(tuple(g.neighbors(v) for v in range(g.n))).encode()
    ).hexdigest()


# Adjacency digests of the coset graphs of the four Golay-family codes of the
# benchmark's size ladder, recorded before `positions` was added.
LADDER_DIGESTS = {
    "golay": "3ccde74aba6f09bdc73f444923809e9cdad6b298ae056d96f7170f5222ea8c1e",
    "shortened": "0c0484590d1a3cce1e6944a5742a1d6b844ecb2fa9300faa6467485cb14db701",
    "truncated": "c4a3891da989fae6de33d85e689033a8e8c535ba3c966b7f801a5cb54fd4a385",
    "extended": "999540d0daf7b415997e7998796e9b1c4fc3f2799407a82f699de6f4b570164c",
}


def test_coset_graph_ladder_digests(golay):
    for name, code in ladder_codes(golay).items():
        assert _adjacency_digest(codes.coset_graph(code)) == LADDER_DIGESTS[name], name


def test_coset_graph_positions(golay, gamma):
    assert codes.coset_graph(golay, positions=range(11)) == gamma
    # without coordinate 0 the +-e0 offsets are gone: valency 22 - 2
    g = codes.coset_graph(golay, positions=range(1, 11))
    assert all(np.count_nonzero(g.adjacency_matrix[v]) == 20 for v in range(g.n))
    assert codes.coset_graph(golay, positions=()).edge_count == 0


def test_coset_graph_bound():
    with pytest.raises(codes.ResourceLimitError):
        codes.coset_graph(zero_code(13))


def test_minimum_distance_of_zero_code_is_undefined():
    with pytest.raises(ValueError):
        codes.minimum_distance(zero_code(5))


def _peak_bytes(call):
    """The peak of memory traced by tracemalloc (numpy reports its arrays
    there) while `call` runs to its ResourceLimitError."""
    tracemalloc.start()
    try:
        with pytest.raises(codes.ResourceLimitError):
            call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_coset_graph_bounds_its_adjacency_before_allocating():
    # the leader table of 3^12 cosets of length 12 (and its fill mask) fits
    # the byte bound, but a dense adjacency on them would take 3^24 bytes
    # (282 GB); the refusal allocates nothing of it
    assert 3**12 * (12 + 1) <= codes.MAX_ARRAY_BYTES
    assert 9**12 > codes.MAX_ARRAY_BYTES
    assert _peak_bytes(lambda: codes.coset_graph(zero_code(12))) < 2**20
    # the bound sits between 3^7 and 3^8 vertices: H(7,3) is built
    assert 9**6 < 9**7 <= codes.MAX_ARRAY_BYTES < 9**8
    assert codes.coset_graph(zero_code(7)).n == 3**7
    with pytest.raises(codes.ResourceLimitError, match="adjacency"):
        codes.coset_graph(zero_code(8))


def test_syndrome_table_bounds_its_table_before_allocating():
    # 3^12 cosets: a table of length 30 and its fill mask fit the byte
    # bound, and one of length 31 does not
    assert 3**12 * (30 + 1) <= codes.MAX_ARRAY_BYTES < 3**12 * (31 + 1)
    n, r = 31, 12
    code = codes.linear_code([gf3.unit_vector(n, i) for i in range(r, n)])
    assert n - code.dimension == r
    assert _peak_bytes(lambda: codes.syndrome_table(code)) < 2**20
    with pytest.raises(codes.ResourceLimitError, match=r"^the leaders of 3\^12 cosets"):
        codes.syndrome_table(code)


def test_syndrome_table_bounds_each_shell_before_building_it():
    # a [40,34] code that is zero on its first 6 coordinates: its coset
    # leaders are the words supported there, up to weight 6, so the scan
    # would reach shells of C(40, w) 2^w words (about 2.5e8 at w = 6)
    n, r = 40, 6
    code = codes.linear_code([gf3.unit_vector(n, i) for i in range(r, n)])
    assert n - code.dimension == r
    shells = [math.comb(n, w) * 2**w * n * 8 for w in range(r + 1)]
    first_refused = next(w for w, size in enumerate(shells) if size > codes.MAX_ARRAY_BYTES)
    assert first_refused == 3
    assert _peak_bytes(lambda: codes.syndrome_table(code)) < 2 * shells[2]
    with pytest.raises(codes.ResourceLimitError, match="weight-3 shell"):
        codes.syndrome_table(code)
