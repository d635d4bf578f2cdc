import dataclasses
import hashlib
import itertools
import math
import random
import re
import tracemalloc
from array import array
from collections import Counter, deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golay486 import permaction
from golay486.constructions import _bundled_generators_text
from golay486.graph import Graph, GraphStructureError, IntersectionArray, is_distance_regular
from golay486.permaction import (
    MAX_DEGREE,
    ChainBudgetError,
    CycleParseError,
    GroupAction,
    OrbitalDecomposition,
    StabilizerChain,
    collapsed_matrix,
    format_cycles,
    group_order,
    orbitals,
    orbital_union_graph,
    parse_generator_file,
    scan_orbital_unions,
    verify_invariance,
)
from oracles import (
    CYCLE_TEXT,
    GENERATOR_FILES,
    complete_graph,
    compose,
    cycle_graph,
    edge_orbit_graph,
    gathered_orbital_union,
    identity,
    inverse,
    neighbour_counts,
    orbit,
    parse_cycles,
    quotient_intersection_array,
    relabel_action,
    sequential_chain,
    token_parse_cycles,
)


def cyclic_action(n):
    return GroupAction(degree=n, generators=(tuple(range(1, n)) + (0,),))


def symmetric_action(n):
    transposition = (1, 0) + tuple(range(2, n))
    cycle = tuple(range(1, n)) + (0,)
    return GroupAction(degree=n, generators=(transposition, cycle))


def klein_four_regular_action():
    # the group {e,a,b,ab} acting on itself; points 0=e, 1=a, 2=b, 3=ab
    a = (1, 0, 3, 2)
    b = (2, 3, 0, 1)
    return GroupAction(degree=4, generators=(a, b))


def alternating_action(n):
    # 3-cycles (1,2,k) generate A_n
    return GroupAction(
        degree=n,
        generators=tuple(parse_cycles(f"(1,2,{k})", n) for k in range(3, n + 1)),
    )


def dihedral_action(n):
    rotation = tuple(range(1, n)) + (0,)
    reflection = tuple(-x % n for x in range(n))
    return GroupAction(degree=n, generators=(rotation, reflection))


def petersen_action():
    """S5 on the ten 2-subsets of five points; its rank-3 orbitals are the
    Petersen graph and its complement."""
    pairs = list(itertools.combinations(range(5), 2))
    index = {pair: i for i, pair in enumerate(pairs)}
    gens = ((1, 0, 2, 3, 4), (1, 2, 3, 4, 0))
    return GroupAction(
        10,
        tuple(tuple(index[tuple(sorted((g[a], g[b])))] for a, b in pairs) for g in gens),
    )


def regular_elementary_abelian_action(k):
    """The group 2^k acting on itself: x -> x xor 2^i for each i."""
    n = 2**k
    return GroupAction(n, tuple(tuple(x ^ (1 << i) for x in range(n)) for i in range(k)))


def mathieu_11_action():
    a = parse_cycles("(1,2,3,4,5,6,7,8,9,10,11)", 11)
    b = parse_cycles("(3,7,11,8)(4,10,5,6)", 11)
    return GroupAction(11, (a, b))


def orbitals_by_pair_bfs(action):
    """Reference orbitals: breadth-first closure of the pairs (0, y), taken
    in ascending y, under the generators, over all n^2 ordered pairs."""
    n = action.degree
    ids = array("i", [-1]) * (n * n)
    rank = 0
    first_pairs = []
    for y0 in range(n):
        if ids[y0] != -1:
            continue
        ids[y0] = rank
        first_pairs.append((0, y0))
        queue = deque([(0, y0)])
        while queue:
            i, j = queue.popleft()
            for g in action.generators:
                k = g[i] * n + g[j]
                if ids[k] == -1:
                    ids[k] = rank
                    queue.append((g[i], g[j]))
        rank += 1
    assert -1 not in ids  # transitive: row 0 meets every orbital
    sizes = [0] * rank
    for y in range(n):
        sizes[ids[y]] += 1
    return OrbitalDecomposition(
        action=action,
        pair_ids=np.array(ids, dtype=np.intc).reshape(n, n),
        rank=rank,
        suborbit_sizes=tuple(sizes),
        pairing=tuple(ids[j * n + i] for (i, j) in first_pairs),
    )


def same_decomposition(got, want):
    """Field-by-field equality of two decompositions, pair_ids as arrays
    (decompositions themselves compare by identity)."""
    for field in dataclasses.fields(OrbitalDecomposition):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if not (np.array_equal(a, b) if field.name == "pair_ids" else a == b):
            return False
    return True


def order_of(p):
    """Order of p by repeated composition."""
    power, k = p, 1
    while power != identity(len(p)):
        power, k = compose(power, p), k + 1
    return k


def closure_size(degree, gens):
    """Order of <gens> by listing every element."""
    ident = identity(degree)
    seen = {ident}
    queue = deque([ident])
    while queue:
        p = queue.popleft()
        for g in gens:
            q = compose(p, g)
            if q not in seen:
                seen.add(q)
                queue.append(q)
    return len(seen)


def test_parse_cycles_examples():
    assert parse_cycles("(1,2,3)(4,5)", 5) == (1, 2, 0, 4, 3)
    assert parse_cycles("", 4) == identity(4)
    assert parse_cycles("  (2, 3) \n (1, 4); ", 4) == (3, 2, 1, 0)
    assert parse_cycles("(01,2)", 5) == (1, 0, 2, 3, 4)


def test_parse_cycles_errors_carry_positions():
    with pytest.raises(CycleParseError) as info:
        parse_cycles("(1,2)(2,3)", 5)
    assert info.value.position == 6
    with pytest.raises(CycleParseError) as info:
        parse_cycles("(1,9)", 5)
    assert info.value.position == 3
    with pytest.raises(CycleParseError):
        parse_cycles("(1,2,,3)", 5)
    with pytest.raises(CycleParseError):
        parse_cycles("(1,2", 5)
    with pytest.raises(CycleParseError):
        parse_cycles("(1 2)", 5)


def test_degree_bound_rejects_huge_points_before_allocating():
    with pytest.raises(CycleParseError) as info:
        parse_generator_file(f"a := (1,{10**9})\n")
    assert "MAX_DEGREE" in str(info.value)
    with pytest.raises(CycleParseError):
        parse_generator_file("a := (1," + "9" * 5000 + ")\n")
    with pytest.raises(CycleParseError):
        parse_generator_file("a := (1,2)\n", degree=10**9)
    with pytest.raises(CycleParseError):
        parse_cycles("(1,2)", 10**9)
    with pytest.raises(CycleParseError):
        parse_cycles("(1," + "9" * 5000 + ")", 5)
    assert parse_generator_file(f"a := (1,{MAX_DEGREE})\n").degree == MAX_DEGREE


@settings(deadline=None)
@given(CYCLE_TEXT, st.integers(0, 40))
def test_parse_cycles_raises_only_cycle_parse_errors(text, degree):
    try:
        p = parse_cycles(text, degree)
    except CycleParseError:
        return
    assert sorted(p) == list(range(degree))


@settings(deadline=None)
@given(GENERATOR_FILES, st.none() | st.integers(0, 40))
def test_parse_generator_file_raises_only_cycle_parse_errors(text, degree):
    try:
        action = parse_generator_file(text, degree)
    except CycleParseError:
        return
    assert action.generators and degree in (None, action.degree)


def parse_outcome(parse, text, degree):
    """The permutation, or the position of the CycleParseError."""
    try:
        return parse(text, degree)
    except CycleParseError as exc:
        return exc.position


@settings(deadline=None, max_examples=500)
@given(CYCLE_TEXT, st.integers(0, 40))
def test_parse_cycles_matches_token_parser(text, degree):
    assert parse_outcome(parse_cycles, text, degree) == parse_outcome(
        token_parse_cycles, text, degree
    )


@pytest.mark.parametrize(
    "text, position",
    [
        ("(1,2,,3)", 5),
        ("(1,2", 4),
        ("(1 2)", 3),
        ("(1,)", 3),
        ("((1,2)", 1),
        ("(1,2);x", 6),
        ("(1,2).3", 6),
        # a bad point comes before a broken cycle's end
        ("(9,2", 1),
        ("(1,1 2)", 3),
        # points are ASCII digits: not the Arabic-Indic digits a regular
        # expression's \d accepts
        ("(١,٢)", 1),
        ("(٠١,2)", 1),
    ],
)
def test_parse_cycles_error_positions(text, position):
    with pytest.raises(CycleParseError) as info:
        parse_cycles(text, 5)
    assert info.value.position == position


def test_long_unterminated_cycle_is_rejected_at_its_end():
    text = "(1" + " " * 300_000
    with pytest.raises(CycleParseError) as info:
        parse_cycles(text, 5)
    assert info.value.position == len(text)


def test_generator_file_rejects_text_before_the_first_assignment():
    with pytest.raises(CycleParseError) as info:
        parse_generator_file("a = (1,2)\nb := (3,4)\n")
    assert info.value.position == 0
    with pytest.raises(CycleParseError) as info:
        parse_generator_file(" \n  ; \nb := (3,4)\n")
    assert info.value.position == 4
    assert parse_generator_file(" \n\nb := (3,4)\n").generators == ((0, 1, 3, 2),)


def test_generator_file_errors_carry_file_offsets():
    for text, position in [
        ("a := (1,2)\nb = (3,4)\n", 11),
        ("a := (1,2)\nb := (3,3)\n", 19),
        ("a := (1,2)\nb := (3,4\n", 21),
        ("a := (1,2\nb := (3,4)\n", 10),
    ]:
        with pytest.raises(CycleParseError) as info:
            parse_generator_file(text, degree=5)
        assert info.value.position == position
    # The degree bound belongs to no place in the text.
    for text, degree in [("a := (1,2)\n", 10**9), (f"a := (1,{MAX_DEGREE + 1})\n", None)]:
        with pytest.raises(CycleParseError, match="MAX_DEGREE") as info:
            parse_generator_file(text, degree=degree)
        assert info.value.position == 0


def test_an_error_in_the_third_body_carries_its_file_offset():
    # one array pass reads every body; an error's position is in the file
    head = "a := (1,2)(3,4)\nb := (2,3);\nc := "
    for body, at, message in [
        ("(4,5,4)\n", 5, "point 4 repeated"),
        ("(1,2)(6)\n", 6, "point 6 outside 1..5"),
        ("(1,2)(3 4)\n", 8, "malformed cycle: found '4'"),
        ("(1,2,\n", 6, "malformed cycle: found the end of the text"),
        ("(1,2) x\n", 6, "unexpected 'x' outside a cycle"),
    ]:
        with pytest.raises(CycleParseError) as info:
            parse_generator_file(head + body, degree=5)
        assert (info.value.message, info.value.position) == (message, len(head) + at)


def test_the_generator_count_is_bounded_before_any_body_is_read(monkeypatch):
    # 20,000 empty assignments at degree 486 would be 9.7 million points;
    # the first assignment past MAX_GENERATOR_POINTS is named by its offset
    allowed = permaction.MAX_GENERATOR_POINTS // 486
    assert allowed == 2157
    real = permaction._parse_bodies
    monkeypatch.setattr(permaction, "_parse_bodies", None)  # never reached
    with pytest.raises(CycleParseError) as info:
        parse_generator_file("a:=\n" * 20000, degree=486)
    message = f"more than {allowed} generators of degree 486 (MAX_GENERATOR_POINTS)"
    assert (info.value.message, info.value.position) == (message, 4 * allowed)
    monkeypatch.setattr(permaction, "_parse_bodies", real)
    # the degree bound is checked first
    with pytest.raises(CycleParseError, match="MAX_DEGREE") as info:
        parse_generator_file("a:=\n" * 20000, degree=10**9)
    assert info.value.position == 0
    assert len(parse_generator_file("a:=\n" * allowed, degree=486).generators) == allowed
    # exactly at the bound parses, one past it is refused at the name
    monkeypatch.setattr(permaction, "MAX_GENERATOR_POINTS", 10)
    assert len(parse_generator_file("a:=\n  b := (1,5)\n", degree=5).generators) == 2
    with pytest.raises(CycleParseError) as info:
        parse_generator_file("a:=\nb:=\n\n  c := (1,5)\n", degree=5)
    assert info.value.position == 11
    assert parse_generator_file("a:=\n" * 20000, degree=0).generators == ((),) * 20000


def read_bodies_one_at_a_time(text, degree):
    """The generators of a file that starts with an assignment, each body
    parsed on its own, or the first error's message and file offset."""
    heads = list(re.finditer(r"^\s*\w+\s*:=", text, re.MULTILINE))
    ends = [h.start() for h in heads[1:]] + [len(text)]
    generators = []
    for head, end in zip(heads, ends):
        try:
            generators.append(parse_cycles(text[head.end() : end], degree))
        except CycleParseError as exc:
            return exc.message, head.end() + exc.position
    return tuple(generators)


@settings(deadline=None, max_examples=300)
@given(GENERATOR_FILES, st.integers(0, 40))
def test_one_pass_over_a_file_reads_each_body_as_it_reads_it_alone(text, degree):
    # no point, repeat or token leaks from one body into the next
    if not re.match(r"\s*\w+\s*:=", text):
        text = "g := " + text
    try:
        outcome = parse_generator_file(text, degree).generators
    except CycleParseError as exc:
        outcome = exc.message, exc.position
    assert outcome == read_bodies_one_at_a_time(text, degree)


def test_a_negative_degree_puts_every_point_outside():
    # bodies are keyed apart even when degree + 1 is not positive
    with pytest.raises(CycleParseError) as info:
        parse_generator_file("a := ()\nb := (1,2)\n", degree=-3)
    assert (info.value.message, info.value.position) == ("point 1 outside 1..-3", 14)


@pytest.mark.parametrize(
    "generator", [(0, 0, 2), (0, 1, 3), (0, 1, -1), (0, 1.5, 2), (0, 1), (0, 1, 2, 3)]
)
def test_group_action_rejects_what_is_not_a_permutation(generator):
    with pytest.raises(ValueError):
        GroupAction(3, ((1, 2, 0), generator))
    assert GroupAction(3, ((1, 2, 0), (0, 2, 1))).degree == 3


def test_compose_inverse_order():
    rng = random.Random(13)
    for _ in range(50):
        n = rng.randrange(1, 10)
        p = tuple(rng.sample(range(n), n))
        assert compose(p, inverse(p)) == identity(n)
        assert compose(inverse(p), p) == identity(n)
    assert order_of(parse_cycles("(1,2,3)(4,5)", 5)) == 6
    assert order_of(identity(7)) == 1


def test_orbit_examples():
    action = GroupAction(degree=5, generators=(parse_cycles("(1,2,3)", 5),))
    assert orbit(action, 3) == {3}
    assert orbit(action, 0) == {0, 1, 2}


def test_group_order_small():
    assert group_order(GroupAction(3, (parse_cycles("(1,2,3)", 3),))) == 3
    assert group_order(symmetric_action(3)) == 6
    assert group_order(symmetric_action(6)) == 720
    assert group_order(klein_four_regular_action()) == 4


def test_bundled_group_order_agrees_with_sympy(bundled_action):
    # an independent oracle: sympy's own Schreier-Sims, not this package's
    # chain or tests/oracles.py:sequential_chain, which is the same algorithm
    combinatorics = pytest.importorskip("sympy.combinatorics")
    gens = [combinatorics.Permutation(list(g)) for g in bundled_action.generators]
    assert combinatorics.PermutationGroup(gens).order() == 349920


def test_group_order_mathieu_11():
    # sporadic group with a known order, a sharp stabilizer-chain oracle
    assert group_order(mathieu_11_action()) == 7920


def test_group_order_mathieu_12():
    a = parse_cycles("(1,2,3,4,5,6,7,8,9,10,11)", 12)
    b = parse_cycles("(3,7,11,8)(4,10,5,6)", 12)
    c = parse_cycles("(1,12)(2,11)(3,6)(4,8)(5,9)(7,10)", 12)
    assert group_order(GroupAction(12, (a, b, c))) == 95040


@pytest.mark.parametrize("n", range(3, 8))
def test_group_order_alternating_and_symmetric(n):
    assert group_order(alternating_action(n)) == math.factorial(n) // 2
    assert group_order(symmetric_action(n)) == math.factorial(n)


def test_chain_starts_at_point_0_when_first_generator_fixes_it():
    # the first generator fixes point 0, so its least moved point is 1
    action = GroupAction(
        6, (parse_cycles("(2,3,4,5,6)", 6), parse_cycles("(1,2)", 6))
    )
    chain = StabilizerChain(action)
    assert chain.base()[0] == 0
    assert chain.order() == 720
    assert same_decomposition(orbitals(action), orbitals_by_pair_bfs(action))


def test_chain_on_group_fixing_point_0():
    # level 0 has orbit {0}, a factor of 1 in the order
    action = GroupAction(5, (parse_cycles("(2,3,4)", 5), parse_cycles("(4,5)", 5)))
    chain = StabilizerChain(action)
    assert chain.base()[0] == 0
    assert chain.order() == 24
    assert chain.contains(parse_cycles("(2,5)", 5))
    assert not chain.contains(parse_cycles("(1,2)", 5))


@st.composite
def small_groups(draw):
    n = draw(st.integers(1, 7))
    perms = st.permutations(list(range(n))).map(tuple)
    return GroupAction(n, tuple(draw(st.lists(perms, max_size=3))))


@settings(max_examples=60, deadline=None)
@given(small_groups())
def test_group_order_matches_brute_force_closure(action):
    assert group_order(action) == closure_size(action.degree, action.generators)


def test_contains_random_products_and_rejects_odd_permutations():
    rng = random.Random(5)
    for n in (5, 6, 7):
        action = alternating_action(n)
        chain = StabilizerChain(action)
        for _ in range(20):
            p = identity(n)
            for _ in range(rng.randrange(1, 12)):
                p = compose(p, rng.choice(action.generators))
            assert chain.contains(p)
        assert not chain.contains(parse_cycles("(1,2)", n))
        assert not chain.contains(parse_cycles(f"(1,{n})", n))
    with pytest.raises(ValueError):
        chain.contains(identity(3))


def test_sifted_count_repeats(bundled_action):
    first = StabilizerChain(bundled_action)
    again = StabilizerChain(bundled_action)
    assert first.sifted == again.sifted > 0
    assert first.base() == again.base()


def relabelled(action, seed):
    """action conjugated by a seeded random permutation of its points."""
    sigma = list(range(action.degree))
    random.Random(seed).shuffle(sigma)
    return GroupAction(
        action.degree,
        tuple(
            compose(compose(inverse(tuple(sigma)), g), tuple(sigma))
            for g in action.generators
        ),
    )


def assert_same_chain(chain, oracle):
    """Level by level: base, strong generators, orbit order, and every
    transversal and inverse row.  The chain keeps only the inverse rows once
    it is complete; the transversal rows are their inverses."""
    assert chain.base() == tuple(level.base for level in oracle.levels)
    for level, want in zip(chain.levels, oracle.levels, strict=True):
        assert level.gens.tolist() == [s.tolist() for s in want.gens]
        assert level.orbit.tolist() == want.orbit
        assert not hasattr(level, "transversal")
        transversal = np.argsort(level.inverse, axis=1)
        assert transversal.tolist() == [want.transversal[x].tolist() for x in want.orbit]
        assert level.inverse.tolist() == [want.inverse[x].tolist() for x in want.orbit]
    assert chain.order() == math.prod(len(level.orbit) for level in oracle.levels)


def test_batched_chain_matches_sequential_sifting(bundled_action):
    actions = [bundled_action] + [relabelled(bundled_action, seed) for seed in range(10)]
    for action in actions:
        assert_same_chain(StabilizerChain(action), sequential_chain(action))


@settings(max_examples=60, deadline=None)
@given(small_groups())
def test_batched_chain_matches_sequential_sifting_on_small_groups(action):
    assert_same_chain(StabilizerChain(action), sequential_chain(action))


@pytest.mark.parametrize("rows", [1, 5, 67, 486])
def test_chain_does_not_depend_on_the_block_size(rows, bundled_action, monkeypatch):
    monkeypatch.setattr(permaction, "_SIFT_BLOCK_BYTES", rows * 486 * 2)
    action = relabelled(bundled_action, 7)
    chain, oracle = StabilizerChain(action), sequential_chain(action)
    assert chain._block == rows
    assert_same_chain(chain, oracle)
    if rows == 1:  # one row at a time is the sequential sift
        assert chain.sifted == oracle.sifted


def test_chain_memory_on_bundled_action(bundled_action):
    tracemalloc.start()
    try:
        chain = StabilizerChain(bundled_action)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert chain.order() == 349920
    # the inverse tables: 486 + 180 + 4 rows of 486 uint16 points, 0.62 MiB
    assert retained <= 0.7 * 2**20
    assert peak <= 1.5 * 2**20


def test_a_finished_chain_reports_its_bytes(bundled_action):
    chain = StabilizerChain(bundled_action)
    arrays = [
        array
        for level in chain.levels
        for array in (level.gens, level.orbit, level.index, level.inverse, level.done)
    ]
    assert sum(level.nbytes for level in chain.levels) == sum(a.nbytes for a in arrays)
    chain._reserve(0)  # the budget check reads the same bytes


def symmetric_on_first_points(n, degree):
    """S_n on points 0..n-1 of degree points, the rest fixed."""
    cycle = "(" + ",".join(map(str, range(1, n + 1))) + ")"
    return GroupAction(
        degree, (parse_cycles("(1,2)", degree), parse_cycles(cycle, degree))
    )


def rotations(k, degree):
    """The first k powers of a degree-cycle: a regular cyclic group with k
    generators."""
    return GroupAction(
        degree,
        tuple(tuple((x + p) % degree for x in range(degree)) for p in range(1, k + 1)),
    )


def regular_elementary_abelian(m):
    """(Z_2)^m acting regularly on its own 2^m elements, by m generators."""
    return GroupAction(
        2**m, tuple(tuple(x ^ (1 << i) for x in range(2**m)) for i in range(m))
    )


@pytest.mark.parametrize(
    "action, order, budget, where",
    [
        # the tables of many levels
        (symmetric_on_first_points(20, 486), math.factorial(20), 3 * 2**18, "_add_generator"),
        # the table of level 0
        (rotations(1, 486), 486, 2**19, "_add_generator"),
        # the pending Schreier generators of level 0 once the sixth
        # generator doubles its orbit to 64 points: 6 * 32 rows of two intp
        # indices, 1280 bytes over every earlier reservation, beside a
        # 640 KiB sift block
        (regular_elementary_abelian(6), 64, 5 * 2**17 + 2**13, "_complete_level"),
    ],
    ids=["S20", "C486", "Z2^6_pending_rows"],
)
def test_chain_budget_stops_before_it_allocates(action, order, budget, where, monkeypatch):
    assert StabilizerChain(action).order() == order
    monkeypatch.setattr(permaction, "MAX_CHAIN_BYTES", budget)
    tracemalloc.start()
    try:
        with pytest.raises(ChainBudgetError) as info:
            StabilizerChain(action)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert isinstance(info.value, ValueError)
    assert str(info.value).endswith(f"over MAX_CHAIN_BYTES={budget}")
    # the reservation that refused: the one before a table grows, or the
    # one before a level's pending rows are listed
    assert info.traceback[-2].name == where
    assert peak <= budget
    # a smaller group under the same budget is built in full
    assert StabilizerChain(symmetric_on_first_points(8, 486)).order() == math.factorial(8)


def test_chain_sift_bound_stops_a_long_build(monkeypatch):
    # S_30 at degree 486 sifts 6721 rows in full; each block of Schreier
    # generators is counted before it is sifted, so the chain stops within
    # one block of the bound
    action, bound = symmetric_on_first_points(30, 486), 2048
    monkeypatch.setattr(permaction, "MAX_SIFTED_ROWS", bound)
    with pytest.raises(ChainBudgetError) as info:
        StabilizerChain(action)
    assert str(info.value).endswith(f"over MAX_SIFTED_ROWS={bound}")
    sifted = int(re.search(r"sifted (\d+) rows", str(info.value)).group(1))
    # a smaller group under the same bound is built in full
    small = StabilizerChain(symmetric_on_first_points(8, 486))
    assert small.order() == math.factorial(8)
    assert bound < sifted <= bound + small._block


def test_redundant_rotations_fit_the_budget(monkeypatch):
    # rotations 2..100 lie in the group of the first, so they are never
    # strong generators and their 99 * 486 Schreier generators never listed
    action, budget = rotations(100, 486), 5 * 2**18
    monkeypatch.setattr(permaction, "MAX_CHAIN_BYTES", budget)
    tracemalloc.start()
    try:
        chain = StabilizerChain(action)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert chain.order() == 486
    assert len(chain.levels[0].gens) == 1
    assert chain.sifted == 100 + 486 - 485  # one per input, one per non-tree row
    assert peak <= budget


def test_bundled_chain_skips_the_generator_it_already_holds(bundled_action):
    # the third bundled generator lies in the group of the first two
    chain = StabilizerChain(bundled_action)
    assert len(chain.levels[0].gens) == 2
    assert chain.levels[0].gens.tolist() == [list(g) for g in bundled_action.generators[:2]]
    assert chain.sifted < 1646  # all three inputs at level 0 sifted 1646 rows


def test_a_member_as_an_extra_generator_changes_nothing(bundled_action):
    a, b = bundled_action.generators[:2]
    chain = StabilizerChain(bundled_action)
    want = orbitals(bundled_action).pair_ids
    for extra in (compose(a, b), a, identity(bundled_action.degree)):
        action = GroupAction(bundled_action.degree, bundled_action.generators + (extra,))
        assert len(action.chain.levels[0].gens) == len(chain.levels[0].gens)
        assert action.chain.order() == chain.order() == 349920
        assert np.array_equal(orbitals(action).pair_ids, want)


# sha256 of pair_ids as little-endian int32, recorded from a chain whose
# level 0 held all three input generators: the suborbits are numbered by
# their least points, whichever strong generators the chain holds
PAIR_IDS_SHA256 = {
    "bundled": "6c35248b4db0c71ca73168385c5cfcfda39c897d3567d53190af7f8b035aea8c",
    "relabelled": "b90fe609e10dc41d4727b74e053d8d09efc8940638ccf2d9e7da03a5321464ae",
}


@pytest.mark.parametrize("which", sorted(PAIR_IDS_SHA256))
def test_pair_ids_do_not_depend_on_the_strong_generators(which, bundled_action, relabelled_action):
    action = {"bundled": bundled_action, "relabelled": relabelled_action}[which]
    digest = hashlib.sha256(orbitals(action).pair_ids.astype("<i4").tobytes()).hexdigest()
    assert digest == PAIR_IDS_SHA256[which]


def test_group_order_and_orbitals_share_one_chain(relabelled_action, monkeypatch):
    built = []
    real = permaction.StabilizerChain

    def counting(action):
        built.append(action)
        return real(action)

    monkeypatch.setattr(permaction, "StabilizerChain", counting)
    action = parse_generator_file(_bundled_generators_text(), degree=486)
    assert group_order(action) == 349920
    assert orbitals(action).rank == 9
    assert len(built) == 1 and built[0] is action
    # no cache keyed by value: an equal but distinct action builds its own
    twin = GroupAction(action.degree, action.generators)
    assert twin == action and twin is not action
    assert orbitals(twin).rank == 9
    assert group_order(twin) == 349920
    assert len(built) == 2 and built[1] is twin
    relabelled = GroupAction(relabelled_action.degree, relabelled_action.generators)
    assert group_order(relabelled) == 349920
    assert orbitals(relabelled).rank == 9
    assert len(built) == 3 and built[2] is relabelled


def test_format_parse_round_trip():
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randrange(1, 30)
        p = tuple(rng.sample(range(n), n))
        assert parse_cycles(format_cycles(p), n) == p


def test_stabilizer_chain_membership():
    chain = StabilizerChain(symmetric_action(4))
    assert chain.order() == 24
    assert chain.contains(parse_cycles("(1,2)(3,4)", 4))
    bigger = parse_cycles("(1,2,3,4,5)", 5)
    alternating = GroupAction(5, (parse_cycles("(1,2,3)", 5), bigger))
    assert group_order(alternating) == 60
    assert not StabilizerChain(alternating).contains(parse_cycles("(1,2)", 5))


def test_bundled_generator_file(bundled_action):
    assert bundled_action.degree == 486
    assert len(bundled_action.generators) == 3
    a = bundled_action.generators[0]
    assert a[0] == 318  # 1-based: a maps 1 to 319
    assert orbit(bundled_action, 0) == set(range(486))


def test_bundled_generator_orders_match_cycle_type():
    # oracle: scan cycle lengths straight out of the data file text
    text = _bundled_generators_text()
    bodies = re.split(r"[abc] :=", text)[1:]
    action = parse_generator_file(text, degree=486)
    for body, gen in zip(bodies, action.generators):
        lengths = [
            len(chunk.split(",")) for chunk in re.findall(r"\(([^()]*)\)", body)
        ]
        assert order_of(gen) == math.lcm(*lengths)


def test_bundled_group_order(bundled_action):
    assert group_order(bundled_action) == 349920


def test_group_order_orbit_stabilizer_properties(bundled_action):
    order = group_order(bundled_action)
    assert order % 486 == 0  # transitive: orbit size divides the order
    assert math.factorial(486) % order == 0


def test_orbitals_small_actions():
    decomp = orbitals(cyclic_action(3))
    assert decomp.rank == 3
    assert sorted(decomp.suborbit_sizes) == [1, 1, 1]
    non_diag = range(1, decomp.rank)
    assert decomp.pairing[non_diag[0]] == non_diag[1]

    assert orbitals(symmetric_action(5)).rank == 2  # 2-transitive

    with pytest.raises(GraphStructureError):
        orbitals(GroupAction(4, (parse_cycles("(1,2)", 4),)))


@pytest.mark.parametrize(
    "action",
    [
        cyclic_action(7),
        symmetric_action(5),
        klein_four_regular_action(),
        mathieu_11_action(),
    ],
    ids=["cyclic", "symmetric", "klein_four", "mathieu_11"],
)
def test_orbitals_match_pair_bfs(action):
    assert same_decomposition(orbitals(action), orbitals_by_pair_bfs(action))


def test_orbitals_match_pair_bfs_on_relabelled_bundled_action(relabelled_action):
    got = orbitals(relabelled_action)
    want = orbitals_by_pair_bfs(relabelled_action)
    assert np.array_equal(got.pair_ids, want.pair_ids), "pair_ids"
    for field in ("rank", "suborbit_sizes", "pairing"):
        assert getattr(got, field) == getattr(want, field), field


def test_bundled_orbitals(decomp, relabelled_action):
    assert decomp.rank == 9
    assert sorted(decomp.suborbit_sizes) == [1, 2, 20, 36, 40, 45, 72, 90, 180]
    assert sum(decomp.suborbit_sizes) == 486
    # id 0 is the diagonal, on the bundled labelling and off it
    for d in (decomp, orbitals(relabelled_action)):
        assert d.suborbit_sizes[0] == 1
        assert (d.pair_ids.diagonal() == 0).all()
        assert np.flatnonzero(d.pair_ids[0] == 0).tolist() == [0]
    # every orbital is self-paired here
    assert decomp.pairing == tuple(range(9))
    # the pair ids really partition all ordered pairs
    assert decomp.pair_ids.size == 486 * 486
    assert Counter(decomp.pair_ids.ravel().tolist())[0] == 486
    sizes_from_pairs = Counter(decomp.pair_ids.ravel().tolist())
    for k in range(9):
        assert sizes_from_pairs[k] == 486 * decomp.suborbit_sizes[k]


def test_pair_table_is_one_read_only_array(decomp):
    assert isinstance(decomp.pair_ids, np.ndarray)
    assert decomp.pair_ids.shape == (486, 486)
    assert decomp.pair_ids.dtype == np.intc
    with pytest.raises(ValueError):
        decomp.pair_ids[0, 0] = decomp.pair_ids[0, 1]


def test_edge_orbit_graph_cycle():
    action = cyclic_action(6)
    g = edge_orbit_graph(action, [(0, 1)])
    assert g == cycle_graph(6)


def test_edge_orbit_graph_invariance_random(bundled_action):
    rng = random.Random(21)
    for _ in range(3):
        seeds = [(rng.randrange(486), rng.randrange(486)) for _ in range(2)]
        seeds = [(u, v) for u, v in seeds if u != v] or [(0, 1)]
        g = edge_orbit_graph(bundled_action, seeds)
        assert verify_invariance(bundled_action, g)


def test_edge_orbit_graph_from_45_suborbit(decomp, bundled_action):
    by_size = decomp.id_by_suborbit_size()
    seed = decomp.pair_ids[0].tolist().index(by_size[45])
    g = edge_orbit_graph(bundled_action, [(0, seed)])
    arr = is_distance_regular(g)
    assert arr is not None and str(arr) == "{45,44,36,5; 1,9,40,45}"


def test_edge_orbit_graph_from_2_suborbit_is_triangles(decomp, bundled_action):
    by_size = decomp.id_by_suborbit_size()
    seed = decomp.pair_ids[0].tolist().index(by_size[2])
    g = edge_orbit_graph(bundled_action, [(0, seed)])
    assert all(np.count_nonzero(g.adjacency_matrix[v]) == 2 for v in range(g.n))
    # 162 disjoint triangles: every vertex's neighbors are adjacent
    for v in range(g.n):
        x, y = g.neighbors(v)
        assert g.has_edge(x, y)
    assert g.edge_count == 486


@pytest.mark.parametrize("fixture", ["bundled_action", "relabelled_action"])
def test_orbital_union_graph_matches_edge_orbit_graph(fixture, request):
    action = request.getfixturevalue(fixture)
    decomp = orbitals(action)
    for k in range(1, decomp.rank):
        y = decomp.pair_ids[0].tolist().index(k)
        union = orbital_union_graph(decomp, {k, decomp.pairing[k]})
        assert union == edge_orbit_graph(action, [(0, y)])


@pytest.mark.parametrize("fixture", ["bundled_action", "relabelled_action"])
def test_orbital_union_graph_matches_the_gather_on_every_union(fixture, request):
    # all 8 nontrivial orbitals are self-paired, so each of the 255
    # nonempty selections is a graph
    decomp = orbitals(request.getfixturevalue(fixture))
    ids = range(1, decomp.rank)
    assert len(ids) == 8 and all(decomp.pairing[k] == k for k in ids)
    unions = 0
    for r in range(1, len(ids) + 1):
        for chosen in itertools.combinations(ids, r):
            union = orbital_union_graph(decomp, chosen)
            assert np.array_equal(union.adjacency_matrix, gathered_orbital_union(decomp, chosen))
            unions += 1
    assert unions == 255


def test_orbital_union_graph_validation(decomp):
    with pytest.raises(ValueError):
        orbital_union_graph(decomp, set())
    with pytest.raises(ValueError):
        orbital_union_graph(decomp, {0})
    d2 = orbitals(cyclic_action(5))
    one_directed = range(1, d2.rank)[0]
    with pytest.raises(ValueError) as info:
        orbital_union_graph(d2, {one_directed})
    assert str(one_directed) in str(info.value)


def test_orbital_union_complete_graphs(decomp):
    by_size = decomp.id_by_suborbit_size()
    k486 = orbital_union_graph(decomp, set(range(1, decomp.rank)))
    assert k486 == complete_graph(486)
    arr = is_distance_regular(k486)
    assert str(arr) == "{485; 1}"

    flats = orbital_union_graph(decomp, {by_size[s] for s in (36, 45, 72, 90)})
    arr = is_distance_regular(flats)
    assert str(arr) == "{243,242; 1,243}"

    upsilon = orbital_union_graph(decomp, {by_size[20], by_size[36]})
    arr = is_distance_regular(upsilon)
    assert str(arr) == "{56,45,16,1; 1,8,45,56}"


def test_scan_cyclic_5():
    results = scan_orbital_unions(orbitals(cyclic_action(5)))
    arrays = {str(r.array) for r in results}
    assert "{2,1; 1,1}" in arrays  # the 5-cycle
    assert "{4; 1}" in arrays  # K5 from both pairs together
    assert len(results) == 3


def test_scan_klein_four():
    results = scan_orbital_unions(orbitals(klein_four_regular_action()))
    # singleton orbitals are perfect matchings (disconnected), so the scan
    # reports the three 4-cycles and K4
    arrays = sorted(str(r.array) for r in results)
    assert arrays == ["{2,1; 1,2}", "{2,1; 1,2}", "{2,1; 1,2}", "{3; 1}"]


def test_scan_bundled_action_matches_generic_checker(decomp):
    results = scan_orbital_unions(decomp)
    arrays = {str(r.array) for r in results}
    assert arrays == {
        "{485; 1}",
        "{243,242; 1,243}",
        "{483,2; 1,483}",
        "{45,44,36,5; 1,9,40,45}",
        "{56,45,16,1; 1,8,45,56}",
        "{81,80,54,1; 1,27,80,81}",
    }
    assert len(results) == 6
    # dual route: each reported union re-verified with the all-pairs checker
    for result in results:
        g = orbital_union_graph(decomp, result.orbital_ids)
        arr = is_distance_regular(g)
        assert arr is not None and arr == result.array


def test_scan_negative_sample_agrees_with_generic_checker(decomp):
    by_size = decomp.id_by_suborbit_size()
    reported = {
        frozenset(r.orbital_ids) for r in scan_orbital_unions(decomp)
    }
    samples = [
        {by_size[45], by_size[72]},
        {by_size[20], by_size[40]},
        {by_size[2], by_size[36]},
        {by_size[90], by_size[180]},
    ]
    for sample in samples:
        assert frozenset(sample) not in reported
        g = orbital_union_graph(decomp, sample)
        try:
            assert is_distance_regular(g) is None
        except GraphStructureError:
            pass  # disconnected is also a valid reason to be unreported


def test_scan_invariant_under_generator_permutation_and_relabelling(decomp):
    base = {(r.suborbit_sizes, str(r.array)) for r in scan_orbital_unions(decomp)}

    action = decomp.action
    permuted = GroupAction(486, tuple(reversed(action.generators)))
    got = {
        (r.suborbit_sizes, str(r.array))
        for r in scan_orbital_unions(orbitals(permuted))
    }
    assert got == base

    relabel = tuple(reversed(range(486)))
    conjugated = GroupAction(
        486,
        tuple(
            compose(compose(inverse(relabel), g), relabel)
            for g in action.generators
        ),
    )
    got = {
        (r.suborbit_sizes, str(r.array))
        for r in scan_orbital_unions(orbitals(conjugated))
    }
    assert got == base


def test_collapsed_matrix_small():
    action = cyclic_action(6)
    decomp6 = orbitals(action)
    g = cycle_graph(6)
    b = collapsed_matrix(g, decomp6)
    assert all(sum(row) == 2 for row in b)


def test_collapsed_matrix_rejects_non_invariant_graph(decomp):
    single_edge = Graph(486, [(0, 1)])
    with pytest.raises(ValueError):
        collapsed_matrix(single_edge, decomp)


def test_collapsed_matrices_on_bundled_graphs(decomp, orbital_models):
    sizes = decomp.suborbit_sizes
    by_size = decomp.id_by_suborbit_size()

    k486 = orbital_union_graph(decomp, set(range(1, decomp.rank)))
    b = collapsed_matrix(k486, decomp)
    assert all(sum(row) == 485 for row in b)

    delta = orbital_models["delta"].graph
    b = collapsed_matrix(delta, decomp)
    assert all(sum(row) == 45 for row in b)
    assert b[0][by_size[45]] == 45

    sigma = orbital_models["sigma"].graph
    b = collapsed_matrix(sigma, decomp)
    assert all(sum(row) == 81 for row in b)

    # double counting: B[i][j] |suborbit i| = B[j][i] |suborbit j|
    for graph in (k486, delta, sigma, orbital_models["upsilon"].graph):
        b = collapsed_matrix(graph, decomp)
        for i in range(decomp.rank):
            for j in range(decomp.rank):
                assert b[i][j] * sizes[i] == b[j][i] * sizes[j]


@pytest.mark.parametrize("seed", [None, 0, 1, 2])
def test_collapsed_matrix_matches_the_counts_at_every_vertex(bundled_action, seed):
    # collapsed_matrix reads one representative per suborbit; counting the
    # neighbours of every vertex checks that the counts are constant on
    # each suborbit and equal to those rows
    action = bundled_action if seed is None else relabel_action(bundled_action, seed)[0]
    decomp = orbitals(action)
    suborbit = decomp.pair_ids[0].tolist()
    results = scan_orbital_unions(decomp)
    assert len(results) == 6
    for result in results:
        graph = orbital_union_graph(decomp, result.orbital_ids)
        b = collapsed_matrix(graph, decomp)
        counts = neighbour_counts(graph, suborbit, decomp.rank)
        assert all(counts[v] == list(b[suborbit[v]]) for v in range(graph.n))
    empty = collapsed_matrix(Graph(action.degree), decomp)
    assert empty == ((0,) * decomp.rank,) * decomp.rank


def test_verify_invariance(decomp, bundled_action, orbital_models):
    assert verify_invariance(bundled_action, orbital_models["delta"].graph)
    assert verify_invariance(bundled_action, complete_graph(486))
    assert not verify_invariance(bundled_action, Graph(486, [(0, 1)]))


def test_scan_refuses_large_rank():
    # a regular cyclic action has rank equal to its degree
    decomp = orbitals(cyclic_action(25))
    assert decomp.rank == 25
    with pytest.raises(GraphStructureError):
        scan_orbital_unions(decomp)


def random_generators(rng, n, k):
    """k permutations of 0..n-1, each moving a random subset of the points,
    so that the generated group has orbits of many sizes."""
    gens = []
    for _ in range(k):
        moved = rng.sample(range(n), rng.randrange(n + 1))
        images = moved[:]
        rng.shuffle(images)
        g = list(range(n))
        for x, y in zip(moved, images):
            g[x] = y
        gens.append(tuple(g))
    return tuple(gens)


def test_orbit_labels_match_set_bfs():
    rng = random.Random(15)
    actions = [
        GroupAction(1, ()),
        GroupAction(1, ((0,),)),
        GroupAction(9, ()),
        cyclic_action(486),
        dihedral_action(101),
    ]
    for _ in range(200):
        n = rng.randrange(1, 40)
        actions.append(GroupAction(n, random_generators(rng, n, rng.randrange(4))))
    for action in actions:
        labels = permaction.orbit_labels(action.generators, action.degree)
        n = action.degree
        assert labels.tolist() == [min(orbit(action, x)) for x in range(n)]
        assert (not labels.any()) == (len(orbit(action, 0)) == n)


def assert_scan_matches_per_union_oracle(decomp):
    """For every transpose-closed union of nontrivial orbitals, in
    ascending-mask order, the batched verdict (an array, not
    distance-regular, or disconnected) equals quotient_intersection_array's,
    and the scan reports exactly the unions with an array, in that order."""
    units, seen = [], set()
    for k in range(1, decomp.rank):
        if k not in seen:
            units.append({k, decomp.pairing[k]})
            seen |= units[-1]
    unions = [
        sorted(set().union(*(u for i, u in enumerate(units) if mask >> i & 1)))
        for mask in range(1, 2 ** len(units))
    ]
    collapsed = permaction._orbital_collapsed_rows(decomp)
    rank = decomp.rank
    quotients = np.array(
        [collapsed[union].sum(0) for union in unions], dtype=np.int64
    ).reshape(-1, rank, rank)
    dist, counts, regular = permaction._distance_partitions(quotients)
    expected = []
    for i, union in enumerate(unions):
        want = quotient_intersection_array(quotients[i].tolist(), 0)
        if (dist[i] < 0).any():
            got = "disconnected"
        elif regular[i]:
            got = permaction._intersection_array(dist[i], counts[i])
        else:
            got = None
        assert got == want, union
        if isinstance(want, IntersectionArray):
            expected.append((frozenset(union), want))
    assert [(r.orbital_ids, r.array) for r in scan_orbital_unions(decomp)] == expected


@pytest.mark.parametrize(
    "action",
    [cyclic_action(n) for n in (3, 8, 12)]
    + [dihedral_action(n) for n in (5, 10, 17)]
    + [petersen_action(), regular_elementary_abelian_action(3)],
    ids=lambda a: f"degree{a.degree}x{len(a.generators)}",
)
def test_scan_matches_per_union_oracle(action):
    assert_scan_matches_per_union_oracle(orbitals(action))


def test_scan_matches_per_union_oracle_on_bundled_actions(decomp, bundled_action):
    assert_scan_matches_per_union_oracle(decomp)
    assert_scan_matches_per_union_oracle(orbitals(relabelled(bundled_action, 7)))


@settings(max_examples=60, deadline=None)
@given(small_groups().filter(lambda a: len(orbit(a, 0)) == a.degree))
def test_scan_matches_per_union_oracle_on_small_transitive_groups(action):
    assert_scan_matches_per_union_oracle(orbitals(action))


def test_distance_partitions_reject_a_neighbour_that_skips_a_layer():
    # suborbit 2 lies at distance 2 but counts a neighbour at distance 0;
    # its counts alone would match a path's
    quotient = [[0, 1, 0], [1, 0, 1], [1, 1, 0]]
    dist, _, regular = permaction._distance_partitions(np.array([quotient]))
    assert dist.tolist() == [[0, 1, 2]]
    assert not regular[0]
    assert quotient_intersection_array(quotient, 0) is None


def test_scan_refuses_rank_17_before_allocating():
    decomp = orbitals(cyclic_action(17))
    assert decomp.rank == permaction.MAX_SCAN_RANK + 1
    tracemalloc.start()
    try:
        with pytest.raises(GraphStructureError):
            scan_orbital_unions(decomp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10


def test_scan_of_regular_2_4_action_is_bounded_in_memory():
    # rank 16 with 15 self-paired units: 32767 unions, scanned in blocks
    decomp = orbitals(regular_elementary_abelian_action(4))
    assert decomp.rank == 16
    tracemalloc.start()
    try:
        results = scan_orbital_unions(decomp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(results) == 1922
    assert peak <= 64 << 20
