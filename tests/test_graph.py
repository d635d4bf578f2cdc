import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golay486 import graph
from golay486.constructions import build_std_ag
from golay486.graph import (
    Graph,
    Graph6ParseError,
    GraphStructureError,
    IntersectionArray,
    IsomorphismBudgetError,
    antipodal_fold,
    are_isomorphic,
    bfs_distances,
    bipartite_halves,
    bipartition,
    complement,
    graph6_decode,
    graph6_encode,
    induced_subgraph,
    is_distance_regular,
    srg_parameters,
    verify_bijection,
)
from oracles import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    oracle_intersection_array,
    path_graph,
    petersen_graph,
)


def relabel(g, mapping):
    return Graph(g.n, [(mapping[u], mapping[v]) for u, v in g.edges()])


def test_graph_rejects_loops_and_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])


def test_bfs_distances():
    assert bfs_distances(path_graph(3), 0) == [0, 1, 2]
    assert bfs_distances(complete_graph(4), 2) == [1, 1, 0, 1]
    two = disjoint_union(complete_graph(2), complete_graph(2))
    assert bfs_distances(two, 0) == [0, 1, math.inf, math.inf]


def test_is_distance_regular_examples():
    arr = is_distance_regular(cycle_graph(6))
    assert arr is not None and str(arr) == "{2,1,1; 1,1,2}"
    arr = is_distance_regular(petersen_graph())
    assert arr is not None and str(arr) == "{3,2; 1,1}"
    k4_minus_edge = Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    assert is_distance_regular(k4_minus_edge) is None
    with pytest.raises(GraphStructureError):
        is_distance_regular(disjoint_union(complete_graph(3), complete_graph(3)))


def test_intersection_array_derived_quantities():
    delta = IntersectionArray(b=(45, 44, 36, 5), c=(1, 9, 40, 45))
    assert delta.a == (0, 0, 0, 0)
    assert delta.distance_class_sizes() == (1, 45, 220, 198, 22)
    assert sum(delta.distance_class_sizes()) == 486
    assert delta.is_bipartite() and not delta.is_antipodal()

    upsilon = IntersectionArray(b=(56, 45, 16, 1), c=(1, 8, 45, 56))
    assert upsilon.a == (10, 32, 10, 0)  # c_i + a_i + b_i = 56 throughout
    assert upsilon.distance_class_sizes() == (1, 56, 315, 112, 2)
    assert not upsilon.is_bipartite() and upsilon.is_antipodal()

    sigma = IntersectionArray(b=(81, 80, 54, 1), c=(1, 27, 80, 81))
    assert sigma.is_bipartite() and sigma.is_antipodal()
    assert sigma.distance_class_sizes() == (1, 81, 240, 162, 2)

    lam = IntersectionArray(b=(20, 18, 4, 1), c=(1, 2, 18, 20))
    assert lam.distance_class_sizes() == (1, 20, 180, 40, 2)
    assert sum(lam.distance_class_sizes()) == 243


def test_intersection_array_validation():
    with pytest.raises(ValueError):
        IntersectionArray(b=(3, 2), c=(2, 1))  # c1 != 1
    with pytest.raises(ValueError):
        IntersectionArray(b=(2, 3), c=(1, 1))  # a_1 = -2


def test_parameter_identity_on_arrays():
    for b, c in (
        ((45, 44, 36, 5), (1, 9, 40, 45)),
        ((56, 45, 16, 1), (1, 8, 45, 56)),
        ((81, 80, 54, 1), (1, 27, 80, 81)),
        ((20, 18, 4, 1), (1, 2, 18, 20)),
        ((22, 20), (1, 2)),
    ):
        arr = IntersectionArray(b=b, c=c)
        k = arr.valency
        a = arr.a
        for i in range(1, arr.diameter):
            assert arr.c[i - 1] + a[i - 1] + arr.b[i] == k


def test_srg_parameters():
    n, k, lam, mu = srg_parameters(cycle_graph(5)).as_tuple()
    assert (n, k, lam, mu) == (5, 2, 0, 1)
    assert k * (k - lam - 1) == (n - k - 1) * mu
    assert srg_parameters(complete_graph(5)) is None  # diameter 1
    assert srg_parameters(path_graph(4)) is None
    assert srg_parameters(disjoint_union(complete_graph(3), complete_graph(3))) is None


def test_complement():
    assert complement(complete_graph(5)).edge_count == 0
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randrange(2, 9)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.4
        ]
        g = Graph(n, edges)
        assert complement(complement(g)) == g


def test_bipartite_halves_small():
    half0, half1, (side0, side1) = bipartite_halves(cycle_graph(6))
    assert half0 == complete_graph(3) and half1 == complete_graph(3)
    assert side0 == (0, 2, 4) and side1 == (1, 3, 5)

    half0, half1, _ = bipartite_halves(complete_bipartite_graph(243, 243))
    assert half0 == complete_graph(243) and half1 == complete_graph(243)

    with pytest.raises(GraphStructureError):
        bipartite_halves(complete_graph(3))


def test_bipartition_matches_networkx():
    # a random tree, relabelled, is connected and bipartite; edges joining
    # its two parity classes keep it bipartite, one edge within a class
    # closes an odd cycle, and an extra component disconnects it
    nx = pytest.importorskip("networkx")
    rng = random.Random(71)
    kinds = Counter()
    for trial in range(40):
        n = rng.randrange(3, 30)
        parity = [0] * n
        edges = set()
        for v in range(1, n):
            u = rng.randrange(v)
            parity[v] = 1 - parity[u]
            edges.add((u, v))
        for _ in range(n):
            u, v = rng.sample(range(n), 2)
            if parity[u] != parity[v]:
                edges.add((min(u, v), max(u, v)))
        same = [
            (u, v) for u in range(n) for v in range(u + 1, n) if parity[u] == parity[v]
        ]
        if trial % 3 == 1 and same:
            edges.add(rng.choice(same))
        if trial % 3 == 2:
            edges.add((n, n + 1))
            n += 2
        mapping = list(range(n))
        rng.shuffle(mapping)
        edges = [(mapping[u], mapping[v]) for u, v in edges]
        h = nx.Graph(edges)
        h.add_nodes_from(range(n))
        g = Graph(n, edges)
        if not nx.is_connected(h):
            with pytest.raises(GraphStructureError, match="disconnected"):
                bipartition(g)
            kinds["disconnected"] += 1
        elif not nx.is_bipartite(h):
            with pytest.raises(GraphStructureError, match="not bipartite") as info:
                bipartition(g)
            u, v = map(int, info.value.args[0].rsplit(" ", 1)[1].split(","))
            assert g.has_edge(u, v)
            kinds["odd cycle"] += 1
        else:
            color = nx.bipartite.color(h)
            side0, side1 = bipartition(g)
            assert side0 == tuple(v for v in range(n) if color[v] == color[0])
            assert side1 == tuple(v for v in range(n) if color[v] != color[0])
            kinds["bipartite"] += 1
    assert min(kinds[k] for k in ("bipartite", "odd cycle", "disconnected")) >= 10


def test_antipodal_fold_cycle():
    folded, classes = antipodal_fold(cycle_graph(6))
    assert folded == complete_graph(3)
    assert classes == ((0, 3), (1, 4), (2, 5))


def test_antipodal_fold_rejects_non_equivalence():
    with pytest.raises(GraphStructureError):
        antipodal_fold(path_graph(4))


def test_induced_subgraph():
    g = complete_graph(4)
    sub, labels = induced_subgraph(g, [3, 0, 1])
    assert sub == complete_graph(3) and labels == (0, 1, 3)
    whole, labels = induced_subgraph(g, range(4))
    assert whole == g and labels == (0, 1, 2, 3)
    with pytest.raises(ValueError):
        induced_subgraph(g, [0, 5])


def test_are_isomorphic_positive():
    g = cycle_graph(5)
    mapping = are_isomorphic(g, relabel(g, [2, 0, 4, 1, 3]))
    assert mapping is not None
    assert verify_bijection(g, relabel(g, [2, 0, 4, 1, 3]), mapping)

    p = petersen_graph()
    shuffled = relabel(p, random.Random(9).sample(range(10), 10))
    mapping = are_isomorphic(p, shuffled)
    assert mapping is not None and verify_bijection(p, shuffled, mapping)


def test_are_isomorphic_negative():
    # same degree sequence, different structure (connectivity differs)
    two_triangles = disjoint_union(cycle_graph(3), cycle_graph(3))
    assert are_isomorphic(cycle_graph(6), two_triangles) is None
    assert are_isomorphic(cycle_graph(6), complete_graph(6)) is None
    # 3-regular on 10 vertices but not the Petersen graph
    prism = Graph(10, [(i, (i + 1) % 5) for i in range(5)]
                  + [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
                  + [(i, 5 + i) for i in range(5)])
    assert are_isomorphic(petersen_graph(), prism) is None


def rook_4x4():
    edges = []
    for x in range(16):
        for y in range(x + 1, 16):
            if x // 4 == y // 4 or x % 4 == y % 4:
                edges.append((x, y))
    return Graph(16, edges)


def shrikhande():
    diffs = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
    edges = []
    for x in range(16):
        for y in range(x + 1, 16):
            d = ((x // 4 - y // 4) % 4, (x % 4 - y % 4) % 4)
            if d in diffs or ((-d[0]) % 4, (-d[1]) % 4) in diffs:
                edges.append((x, y))
    return Graph(16, edges)


def test_shrikhande_vs_rook():
    # same SRG parameters and 1-WL-equivalent, yet non-isomorphic: forces the
    # individualization search to exhaust honestly
    r, s = rook_4x4(), shrikhande()
    assert srg_parameters(r).as_tuple() == (16, 6, 2, 2)
    assert srg_parameters(s).as_tuple() == (16, 6, 2, 2)
    assert are_isomorphic(r, s) is None
    mapping = are_isomorphic(s, relabel(s, random.Random(4).sample(range(16), 16)))
    assert mapping is not None


def test_checker_matches_oracle_on_random_circulants():
    # circulants are vertex-transitive, so they stress both verdicts
    rng = random.Random(60)
    for _ in range(15):
        n = rng.randrange(5, 24)
        half = list(range(1, n // 2 + 1))
        conn = sorted(rng.sample(half, rng.randrange(1, len(half) + 1)))
        edges = set()
        for x in range(n):
            for d in conn:
                edges.add(tuple(sorted((x, (x + d) % n))))
        g = Graph(n, edges)
        expected = oracle_intersection_array(g)
        try:
            arr = is_distance_regular(g)
            got = (arr.b, arr.c) if arr is not None else None
        except GraphStructureError:
            got = "disconnected"
        assert got == expected


def test_checker_matches_networkx_on_random_connected_graphs():
    # random graphs are mostly not regular, or regular but not
    # distance-regular; the named graphs supply the positive verdicts
    nx = pytest.importorskip("networkx")
    rng = random.Random(61)
    graphs = [
        nx.petersen_graph(), nx.heawood_graph(), nx.dodecahedral_graph(),
        nx.hypercube_graph(4), nx.complete_bipartite_graph(5, 5),
    ]
    while len(graphs) < 45:
        seed = rng.randrange(2**32)
        if len(graphs) % 2:
            h = nx.gnp_random_graph(rng.randrange(5, 30), 0.3, seed=seed)
        else:
            degree, n = rng.choice((3, 4)), 2 * rng.randrange(4, 15)
            h = nx.random_regular_graph(degree, n, seed=seed)
        if nx.is_connected(h):
            graphs.append(h)
    kinds = Counter()
    for h in graphs:
        h = nx.convert_node_labels_to_integers(h)
        arr = is_distance_regular(Graph(h.number_of_nodes(), h.edges()))
        if nx.is_distance_regular(h):
            assert arr is not None
            assert (list(arr.b), list(arr.c)) == nx.intersection_array(h)
            kinds["distance-regular"] += 1
        else:
            assert arr is None
            kinds["regular" if nx.is_regular(h) else "not regular"] += 1
    assert min(kinds[k] for k in ("distance-regular", "regular", "not regular")) >= 5


def test_are_isomorphic_budget_is_a_distinct_failure():
    g = complete_bipartite_graph(8, 8)
    with pytest.raises(IsomorphismBudgetError):
        are_isomorphic(g, complete_bipartite_graph(8, 8), budget=10)


def test_graph6_known_values():
    assert graph6_encode(complete_graph(3)) == "Bw"
    assert graph6_encode(Graph(1)) == "@"
    assert graph6_decode("Bw") == complete_graph(3)
    assert graph6_decode("@") == Graph(1)


def test_graph6_round_trip_random():
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randrange(1, 80)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.3
        ]
        g = Graph(n, edges)
        assert graph6_decode(graph6_encode(g)) == g


def test_graph6_byte_exact_against_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randrange(1, 70)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.25
        ]
        mine = graph6_encode(Graph(n, edges))
        nxg = nx.Graph()
        nxg.add_nodes_from(range(n))
        nxg.add_edges_from(edges)
        assert mine == nx.to_graph6_bytes(nxg, header=False).decode().strip()


def test_isomorphism_agrees_with_vf2():
    nx = pytest.importorskip("networkx")
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randrange(2, 16)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.4
        ]
        g = Graph(n, edges)
        if rng.random() < 0.5:
            h = relabel(g, rng.sample(range(n), n))
        else:
            flipped = list(edges)
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v and not g.has_edge(u, v):
                flipped.append(tuple(sorted((u, v))))
            h = Graph(n, flipped)
        mine = are_isomorphic(g, h)
        nx1 = nx.Graph([*g.edges()])
        nx1.add_nodes_from(range(n))
        nx2 = nx.Graph([*h.edges()])
        nx2.add_nodes_from(range(n))
        theirs = nx.is_isomorphic(nx1, nx2)
        assert (mine is not None) == theirs
        if mine is not None:
            assert verify_bijection(g, h, mine)


def test_verdicts_do_not_depend_on_hash_quality(monkeypatch):
    # with one weight for every colour, all neighbour multisets of one size
    # collide, so refinement separates vertices by degree only and the
    # individualization search must carry every verdict
    hashed = []

    def constant(colors):
        hashed.append(len(colors))
        return np.ones(len(colors), dtype=np.uint64)

    monkeypatch.setattr(graph, "_weights", constant)
    test_are_isomorphic_positive()
    test_are_isomorphic_negative()
    test_shrikhande_vs_rook()
    test_isomorphism_agrees_with_vf2()
    assert hashed


@pytest.mark.parametrize("n", [3, 4, 5])
def test_relabelled_ag_certificates_are_deterministic(n):
    g = build_std_ag(n)
    h = relabel(g, random.Random(700 + n).sample(range(g.n), g.n))
    mapping = are_isomorphic(g, h)
    assert mapping is not None and verify_bijection(g, h, mapping)
    assert are_isomorphic(g, h) == mapping


def test_two_switched_ag_is_not_isomorphic():
    # replace edges ab, cd by ad, cb: every degree stays, the design breaks
    g = build_std_ag(4)
    edges = sorted(g.edges())
    a, b = edges[0]
    c, d = next(
        (c, d) for c, d in edges
        if len({a, b, c, d}) == 4 and not g.has_edge(a, d) and not g.has_edge(c, b)
    )
    switched = Graph(g.n, [e for e in edges if e not in ((a, b), (c, d))] + [(a, d), (c, b)])
    assert [switched.degree(v) for v in range(g.n)] == [g.degree(v) for v in range(g.n)]
    assert is_distance_regular(g) is not None
    assert is_distance_regular(switched) is None
    assert are_isomorphic(switched, g) is None
    assert are_isomorphic(g, switched) is None


def test_graph6_long_form_vertex_count():
    g = Graph(100)
    text = graph6_encode(g)
    assert text.startswith("~")
    assert graph6_decode(text) == g


def test_graph6_parse_errors_carry_offsets():
    with pytest.raises(Graph6ParseError) as info:
        graph6_decode("B\x1f")
    assert info.value.offset == 1
    with pytest.raises(Graph6ParseError):
        graph6_decode("")
    with pytest.raises(Graph6ParseError):
        graph6_decode("Bww")  # extra body byte
    with pytest.raises(Graph6ParseError):
        graph6_decode("B")  # missing body


G6_BYTES = [chr(c) for c in range(63, 127)]


@st.composite
def graph6_texts(draw):
    """A vertex count of 0..70 in graph6 form and random body bytes within
    one byte of the length it needs, then a few characters replaced,
    dropped or inserted at one place."""
    n = draw(st.integers(0, 70))
    head = chr(63 + n) if n < 63 else "~" + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0))
    need = (n * (n - 1) // 2 + 5) // 6
    text = head + draw(st.text(G6_BYTES, min_size=max(0, need - 1), max_size=need + 1))
    i = draw(st.integers(0, len(text)))
    return text[:i] + draw(st.text(max_size=2)) + text[i + draw(st.integers(0, 2)) :]


@settings(deadline=None)
@given(graph6_texts() | st.text(G6_BYTES + ["\n"]) | st.text())
def test_graph6_decode_raises_only_parse_errors(text):
    try:
        g = graph6_decode(text)
    except Graph6ParseError:
        return
    assert graph6_decode(graph6_encode(g)) == g
