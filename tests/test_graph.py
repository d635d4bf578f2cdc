import random
import tracemalloc
from collections import Counter, deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golay486 import graph
from golay486.codes import coset_graph
from golay486.constructions import build_lambda_coordinate, build_std_ag
from golay486.graph import (
    Graph,
    Graph6ParseError,
    GraphStructureError,
    IntersectionArray,
    IsomorphismBudgetError,
    antipodal_fold,
    are_isomorphic,
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
    ladder_codes,
    oracle_intersection_array,
    path_graph,
    petersen_graph,
    product_antipodal_fold,
)


def relabel(g, mapping):
    return Graph(g.n, [(mapping[u], mapping[v]) for u, v in g.edges()])


def prism():
    """3-regular on 10 vertices, like the Petersen graph, but not it."""
    return Graph(10, [(i, (i + 1) % 5) for i in range(5)]
                 + [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
                 + [(i, 5 + i) for i in range(5)])


def test_graph_rejects_loops_and_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError, match=r"^loop at vertex 1$"):
        Graph(3, [(0, 1), (1, 1)])
    with pytest.raises(ValueError, match=r"^edge \(0,3\) out of range for n=3$"):
        Graph(3, [(0, 1), (0, 3)])
    with pytest.raises(ValueError, match=r"^edge \(-1,2\) out of range for n=3$"):
        Graph(3, [(-1, 2)])
    # (0, 1, 2), (3,) holds four ends, as two pairs would: only a check of
    # each edge's length refuses it
    malformed = (
        [(0, 1, 2), (3,)], [(0, 1), (2,)], [(0,)], [(0, 1, 2)], [(0, 1), [1, 2, 0]],
        [0, 1], [(0, 1), 2],  # ends where edges should be
        [(0, [1])], [(0, 1), (2, None)], [(0, "x")],  # ragged, or no integer
    )
    for edges in malformed:
        with pytest.raises(ValueError, match="^every edge must be a pair of integer vertices$"):
            Graph(4, edges)


def test_graph_takes_empty_and_generator_input():
    assert Graph(3, []).edge_count == 0
    assert Graph(3, iter(())) == Graph(3)
    path = Graph(4, ((v, v + 1) for v in range(3)))
    assert sorted(path.edges()) == [(0, 1), (1, 2), (2, 3)]
    # rows of an array, lists, both orientations and repeats are all pairs
    same = Graph(4, [np.array([1, 0]), [1, 2], (3, 2), (2, 3)])
    assert same == path
    rng = random.Random(41)
    for _ in range(20):
        n = rng.randrange(2, 30)
        edges = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randrange(0, 3 * n))]
        a = np.zeros((n, n), dtype=bool)
        for u, v in edges:
            a[u, v] = a[v, u] = True
        assert Graph(n, edges) == Graph.from_adjacency(a) == Graph(n, iter(edges))


def test_from_adjacency_checks_its_matrix():
    assert Graph.from_adjacency(complete_graph(4).adjacency_matrix) == complete_graph(4)
    asymmetric = np.zeros((3, 3), dtype=bool)
    asymmetric[0, 1] = True
    for bad in (asymmetric, np.eye(3, dtype=bool), np.zeros((2, 3), dtype=bool)):
        with pytest.raises(ValueError):
            Graph.from_adjacency(bad)
    # the graph keeps a copy, and its matrix is read-only
    source = ~np.eye(2, dtype=bool)
    g = Graph.from_adjacency(source)
    source[:] = False
    assert g.edge_count == 1
    with pytest.raises(ValueError):
        g.adjacency_matrix[0, 1] = False
    assert g.has_edge(0, 1) and g.has_edge(1, 0)


def test_bfs_distances():
    def distances(g, source):
        return graph._bfs(g, source).tolist()

    assert distances(path_graph(3), 0) == [0, 1, 2]
    assert distances(complete_graph(4), 2) == [1, 1, 0, 1]
    two = disjoint_union(complete_graph(2), complete_graph(2))
    assert distances(two, 0) == [0, 1, -1, -1]
    # against a plain queue, on random graphs, connected or not
    rng = random.Random(65)
    for _ in range(40):
        n = rng.randrange(1, 16)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = Graph(n, rng.sample(pairs, rng.randrange(len(pairs) // 2 + 1)))
        source = rng.randrange(n)
        want = [-1] * n
        want[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in g.neighbors(u):
                if want[v] < 0:
                    want[v] = want[u] + 1
                    queue.append(v)
        assert distances(g, source) == want


def test_is_distance_regular_examples():
    arr = is_distance_regular(cycle_graph(6))
    assert arr is not None and str(arr) == "{2,1,1; 1,1,2}"
    arr = is_distance_regular(petersen_graph())
    assert arr is not None and str(arr) == "{3,2; 1,1}"
    k4_minus_edge = Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    assert is_distance_regular(k4_minus_edge) is None
    with pytest.raises(GraphStructureError):
        is_distance_regular(disjoint_union(complete_graph(3), complete_graph(3)))


def test_fused_distance_regularity_check():
    assert str(is_distance_regular(cycle_graph(5))) == "{2,1; 1,1}"
    # connected but not distance-regular: the ends of P4 see different layers
    assert is_distance_regular(path_graph(4)) is None
    # disconnected, with irregular layers before the BFS ends: still an error
    with pytest.raises(GraphStructureError):
        is_distance_regular(disjoint_union(path_graph(3), complete_graph(1)))


def test_distance_matrix_matches_single_source_bfs():
    rng = random.Random(62)
    for _ in range(40):
        n = rng.randrange(1, 16)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = Graph(n, rng.sample(pairs, rng.randrange(len(pairs) + 1)))
        dist = graph.distance_matrix(g)
        for source in range(n):
            assert dist[source].tolist() == graph._bfs(g, source).tolist()


def hypercube(dim):
    n = 2**dim
    return Graph(n, [(v, v | 1 << i) for v in range(n) for i in range(dim) if not v >> i & 1])


def heawood():
    """Incidence graph of the Fano plane: points 0..6, lines 7..13."""
    return Graph(14, [(p, 7 + i) for i in range(7) for p in (i, (i + 1) % 7, (i + 3) % 7)])


def eccentricities(g):
    return [max(graph._bfs(g, v).tolist()) for v in range(g.n)]


def count_products(monkeypatch):
    """Record the operand shapes of every np.matmul call."""
    shapes = []
    matmul = np.matmul

    def counted(x, y, *args, **kwargs):
        shapes.append((x.shape, y.shape))
        return matmul(x, y, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", counted)
    return shapes


def test_checker_matches_oracle_on_small_families():
    # bipartite (K2, K_{a,b}, even cycles, Q4, Heawood) and not (K1, K_n,
    # the windmill)
    graphs = {
        "K1": complete_graph(1),
        "K2": complete_graph(2),
        "K5": complete_graph(5),
        "K3,5": complete_bipartite_graph(3, 5),
        "K4,4": complete_bipartite_graph(4, 4),
        "C8": cycle_graph(8),
        "C10": cycle_graph(10),
        "Q4": hypercube(4),
        "Heawood": heawood(),
        # two triangles on one vertex: every edge lies in one triangle and
        # every non-edge has one common neighbour, but degrees are 4 and 2
        "windmill": Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)]),
    }
    for name, g in graphs.items():
        arr = is_distance_regular(g)
        got = None if arr is None else (arr.b, arr.c)
        assert got == oracle_intersection_array(g), name
    assert str(is_distance_regular(complete_graph(1))) == "{; }"
    assert str(is_distance_regular(complete_graph(2))) == "{1; 1}"
    assert is_distance_regular(complete_bipartite_graph(3, 5)) is None  # not regular
    assert is_distance_regular(graphs["windmill"]) is None
    assert str(is_distance_regular(hypercube(4))) == "{4,3,2,1; 1,2,3,4}"
    assert str(is_distance_regular(heawood())) == "{3,2,2; 1,1,3}"


def test_disconnected_bipartite_graph_is_an_error():
    c4 = cycle_graph(4)
    for g in (disjoint_union(c4, c4), disjoint_union(c4, complete_graph(1))):
        with pytest.raises(GraphStructureError, match="disconnected"):
            is_distance_regular(g)
        assert (graph.distance_matrix(g) == -1).sum() == 2 * 4 * (g.n - 4)


def test_distance_matrix_on_subgraphs_of_complete_bipartite_graphs():
    # random spanning subgraphs of K_{a,b}: bipartite when connected, and
    # searched as two biadjacency blocks; disconnected ones as one block
    rng = random.Random(63)
    kinds = Counter()
    for _ in range(60):
        a, b = rng.randrange(1, 8), rng.randrange(1, 8)
        pairs = [(u, a + v) for u in range(a) for v in range(b)]
        g = Graph(a + b, rng.sample(pairs, rng.randrange(len(pairs) + 1)))
        dist = graph.distance_matrix(g)
        assert dist.dtype == np.int32
        for source in range(g.n):
            assert dist[source].tolist() == graph._bfs(g, source).tolist()
        kinds["connected" if (dist >= 0).all() else "disconnected"] += 1
    assert min(kinds.values()) >= 10


def test_bipartite_check_reuses_the_first_blocks_buffers():
    # the reader holds the first block's last float32 counts and bool layer
    # when the second block starts; allocating the second block's buffers
    # beside them peaked at about 4.8 n^2 bytes on AG(5,3)
    g = build_std_ag(5)
    tracemalloc.start()
    try:
        assert is_distance_regular(g) is not None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.4 * g.n * g.n


def test_distance_regularity_takes_d_minus_1_products_per_block(monkeypatch, orbital_models):
    shapes = count_products(monkeypatch)
    cases = [
        # graph, diameter, blocks (2 when connected and bipartite)
        (complete_graph(6), 1, 1),
        (petersen_graph(), 2, 1),
        (cycle_graph(7), 3, 1),
        (cycle_graph(8), 4, 2),
        (hypercube(4), 4, 2),
        (heawood(), 3, 2),
        (orbital_models["delta"].graph, 4, 2),
        (orbital_models["upsilon"].graph, 4, 1),
    ]
    for g, d, blocks in cases:
        for reader in (is_distance_regular, graph.distance_matrix):
            shapes.clear()
            reader(g)
            # every two-block case here is regular, so its last layer comes
            # from an edge count, one product fewer per block
            assert len(shapes) == blocks * (d - 1 if blocks == 1 else d - 2), (g, reader)
            if blocks == 2:  # every product is on a biadjacency block
                assert all(max(x + y) < g.n for x, y in shapes)


def test_product_count_follows_the_eccentricities(monkeypatch):
    # one block: the largest eccentricity less one; two blocks (connected
    # and bipartite): that of each class less one
    shapes = count_products(monkeypatch)
    rng = random.Random(64)
    kinds = Counter()
    for trial in range(40):
        n = rng.randrange(2, 20)
        edges = {(rng.randrange(v), v) for v in range(1, n)}  # a tree
        if trial % 2:
            edges |= {tuple(sorted(rng.sample(range(n), 2))) for _ in range(n // 3)}
        g = Graph(n, edges)
        ecc = eccentricities(g)
        shapes.clear()
        graph.distance_matrix(g)
        parity = graph._bfs(g, 0) % 2
        bipartite = all(parity[u] != parity[v] for u, v in g.edges())
        if bipartite:
            expected = sum(
                max(max(e for e, p in zip(ecc, parity) if p == side) - 1, 0)
                for side in (0, 1)
            )
        else:
            expected = max(ecc) - 1
        assert len(shapes) == expected
        kinds["bipartite" if bipartite else "not bipartite"] += 1
    assert min(kinds.values()) >= 10


def random_regular_bipartite(rng, m, k):
    """A k-regular bipartite graph on the classes 0..m-1 and m..2m-1: the
    circulant i ~ m + (i + t) % m for t < k, then random switches of two
    edges ab, cd to ad, cb that keep it simple, so every degree stays k."""
    edges = {(i, m + (i + t) % m) for i in range(m) for t in range(k)}
    for _ in range(4 * m * k):
        (a, b), (c, d) = rng.sample(sorted(edges), 2)
        if (a, d) not in edges and (c, b) not in edges:
            edges -= {(a, b), (c, d)}
            edges |= {(a, d), (c, b)}
    return Graph(2 * m, edges)


def random_bipartite(rng, n, extra):
    """A random tree on n vertices, plus up to `extra` random edges between
    the classes of its 2-colouring: connected and bipartite."""
    parent = [rng.randrange(v) for v in range(1, n)]
    edges = {(u, v) for v, u in enumerate(parent, 1)}
    depth = [0]
    for u in parent:
        depth.append(depth[u] + 1)
    for _ in range(extra):
        u, v = sorted(rng.sample(range(n), 2))
        if (depth[u] - depth[v]) % 2:
            edges.add((u, v))
    return Graph(n, edges)


def bipartite_search_cases():
    rng = random.Random(66)
    cases = [cycle_graph(2 * m) for m in range(2, 9)] + [hypercube(4), heawood()]
    for _ in range(30):
        m = rng.randrange(2, 12)
        cases.append(random_regular_bipartite(rng, m, rng.randrange(1, m + 1)))
        n = rng.randrange(2, 20)
        cases.append(random_bipartite(rng, n, 0))  # a tree
        cases.append(random_bipartite(rng, n, rng.randrange(1, 2 * n)))
    return cases


def test_bipartite_search_matches_the_oracles():
    # regular bipartite graphs end each block on an edge count, irregular
    # ones and trees on their last product; both must give the brute-force
    # array (or None, or "disconnected") and the single-source distances
    kinds = Counter()
    for g in bipartite_search_cases():
        try:
            arr = is_distance_regular(g)
            got = None if arr is None else (arr.b, arr.c)
        except GraphStructureError:
            got = "disconnected"
        assert got == oracle_intersection_array(g), g
        dist = graph.distance_matrix(g)
        for source in range(g.n):
            assert dist[source].tolist() == graph._bfs(g, source).tolist()
        regular = len({g.degree(v) for v in range(g.n)}) == 1
        kinds[(regular, "disconnected" if isinstance(got, str) else got is not None)] += 1
    # regular: disconnected, distance-regular and not; irregular: not
    wanted = [(True, "disconnected"), (True, True), (True, False), (False, False)]
    assert min(kinds[k] for k in wanted) >= 5, kinds


@pytest.mark.parametrize("m", [3, 4, 5])
def test_ag_design_graphs_match_the_oracles(m):
    g = build_std_ag(m)
    q = 3 ** (m - 2)
    known = ((3 * q, 3 * q - 1, 2 * q, 1), (1, q, 3 * q - 1, 3 * q))
    if m < 5:  # the brute-force oracle takes about 20 s on 486 vertices
        assert oracle_intersection_array(g) == known
    arr = is_distance_regular(g)
    assert (arr.b, arr.c) == known
    dist = graph.distance_matrix(g)
    for source in range(g.n):
        assert dist[source].tolist() == graph._bfs(g, source).tolist()


def test_regular_bipartite_blocks_form_no_last_product(monkeypatch):
    # per class of sources of eccentricity E: E - 2 products when the graph
    # is regular, its last layer read off an edge count; else E - 1
    shapes = count_products(monkeypatch)
    rng = random.Random(67)
    kinds = Counter()
    for trial in range(40):
        if trial % 2:
            m = rng.randrange(2, 12)
            g = random_regular_bipartite(rng, m, rng.randrange(2, m + 1))
        else:
            n = rng.randrange(3, 20)
            g = random_bipartite(rng, n, rng.randrange(2 * n))
        parity = graph._bfs(g, 0)
        if (parity < 0).any():
            continue
        parity %= 2
        ecc = eccentricities(g)
        regular = len({g.degree(v) for v in range(g.n)}) == 1
        expected = sum(
            max(max(e for e, p in zip(ecc, parity) if p == side) - 1 - regular, 0)
            for side in (0, 1)
        )
        for reader in (is_distance_regular, graph.distance_matrix):
            shapes.clear()
            reader(g)
            assert len(shapes) == expected, (g, reader)
        kinds["regular" if regular else "irregular"] += 1
    assert min(kinds.values()) >= 10, kinds


def test_checker_matches_networkx_on_the_named_graphs(golay, gamma):
    # networkx takes seconds on graphs of 486 vertices and more, so those
    # (the extended Golay code's coset graph, AG(5,3), AG(6,3)) are left out
    nx = pytest.importorskip("networkx")
    graphs = {
        "lambda": build_lambda_coordinate(golay),
        "gamma": gamma,
        "AG(3,3)": build_std_ag(3),
        "AG(4,3)": build_std_ag(4),
    }
    for name, code in ladder_codes(golay).items():
        graphs[name] = coset_graph(code)
    checked = 0
    for name, g in graphs.items():
        if g.n >= 486:
            continue
        h = nx.Graph(list(g.edges()))
        h.add_nodes_from(range(g.n))
        arr = is_distance_regular(g)
        assert arr is not None, name
        assert (list(arr.b), list(arr.c)) == nx.intersection_array(h), name
        checked += 1
    assert checked == 7


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
    # the path 0-1-2-3 with a leaf 4 on 1: 0 and 4 are both at distance 3
    # from 3, but at distance 2 from each other
    fork = Graph(5, [(0, 1), (1, 2), (2, 3), (1, 4)])
    with pytest.raises(GraphStructureError, match=r"witness triple \(0,3,4\)$"):
        antipodal_fold(fork)


def fold_outcome(fold, g):
    """The fold of g, or the message it raises."""
    try:
        return fold(g)
    except GraphStructureError as error:
        return str(error)


@pytest.mark.parametrize("g", [path_graph(4), complete_bipartite_graph(1, 3)], ids=["P4", "star"])
def test_antipodal_fold_rejects_unequal_classes(g):
    # the distance-d relation is an equivalence, with classes {0, 3}, {1},
    # {2} on the path and {0}, {1, 2, 3} on the star K_{1,3}
    with pytest.raises(GraphStructureError, match="non-uniform sizes"):
        antipodal_fold(g)


@pytest.mark.parametrize(
    "g",
    [
        path_graph(4),
        complete_bipartite_graph(1, 3),
        Graph(5, [(0, 1), (1, 2), (2, 3), (1, 4)]),
        cycle_graph(6),
        cycle_graph(7),
        complete_bipartite_graph(3, 3),
        petersen_graph(),
        disjoint_union(cycle_graph(4), cycle_graph(4)),
    ],
    ids=["P4", "star", "fork", "C6", "C7", "K33", "petersen", "2C4"],
)
def test_antipodal_fold_matches_the_product_criterion(g):
    assert fold_outcome(antipodal_fold, g) == fold_outcome(product_antipodal_fold, g)


def test_antipodal_fold_matches_the_product_criterion_on_random_graphs():
    # G(n, p) graphs, and complete multipartite graphs, whose distance-2
    # relation is "same part": an equivalence, uniform or not
    rng = random.Random(65)
    kinds = Counter()
    for _ in range(400):
        n = rng.randrange(1, 15)
        if rng.random() < 0.5:
            p = rng.uniform(0.05, 0.9)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        else:
            parts = rng.randrange(1, 5)
            part = [i % parts for i in range(n)]
            if rng.random() < 0.5:
                part[0] = rng.randrange(4)
            rng.shuffle(part)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if part[u] != part[v]]
        g = Graph(n, edges)
        outcome = fold_outcome(antipodal_fold, g)
        assert outcome == fold_outcome(product_antipodal_fold, g)
        if not isinstance(outcome, str):
            kinds["folded"] += 1
        else:
            kinds[next(k for k in ("disconnected", "equivalence", "non-uniform") if k in outcome)] += 1
    assert min(kinds[k] for k in ("folded", "disconnected", "equivalence", "non-uniform")) >= 10, kinds


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
    assert are_isomorphic(petersen_graph(), prism()) is None


def test_verify_bijection_rejects_what_is_not_an_isomorphism():
    p = petersen_graph()
    identity = list(range(p.n))
    assert verify_bijection(p, p, identity)
    # -1 would index vertex 9, and so pass, if it were not range-checked first
    assert not verify_bijection(p, p, identity[:-1] + [-1])
    assert not verify_bijection(p, p, identity[:-1] + [p.n])
    assert not verify_bijection(p, p, identity[:-1] + [0])
    assert not verify_bijection(p, p, identity[:-1])
    assert not verify_bijection(p, Graph(p.n + 1, p.edges()), identity)
    # a bijection, but not an isomorphism
    assert not verify_bijection(p, prism(), identity)


def test_deep_search_does_not_recurse():
    # refinement cannot split an edgeless graph, so the search
    # individualizes vertex after vertex, 1199 levels deep
    mapping = are_isomorphic(Graph(1200), Graph(1200))
    assert mapping is not None and verify_bijection(Graph(1200), Graph(1200), mapping)


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


def test_split_keeps_the_id_of_the_largest_part():
    col = np.zeros(6, dtype=np.int64)
    split, classes, moved = graph._split(col, np.array([5, 5, 1, 1, 1, 7]), 1)
    # key 1 is the largest part and keeps 0; keys 5 and 7 take 1 and 2
    assert split.tolist() == [1, 1, 0, 0, 0, 2] and classes == 3
    assert sorted(moved.tolist()) == [0, 1, 5]
    assert col.tolist() == [0] * 6  # the input is not written
    # two cells: each keeps its id on its largest part, and the fresh ids
    # follow (colour, key) order
    col = np.array([1, 1, 1, 0, 0, 0])
    split, classes, moved = graph._split(col, np.array([4, 8, 8, 9, 9, 3]), 2)
    assert split.tolist() == [3, 1, 1, 0, 0, 2] and classes == 4
    assert sorted(moved.tolist()) == [0, 5]


def test_split_breaks_a_tie_by_key_order():
    # two parts of two: the first in key order (key 1) keeps the id
    split, classes, moved = graph._split(np.zeros(4, dtype=np.int64), np.array([2, 1, 2, 1]), 1)
    assert split.tolist() == [1, 0, 1, 0] and classes == 2
    assert sorted(moved.tolist()) == [0, 2]
    # three parts of one each
    split, _, _ = graph._split(np.zeros(3, dtype=np.int64), np.array([7, 3, 5]), 1)
    assert split.tolist() == [2, 0, 1]


def test_split_changes_nothing_when_no_cell_splits():
    col = np.array([0, 2, 1, 0, 2, 1])
    key = np.array([4, 4, 9, 4, 4, 9], dtype=np.uint64)
    split, classes, moved = graph._split(col, key, 3)
    assert split is col and classes == 3 and len(moved) == 0


def test_split_keeps_ids_dense_on_random_colourings():
    rng = np.random.default_rng(42)
    for _ in range(200):
        size = int(rng.integers(1, 40))
        classes = int(rng.integers(1, size + 1))
        col = np.concatenate((np.arange(classes), rng.integers(0, classes, size - classes)))
        rng.shuffle(col)
        key = rng.integers(0, 4, size).astype(np.uint64)
        split, grown, moved = graph._split(col, key, classes)
        # dense ids, one per (colour, key) pair, and each cell keeps its id
        # on a largest part
        assert sorted(set(split.tolist())) == list(range(grown))
        pairs = {(c, k) for c, k in zip(col.tolist(), key.tolist())}
        assert grown == len(pairs)
        assert all(
            len({s for s, c2, k2 in zip(split, col, key) if (c2, k2) == (c, k)}) == 1
            for c, k in pairs
        )
        assert sorted(moved.tolist()) == np.flatnonzero(split != col).tolist()
        for c in range(classes):
            kept = np.count_nonzero((col == c) & (split == c))
            parts = Counter(key[col == c].tolist())
            assert kept == max(parts.values())


def test_csr_is_int32_and_built_one_graph_at_a_time():
    g, h = build_std_ag(5), petersen_graph()
    dst, starts, degree = graph._csr(g, h)
    assert dst.dtype == np.int32
    rows, cols = np.nonzero(g.adjacency_matrix)
    assert np.array_equal(dst[:len(cols)], cols)
    assert np.array_equal(dst[len(cols):], np.nonzero(h.adjacency_matrix)[1] + g.n)
    assert np.array_equal(starts[:g.n], np.searchsorted(rows, np.arange(g.n)))
    # the int32 indices and one graph's int64 columns at a time: 8 bytes
    # per entry of two equal graphs, against 16 when both graphs' int64
    # columns are concatenated
    tracemalloc.start()
    try:
        dst, _, _ = graph._csr(g, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9 * len(dst)


def test_incremental_hash_matches_a_fresh_gather_at_every_node(monkeypatch):
    # every split by h, at the root and below each individualization,
    # must see the h that a gather over the current colouring gives
    split = graph._split
    seen = Counter()
    pair = []

    def checked(col, key, classes):
        if key.dtype == np.uint64:
            dst, starts, degree = graph._csr(*pair)
            fresh = np.zeros(len(col), dtype=np.uint64)
            for x in range(len(col)):
                fresh[x] = graph._weights(col[dst[starts[x]:starts[x] + degree[x]]]).sum()
            assert np.array_equal(key, fresh)
            seen["hash"] += 1
        else:
            seen["other"] += 1
        return split(col, key, classes)

    monkeypatch.setattr(graph, "_split", checked)
    p = petersen_graph()
    ag = build_std_ag(3)
    # a triangle of hubs with 2, 3 and 4 leaves: the split by degree moves
    # the hubs, 30 of the 48 CSR entries, so h is carried one graph at a time
    hubs = Graph(12, [(0, 1), (1, 2), (0, 2)] + [(i, 3 + j) for i, j in
                     [(0, 0), (0, 1), (1, 2), (1, 3), (1, 4), (2, 5), (2, 6), (2, 7), (2, 8)]])
    cases = [
        (p, relabel(p, random.Random(9).sample(range(10), 10)), True),
        (shrikhande(), rook_4x4(), False),
        (ag, relabel(ag, random.Random(703).sample(range(ag.n), ag.n)), True),
        (hubs, relabel(hubs, random.Random(12).sample(range(12), 12)), True),
    ]
    for g1, g2, isomorphic in cases:
        pair[:] = [g1, g2]
        seen.clear()
        assert (are_isomorphic(g1, g2) is not None) == isomorphic
        # the root's degree split, and at least one individualization
        assert seen["other"] >= 2 and seen["hash"] >= seen["other"]


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


def test_graph6_byte_exact_against_networkx_at_every_small_order():
    # n = 1..48 is a full period of n(n-1)/2 mod 24, so every fill of the
    # last 24-bit word that occurs; n >= 63 takes the long vertex count
    nx = pytest.importorskip("networkx")
    rng = random.Random(18)
    for n in range(1, 71):
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        g = Graph(n, edges)
        nxg = nx.Graph()
        nxg.add_nodes_from(range(n))
        nxg.add_edges_from(edges)
        text = graph6_encode(g)
        assert text == nx.to_graph6_bytes(nxg, header=False).decode().strip(), n
        assert graph6_decode(text) == g


def test_graph6_nonzero_padding_is_reported_at_its_character():
    # the last word is zero-padded past the text, so each padding bit the
    # text holds is reported at the last character, for every fill
    checked = 0
    for n in range(2, 71):
        text = graph6_encode(complete_graph(n))
        for bit in range(-n * (n - 1) // 2 % 6):
            bad = text[:-1] + chr(63 + (ord(text[-1]) - 63 | 1 << bit))
            with pytest.raises(Graph6ParseError, match="padding") as info:
                graph6_decode(bad)
            assert info.value.offset == len(text) - 1
            checked += 1
    assert checked > 100


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


def test_graph6_decode_checks_the_body_length_before_allocating():
    # 2^36 - 1 vertices and no body: the n x n matrix could not be allocated
    # at all, so only a length check made first gives a parse error
    with pytest.raises(Graph6ParseError, match="expected .* body bytes"):
        graph6_decode("~~" + "~" * 6)


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
