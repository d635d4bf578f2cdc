"""Acceptance suite: one test per criterion, each printing a verdict line.

Everything here is exact integer checking except the isomorphism searches,
which run under the deterministic 10^7-step refinement budget; exhausting
the budget raises, which fails the test rather than passing vacuously.
"""

import math
from collections import Counter
from itertools import combinations

import numpy as np

from golay486 import codes, constructions, gf3, permaction
from golay486.constructions import TYPE_I_WEIGHTS, TYPE_II_WEIGHTS
from golay486.graph import (
    Graph,
    GraphStructureError,
    antipodal_fold,
    are_isomorphic,
    bipartite_halves,
    complement,
    is_distance_regular,
    srg_parameters,
    verify_bijection,
)
from oracles import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    oracle_intersection_array,
    path_graph,
    petersen_graph,
)

ISO_BUDGET = 10**7


def report(criterion, text):
    print(f"criterion {criterion:>2}: PASS ({text})")


def test_criterion_01_golay_code(golay):
    assert (golay.length, golay.dimension) == (11, 6)
    assert codes.minimum_distance(golay) == 5
    assert codes.is_perfect(golay, 2)
    assert 1 + math.comb(11, 1) * 2 + math.comb(11, 2) * 4 == 243 == 3**5
    report(1, "Golay code is [11,6,5], perfect at radius 2 (sphere count 243)")


def test_criterion_02_gamma_and_complement(gamma):
    assert srg_parameters(gamma) == (243, 22, 1, 2)
    assert srg_parameters(complement(gamma)) == (243, 220, 199, 200)
    report(2, "coset graph is SRG(243,22,1,2); complement SRG(243,220,199,200)")


def test_criterion_03_flat_enumeration(golay, family):
    e0 = gf3.unit_vector(11, 0)
    duals = gf3.null_space(golay.generator, width=11)
    all_classes = gf3.projective_points(duals, length=11)
    kept = gf3.hyperplane_functionals(duals, e0)
    assert len(all_classes) == 121
    assert len(all_classes) - len(kept) == 40
    assert len(kept) == 81
    assert family.subspace_count == 81
    assert family.flat_count == 243
    report(3, "81 ten-spaces (121 - 40) and 243 flats")


def test_criterion_04_type_classification(family):
    tallies = [gf3.subspace_weight_counts(basis) for basis in family.bases]
    by_tally = Counter(tallies)
    assert set(by_tally) == {TYPE_I_WEIGHTS, TYPE_II_WEIGHTS}  # no third class
    assert by_tally[TYPE_I_WEIGHTS] == 45
    assert by_tally[TYPE_II_WEIGHTS] == 36
    assert len(family.type_indices("I")) == 45
    assert len(family.type_indices("II")) == 36
    # both tallies byte-identical to the published pair
    assert TYPE_I_WEIGHTS == (1, 4, 76, 456, 1716, 4956, 9912, 13944, 14214, 9314, 3776, 680)
    assert TYPE_II_WEIGHTS == (1, 10, 70, 420, 1770, 4992, 9822, 13980, 14160, 9440, 3680, 704)
    report(4, "45 Type I + 36 Type II subspaces, tallies exact, no third class")


def test_criterion_05_coset_shapes(leaders):
    shapes = codes.classify_cosets(leaders)
    assert tuple(shapes[s] for s in ("0", "+-e0", "+-ei", "+-e0+-ei", "+-ei+-ej")) == (
        1, 2, 20, 40, 180,
    )
    report(5, "coset representative shapes count (1,2,20,40,180)")


def test_criterion_06_bundled_generators(bundled_action):
    assert len(bundled_action.generators) == 3
    assert bundled_action.degree == 486
    assert not permaction.orbit_labels(bundled_action.generators, 486).any()
    assert permaction.group_order(bundled_action) == 349920
    decomp = permaction.orbitals(bundled_action)
    assert decomp.rank == 9
    assert sorted(decomp.suborbit_sizes) == [1, 2, 20, 36, 40, 45, 72, 90, 180]
    report(6, "generators parse; transitive; order 349920; rank 9; suborbit sizes exact")


def test_criterion_07_scan_is_exactly_the_six_arrays(decomp):
    results = permaction.scan_orbital_unions(decomp)
    arrays = {str(r.array) for r in results}
    assert len(results) == 6
    assert arrays == {
        "{485; 1}",
        "{243,242; 1,243}",
        "{483,2; 1,483}",
        "{45,44,36,5; 1,9,40,45}",
        "{56,45,16,1; 1,8,45,56}",
        "{81,80,54,1; 1,27,80,81}",
    }
    # each positive re-verified by the generic all-pairs checker
    for result in results:
        g = permaction.orbital_union_graph(decomp, result.orbital_ids)
        assert is_distance_regular(g) == result.array
    report(7, "orbital-union scan finds exactly the six arrays")


def test_criterion_08_orbital_models(orbital_models):
    delta = is_distance_regular(orbital_models["delta"].graph)
    assert str(delta) == "{45,44,36,5; 1,9,40,45}"
    assert delta.is_bipartite() and not delta.is_antipodal()

    upsilon_graph = orbital_models["upsilon"].graph
    upsilon = is_distance_regular(upsilon_graph)
    assert str(upsilon) == "{56,45,16,1; 1,8,45,56}"
    folded, classes = antipodal_fold(upsilon_graph)
    assert {len(c) for c in classes} == {3}
    assert srg_parameters(folded) == (162, 56, 10, 24)

    sigma = is_distance_regular(orbital_models["sigma"].graph)
    assert str(sigma) == "{81,80,54,1; 1,27,80,81}"
    assert sigma.is_bipartite() and sigma.is_antipodal()

    lam_graph = orbital_models["lambda"]
    lam = is_distance_regular(lam_graph)
    assert str(lam) == "{20,18,4,1; 1,2,18,20}"
    lam_folded, lam_classes = antipodal_fold(lam_graph)
    assert {len(c) for c in lam_classes} == {3}
    assert srg_parameters(lam_folded) == (81, 20, 1, 6)
    report(8, "orbital models: arrays, imprimitivity kinds and folded parameters exact")


def test_criterion_09_internal_structure(orbital_models):
    gamma_half = orbital_models["gamma_half"]
    assert srg_parameters(gamma_half) == (243, 22, 1, 2)

    delta = orbital_models["delta"]
    half0, (side0, _) = bipartite_halves(delta.graph)
    assert side0 == tuple(range(243))
    assert half0 == complement(gamma_half)

    blocks = 0
    for f in delta.half_b:
        block = delta.graph.neighbors(f)
        assert len(block) == 45
        assert all(not gamma_half.has_edge(u, v) for u, v in combinations(block, 2))
        blocks += 1
    assert blocks == 243
    report(9, "coset-half SRG, halved-graph complement equality, 243 blocks are 45-cocliques")


def test_criterion_10_isomorphism_claims(orbital_models, golay, family, monkeypatch):
    monkeypatch.setattr("golay486.graph.ISOMORPHISM_BUDGET", ISO_BUDGET)
    sigma = constructions.build_sigma_coordinate(family, golay)
    lam = constructions.build_lambda_coordinate(golay)
    pairs = [
        ("orbital sigma vs coordinate sigma", orbital_models["sigma"].graph, sigma),
        ("coordinate sigma vs AG(5,3) STD graph", sigma, constructions.build_std_ag(5)),
        ("orbital lambda vs coordinate lambda", orbital_models["lambda"], lam),
        (
            "coordinate lambda vs shortened-code coset graph",
            lam,
            codes.coset_graph(codes.shorten(golay, 0)),
        ),
    ]
    for name, g1, g2 in pairs:
        mapping = are_isomorphic(g1, g2)
        assert mapping is not None, f"no isomorphism found: {name}"
        assert verify_bijection(g1, g2, mapping), f"certificate failed: {name}"
    report(10, "all isomorphism claims hold with re-verified certificates")


def fixed_small_graphs():
    graphs = []
    for n in range(3, 13):
        graphs.append((f"C{n}", cycle_graph(n)))
    for n in range(1, 13):
        graphs.append((f"K{n}", complete_graph(n)))
    for a in range(1, 7):
        for b in range(a, 13 - a):
            graphs.append((f"K{a},{b}", complete_bipartite_graph(a, b)))
    graphs.append(("Petersen", petersen_graph()))
    graphs.append(("Petersen complement", complement(petersen_graph())))
    graphs.append(("K4 minus edge", Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])))
    for n in range(2, 7):
        graphs.append((f"P{n}", path_graph(n)))
    return graphs


def test_criterion_11_property_suites(decomp, orbital_models):
    # DRG checker vs brute-force oracle on the fixed small-graph family
    checked = 0
    for name, g in fixed_small_graphs():
        expected = oracle_intersection_array(g)
        try:
            arr = is_distance_regular(g)
            got = (arr.b, arr.c) if arr is not None else None
        except GraphStructureError:
            got = "disconnected"
        assert got == expected, f"checker disagrees with oracle on {name}"
        checked += 1
    assert checked >= 60

    # orbital partition: transpose-closed and size-summing
    assert sum(decomp.suborbit_sizes) == 486
    assert sorted(decomp.pairing) == list(range(decomp.rank))
    for k in range(decomp.rank):
        assert decomp.pairing[decomp.pairing[k]] == k
    pair_counts = Counter(decomp.pair_ids.ravel().tolist())
    for k in range(decomp.rank):
        assert pair_counts[k] == 486 * decomp.suborbit_sizes[k]
        assert pair_counts[k] == pair_counts[decomp.pairing[k]]

    # collapsed matrices: row sums and the double-counting identity
    sizes = decomp.suborbit_sizes
    for which in ("delta", "upsilon", "sigma"):
        graph = orbital_models[which].graph
        b = permaction.collapsed_matrix(graph, decomp)
        valency = np.count_nonzero(graph.adjacency_matrix[0])
        for i in range(decomp.rank):
            assert sum(b[i]) == valency
            for j in range(decomp.rank):
                assert b[i][j] * sizes[i] == b[j][i] * sizes[j]
    report(11, "oracle agreement on small graphs; orbital and collapsed-matrix identities")


def test_criterion_12_documented_negative_result(family, golay):
    result = constructions.experiment_flat_incidence(family, golay)
    assert result.flat_degree_counts == ((0, 108), (81, 135))
    assert result.coset_degree_counts == ((45, 243),)
    assert not result.regular
    report(12, "literal incidence experiment: flat degrees 81/0, non-regular, no claim made")
