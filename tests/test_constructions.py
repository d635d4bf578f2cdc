import dataclasses
import hashlib
import pickle
import random
from collections import Counter
from itertools import product

import numpy as np
import pytest

from golay486 import codes, constructions, gf3
from golay486.constructions import (
    TYPE_I_WEIGHTS,
    TYPE_II_WEIGHTS,
    blocks_report,
    build_lambda_coordinate,
    build_sigma_coordinate,
    build_std_ag,
    compute_coset_half,
    experiment_flat_incidence,
    orbital_model,
)
from golay486.permaction import GroupAction, orbitals
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
    dot,
    gathered_orbital_union,
    ix_block,
    ladder_codes,
    product_antipodal_fold,
    relabel_action,
    shifted_weight_counts,
    vec_add,
)


def test_gamma_parameters(gamma):
    assert srg_parameters(gamma) == (243, 22, 1, 2)
    eig = np.linalg.eigvalsh(gamma.adjacency_matrix.astype(np.float64))
    assert sorted(set(np.round(eig, 6).tolist()), reverse=True) == [22, 4, -5]


def test_gamma_every_edge_in_one_triangle(gamma):
    rng = random.Random(3)
    edges = list(gamma.edges())
    for u, v in rng.sample(edges, 200):
        common = set(gamma.neighbors(u)) & set(gamma.neighbors(v))
        assert len(common) == 1  # lambda = 1


def test_gamma_eccentricities_are_two(gamma):
    from golay486.graph import distance_matrix

    assert distance_matrix(gamma).max(axis=1).tolist() == [2] * gamma.n


def test_classify_types_counts_and_tallies(family):
    assert family.subspace_count == 81
    assert family.flat_count == 243
    counts = Counter(family.types)
    assert counts == {"I": 45, "II": 36}
    # reference tallies, recomputed rather than trusted
    for index in family.type_indices("I")[:3]:
        assert gf3.subspace_weight_counts(family.bases[index]) == TYPE_I_WEIGHTS
    for index in family.type_indices("II")[:3]:
        assert gf3.subspace_weight_counts(family.bases[index]) == TYPE_II_WEIGHTS
    assert sum(TYPE_I_WEIGHTS) == sum(TYPE_II_WEIGHTS) == 3**10
    # weight-1 content separates the classes: 4 vs 10 unit vectors
    assert TYPE_I_WEIGHTS[1] == 4 and TYPE_II_WEIGHTS[1] == 10


def test_golay_coset_tallies_take_three_values(golay, leaders):
    # a perfect code: a coset's tally depends only on its leader's weight
    weights_by_tally = {}
    for leader in map(tuple, leaders.tolist()):
        tally = shifted_weight_counts(golay.generator, leader)
        weights_by_tally.setdefault(tally, []).append(sum(map(bool, leader)))
    assert len(weights_by_tally) == 3
    assert sorted((w[0], len(w)) for w in weights_by_tally.values()) == [
        (0, 1), (1, 22), (2, 220),
    ]
    assert all(len(set(w)) == 1 for w in weights_by_tally.values())


def test_coset_tallies_product_equals_one_shifted_span_each(golay, leaders):
    table = constructions._coset_tallies(golay, leaders)
    assert table.shape == (243, 12)
    assert table.tolist() == [
        list(shifted_weight_counts(golay.generator, v)) for v in leaders.tolist()
    ]
    # any code and any shifts, not only the Golay cosets
    rng = random.Random(31)
    shortened = codes.shorten(golay, 0)
    shifts = [tuple(rng.randrange(3) for _ in range(10)) for _ in range(20)]
    assert constructions._coset_tallies(shortened, np.array(shifts)).tolist() == [
        list(shifted_weight_counts(shortened.generator, v)) for v in shifts
    ]
    # the length-12 extended code's 729 cosets, leaders as uint8 and as int64
    extended = ladder_codes(golay)["extended"]
    coset_leaders = codes.syndrome_table(extended)
    expected = [
        list(shifted_weight_counts(extended.generator, v)) for v in coset_leaders.tolist()
    ]
    for dtype in (np.uint8, np.int64):
        table = constructions._coset_tallies(extended, coset_leaders.astype(dtype))
        assert table.shape == (729, 13)
        assert table.tolist() == expected


def test_classify_types_rejects_a_repeated_leader(golay, leaders):
    repeated = leaders.copy()
    repeated[7] = leaders[3]
    with pytest.raises(ValueError, match="^leader table row 7 lies in coset 3, not coset 7$"):
        constructions.classify_types(golay, repeated)


def test_classify_types_rejects_swapped_leader_rows(golay, leaders):
    # each functional still vanishes on 81 distinct cosets, but row i is no
    # longer the leader of coset i, as build_sigma_coordinate relies on
    swapped = leaders.copy()
    swapped[[3, 7]] = leaders[[7, 3]]
    with pytest.raises(ValueError, match="^leader table row 3 lies in coset 7, not coset 3$"):
        constructions.classify_types(golay, swapped)


def test_classify_types_rejects_a_short_leader_table(golay, leaders):
    with pytest.raises(ValueError, match="^leader table has 242 rows, not 243$"):
        constructions.classify_types(golay, leaders[:-1])


def test_flat_family_pickle_is_unchanged(family):
    # digest of the family built with one null_space per kernel basis and
    # one tally per functional
    digest = hashlib.sha256(pickle.dumps(family, protocol=4)).hexdigest()
    assert digest == "1c082a057301876a54adc71f888c766357a077b30db345a40d4172e0019c2a07"


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (
            lambda tallies: tallies * 2,
            "subspace of functional (1, 0, 0, 0, 0, 1, 0, 1, 2, 2, 2) has unmatched "
            "weight tally (2, 20, 140, 840, 3540, 9984, 19644, 27960, 28320, 18880, "
            "7360, 1408)",
        ),
        (
            lambda tallies: np.roll(tallies, 1, axis=0),
            "subspace of functional (1, 0, 0, 0, 1, 1, 1, 0, 1, 1, 0) has unmatched "
            "weight tally (0, 6, 75, 450, 1755, 4896, 9873, 14130, 14040, 9360, 3792, 672)",
        ),
    ],
    ids=["doubled", "rolled"],
)
def test_classify_types_names_the_first_unmatched_tally(
    golay, leaders, monkeypatch, corrupt, message
):
    real = constructions._coset_tallies
    monkeypatch.setattr(
        constructions, "_coset_tallies", lambda code, rows: corrupt(real(code, rows))
    )
    with pytest.raises(ValueError) as info:
        constructions.classify_types(golay, leaders)
    assert str(info.value) == message


def test_classify_types_names_the_first_functional_without_81_cosets(golay, leaders):
    repeated = leaders.copy()
    repeated[6] = leaders[3]
    with pytest.raises(ValueError) as info:
        constructions.classify_types(golay, repeated)
    assert str(info.value) == "leader table row 6 lies in coset 3, not coset 6"


def test_flat_types_follow_the_functional_weight(family):
    # the dual of a ten-space is {0, phi, 2 phi}; MacWilliams gives its tally
    for phi, label in zip(family.functionals, family.types):
        weight = sum(map(bool, phi))
        assert (weight, label) in ((9, "I"), (6, "II"))
        dual = [0] * 12
        dual[0], dual[weight] = 1, 2
        reference = TYPE_I_WEIGHTS if label == "I" else TYPE_II_WEIGHTS
        assert codes.macwilliams_transform(dual) == reference


def test_type_tally_is_basis_independent(family):
    rng = random.Random(55)
    for index in (0, 40, 80):
        basis = list(family.bases[index])
        rng.shuffle(basis)
        mixed = [basis[0]] + [
            vec_add(row, basis[i - 1]) for i, row in enumerate(basis) if i
        ]
        tally = gf3.subspace_weight_counts(gf3.row_space_basis(gf3.matrix(mixed)))
        assert tally == gf3.subspace_weight_counts(family.bases[index])


def test_sigma_coordinate_structure(golay, leaders, family):
    g = build_sigma_coordinate(family, leaders)
    assert g.n == 486
    arr = is_distance_regular(g)
    assert str(arr) == "{81,80,54,1; 1,27,80,81}"
    assert arr.is_bipartite() and arr.is_antipodal()
    # one neighbor-flat per subspace for every coset vertex
    for ci in range(0, 243, 13):
        flats = g.neighbors(ci)
        assert len(flats) == 81
        assert len({(f - 243) // 3 for f in flats}) == 81
    # flat-side antipodal classes are the translate triples
    _, classes = antipodal_fold(g)
    flat_classes = [c for c in classes if c[0] >= 243]
    assert len(flat_classes) == 81
    for c in flat_classes:
        assert len(c) == 3
        assert len({(f - 243) // 3 for f in c}) == 1
    # coset vertices pair with the canonical representatives in syndrome
    # order, each syndrome taken vector by vector
    check = golay.check
    syndromes = list(product((0, 1, 2), repeat=5))
    for i in (0, 100, 242):
        assert tuple(dot(h, tuple(leaders[i].tolist())) for h in check) == syndromes[i]


def test_std_ag_small_arrays():
    arr = is_distance_regular(build_std_ag(3))
    assert str(arr) == "{9,8,6,1; 1,3,8,9}"
    g2 = build_std_ag(2)
    assert g2.n == 18
    arr = is_distance_regular(g2)
    assert str(arr) == "{3,2,2,1; 1,1,2,3}"
    with pytest.raises(ValueError):
        build_std_ag(8)


# sha256 of the repr of the neighbour tuples, recorded when build_std_ag had its own double
# loop and the sigma model its own incidence builder; AG(5,3) and the
# coset/flat model are the same labelled graph.
STD_AG_DIGESTS = {
    2: "7fc4f1a2245cfcabb694e73d1a6affbba5e542bdd3f6a3a212f035ceebaa8ecc",
    3: "b97898bb94992293b10a78c7896299537d26a8b06191af59ef0d26bb73f89883",
    4: "fd906aa5fcffa28dce094589460fee7f4903393fa9da983f694002094637543a",
    5: "7dbfef8dd64f3ac179142b15afbddab84fa4b80067a5660e9c03aaaf304ac299",
    6: "5c748a8f400eef9c952d86ddece79a5f40f67fd8fc4937532e2433e93acd8852",
}


def _adjacency_digest(g) -> str:
    return hashlib.sha256(
        repr(tuple(g.neighbors(v) for v in range(g.n))).encode()
    ).hexdigest()


@pytest.mark.parametrize("n", sorted(STD_AG_DIGESTS))
def test_std_ag_adjacency_is_unchanged(n):
    assert _adjacency_digest(build_std_ag(n)) == STD_AG_DIGESTS[n]


def test_sigma_coordinate_adjacency_is_unchanged(family, leaders):
    assert _adjacency_digest(build_sigma_coordinate(family, leaders)) == STD_AG_DIGESTS[5]


def test_coset_half_is_standard_labelling(decomp):
    assert compute_coset_half(decomp) == tuple(range(243))


def test_coset_half_rejects_a_suborbit_size_of_neither_half():
    # S5 on 5 points has suborbits of sizes 1 and 4
    s5 = GroupAction(5, ((1, 0, 2, 3, 4), (1, 2, 3, 4, 0)))
    with pytest.raises(GraphStructureError, match=r"unexpected suborbit sizes \[4\]"):
        compute_coset_half(orbitals(s5))


@pytest.mark.parametrize("seed", [None, *range(10)])
def test_coset_half_is_the_block_of_the_base_and_the_bfs_class(bundled_action, seed):
    if seed is None:
        action, sigma = bundled_action, list(range(bundled_action.degree))
    else:
        action, sigma = relabel_action(bundled_action, seed)
    decomp = orbitals(action)
    half = compute_coset_half(decomp)
    # the bundled blocks are 0..242 and 243..485; the base 0 is the image
    # of a point of one of them, and the half is that block renamed
    block = range(243) if sigma.index(0) < 243 else range(243, 486)
    assert half == tuple(sorted(sigma[x] for x in block))
    delta = orbital_model(decomp, "delta", half=half)
    assert bipartite_halves(delta.graph)[1][0] == half


def test_coset_half_refuses_a_generator_that_splits_it(decomp):
    # a transposition of a coset-half vertex and a flat-half one keeps every
    # other vertex on its side
    n = decomp.action.degree
    swap = list(range(n))
    swap[1], swap[243] = 243, 1
    action = GroupAction(n, decomp.action.generators + (tuple(swap),))
    split = dataclasses.replace(decomp, action=action)
    with pytest.raises(
        GraphStructureError,
        match=r"not a block of the action: generator 3 keeps vertex 0 on its "
        r"side and moves vertex 1 across",
    ):
        compute_coset_half(split)


def test_coset_half_needs_a_45_suborbit():
    # S3 on 3 points: suborbits of sizes 1 and 2, both coset-like
    s3 = GroupAction(3, ((1, 0, 2), (1, 2, 0)))
    with pytest.raises(GraphStructureError, match=r"no suborbits of sizes \[45\]"):
        compute_coset_half(orbitals(s3))


def test_coset_half_builds_no_graph_and_runs_no_bfs(monkeypatch, decomp):
    def refuse(*args):
        raise AssertionError("compute_coset_half built a graph or ran a BFS")

    for name in (
        "golay486.permaction.orbital_union_graph",
        "golay486.graph.bipartition",
        "golay486.graph._bfs",
    ):
        monkeypatch.setattr(name, refuse)
    assert compute_coset_half(decomp) == tuple(range(243))


def test_orbital_models_arrays(orbital_models):
    assert str(is_distance_regular(orbital_models["delta"].graph)) == "{45,44,36,5; 1,9,40,45}"
    assert str(is_distance_regular(orbital_models["upsilon"].graph)) == "{56,45,16,1; 1,8,45,56}"
    assert str(is_distance_regular(orbital_models["sigma"].graph)) == "{81,80,54,1; 1,27,80,81}"
    assert str(is_distance_regular(orbital_models["lambda"])) == "{20,18,4,1; 1,2,18,20}"
    assert srg_parameters(orbital_models["gamma_half"]) == (243, 22, 1, 2)


def test_orbital_model_halves(orbital_models):
    delta = orbital_models["delta"]
    assert delta.half_a == tuple(range(243))
    assert delta.half_b == tuple(range(243, 486))


def test_build_from_orbitals_rejects_unknown(decomp):
    with pytest.raises(ValueError):
        orbital_model(decomp, "theta", half=compute_coset_half(decomp))


def test_vertex_counts_from_arrays(orbital_models, gamma):
    for graph in (
        gamma,
        orbital_models["delta"].graph,
        orbital_models["upsilon"].graph,
        orbital_models["sigma"].graph,
        orbital_models["lambda"],
    ):
        arr = is_distance_regular(graph)
        assert sum(arr.distance_class_sizes()) == graph.n


def test_fold_sizes_multiply_back(orbital_models):
    for graph in (orbital_models["upsilon"].graph, orbital_models["lambda"]):
        folded, classes = antipodal_fold(graph)
        assert len({len(c) for c in classes}) == 1
        assert folded.n * len(classes[0]) == graph.n


def test_folds_match_the_product_criterion(orbital_models, golay):
    for graph in (
        orbital_models["upsilon"].graph,
        orbital_models["lambda"],
        build_lambda_coordinate(golay),
    ):
        assert antipodal_fold(graph) == product_antipodal_fold(graph)


def test_upsilon_antipodal_classes_are_2_suborbits(orbital_models, decomp):
    upsilon = orbital_models["upsilon"].graph
    _, classes = antipodal_fold(upsilon)
    by_size = decomp.id_by_suborbit_size()
    two = by_size[2]
    ids = decomp.pair_ids
    n = 486
    class_of = {}
    for c in classes:
        for v in c:
            class_of[v] = set(c)
    for v in range(n):
        mates = {w for w in range(n) if ids[v, w] == two}
        assert class_of[v] == {v} | mates


def test_upsilon_restricted_to_half_is_lambda(orbital_models):
    # the valency-56 graph restricted to the coset half (0..242 in the
    # bundled labelling) equals the induced 20-orbital graph
    upsilon = orbital_models["upsilon"].graph
    induced = Graph.from_adjacency(upsilon.adjacency_matrix[:243, :243])
    assert induced == orbital_models["lambda"]


@pytest.mark.parametrize("fixture", ["bundled_action", "relabelled_action"])
def test_induced_models_are_the_ix_block_of_their_union(fixture, request):
    decomp = orbitals(request.getfixturevalue(fixture))
    half = compute_coset_half(decomp)
    by_size = decomp.id_by_suborbit_size()
    for which, sizes in (("lambda", (20,)), ("gamma_half", (2, 20))):
        union = gathered_orbital_union(decomp, [by_size[s] for s in sizes])
        model = orbital_model(decomp, which, half=half)
        assert np.array_equal(model.adjacency_matrix, ix_block(union, half, half))


def test_blocks_report(orbital_models):
    report = blocks_report(orbital_models["delta"], orbital_models["gamma_half"])
    assert report.blocks_checked == 243
    assert report.block_size == 45
    assert report.all_cocliques
    assert report.halved_equals_complement
    assert report.counterexample is None


def test_blocks_report_reads_minus_one_for_unequal_blocks(orbital_models):
    # one flat loses one edge: every block is still a coclique, of 45 or 44
    delta = orbital_models["delta"]
    a = delta.graph.adjacency_matrix.copy()
    f = delta.half_b[0]
    v = np.flatnonzero(a[f])[0]
    a[f, v] = a[v, f] = False
    pruned = dataclasses.replace(delta, graph=Graph.from_adjacency(a))
    report = blocks_report(pruned, orbital_models["gamma_half"])
    assert report.blocks_checked == 243 and report.all_cocliques
    assert report.block_size == -1


def test_blocks_report_on_relabelled_action(relabelled_action):
    decomp = orbitals(relabelled_action)
    half = compute_coset_half(decomp)
    assert half != tuple(range(243))
    report = blocks_report(
        orbital_model(decomp, "delta", half=half),
        orbital_model(decomp, "gamma_half", half=half),
    )
    assert (report.blocks_checked, report.block_size) == (243, 45)
    assert report.all_cocliques and report.counterexample is None
    assert report.halved_equals_complement


def test_halved_delta_equals_complement_directly(orbital_models):
    delta = orbital_models["delta"].graph
    half0, (side0, side1) = bipartite_halves(delta)
    assert side0 == tuple(range(243))
    comp = complement(orbital_models["gamma_half"])
    assert half0 == comp
    assert srg_parameters(half0) == (243, 220, 199, 200)
    # the flat half has the same strongly regular parameters: rotate the
    # labels by 243, so that flat vertex 243 becomes vertex 0, and halve again
    rotate = (np.arange(486) + 243) % 486
    flat0, (flats, _) = bipartite_halves(
        Graph.from_adjacency(delta.adjacency_matrix[np.ix_(rotate, rotate)])
    )
    assert flats == tuple(range(243))
    assert srg_parameters(flat0) == (243, 220, 199, 200)


def test_coset_shapes_match_coset_half_suborbits(decomp, golay, leaders):
    shapes = codes.classify_cosets(golay, leaders)
    half_suborbit_ids = set(decomp.pair_ids[0, :243].tolist())
    sizes = sorted(decomp.suborbit_sizes[k] for k in half_suborbit_ids)
    assert sorted(shapes.values()) == sizes == [1, 2, 20, 40, 180]


def test_lambda_coordinate(golay):
    lam = build_lambda_coordinate(golay)
    arr = is_distance_regular(lam)
    assert str(arr) == "{20,18,4,1; 1,2,18,20}"
    folded, classes = antipodal_fold(lam)
    assert len(classes[0]) == 3
    assert srg_parameters(folded) == (81, 20, 1, 6)


def test_lambda_coordinate_adjacency_is_unchanged(golay):
    # digest of the adjacency built by the offset loop that
    # build_lambda_coordinate had before it called codes.coset_graph
    digest = _adjacency_digest(build_lambda_coordinate(golay))
    assert digest == "e68ff94cbbc912ac97f8d102adfc7ec6cf86f20467ba10f76b3dc2b5fe688fd3"


def test_lambda_coordinate_isomorphic_to_shortened_coset_graph(golay):
    lam = build_lambda_coordinate(golay)
    shortened = codes.coset_graph(codes.shorten(golay, 0))
    mapping = are_isomorphic(lam, shortened)
    assert mapping is not None and verify_bijection(lam, shortened, mapping)


@pytest.mark.parametrize("position", [0, 3, 10])
def test_shortening_map_sends_each_unit_coset_to_its_golay_coordinate(golay, position):
    short = codes.shorten(golay, position)
    mapping = codes.shortening_map(golay, position)
    assert sorted(mapping.tolist()) == list(range(243))
    kept = [i for i in range(golay.length) if i != position]
    for i, j in enumerate(kept):
        for a in (1, 2):
            [source] = codes.syndrome_index(short, [gf3.unit_vector(10, i, a)]).tolist()
            [target] = codes.syndrome_index(golay, [gf3.unit_vector(11, j, a)]).tolist()
            assert mapping[source] == target
    shortened = codes.coset_graph(short)
    weight_one = codes.coset_graph(golay, positions=kept)
    assert verify_bijection(shortened, weight_one, mapping)
    assert verify_bijection(weight_one, shortened, np.argsort(mapping))


def test_shortening_map_certifies_the_lambda_coordinate_model(golay):
    mapping = codes.shortening_map(golay, 0)
    lam = build_lambda_coordinate(golay)
    shortened = codes.coset_graph(codes.shorten(golay, 0))
    assert verify_bijection(lam, shortened, np.argsort(mapping))
    assert not verify_bijection(lam, shortened, np.arange(243))


def test_syndrome_map_sends_e0_to_the_first_unit_vector(golay, family, leaders):
    mapping = constructions.syndrome_map(golay, family)
    # the AG(5,3) point with digits (a,0,0,0,0) is vertex 81 a
    for a in (1, 2):
        [coset] = codes.syndrome_index(golay, [gf3.unit_vector(11, 0, a)]).tolist()
        assert mapping[coset] == 81 * a
    sigma = build_sigma_coordinate(family, leaders)
    assert verify_bijection(sigma, build_std_ag(5), mapping)
    # y -> y^T H keeps the lex order of the functionals: the identity
    assert mapping.tolist() == list(range(486))


def test_experiment_flat_incidence(family, leaders):
    report = experiment_flat_incidence(family, leaders)
    assert report.coset_degree_counts == ((45, 243),)
    assert report.flat_degree_counts == ((0, 108), (81, 135))
    assert not report.regular
