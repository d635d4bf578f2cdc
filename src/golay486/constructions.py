"""The pipeline tying codes, flats and the rank-9 action together.

Builds the coset graph of the ternary Golay code (the Berlekamp-van
Lint-Seidel graph), the 81 intermediate ten-spaces with their two weight
classes, the symmetric-transversal-design incidence graphs, the three
486-vertex distance-regular graphs carried by the bundled rank-9 action
(the Koolen-Riebeek graph, the second Soicher graph and the AG(5,3) design
graph) and the induced 243-vertex subgraph: each as an orbital model over
the action and, where one exists, as a coordinate model.  The claims that
tie the models together are declared once, in `golay486.cli.CLAIMS`.

Everything here is a pure function of its arguments: nothing is cached
but what a code object derives from itself.  The Golay code is an argument
too, so a caller builds each artifact once and passes it on
(`golay486.cli.Run` does this for every subcommand).  Every coset-side
builder reads one word of each coset from `golay.lifts`, row i in coset i,
which is coset vertex i.  Every kept functional vanishes on the code, so
any word of a coset gives the same values, the same flats and the same
tally; no minimum-weight leader is needed here.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import codes, gf3, permaction
from .gf3 import Matrix, Vector
from .graph import Graph, GraphStructureError, bipartite_halves, complement
from .permaction import GroupAction, OrbitalDecomposition

# Weight tallies of the two classes of ten-spaces between the Golay code
# and its ambient space.  Type I is the 45-member class (4 weight-1
# vectors, i.e. the kernels of weight-9 dual functionals); Type II is the
# 36-member class (10 weight-1 vectors, kernels of weight-6 functionals).
TYPE_I_WEIGHTS = (1, 4, 76, 456, 1716, 4956, 9912, 13944, 14214, 9314, 3776, 680)
TYPE_II_WEIGHTS = (1, 10, 70, 420, 1770, 4992, 9822, 13980, 14160, 9440, 3680, 704)

# Degree of the bundled action; every --gens file is read at this degree too.
BUNDLED_DEGREE = 486

# Suborbit sizes of the bundled action, split by the bipartition of the
# Koolen-Riebeek graph: coset-like and flat-like.
COSET_SUBORBIT_SIZES = frozenset({1, 2, 20, 40, 180})
FLAT_SUBORBIT_SIZES = frozenset({36, 45, 72, 90})

# The one map from the five orbital models to their suborbit sizes: delta =
# the 45-orbital; upsilon = 20+36; sigma = 45+36; lambda = the 20-orbital
# induced on the coset half; gamma_half = the (2+20)-union induced on it.
ORBITAL_MODELS = {
    "delta": frozenset({45}),
    "upsilon": frozenset({20, 36}),
    "sigma": frozenset({45, 36}),
    "lambda": frozenset({20}),
    "gamma_half": frozenset({2, 20}),
}


@dataclass(frozen=True)
class FlatFamily:
    """The 81 ten-spaces containing the Golay code but not e0, with types.

    Subspace i is the kernel of functionals[i] (canonical, lex-sorted);
    its three translates are the flats {x : functionals[i](x) = c} for
    c in {0,1,2}, giving 243 flats in all.
    """

    functionals: tuple[Vector, ...]
    bases: tuple[Matrix, ...]
    types: tuple[str, ...]

    def __post_init__(self):
        if not (len(self.functionals) == len(self.bases) == len(self.types)):
            raise ValueError("parallel fields must have equal lengths")

    @property
    def subspace_count(self) -> int:
        return len(self.functionals)

    @property
    def flat_count(self) -> int:
        return 3 * self.subspace_count

    def type_indices(self, label: str) -> tuple[int, ...]:
        return tuple(i for i, t in enumerate(self.types) if t == label)


@dataclass(frozen=True)
class LabeledModel:
    """A 486-vertex graph together with its coset/flat vertex split."""

    graph: Graph
    half_a: tuple[int, ...]
    half_b: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.half_a + self.half_b) != list(range(self.graph.n)):
            raise ValueError("halves must partition the vertex set")
        if len(self.half_a) != len(self.half_b):
            raise ValueError("halves must have equal sizes")


@dataclass(frozen=True)
class BlocksReport:
    """blocks_checked counts the flat-side blocks, all checked at once;
    block_size is their common size, -1 if sizes differ; counterexample is
    the first (flat, u, v) whose block holds the edge uv of gamma_half."""

    blocks_checked: int
    block_size: int
    all_cocliques: bool
    halved_equals_complement: bool
    counterexample: tuple[int, int, int] | None


@dataclass(frozen=True)
class IncidenceExperimentReport:
    """Outcome of the literal translate-incidence construction.

    The graph built from "coset x meets the translates U+x over the Type I
    class" is biregular (all cosets at degree 45, flats at 81 or 0), so it
    is not regular and in particular no identification with the
    Koolen-Riebeek graph is asserted.
    """

    coset_degree_counts: tuple[tuple[int, int], ...]
    flat_degree_counts: tuple[tuple[int, int], ...]
    regular: bool


def _coset_tallies(code: codes.LinearCode, shifts: np.ndarray) -> np.ndarray:
    """Row i tallies the Hamming weights (0..n) over the coset shifts[i] + code.

    The code's words are listed once as 0/1 rows, has[j, 3p + v] = 1 when
    word j has value v at position p.  For shift l_i, pick[i, 3p + (-l_i[p]
    mod 3)] = 1 marks the value a word needs at p for l_i + word to vanish
    there, so one product pick @ has.T counts the zeros of every shift +
    word at once.  Each entry is at most n, so float32 is exact; the weight
    is n minus it, and one bincount over (coset, weight) tallies every coset.
    """
    n = code.length
    words = gf3._span(code.generator)
    columns = 3 * np.arange(n)
    has = np.zeros((len(words), 3 * n), dtype=np.float32)
    has[np.arange(len(words))[:, None], columns + words] = 1
    needs = (-shifts.astype(np.int64)) % 3
    pick = np.zeros((len(shifts), 3 * n), dtype=np.float32)
    pick[np.arange(len(shifts))[:, None], columns + needs] = 1
    weights = n - (pick @ has.T).astype(np.intp)
    width = n + 1
    cells = np.arange(len(shifts))[:, None] * width + weights
    tallies = np.bincount(cells.ravel(), minlength=len(shifts) * width)
    return tallies.reshape(len(shifts), width)


def classify_types(golay: codes.LinearCode) -> FlatFamily:
    """Classify the 81 ten-spaces by weight distribution.

    The kernel of each functional contains the Golay code, so it is the
    disjoint union of the 81 cosets of the code on which the functional
    vanishes, and its tally is the sum of theirs: the 243 cosets are
    tallied once (3^5 x 3^6 vectors, see _coset_tallies), not 81 kernels
    of 3^10.  All 81 kernel tallies are one product, the 0/1 matrix of
    (functional, vanishing coset) pairs times the coset tallies.  Both read
    golay.lifts, one word of each coset.

    Every subspace must match one of the two reference tallies, and the
    first that does not is reported verbatim.
    """
    e0 = gf3.unit_vector(golay.length, 0)
    functionals = gf3.hyperplane_functionals(golay.check, e0)
    bases = gf3.intermediate_hyperplanes(functionals)
    coset_tallies = _coset_tallies(golay, golay.lifts)
    vanishes = (golay.lifts @ np.array(functionals, dtype=np.int64).T) % 3 == 0
    tallies = vanishes.T.astype(np.int64) @ coset_tallies
    type_i = (tallies == TYPE_I_WEIGHTS).all(axis=1)
    unmatched = ~type_i & ~(tallies == TYPE_II_WEIGHTS).all(axis=1)
    if unmatched.any():
        f = int(np.argmax(unmatched))
        raise ValueError(
            f"subspace of functional {functionals[f]} has unmatched weight tally "
            f"{tuple(tallies[f].tolist())}"
        )
    types = tuple("I" if t else "II" for t in type_i)
    return FlatFamily(functionals=functionals, bases=bases, types=types)


def _flat_incidence(
    points: np.ndarray, functionals: Sequence[Vector], chosen: Iterable[int]
) -> Graph:
    """Bipartite graph on the points (rows), then the flats of the functionals.

    Flat 3f + c is {x : functionals[f](x) = c}, numbered after the points;
    each point is joined to its translate for each chosen f.
    """
    size = len(points)
    chosen = np.array(chosen, dtype=np.int64)
    phi = np.array(functionals, dtype=np.int64)[chosen]
    flats = size + 3 * chosen + (points @ phi.T) % 3
    a = np.zeros((size + 3 * len(functionals),) * 2, dtype=bool)
    a[np.arange(size)[:, None], flats] = True
    a[size:, :size] = a[:size, size:].T
    return Graph.from_adjacency(a)


def build_sigma_coordinate(family: FlatFamily, golay: codes.LinearCode) -> Graph:
    """Incidence graph of all 243 cosets versus all 243 flats.

    The cosets are vertices 0..242, coset i holding golay.lifts[i], and
    flat {x : family.functionals[f](x) = c} is vertex 243 + 3f + c.
    Distance-regular with array {81,80,54,1; 1,27,80,81}, bipartite and
    antipodal: the flat-side antipodal classes are the translate triples.
    """
    functionals = family.functionals
    return _flat_incidence(golay.lifts, functionals, range(len(functionals)))


def build_std_ag(n: int) -> Graph:
    """Incidence graph of the symmetric transversal design from AG(n,3).

    Points are the vectors of F_3^n, point i having the base-3 digits of i
    as coordinates.  Blocks are the hyperplane flats whose direction does
    not contain the first unit vector: the functionals y = (1, t), listed
    in the lex order of t, so that flat {x : y^T x = c} is vertex
    3^n + 3 f + c with f the base-3 number t.  The result is
    bipartite antipodal distance-regular on 2*3^n vertices, with array
    {3^(n-1), 3^(n-1)-1, 3^(n-1)-3^(n-2), 1; 1, 3^(n-2), 3^(n-1)-1, 3^(n-1)}.
    """
    if not 2 <= n <= 7:
        raise ValueError(f"n={n} outside the supported range 2..7")
    full = tuple(gf3.unit_vector(n, i) for i in range(n))
    functionals = gf3.hyperplane_functionals(full, full[0])
    return _flat_incidence(gf3._span(full), functionals, range(len(functionals)))


def syndrome_map(golay: codes.LinearCode, family: FlatFamily) -> np.ndarray:
    """The isomorphism from build_sigma_coordinate(family, golay) onto
    build_std_ag(5) that the syndromes give, with no search: entry v is the
    image of vertex v.

    Coset i has the base-3 digits of i as its syndrome against the parity
    check H = golay.check (codes.syndrome_index), and so does AG(5,3) point
    i: coset i goes to point i.  A kept functional phi vanishes on the code,
    so phi = y^T H, and y is phi at H's pivot columns, H being reduced.  Its
    flat {x : phi(x) = c} is then the set of cosets whose point p has
    y^T p = c, so flat (phi, c) goes to flat (y, c).  H's first column is
    the first unit vector, as e0 is not a codeword (classify_types refuses
    a code that holds it), so y[0] = phi[0] = 1, and y = (1, t) is
    build_std_ag's flat base-3(t).  Any y[0] other than 1 gives flat -1,
    whose three images are points, so the map is then no bijection and
    verify_bijection fails.

    y -> y^T H keeps the lex order of canonical functionals, H being
    reduced, so the map is the identity, and the two graphs share one
    adjacency matrix.
    """
    check = golay.check
    r = len(check)
    pivots = [row.index(1) for row in check]  # check is reduced
    ys = np.array(family.functionals, dtype=np.int64)[:, pivots]
    flat = np.where(ys[:, 0] == 1, ys[:, 1:] @ 3 ** np.arange(r - 2, -1, -1), -1)
    flats = 3 * flat[:, None] + np.arange(3)
    return np.concatenate([np.arange(3**r), 3**r + flats.ravel()])


def design_map(model: LabeledModel) -> np.ndarray:
    """The isomorphism from a model of the AG(n,3) design graph onto
    build_std_ag(n) that the design's own parallel classes give, with no
    search: entry v is the image of vertex v.  model.half_a holds the
    points, 3^n of them, and model.half_b the flats.

    With B the flat x point block of the adjacency, two flats are parallel
    when B B^T is 0 for them, and each flat must have exactly two
    parallels, its class being the three.  A class labels each point by
    which of its flats holds it.  In the design each flat is {x : y.x = c}
    with y.u != 0, u being the one direction in no flat; every permutation
    of GF(3) is x -> ax + b, so each class's label is y.x + c for one y.

    The labels are normalised first, then read as build_std_ag's, with no
    change of basis.  The origin o is model.half_a[0], and the first point
    that shares no flat with it (B^T B) is o + u.  A class's scale
    s = label(o + u) - label(o) is y.u, which must not be 0.  As s = 1/s in
    GF(3), its value s (label - label(o)) is y.(x - o) with y.u = 1, which
    is how build_std_ag numbers its flats: y = (1, t).  Class 0's value is
    the first coordinate, and each other class's line, its value less class
    0's, vanishes along u.  The lines are chosen while each one triples the
    number of distinct joint labels (np.bincount), until n - 1 of them and
    class 0 give each point n digits: its index in build_std_ag(n).  A
    class's t is its line at the points of index 3^(n-2), ..., 3, 1; the
    class is affine when its line is t times the chosen lines at every
    point, and then its flat of label r goes to flat 3^n + 3 base-3(t) + c,
    c = s (r - label(o)).

    A miss raises ValueError with a witness, in this order: a point count
    that is not 3^n, a flat without two parallels or a class that is not
    closed, a point o that shares a flat with every point, a class whose
    scale is 0 (y.u = 0), fewer than n classes that each triple the joint
    labels (two points that share those labels), or a class that is not
    affine.  A map that is well defined is certified by the caller
    (verify_bijection).
    """
    points = np.array(model.half_a, dtype=np.int64)
    flats = np.array(model.half_b, dtype=np.int64)
    size, n = len(points), 0
    while 3**n < size:
        n += 1
    if 3**n != size or n < 2:
        raise ValueError(f"{size} points is not 3^n for any n >= 2")
    block = model.graph.adjacency_matrix[flats][:, points]
    b = block.astype(np.float32)
    parallel = b @ b.T == 0  # entries are at most size, so float32 is exact
    counts = np.count_nonzero(parallel, axis=1)
    if (counts != 2).any():
        f = int(np.argmax(counts != 2))
        raise ValueError(f"flat {flats[f]} has {counts[f]} parallel flats, not 2")
    triple = np.sort(
        np.column_stack([np.arange(size), np.nonzero(parallel)[1].reshape(size, 2)]),
        axis=1,
    )
    open_class = (triple[triple] != triple[:, None]).any(axis=(1, 2))
    if open_class.any():
        f = int(np.argmax(open_class))
        raise ValueError(
            f"the flats parallel to flat {flats[f]}, {tuple(flats[triple[f]].tolist())}, "
            "are not parallel to each other"
        )
    classes = triple[triple[:, 0] == np.arange(size)]
    # int8 labels keep the mod-3 arithmetic below on small integers
    labels = block[classes[:, 1]] + block[classes[:, 2]] * np.int8(2)
    apart = np.argmin(b[:, 0] @ b)
    if b[:, 0] @ b[:, apart]:
        raise ValueError(f"point {points[0]} shares a flat with every point")
    scale = (labels[:, apart] - labels[:, 0]) % 3
    if not scale.all():
        k = int(np.argmin(scale))
        raise ValueError(
            f"points {points[0]} and {points[apart]} share no flat, yet the "
            f"class of flats {tuple(flats[classes[k]].tolist())} holds their line"
        )
    # y.(x - o) up to a multiple of 3: class 0's reads x0, and each other
    # class's line, its value less class 0's, vanishes along u
    lines = scale[:, None] * (labels - labels[:, :1])
    lines[1:] -= lines[0]
    key, chosen = np.zeros(size, dtype=np.int64), []
    for k, line in enumerate(lines):
        trial = 3 * key + line % 3
        if np.count_nonzero(np.bincount(trial)) == 3 ** (len(chosen) + 1):
            key, chosen = trial, chosen + [k]
            if len(chosen) == n:
                break
    if len(chosen) < n:
        order = np.argsort(key, kind="stable")
        p, q = order[np.argmax(np.diff(key[order]) == 0) + np.arange(2)]
        raise ValueError(
            f"only {len(chosen)} parallel classes, not {n}, each triple the joint "
            f"labels: points {points[p]} and {points[q]} share the labels of those"
        )
    places = 3 ** np.arange(n - 1, -1, -1)
    t = lines[:, np.argsort(key)[places]] % 3
    # in float32 the product runs on BLAS, exactly: its entries are at most 4n
    product = t.astype(np.float32) @ (lines[chosen] % 3)
    wrong = (product.astype(np.int8) - lines) % 3 != 0
    if wrong.any():
        k, p = np.unravel_index(np.argmax(wrong), wrong.shape)
        raise ValueError(
            f"the class of flats {tuple(flats[classes[k]].tolist())} is not affine "
            f"at point {points[p]}"
        )
    mapping = np.empty(2 * size, dtype=np.int64)
    mapping[points] = key
    values = scale[:, None] * (np.arange(3) - labels[:, :1]) % 3
    mapping[flats[classes]] = size + 3 * (t[:, 1:] @ places[1:])[:, None] + values
    return mapping


def _bundled_generators_text() -> str:
    return (
        resources.files("golay486").joinpath("data/generators_486.txt").read_text()
    )


def bundled_action() -> GroupAction:
    """The rank-9 degree-486 action shipped with the package."""
    return permaction.parse_generator_file(_bundled_generators_text(), degree=BUNDLED_DEGREE)


def compute_coset_half(decomp: OrbitalDecomposition) -> tuple[int, ...]:
    """The bipartition class of the 45-orbital graph holding the cosets.

    The half is the union of the suborbits of sizes 1,2,20,40,180, read off
    row 0 of the pair table by one mask; every suborbit meets row 0, so the
    sizes are checked on decomp.suborbit_sizes alone.

    It is checked as a block of the action, with no graph built: each
    generator must map the half onto itself or onto its complement.  Then
    the whole group permutes the two halves, and every 45-orbital pair,
    the image of (0, z) with 0 in the half and z in the 45-suborbit
    outside it, crosses between them.  So the 45-orbital graph is bipartite
    with the half, which holds vertex 0, as one colour class.  Each
    generator costs O(n).  blocks_report derives the class a second time,
    by a BFS bipartition of the graph.
    """
    leftover = set(decomp.suborbit_sizes) - (COSET_SUBORBIT_SIZES | FLAT_SUBORBIT_SIZES)
    if leftover:
        raise GraphStructureError(
            f"unexpected suborbit sizes {sorted(leftover)}; not the rank-9 action"
        )
    if 45 not in decomp.id_by_suborbit_size():
        raise GraphStructureError("no suborbits of sizes [45]")
    coset = np.array([size in COSET_SUBORBIT_SIZES for size in decomp.suborbit_sizes])
    side = coset[decomp.pair_ids[0]]
    for i, g in enumerate(decomp.action.generators):
        kept = side[list(g)] == side
        if kept.any() and not kept.all():
            raise GraphStructureError(
                f"coset suborbits are not a block of the action: generator {i} "
                f"keeps vertex {int(np.argmax(kept))} on its side and moves "
                f"vertex {int(np.argmin(kept))} across"
            )
    return tuple(np.flatnonzero(side).tolist())


def orbital_model(
    decomp: OrbitalDecomposition, which: str, half: tuple[int, ...]
) -> LabeledModel | Graph:
    """Orbital model of one of the five graphs, for any rank-9 action.

    `which` is a key of ORBITAL_MODELS, whose suborbit sizes select the
    union.  Each size is matched to its suborbit's id (the sizes are
    distinct), and a size the action lacks raises.  `half` is the coset
    half, from compute_coset_half(decomp), and an induced model is the
    union's adjacency sliced to it, vertex i being half[i].  The whole
    union is built, so that orbital_union_graph stays the one selection
    path.
    """
    if which not in ORBITAL_MODELS:
        raise ValueError(
            f"unknown model {which!r}; expected one of {tuple(ORBITAL_MODELS)}"
        )
    sizes = ORBITAL_MODELS[which]
    by_size = decomp.id_by_suborbit_size()
    missing = sizes - by_size.keys()
    if missing:
        raise GraphStructureError(f"no suborbits of sizes {sorted(missing)}")
    graph = permaction.orbital_union_graph(decomp, {by_size[s] for s in sizes})
    if which in ("lambda", "gamma_half"):
        return Graph.from_adjacency(graph.adjacency_matrix[list(half)][:, list(half)])
    flat = np.ones(graph.n, dtype=bool)
    flat[list(half)] = False
    other = tuple(np.flatnonzero(flat).tolist())
    return LabeledModel(graph=graph, half_a=half, half_b=other)


def blocks_report(delta: LabeledModel, gamma_half: Graph) -> BlocksReport:
    """Check the block structure of an orbital Koolen-Riebeek model.

    Every flat-side vertex's 45 coset-side neighbors must form a coclique
    in the coset-half graph, and the halved graph on the coset side must
    equal the complement of that graph edge-for-edge on shared labels.
    gamma_half labels the coset half 0..242 in the order of delta.half_a.
    """
    a = delta.graph.adjacency_matrix
    flats = np.array(delta.half_b, dtype=np.int64)
    position = np.zeros(delta.graph.n, dtype=np.int64)
    position[list(delta.half_a)] = np.arange(len(delta.half_a))
    # members[b, i]: coset-half vertex i (gamma_half's label) is in block b;
    # a block holds an edge of gamma_half iff it meets its own neighbourhood
    members = a[flats][:, list(delta.half_a)].astype(np.float32)
    meets = members @ gamma_half.adjacency_matrix.astype(np.float32)
    inside = (meets * members).any(axis=1)
    counterexample = None
    if inside.any():
        f = int(flats[np.argmax(inside)])
        block = np.flatnonzero(a[f])
        pos = position[block]
        u, v = np.argwhere(np.triu(gamma_half.adjacency_matrix[pos][:, pos], 1))[0]
        counterexample = (f, int(block[u]), int(block[v]))
    sizes = a[flats].sum(axis=1)
    half0, (side0, _) = bipartite_halves(delta.graph)
    halved_ok = side0 == delta.half_a and half0 == complement(gamma_half)
    return BlocksReport(
        blocks_checked=len(flats),
        block_size=int(sizes[0]) if len(sizes) and (sizes == sizes[0]).all() else -1,
        all_cocliques=counterexample is None,
        halved_equals_complement=halved_ok,
        counterexample=counterexample,
    )


def build_lambda_coordinate(golay: codes.LinearCode) -> Graph:
    """Graph on the 243 cosets joining those differing by a weight-1 coset
    away from coordinate 0; distance-regular {20,18,4,1; 1,2,18,20}."""
    return codes.coset_graph(golay, positions=range(1, golay.length))


def experiment_flat_incidence(
    family: FlatFamily, golay: codes.LinearCode
) -> IncidenceExperimentReport:
    """Build the literal translate-incidence graph and report its degrees.

    Under the literal reading, every coset meets one translate of each
    Type I subspace (degree 45) while the flats of Type I subspaces meet
    all 81 of their cosets and the others meet none.  The report records
    that split and deliberately asserts nothing more.
    """
    chosen = family.type_indices("I")
    graph = _flat_incidence(golay.lifts, family.functionals, chosen)
    degrees = graph.adjacency_matrix.sum(axis=1)

    def counts(part):
        values, times = np.unique(part, return_counts=True)
        return tuple(zip(values.tolist(), times.tolist()))

    cosets = len(golay.lifts)
    return IncidenceExperimentReport(
        coset_degree_counts=counts(degrees[:cosets]),
        flat_degree_counts=counts(degrees[cosets:]),
        regular=bool((degrees == degrees[0]).all()),
    )
