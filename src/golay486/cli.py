"""Command-line front end: build, verify, export, and diagram emission.

Every subcommand that needs a graph builds it through one `Run`.  Every
`verify` claim is declared once, in `CLAIMS`, and evaluated over the
artifacts of one `Run`, so the bundled action and a --gens action take the
same path.

Exit codes follow a CI-friendly contract: 0 when every evaluated claim
passes, 1 when a claim fails, 2 when the input or the environment is
unusable.  Every refusal of an input is a ValueError: corrupt generator
data, a generated group too large for the stabilizer chain's
MAX_CHAIN_BYTES or MAX_SIFTED_ROWS, an action that `group orbitals|scan`
cannot decompose or scan, an isomorphism search out of budget, a path
that holds a NUL.  `main()` exits 2 on it, as on a missing, unreadable or
unwritable file and on exhausted memory, and inside `verify` it makes a
claim read "unavailable: <reason>".  Any other exception is a fault of
the program and keeps its traceback.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass

import numpy as np

from . import codes, constructions, gf3, permaction
from .constructions import BlocksReport, FlatFamily, LabeledModel
from .graph import (
    Graph,
    GraphStructureError,
    IntersectionArray,
    antipodal_fold,
    are_isomorphic,
    complement,
    graph6_encode,
    is_distance_regular,
    srg_parameters,
    verify_bijection,
)
from .permaction import ChainBudgetError, CycleParseError, GroupAction, OrbitalDecomposition

SCHEMA_VERSION = 1

# Largest --gens file, in bytes; a longer one is refused after reading one
# byte past this.  The bundled file is about 6 kB, and one generator of
# degree permaction.MAX_DEGREE about 20 kB.
MAX_GENERATOR_BYTES = 1 << 20

GRAPH_SELECTORS = ("gamma", "delta", "upsilon", "sigma", "lambda")


@dataclass(frozen=True)
class ReportEntry:
    claim_id: str
    description: str
    expected: str
    observed: str
    verdict: str  # PASS | FAIL | SKIPPED


@dataclass(frozen=True)
class VerificationReport:
    schema_version: int
    entries: tuple[ReportEntry, ...]
    overall: bool
    timings: tuple[tuple[str, float], ...]
    metadata: tuple[tuple[str, str], ...]

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


def _artifact(build):
    """A `Run` property whose value is build(run), made once through `Run._once`."""
    return property(lambda run: run._once(build.__name__, lambda: build(run)))


class Run:
    """The artifacts of one action, for any command: the claims of a verify
    run, or the graph that export and diagram write.

    Each is built on first use and at most once, the same way for the
    bundled action and a --gens action.  The Golay code (`golay`) is an
    artifact too: every builder and claim that needs it reads it here, and
    every coset-side builder takes one word of each coset from
    `golay.lifts`; so is C' = shorten(golay, 0), whose coset graph and
    shortening map read it.  The one isomorphism search of a run,
    `lambda_certificate`, is an artifact as well, which the two claims it
    certifies share.  A build that raises ValueError, the one type of every
    refusal (GraphStructureError and IsomorphismBudgetError among them), is
    not retried: every caller that needs it gets the same error.
    """

    def __init__(self, action: GroupAction):
        self.action = action
        self._built: dict[object, object] = {}

    def _once(self, key, build):
        if key not in self._built:
            try:
                self._built[key] = build()
            except ValueError as exc:
                self._built[key] = exc
        value = self._built[key]
        if isinstance(value, ValueError):
            raise value
        return value

    @_artifact
    def golay(self) -> codes.LinearCode:
        return codes.golay_code()

    @_artifact
    def gamma(self) -> Graph:
        return codes.coset_graph(self.golay)

    @_artifact
    def shortened(self) -> codes.LinearCode:
        return codes.shorten(self.golay, 0)

    @_artifact
    def family(self) -> FlatFamily:
        return constructions.classify_types(self.golay)

    @_artifact
    def sigma_coordinate(self) -> Graph:
        return constructions.build_sigma_coordinate(self.family, self.golay)

    @_artifact
    def lambda_coordinate(self) -> Graph:
        return constructions.build_lambda_coordinate(self.golay)

    @_artifact
    def decomp(self) -> OrbitalDecomposition:
        return permaction.orbitals(self.action)

    @_artifact
    def scan(self) -> list[permaction.ScanResult]:
        return permaction.scan_orbital_unions(self.decomp)

    @_artifact
    def half(self) -> tuple[int, ...]:
        return constructions.compute_coset_half(self.decomp)

    def model(self, which: str) -> LabeledModel | Graph:
        return self._once(
            ("model", which),
            lambda: constructions.orbital_model(self.decomp, which, half=self.half),
        )

    def graph(self, which: str) -> Graph:
        """One of GRAPH_SELECTORS, or the gamma_half orbital model."""
        if which == "gamma":
            return self.gamma
        model = self.model(which)
        return model.graph if isinstance(model, LabeledModel) else model

    def array(self, which: str) -> IntersectionArray | None:
        return self._once(
            ("array", which), lambda: is_distance_regular(self.graph(which))
        )

    @_artifact
    def lambda_certificate(self) -> list[int] | None:
        """An isomorphism from the orbital lambda model onto
        lambda_coordinate, found by are_isomorphic's search, or None."""
        return are_isomorphic(self.graph("lambda"), self.lambda_coordinate)

    @_artifact
    def blocks(self) -> BlocksReport:
        return constructions.blocks_report(
            self.model("delta"), self.model("gamma_half")
        )


@dataclass(frozen=True)
class Claim:
    """One verify claim.  evaluate(run) returns (observed, passed); its time
    is charged to `stage`."""

    claim_id: str
    stage: str
    description: str
    expected: str
    evaluate: Callable[[Run], tuple[str, bool]]


def _reads(claim_id, stage, description, expected, observe) -> Claim:
    """A claim that holds when its observation, as text, reads `expected`."""

    def evaluate(run):
        observed = str(observe(run))
        return observed, observed == expected

    return Claim(claim_id, stage, description, expected, evaluate)


def _srg_str(params) -> str:
    return str(params) if params is not None else "not strongly regular"


def _array(which: str, description: str, expected: str) -> Claim:
    def observe(run):
        arr = run.array(which)
        return str(arr) if arr is not None else "not distance-regular"

    return _reads(f"{which}.array", "models", description, expected, observe)


def _imprimitivity(which: str, antipodal: bool):
    def evaluate(run):
        arr = run.array(which)
        if arr is None:
            return "no array", False
        observed = f"bipartite={arr.is_bipartite()}, antipodal={arr.is_antipodal()}"
        return observed, arr.is_bipartite() and arr.is_antipodal() == antipodal

    return evaluate


def _fold(which: str, description: str, folded_srg: tuple[int, int, int, int]) -> Claim:
    def evaluate(run):
        folded, classes = antipodal_fold(run.graph(which))
        params = srg_parameters(folded)
        return (
            f"classes of size {len(classes[0])}, folded {_srg_str(params)}",
            len(classes[0]) == 3 and params == folded_srg,
        )

    expected = f"classes of size 3, folded SRG {folded_srg}"
    return Claim(f"{which}.fold", "models", description, expected, evaluate)


def _broken_pair(g1: Graph, g2: Graph, mapping: np.ndarray) -> str:
    """Why verify_bijection rejected `mapping`: it is no bijection, or it
    breaks the first pair (u, v) of g1, in row-major order, whose adjacency
    differs from that of its image (u < v, as both matrices are symmetric)."""
    if g1.n != g2.n or not np.array_equal(np.sort(mapping), np.arange(g1.n)):
        return "the map is not a bijection"
    image = g2.adjacency_matrix.take(mapping, 0).take(mapping, 1)
    u, v = divmod(int(np.argmax(image != g1.adjacency_matrix)), g1.n)
    kind = "edge" if g1.adjacency_matrix[u, v] else "non-edge"
    return f"the map breaks the {kind} ({u}, {v})"


def _isomorphic(claim_id: str, description: str, first, second, mapping) -> Claim:
    """A claim that first(run) and second(run) are isomorphic, vertex v
    going to m[v], with m = mapping(run).  Three maps are built with no
    search, from the code or from Sigma's parallel classes; the lambda and
    gamma_half claims share Run.lambda_certificate, the one search, which
    is None when it finds no isomorphism.  verify_bijection certifies each
    map edge by edge; a map it rejects is named by the first pair it
    breaks."""

    def evaluate(run):
        g1, g2 = first(run), second(run)
        m = mapping(run)
        if m is None:
            return "no isomorphism found", False
        if verify_bijection(g1, g2, m):
            return "isomorphic", True
        return _broken_pair(g1, g2, m), False

    expected = "isomorphic (certificate re-verified edge by edge)"
    return Claim(claim_id, "iso", description, expected, evaluate)


def _transitive(run) -> tuple[str, bool]:
    labels = permaction.orbit_labels(run.action.generators, run.action.degree)
    orbit_size = int(np.count_nonzero(labels == 0))
    return f"orbit size {orbit_size}", orbit_size == run.action.degree


def _code_parameters(run) -> str:
    golay = run.golay
    dist = codes.minimum_distance(golay)
    return f"[{golay.length},{golay.dimension}] with minimum distance {dist}"


def _code_perfect(run) -> tuple[str, bool]:
    spheres = codes.sphere_size(run.golay.length, 2)
    perfect = codes.is_perfect(run.golay, 2)
    return f"sphere size {spheres}, perfect={perfect}", perfect


def _functional_counts(run) -> str:
    classes = len(gf3.projective_points(run.golay.check))
    kept = run.family.subspace_count
    return f"{classes} classes, {classes - kept} excluded, {kept} kept"


def _flat_count(run) -> str:
    return f"{run.family.subspace_count} subspaces, {run.family.flat_count} flats"


def _flat_types(run) -> tuple[str, bool]:
    counts = (len(run.family.type_indices("I")), len(run.family.type_indices("II")))
    return f"{counts[0]} Type I and {counts[1]} Type II", counts == (45, 36)


def _macwilliams(run) -> str:
    """How many ten-spaces' enumerated type tally equals the MacWilliams
    transform of their dual {0, phi, 2 phi}.  That dual's tally depends
    only on the weight of phi, so each weight is transformed once."""
    reference = {"I": constructions.TYPE_I_WEIGHTS, "II": constructions.TYPE_II_WEIGHTS}
    family = run.family
    transforms = {}
    equal = 0
    for phi, label in zip(family.functionals, family.types):
        weight = sum(map(bool, phi))
        if weight not in transforms:
            dual = [0] * (len(phi) + 1)
            dual[0] = 1
            dual[weight] += 2
            transforms[weight] = codes.macwilliams_transform(dual)
        equal += transforms[weight] == reference[label]
    return f"{equal} of {family.subspace_count} equal"


def _coset_shapes(run) -> tuple[int, ...]:
    return tuple(codes.classify_cosets(codes.syndrome_table(run.golay)).values())


def _blocks_cocliques(run) -> tuple[str, bool]:
    report = run.blocks
    witness = "" if report.counterexample is None else f" {report.counterexample}"
    return (
        f"{report.blocks_checked} blocks of size {report.block_size}, "
        f"cocliques={report.all_cocliques}{witness}",
        report.blocks_checked == 243
        and report.block_size == 45
        and report.all_cocliques,
    )


def _halved_delta(run) -> tuple[str, bool]:
    equal = run.blocks.halved_equals_complement
    return ("equal" if equal else "different"), equal


def _incidence_degrees(run) -> tuple[str, bool]:
    report = constructions.experiment_flat_incidence(run.family, run.golay)
    return (
        f"cosets {dict(report.coset_degree_counts)}; "
        f"flats {dict(report.flat_degree_counts)}; regular={report.regular}",
        report.coset_degree_counts == ((45, 243),)
        and report.flat_degree_counts == ((0, 108), (81, 135))
        and not report.regular,
    )


SCAN_ARRAYS = (
    "{485; 1}",
    "{243,242; 1,243}",
    "{483,2; 1,483}",
    "{45,44,36,5; 1,9,40,45}",
    "{56,45,16,1; 1,8,45,56}",
    "{81,80,54,1; 1,27,80,81}",
)

# In report order; the stages, in order of first appearance, are the
# report's timings.
CLAIMS = (
    _reads(
        "code.parameters",
        "code",
        "ternary Golay code parameters",
        "[11,6] with minimum distance 5",
        _code_parameters,
    ),
    Claim(
        "code.perfect",
        "code",
        "radius-2 spheres tile the ambient space",
        "sphere size 243 = 3^5, perfect",
        _code_perfect,
    ),
    _reads(
        "gamma.srg",
        "code",
        "coset graph of the Golay code",
        "(243, 22, 1, 2)",
        lambda run: _srg_str(srg_parameters(run.gamma)),
    ),
    _reads(
        "gamma.complement_srg",
        "code",
        "complement of the coset graph",
        "(243, 220, 199, 200)",
        lambda run: _srg_str(srg_parameters(complement(run.gamma))),
    ),
    _reads(
        "flats.functional_counts",
        "flats",
        "hyperplane classes over the quotient, before/after excluding e0",
        "121 classes, 40 excluded, 81 kept",
        _functional_counts,
    ),
    _reads(
        "flats.count",
        "flats",
        "ten-spaces between the Golay code and the ambient space, and their flats",
        "81 subspaces, 243 flats",
        _flat_count,
    ),
    Claim(
        "flats.types",
        "flats",
        "weight-distribution classes of the 81 ten-spaces",
        "45 Type I and 36 Type II, no third class",
        _flat_types,
    ),
    _reads(
        "flats.macwilliams",
        "flats",
        "MacWilliams transform of each ten-space's dual vs its enumerated type's tally",
        "81 of 81 equal",
        _macwilliams,
    ),
    _reads(
        "cosets.shapes",
        "flats",
        "canonical coset representatives by support shape",
        "(1, 2, 20, 40, 180)",
        _coset_shapes,
    ),
    _reads(
        "group.generators",
        "group",
        "bundled generator count and degree",
        "3 generators of degree 486",
        lambda run: (
            f"{len(run.action.generators)} generators of degree {run.action.degree}"
        ),
    ),
    Claim(
        "group.transitive",
        "group",
        "the action is transitive",
        "orbit of point 1 covers all 486 points",
        _transitive,
    ),
    _reads(
        "group.order",
        "group",
        "group order by stabilizer chain",
        "349920",
        lambda run: permaction.group_order(run.action),
    ),
    _reads(
        "group.rank",
        "group",
        "orbital count of the action",
        "9",
        lambda run: run.decomp.rank,
    ),
    _reads(
        "group.suborbits",
        "group",
        "suborbit sizes",
        "(1, 2, 20, 36, 40, 45, 72, 90, 180)",
        lambda run: tuple(sorted(run.decomp.suborbit_sizes)),
    ),
    _reads(
        "scan.count",
        "scan",
        "orbital unions that are connected distance-regular graphs",
        "6",
        lambda run: len(run.scan),
    ),
    _reads(
        "scan.arrays",
        "scan",
        "their intersection arrays (set equality)",
        str(sorted(SCAN_ARRAYS)),
        lambda run: sorted({str(r.array) for r in run.scan}),
    ),
    _array("delta", "45-orbital graph", "{45,44,36,5; 1,9,40,45}"),
    Claim(
        "delta.imprimitivity",
        "models",
        "45-orbital graph is bipartite but not antipodal (array level)",
        "bipartite, not antipodal",
        _imprimitivity("delta", antipodal=False),
    ),
    _array("upsilon", "20+36 orbital graph", "{56,45,16,1; 1,8,45,56}"),
    _fold("upsilon", "antipodal quotient of the 20+36 graph", (162, 56, 10, 24)),
    _array("sigma", "45+36 orbital graph", "{81,80,54,1; 1,27,80,81}"),
    Claim(
        "sigma.imprimitivity",
        "models",
        "45+36 orbital graph is bipartite and antipodal (array level)",
        "bipartite and antipodal",
        _imprimitivity("sigma", antipodal=True),
    ),
    _array(
        "lambda", "20-orbital graph induced on the coset half", "{20,18,4,1; 1,2,18,20}"
    ),
    _fold("lambda", "antipodal quotient of the induced graph", (81, 20, 1, 6)),
    _reads(
        "gamma_half.srg",
        "models",
        "2+20 union on the coset half",
        "(243, 22, 1, 2)",
        lambda run: _srg_str(srg_parameters(run.graph("gamma_half"))),
    ),
    Claim(
        "blocks.cocliques",
        "models",
        "flat-side neighborhoods are cocliques in the coset-half graph",
        "243 blocks, all of size 45, all cocliques",
        _blocks_cocliques,
    ),
    Claim(
        "halved_delta.complement",
        "models",
        "halved 45-orbital graph equals the complement of the coset-half graph",
        "edge sets equal on shared labels",
        _halved_delta,
    ),
    _isomorphic(
        "iso.sigma_orbital_coordinate",
        "orbital 45+36 graph vs coset/flat incidence model",
        lambda run: run.graph("sigma"),
        lambda run: run.sigma_coordinate,
        lambda run: constructions.design_map(run.model("sigma")),
    ),
    _isomorphic(
        "iso.sigma_coordinate_affine",
        "coset/flat incidence model vs AG(5,3) design graph",
        lambda run: run.sigma_coordinate,
        lambda run: constructions.build_std_ag(5),
        lambda run: constructions.syndrome_map(run.golay, run.family),
    ),
    _isomorphic(
        "iso.lambda_orbital_coordinate",
        "induced orbital graph vs weight-1 coset graph",
        lambda run: run.graph("lambda"),
        lambda run: run.lambda_coordinate,
        lambda run: run.lambda_certificate,
    ),
    _isomorphic(
        "iso.gamma_half_coset",
        "2+20 union on the coset half vs coset graph of the Golay code",
        lambda run: run.graph("gamma_half"),
        lambda run: run.gamma,
        lambda run: run.lambda_certificate,
    ),
    _isomorphic(
        "iso.lambda_coordinate_shortened",
        "weight-1 coset graph vs coset graph of the shortened Golay code",
        lambda run: codes.coset_graph(run.shortened),
        lambda run: run.lambda_coordinate,
        lambda run: codes.shortening_map(run.golay, run.shortened, 0),
    ),
    Claim(
        "experiment.incidence_degrees",
        "experiment",
        "literal translate-incidence graph degree split "
        "(documented negative result, no identification claimed)",
        "cosets all 45; flats 81 on 135 vertices and 0 on 108; not regular",
        _incidence_degrees,
    ),
)


def _selects(prefix: str, claim_id: str) -> bool:
    """Whether a --skip prefix selects a claim: the id itself or a dotted prefix."""
    return claim_id == prefix or claim_id.startswith(prefix + ".")


def run_verification(
    gens_path: str | None = None, skip: tuple[str, ...] = ()
) -> VerificationReport:
    """Evaluate every claim not selected by a --skip prefix, timing the stages.

    A skipped claim is not evaluated.  A claim whose artifacts are refused
    (any ValueError: GraphStructureError, a failed data check, or a
    resource bound such as ChainBudgetError or an isomorphism search out of
    budget) fails with "unavailable: <reason>" as its observation.
    """
    run = Run(_load_action(gens_path))
    entries = []
    seconds = dict.fromkeys((claim.stage for claim in CLAIMS), 0.0)
    for claim in CLAIMS:
        if any(_selects(prefix, claim.claim_id) for prefix in skip):
            observed, verdict = "not evaluated", "SKIPPED"
        else:
            start = time.perf_counter()
            try:
                observed, passed = claim.evaluate(run)
            except ValueError as exc:
                observed, passed = f"unavailable: {exc}", False
            seconds[claim.stage] += time.perf_counter() - start
            verdict = "PASS" if passed else "FAIL"
        entries.append(
            ReportEntry(
                claim.claim_id, claim.description, claim.expected, observed, verdict
            )
        )
    return VerificationReport(
        schema_version=SCHEMA_VERSION,
        entries=tuple(entries),
        overall=all(e.verdict != "FAIL" for e in entries),
        timings=tuple((stage, round(s, 3)) for stage, s in seconds.items()),
        metadata=(("generators", gens_path or "bundled"),),
    )


# ---------------------------------------------------------------------------
# DOT emission
# ---------------------------------------------------------------------------


def distance_diagram_dot(name: str, arr: IntersectionArray | None) -> str:
    """One node per distance class (labeled k_i), edges labeled b_i/c_{i+1};
    classes with a_i > 0 carry the a-value on the node.  `arr` is the
    graph's intersection array, None if it is not distance-regular."""
    if arr is None:
        raise GraphStructureError(f"{name} is not distance-regular")
    sizes = arr.distance_class_sizes()
    a = (0,) + arr.a
    lines = [f"graph {name}_distance {{", "  rankdir=LR;", "  node [shape=circle];"]
    for i, k in enumerate(sizes):
        label = str(k) if a[i] == 0 else f"{k}\\na={a[i]}"
        lines.append(f'  k{i} [label="{label}"];')
    for i in range(arr.diameter):
        lines.append(f'  k{i} -- k{i + 1} [label="b={arr.b[i]},c={arr.c[i]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def orbit_diagram_dot(name: str, graph: Graph, decomp) -> str:
    """One node per suborbit (labeled by size); edge labels come from the
    collapsed adjacency matrix."""
    collapsed = permaction.collapsed_matrix(graph, decomp)
    rank = decomp.rank
    lines = [f"graph {name}_orbits {{", "  node [shape=circle];"]
    for i in range(rank):
        lines.append(f'  s{i} [label="{decomp.suborbit_sizes[i]}"];')
    for i in range(rank):
        if collapsed[i][i]:
            lines.append(f'  s{i} -- s{i} [label="{collapsed[i][i]}"];')
        for j in range(i + 1, rank):
            if collapsed[i][j] or collapsed[j][i]:
                lines.append(
                    f'  s{i} -- s{j} [label="{collapsed[i][j]}/{collapsed[j][i]}"];'
                )
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_verify(args) -> int:
    skip = tuple(s.strip() for s in args.skip.split(",") if s.strip()) if args.skip else ()
    unknown = [s for s in skip if not any(_selects(s, c.claim_id) for c in CLAIMS)]
    if unknown:
        print(f"--skip prefix matches no claim: {', '.join(unknown)}", file=sys.stderr)
        return 2
    report = run_verification(gens_path=args.gens, skip=skip)
    width = max(len(e.claim_id) for e in report.entries)
    for e in report.entries:
        print(f"{e.claim_id:<{width}}  {e.verdict:<7} expected {e.expected}; "
              f"observed {e.observed}")
    total = sum(t for _, t in report.timings)
    print(f"overall: {'PASS' if report.overall else 'FAIL'} "
          f"({len(report.entries)} claims, {total:.1f}s)")
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(report.to_json() + "\n")
    if not report.overall:
        failing = next(e.claim_id for e in report.entries if e.verdict == "FAIL")
        print(f"first failing claim: {failing}", file=sys.stderr)
        return 1
    return 0


def _cmd_code(args) -> int:
    golay = codes.golay_code()
    if args.action == "info":
        print(f"length {golay.length}, dimension {golay.dimension}")
        print(f"minimum distance {codes.minimum_distance(golay)}")
        print(f"perfect at radius 2: {codes.is_perfect(golay, 2)}")
        print(f"cosets: {3 ** (golay.length - golay.dimension)}")
    elif args.action == "wd":
        for w, count in enumerate(codes.weight_distribution(golay)):
            if count:
                print(f"{w} {count}")
    else:  # cosets
        shapes = codes.classify_cosets(codes.syndrome_table(golay))
        for shape, count in shapes.items():
            print(f"{shape} {count}")
    return 0


def _load_action(gens_path: str | None) -> GroupAction:
    """The bundled action, or a --gens file of at most MAX_GENERATOR_BYTES
    read at the bundled degree, for verify and group alike: a point above
    it is a parse error (exit 2)."""
    if gens_path is None:
        return constructions.bundled_action()
    with open(gens_path, "rb") as handle:
        data = handle.read(MAX_GENERATOR_BYTES + 1)
    if len(data) > MAX_GENERATOR_BYTES:
        raise CycleParseError(
            f"file longer than {MAX_GENERATOR_BYTES} bytes", MAX_GENERATOR_BYTES
        )
    # decoded as a text-mode open() would, newlines included
    text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
    return permaction.parse_generator_file(text, degree=constructions.BUNDLED_DEGREE)


def _cmd_group(args) -> int:
    run = Run(_load_action(args.gens))
    if args.action == "order":
        print(permaction.group_order(run.action))
        return 0
    if args.action == "orbitals":
        decomp = run.decomp
        print(f"rank {decomp.rank}")
        print("suborbit sizes " + " ".join(map(str, sorted(decomp.suborbit_sizes))))
    else:  # scan
        for result in run.scan:
            sizes = "+".join(map(str, result.suborbit_sizes))
            print(f"{sizes:<24} {result.array}")
    return 0


def _cmd_diagram(args) -> int:
    if args.kind == "orbit" and args.graph not in ("delta", "upsilon", "sigma"):
        print(
            f"orbit diagrams need the degree-486 action; {args.graph} "
            "is not one of delta, upsilon, sigma",
            file=sys.stderr,
        )
        return 2
    run = Run(constructions.bundled_action())
    if args.kind == "distance":
        text = distance_diagram_dot(args.graph, run.array(args.graph))
    else:
        text = orbit_diagram_dot(args.graph, run.graph(args.graph), run.decomp)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        print(text, end="")
    return 0


def _cmd_export(args) -> int:
    graph = Run(constructions.bundled_action()).graph(args.graph)
    if args.format == "graph6":
        text = graph6_encode(graph) + "\n"
    else:
        text = "".join(f"{u} {v}\n" for u, v in graph.edges())
    with open(args.out, "w") as handle:
        handle.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="golay486",
        description="Build and verify the ternary-Golay family of graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run every verification claim")
    p_verify.add_argument("--gens", help="alternate generator file")
    p_verify.add_argument(
        "--skip", help="comma-separated claim-id prefixes not to evaluate"
    )
    p_verify.add_argument("--json", help="also write the report as JSON to this path")
    p_verify.set_defaults(func=_cmd_verify)

    p_code = sub.add_parser("code", help="ternary Golay code facts")
    p_code.add_argument("action", choices=("info", "wd", "cosets"))
    p_code.set_defaults(func=_cmd_code)

    p_group = sub.add_parser("group", help="bundled rank-9 action facts")
    p_group.add_argument("action", choices=("order", "orbitals", "scan"))
    p_group.add_argument("--gens", help="alternate generator file")
    p_group.set_defaults(func=_cmd_group)

    p_scan = sub.add_parser("scan", help="shorthand for 'group scan'")
    p_scan.add_argument("--gens", help="alternate generator file")
    p_scan.set_defaults(func=_cmd_group, action="scan")

    p_diagram = sub.add_parser("diagram", help="emit DOT diagrams")
    p_diagram.add_argument("graph", choices=GRAPH_SELECTORS)
    p_diagram.add_argument("--kind", choices=("distance", "orbit"), default="distance")
    p_diagram.add_argument("-o", "--out", help="output path (default stdout)")
    p_diagram.set_defaults(func=_cmd_diagram)

    p_export = sub.add_parser("export", help="write a graph to a file")
    p_export.add_argument("graph", choices=GRAPH_SELECTORS)
    p_export.add_argument("--format", choices=("graph6", "edgelist"), default="graph6")
    p_export.add_argument("-o", "--out", required=True)
    p_export.set_defaults(func=_cmd_export)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CycleParseError, UnicodeDecodeError) as exc:
        print(f"generator data is corrupt: {exc}", file=sys.stderr)
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
    except MemoryError:
        print("out of memory", file=sys.stderr)
    except ChainBudgetError as exc:
        print(f"generated group is too large: {exc}", file=sys.stderr)
    except GraphStructureError as exc:
        # an intransitive action, or a rank over permaction.MAX_SCAN_RANK
        print(f"unusable generator data: {exc}", file=sys.stderr)
    except ValueError as exc:
        # any other refused input, such as a path that holds a NUL
        print(f"unusable input: {exc}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
