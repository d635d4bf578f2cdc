"""Command-line front end: build, verify, export, and diagram emission.

Exit codes follow a CI-friendly contract: 0 when every evaluated claim
passes, 1 when a claim fails, 2 when the environment is unusable (missing
or corrupt generator data, unwritable output).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from dataclasses import asdict, dataclass

from . import codes, constructions, gf3, permaction
from .constructions import LabeledModel
from .graph import (
    Graph,
    GraphStructureError,
    antipodal_fold,
    are_isomorphic,
    complement,
    graph6_encode,
    is_distance_regular,
    srg_parameters,
    verify_bijection,
)
from .permaction import CycleParseError, GroupAction

SCHEMA_VERSION = 1

# Every --gens file, for verify and group alike, is read as an action of the
# bundled degree; a point above it is a parse error (exit 2).
GENS_DEGREE = 486

EXPECTED_SUBORBIT_SIZES = (1, 2, 20, 36, 40, 45, 72, 90, 180)
EXPECTED_SCAN_ARRAYS = {
    "{485; 1}",
    "{243,242; 1,243}",
    "{483,2; 1,483}",
    "{45,44,36,5; 1,9,40,45}",
    "{56,45,16,1; 1,8,45,56}",
    "{81,80,54,1; 1,27,80,81}",
}

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


def _entry(claim_id, description, expected, observed, passed) -> ReportEntry:
    return ReportEntry(
        claim_id=claim_id,
        description=description,
        expected=str(expected),
        observed=str(observed),
        verdict="PASS" if passed else "FAIL",
    )


def _skipped(claim_id, description, expected) -> ReportEntry:
    return ReportEntry(
        claim_id=claim_id,
        description=description,
        expected=str(expected),
        observed="not evaluated",
        verdict="SKIPPED",
    )


def _srg_str(params) -> str:
    return str(params.as_tuple()) if params is not None else "not strongly regular"


def _code_claims() -> list[ReportEntry]:
    golay = codes.golay_code()
    dist = codes.minimum_distance(golay)
    out = [
        _entry(
            "code.parameters",
            "ternary Golay code parameters",
            "[11,6] with minimum distance 5",
            f"[{golay.length},{golay.dimension}] with minimum distance {dist}",
            (golay.length, golay.dimension, dist) == (11, 6, 5),
        )
    ]
    spheres = 1 + 22 + 220
    out.append(
        _entry(
            "code.perfect",
            "radius-2 spheres tile the ambient space",
            "sphere size 243 = 3^5, perfect",
            f"sphere size {spheres}, perfect={codes.is_perfect(golay, 2)}",
            codes.is_perfect(golay, 2),
        )
    )
    gamma = constructions.build_gamma()
    out.append(
        _entry(
            "gamma.srg",
            "coset graph of the Golay code",
            "(243, 22, 1, 2)",
            _srg_str(srg_parameters(gamma)),
            srg_parameters(gamma) is not None
            and srg_parameters(gamma).as_tuple() == (243, 22, 1, 2),
        )
    )
    comp_params = srg_parameters(complement(gamma))
    out.append(
        _entry(
            "gamma.complement_srg",
            "complement of the coset graph",
            "(243, 220, 199, 200)",
            _srg_str(comp_params),
            comp_params is not None and comp_params.as_tuple() == (243, 220, 199, 200),
        )
    )
    return out


def _flat_claims() -> list[ReportEntry]:
    golay = codes.golay_code()
    e0 = gf3.unit_vector(11, 0)
    duals = gf3.null_space(golay.generator, width=11)
    all_classes = gf3.projective_points(duals, length=11)
    kept = gf3.hyperplane_functionals(golay.generator, e0)
    out = [
        _entry(
            "flats.functional_counts",
            "hyperplane classes over the quotient, before/after excluding e0",
            "121 classes, 40 excluded, 81 kept",
            f"{len(all_classes)} classes, {len(all_classes) - len(kept)} excluded, "
            f"{len(kept)} kept",
            (len(all_classes), len(kept)) == (121, 81),
        )
    ]
    family = constructions.classify_types()
    counts = (len(family.type_indices("I")), len(family.type_indices("II")))
    out.append(
        _entry(
            "flats.count",
            "ten-spaces between the Golay code and the ambient space, and their flats",
            "81 subspaces, 243 flats",
            f"{family.subspace_count} subspaces, {family.flat_count} flats",
            (family.subspace_count, family.flat_count) == (81, 243),
        )
    )
    out.append(
        _entry(
            "flats.types",
            "weight-distribution classes of the 81 ten-spaces",
            "45 Type I and 36 Type II, no third class",
            f"{counts[0]} Type I and {counts[1]} Type II",
            counts == (45, 36),
        )
    )
    shapes = codes.classify_cosets(golay)
    observed = tuple(shapes[s] for s in ("0", "+-e0", "+-ei", "+-e0+-ei", "+-ei+-ej"))
    out.append(
        _entry(
            "cosets.shapes",
            "canonical coset representatives by support shape",
            "(1, 2, 20, 40, 180)",
            str(observed),
            observed == (1, 2, 20, 40, 180),
        )
    )
    return out


def _group_claims(action: GroupAction) -> list[ReportEntry]:
    out = [
        _entry(
            "group.generators",
            "bundled generator count and degree",
            "3 generators of degree 486",
            f"{len(action.generators)} generators of degree {action.degree}",
            len(action.generators) == 3 and action.degree == 486,
        ),
        _entry(
            "group.transitive",
            "the action is transitive",
            "orbit of point 1 covers all 486 points",
            f"orbit size {len(permaction.orbit(action, 0))}",
            permaction.is_transitive(action),
        ),
    ]
    order = permaction.group_order(action)
    out.append(
        _entry(
            "group.order",
            "group order by stabilizer chain",
            "349920",
            str(order),
            order == 349920,
        )
    )
    try:
        decomp = permaction.orbitals(action)
        rank, sizes = str(decomp.rank), str(tuple(sorted(decomp.suborbit_sizes)))
        rank_ok = decomp.rank == 9
        sizes_ok = tuple(sorted(decomp.suborbit_sizes)) == EXPECTED_SUBORBIT_SIZES
    except GraphStructureError as exc:
        rank = sizes = f"unavailable: {exc}"
        rank_ok = sizes_ok = False
    out.append(_entry("group.rank", "orbital count of the action", "9", rank, rank_ok))
    out.append(
        _entry(
            "group.suborbits",
            "suborbit sizes",
            str(EXPECTED_SUBORBIT_SIZES),
            sizes,
            sizes_ok,
        )
    )
    return out


def _scan_claims(decomp) -> list[ReportEntry]:
    results = permaction.scan_orbital_unions(decomp)
    arrays = {str(r.array) for r in results}
    return [
        _entry(
            "scan.count",
            "orbital unions that are connected distance-regular graphs",
            "6",
            str(len(results)),
            len(results) == 6,
        ),
        _entry(
            "scan.arrays",
            "their intersection arrays (set equality)",
            str(sorted(EXPECTED_SCAN_ARRAYS)),
            str(sorted(arrays)),
            arrays == EXPECTED_SCAN_ARRAYS,
        ),
    ]


def _array_claim(claim_id, description, graph, expected) -> tuple[ReportEntry, object]:
    arr = is_distance_regular(graph)
    return (
        _entry(
            claim_id,
            description,
            expected,
            str(arr) if arr else "not distance-regular",
            arr is not None and str(arr) == expected,
        ),
        arr,
    )


def _model_claims(models: dict[str, LabeledModel | Graph]) -> list[ReportEntry]:
    out = []
    delta = models["delta"].graph
    entry, arr = _array_claim(
        "delta.array", "45-orbital graph", delta, "{45,44,36,5; 1,9,40,45}"
    )
    out.append(entry)
    out.append(
        _entry(
            "delta.imprimitivity",
            "45-orbital graph is bipartite but not antipodal (array level)",
            "bipartite, not antipodal",
            f"bipartite={arr.is_bipartite()}, antipodal={arr.is_antipodal()}"
            if arr
            else "no array",
            arr is not None and arr.is_bipartite() and not arr.is_antipodal(),
        )
    )

    upsilon = models["upsilon"].graph
    entry, arr = _array_claim(
        "upsilon.array", "20+36 orbital graph", upsilon, "{56,45,16,1; 1,8,45,56}"
    )
    out.append(entry)
    folded, classes = antipodal_fold(upsilon)
    params = srg_parameters(folded)
    out.append(
        _entry(
            "upsilon.fold",
            "antipodal quotient of the 20+36 graph",
            "classes of size 3, folded SRG (162, 56, 10, 24)",
            f"classes of size {len(classes[0])}, folded {_srg_str(params)}",
            len(classes[0]) == 3
            and params is not None
            and params.as_tuple() == (162, 56, 10, 24),
        )
    )

    sigma = models["sigma"].graph
    entry, arr = _array_claim(
        "sigma.array", "45+36 orbital graph", sigma, "{81,80,54,1; 1,27,80,81}"
    )
    out.append(entry)
    out.append(
        _entry(
            "sigma.imprimitivity",
            "45+36 orbital graph is bipartite and antipodal (array level)",
            "bipartite and antipodal",
            f"bipartite={arr.is_bipartite()}, antipodal={arr.is_antipodal()}"
            if arr
            else "no array",
            arr is not None and arr.is_bipartite() and arr.is_antipodal(),
        )
    )

    lam = models["lambda"]
    entry, arr = _array_claim(
        "lambda.array",
        "20-orbital graph induced on the coset half",
        lam,
        "{20,18,4,1; 1,2,18,20}",
    )
    out.append(entry)
    lam_folded, lam_classes = antipodal_fold(lam)
    lam_params = srg_parameters(lam_folded)
    out.append(
        _entry(
            "lambda.fold",
            "antipodal quotient of the induced graph",
            "classes of size 3, folded SRG (81, 20, 1, 6)",
            f"classes of size {len(lam_classes[0])}, folded {_srg_str(lam_params)}",
            len(lam_classes[0]) == 3
            and lam_params is not None
            and lam_params.as_tuple() == (81, 20, 1, 6),
        )
    )

    gamma_half = models["gamma_half"]
    params = srg_parameters(gamma_half)
    out.append(
        _entry(
            "gamma_half.srg",
            "2+20 union on the coset half",
            "(243, 22, 1, 2)",
            _srg_str(params),
            params is not None and params.as_tuple() == (243, 22, 1, 2),
        )
    )

    report = constructions.blocks_report(models["delta"], gamma_half)
    out.append(
        _entry(
            "blocks.cocliques",
            "flat-side neighborhoods are cocliques in the coset-half graph",
            "243 blocks, all of size 45, all cocliques",
            f"{report.blocks_checked} blocks of size {report.block_size}, "
            f"cocliques={report.all_cocliques}",
            report.blocks_checked == 243
            and report.block_size == 45
            and report.all_cocliques,
        )
    )
    out.append(
        _entry(
            "halved_delta.complement",
            "halved 45-orbital graph equals the complement of the coset-half graph",
            "edge sets equal on shared labels",
            "equal" if report.halved_equals_complement else "different",
            report.halved_equals_complement,
        )
    )
    return out


def _iso_claims(models: dict[str, LabeledModel | Graph]) -> list[ReportEntry]:
    targets = [
        (
            "iso.sigma_orbital_coordinate",
            "orbital 45+36 graph vs coset/flat incidence model",
            models["sigma"].graph,
            constructions.build_sigma_coordinate().graph,
        ),
        (
            "iso.sigma_coordinate_affine",
            "coset/flat incidence model vs AG(5,3) design graph",
            constructions.build_sigma_coordinate().graph,
            constructions.build_std_ag(5),
        ),
        (
            "iso.lambda_orbital_coordinate",
            "induced orbital graph vs weight-1 coset graph",
            models["lambda"],
            constructions.build_lambda_coordinate(),
        ),
        (
            "iso.lambda_coordinate_shortened",
            "weight-1 coset graph vs coset graph of the shortened Golay code",
            constructions.build_lambda_coordinate(),
            codes.coset_graph(codes.shorten(codes.golay_code(), 0)),
        ),
    ]
    out = []
    for claim_id, description, g1, g2 in targets:
        mapping = are_isomorphic(g1, g2)
        ok = mapping is not None and verify_bijection(g1, g2, mapping)
        out.append(
            _entry(
                claim_id,
                description,
                "isomorphic (certificate re-verified edge by edge)",
                "isomorphic" if ok else "no isomorphism found",
                ok,
            )
        )
    return out


def _experiment_claims() -> list[ReportEntry]:
    report = constructions.experiment_flat_incidence("type1")
    expected_flats = ((0, 108), (81, 135))
    return [
        _entry(
            "experiment.incidence_degrees",
            "literal translate-incidence graph degree split "
            "(documented negative result, no identification claimed)",
            "cosets all 45; flats 81 on 135 vertices and 0 on 108; not regular",
            f"cosets {dict(report.coset_degree_counts)}; "
            f"flats {dict(report.flat_degree_counts)}; regular={report.regular}",
            report.coset_degree_counts == ((45, 243),)
            and report.flat_degree_counts == expected_flats
            and not report.regular,
        )
    ]


def run_verification(
    gens_path: str | None = None,
    skip: tuple[str, ...] = (),
    seed: int | None = None,
) -> VerificationReport:
    """Evaluate every claim, honoring --skip prefixes, and time the stages."""

    def skipped(claim_id: str) -> bool:
        return any(claim_id == s or claim_id.startswith(s + ".") for s in skip)

    entries: list[ReportEntry] = []
    timings: list[tuple[str, float]] = []

    def run_stage(name, fn):
        start = time.perf_counter()
        produced = fn()
        timings.append((name, round(time.perf_counter() - start, 3)))
        entries.extend(produced)

    action = _load_action(gens_path)

    run_stage("code", _code_claims)
    run_stage("flats", _flat_claims)
    run_stage("group", lambda: _group_claims(action))

    try:
        decomp = permaction.orbitals(action)
    except GraphStructureError as exc:
        decomp = None
        entries.append(
            _entry(
                "scan.arrays",
                "orbital-union scan over the action",
                "six intersection arrays",
                f"unavailable: {exc}",
                False,
            )
        )
    if decomp is not None:
        run_stage("scan", lambda: _scan_claims(decomp))

    model_entries: list[ReportEntry] = []
    models: dict[str, LabeledModel | Graph] = {}
    start = time.perf_counter()
    try:
        if decomp is None:
            raise GraphStructureError("no orbital decomposition")
        if gens_path is None:
            models = {w: constructions.build_from_orbitals(w)
                      for w in constructions.ORBITAL_MODELS}
        else:
            half = constructions.compute_coset_half(decomp)
            models = {w: constructions.orbital_model(decomp, w, half=half)
                      for w in constructions.ORBITAL_MODELS}
        model_entries = _model_claims(models)
    except GraphStructureError as exc:
        model_entries = [
            _entry(
                "models.buildable",
                "orbital models can be built from the action",
                "five models",
                f"failed: {exc}",
                False,
            )
        ]
    timings.append(("models", round(time.perf_counter() - start, 3)))
    entries.extend(model_entries)

    iso_placeholders = [
        ("iso.sigma_orbital_coordinate", "orbital 45+36 graph vs incidence model"),
        ("iso.sigma_coordinate_affine", "incidence model vs AG(5,3) design graph"),
        ("iso.lambda_orbital_coordinate", "induced orbital graph vs weight-1 coset graph"),
        ("iso.lambda_coordinate_shortened", "weight-1 coset graph vs shortened-code graph"),
    ]
    if all(skipped(cid) for cid, _ in iso_placeholders):
        entries.extend(
            _skipped(cid, desc, "isomorphic") for cid, desc in iso_placeholders
        )
    elif models:
        run_stage("iso", lambda: _iso_claims(models))
    else:
        entries.extend(
            _entry(cid, desc, "isomorphic", "models unavailable", False)
            for cid, desc in iso_placeholders
        )

    run_stage("experiment", _experiment_claims)

    final_entries = tuple(
        _skipped(e.claim_id, e.description, e.expected)
        if e.verdict != "SKIPPED" and skipped(e.claim_id)
        else e
        for e in entries
    )
    overall = all(e.verdict != "FAIL" for e in final_entries)
    metadata = [("generators", gens_path or "bundled")]
    if seed is not None:
        metadata.append(("seed", str(seed)))
    return VerificationReport(
        schema_version=SCHEMA_VERSION,
        entries=final_entries,
        overall=overall,
        timings=tuple(timings),
        metadata=tuple(metadata),
    )


# ---------------------------------------------------------------------------
# DOT emission
# ---------------------------------------------------------------------------


def distance_diagram_dot(name: str, graph: Graph) -> str:
    """One node per distance class (labeled k_i), edges labeled b_i/c_{i+1};
    classes with a_i > 0 carry the a-value on the node."""
    arr = is_distance_regular(graph)
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


_DOT_STATEMENT = re.compile(
    r"^(\w+ \[label=\"[^\"]*\"\];|\w+ -- \w+ \[label=\"[^\"]*\"\];"
    r"|rankdir=\w+;|node \[shape=\w+\];)$"
)


def check_dot(text: str) -> bool:
    """Minimal validity check for the DOT we emit (header, statements, brace)."""
    lines = [ln.strip() for ln in text.strip().splitlines()]
    if len(lines) < 2:
        return False
    if not re.fullmatch(r"graph \w+ \{", lines[0]):
        return False
    if lines[-1] != "}":
        return False
    return all(_DOT_STATEMENT.fullmatch(ln) for ln in lines[1:-1])


def _selected_graph(selector: str) -> Graph:
    if selector == "gamma":
        return constructions.build_gamma()
    if selector in ("delta", "upsilon", "sigma"):
        return constructions.build_from_orbitals(selector).graph
    if selector == "lambda":
        return constructions.build_from_orbitals("lambda")
    raise ValueError(f"unknown graph selector {selector!r}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_verify(args) -> int:
    skip = tuple(s.strip() for s in args.skip.split(",") if s.strip()) if args.skip else ()
    report = run_verification(gens_path=args.gens, skip=skip, seed=args.seed)
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
        wd = codes.weight_distribution(golay)
        for w, count in enumerate(wd.counts):
            if count:
                print(f"{w} {count}")
    else:  # cosets
        for shape, count in codes.classify_cosets(golay).items():
            print(f"{shape} {count}")
    return 0


def _load_action(gens_path: str | None) -> GroupAction:
    """The bundled action, or a --gens file read at the bundled degree."""
    if gens_path is None:
        return constructions.bundled_action()
    with open(gens_path) as handle:
        return permaction.parse_generator_file(handle.read(), degree=GENS_DEGREE)


def _cmd_group(args) -> int:
    action = _load_action(args.gens)
    if args.action == "order":
        print(permaction.group_order(action))
        return 0
    try:
        decomp = permaction.orbitals(action)
    except GraphStructureError as exc:
        # only an intransitive generator file gets here
        print(f"generator data has no orbital decomposition: {exc}", file=sys.stderr)
        return 2
    if args.action == "orbitals":
        print(f"rank {decomp.rank}")
        print("suborbit sizes " + " ".join(map(str, sorted(decomp.suborbit_sizes))))
    else:  # scan
        for result in permaction.scan_orbital_unions(decomp):
            sizes = "+".join(map(str, result.suborbit_sizes))
            print(f"{sizes:<24} {result.array}")
    return 0


def _cmd_diagram(args) -> int:
    if args.kind == "distance":
        text = distance_diagram_dot(args.graph, _selected_graph(args.graph))
    else:
        if args.graph not in ("delta", "upsilon", "sigma"):
            print(
                f"orbit diagrams need the degree-486 action; {args.graph} "
                "is not one of delta, upsilon, sigma",
                file=sys.stderr,
            )
            return 2
        model = constructions.build_from_orbitals(args.graph)
        text = orbit_diagram_dot(args.graph, model.graph, constructions.bundled_orbitals())
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        print(text, end="")
    return 0


def _cmd_export(args) -> int:
    graph = _selected_graph(args.graph)
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
    p_verify.add_argument("--seed", type=int, help="recorded in the report metadata")
    p_verify.add_argument("--skip", help="comma-separated claim-id prefixes to skip")
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
    except CycleParseError as exc:
        print(f"generator data is corrupt: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
