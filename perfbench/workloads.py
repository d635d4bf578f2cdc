"""Seeded inputs, timed bodies and output checks of the three workloads.

Each workload is three steps:

* ``make_inputs(workload, seed, workdir, draw)`` builds everything the
  program is handed, from the seed and the draw alone;
* ``run(workload, inputs, clock)`` calls the program, timing only the
  program calls with ``clock``, and reduces every output to a small plain
  observation outside the clock (so the big graphs can be dropped early);
* ``check(workload, observations)`` compares the observations with values
  fixed in this file and returns ``[(check_name, passed), ...]``.

Expected values live in module constants so a test can mutate one and see
the check fail.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import random
import time
from pathlib import Path

from golay486 import cli, codes, constructions, graph, permaction

# --- verify -----------------------------------------------------------------

VERIFY_CLAIMS = (
    "code.parameters", "code.perfect", "gamma.srg", "gamma.complement_srg",
    "flats.functional_counts", "flats.count", "flats.types", "cosets.shapes",
    "group.generators", "group.transitive", "group.order", "group.rank",
    "group.suborbits", "scan.count", "scan.arrays", "delta.array",
    "delta.imprimitivity", "upsilon.array", "upsilon.fold", "sigma.array",
    "sigma.imprimitivity", "lambda.array", "lambda.fold", "gamma_half.srg",
    "blocks.cocliques", "halved_delta.complement",
    "iso.sigma_orbital_coordinate", "iso.sigma_coordinate_affine",
    "iso.lambda_orbital_coordinate", "iso.lambda_coordinate_shortened",
    "experiment.incidence_degrees",
)

# --- ladder -----------------------------------------------------------------

AG_RUNGS = (3, 4, 5, 6)  # AG(7,3) needs ~0.8 GB in the dense DRG check
CODE_RUNGS = ("golay", "shortened", "truncated", "extended")


def ag_array(n: int) -> str:
    """Closed form from the build_std_ag docstring, with q = 3^(n-1)."""
    q = 3 ** (n - 1)
    return f"{{{q},{q - 1},{q - q // 3},1; 1,{q // 3},{q - 1},{q}}}"


LADDER_ARRAYS = {
    **{f"ag{n}": ag_array(n) for n in AG_RUNGS},
    "golay": "{22,20; 1,2}",
    "shortened": "{20,18,4,1; 1,2,18,20}",
    "truncated": "{20,18; 1,6}",
    "extended": "{24,22,20; 1,2,12}",
}

# --- group ------------------------------------------------------------------

GROUP_ACTIONS = 3
GROUP_DEGREE = 486
GROUP_ORDER = 349920
GROUP_RANK = 9
SUBORBIT_SIZES = (1, 2, 20, 36, 40, 45, 72, 90, 180)
SCAN_ARRAYS = (
    "{243,242; 1,243}",
    "{45,44,36,5; 1,9,40,45}",
    "{483,2; 1,483}",
    "{485; 1}",
    "{56,45,16,1; 1,8,45,56}",
    "{81,80,54,1; 1,27,80,81}",
)
MODEL_EDGES = {
    "delta": 486 * 45 // 2,
    "upsilon": 486 * 56 // 2,
    "sigma": 486 * 81 // 2,
    "lambda": 243 * 20 // 2,
    "gamma_half": 243 * 22 // 2,
}
# Collapsed adjacency matrices with rows and columns in increasing suborbit
# size.  They are invariants of the action, so every relabelling must give
# exactly these.
COLLAPSED = {
    "delta": (
        (0, 0, 0, 0, 0, 45, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0, 45, 0),
        (0, 0, 0, 9, 0, 0, 18, 18, 0), (0, 0, 5, 0, 10, 0, 0, 0, 30),
        (0, 0, 0, 9, 0, 9, 18, 9, 0), (1, 0, 0, 0, 8, 0, 0, 0, 36),
        (0, 0, 5, 0, 10, 0, 0, 0, 30), (0, 1, 4, 0, 4, 0, 0, 0, 36),
        (0, 0, 0, 6, 0, 9, 12, 18, 0),
    ),
    "upsilon": (
        (0, 0, 20, 36, 0, 0, 0, 0, 0), (0, 0, 0, 0, 20, 0, 36, 0, 0),
        (1, 0, 1, 9, 0, 9, 0, 18, 18), (1, 0, 5, 5, 0, 5, 0, 10, 30),
        (0, 1, 0, 0, 1, 9, 9, 18, 18), (0, 0, 4, 4, 8, 0, 8, 8, 24),
        (0, 1, 0, 0, 5, 5, 5, 10, 30), (0, 0, 4, 4, 8, 4, 8, 4, 24),
        (0, 0, 2, 6, 4, 6, 12, 12, 14),
    ),
    "sigma": (
        (0, 0, 0, 36, 0, 45, 0, 0, 0), (0, 0, 0, 0, 0, 0, 36, 45, 0),
        (0, 0, 0, 18, 0, 9, 18, 36, 0), (1, 0, 10, 0, 10, 0, 0, 0, 60),
        (0, 0, 0, 9, 0, 18, 27, 27, 0), (1, 0, 4, 0, 16, 0, 0, 0, 60),
        (0, 1, 5, 0, 15, 0, 0, 0, 60), (0, 1, 8, 0, 12, 0, 0, 0, 60),
        (0, 0, 0, 12, 0, 15, 24, 30, 0),
    ),
}
GROUP_CHECKS = (
    "order", "rank", "suborbits", "scan", "coset_half",
    *(f"model.{w}" for w in MODEL_EDGES),
    *(f"collapsed.{w}" for w in COLLAPSED),
    "blocks",
)

# Checks that fail because of a known program defect.  They still count in
# `failed`; they only leave the run's `correct` flag alone.  blocks_report
# looks up 486-vertex labels in the 243-vertex gamma_half, which is right
# only when the coset half is 0..242, so every relabelled action fails it.
KNOWN_DEFECTS = {"group": frozenset({"blocks"})}

CHECKS_PER_RUN = {
    "verify": len(VERIFY_CLAIMS),
    "ladder": 2 * (len(AG_RUNGS) + len(CODE_RUNGS)) + len(AG_RUNGS),
    "group": GROUP_ACTIONS * len(GROUP_CHECKS),
}


class Clock:
    """Records the ``(start, end)`` of every ``with clock:`` block."""

    def __init__(self):
        self.spans: list[tuple[float, float]] = []

    @property
    def total(self) -> float:
        return sum(end - start for start, end in self.spans)

    def __enter__(self):
        self._start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.spans.append((self._start, time.monotonic()))


# --- inputs -----------------------------------------------------------------


def _shuffled(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def make_inputs(workload: str, seed: int, workdir: str, draw: int = 0) -> dict:
    """Everything the program is handed, generated from `seed` and `draw` alone.

    Each round of a run takes the next draw, so a run covers many
    relabellings: the relabelling changes the work itself, and one draw per
    run would make the run's time depend on the seed.
    """
    rng = random.Random(f"{seed}:{draw}")
    if workload == "verify":
        # The bundled asset, unchanged; the seed does not enter.
        return {"report": os.path.join(workdir, f"verify-{os.getpid()}.json")}
    if workload == "ladder":
        return {
            "rungs": [*(f"ag{n}" for n in AG_RUNGS), *CODE_RUNGS],
            "relabel": {f"ag{n}": _shuffled(rng, 2 * 3**n) for n in AG_RUNGS},
        }
    if workload == "group":
        asset = Path(constructions.__file__).parent / "data" / "generators_486.txt"
        bundled = permaction.parse_generator_file(
            asset.read_text(), degree=GROUP_DEGREE
        ).generators
        texts = []
        for _ in range(GROUP_ACTIONS):
            sigma = _shuffled(rng, GROUP_DEGREE)
            lines = []
            for name, g in zip("abc", bundled):
                conj = [0] * GROUP_DEGREE
                for x in range(GROUP_DEGREE):
                    conj[sigma[x]] = sigma[g[x]]
                lines.append(f"{name} := {permaction.format_cycles(tuple(conj))};\n")
            texts.append("".join(lines))
        return {"gens": texts}
    raise ValueError(f"unknown workload {workload!r}")


# --- timed bodies -------------------------------------------------------------


def _run_verify(inputs: dict, clock: Clock) -> list[dict]:
    path = inputs["report"]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        with clock:
            code = cli.main(["verify", "--json", path])
    try:
        with open(path) as handle:
            report = json.load(handle)
    except (OSError, ValueError):
        report = {"entries": [], "timings": []}
    finally:
        with contextlib.suppress(OSError):
            os.remove(path)
    return [
        {
            "exit": code,
            "verdicts": {e["claim_id"]: e["verdict"] for e in report["entries"]},
            "timings": dict(report["timings"]),
        }
    ]


def _ladder_code(name: str) -> codes.LinearCode:
    golay = codes.golay_code()
    if name == "golay":
        return golay
    if name == "shortened":
        return codes.shorten(golay, 0)
    if name == "truncated":
        return codes.truncate(golay, 0)
    return codes.linear_code(
        [row + ((-sum(row)) % 3,) for row in golay.generator]
    )


def _same_graph(g: graph.Graph, h: graph.Graph) -> bool:
    return g.n == h.n and all(g.neighbors(v) == h.neighbors(v) for v in range(g.n))


def _certificate_holds(g: graph.Graph, h: graph.Graph, mapping) -> bool:
    """Edge-by-edge check of g -> h, written apart from verify_bijection."""
    if mapping is None or sorted(mapping) != list(range(g.n)):
        return False
    if g.edge_count != h.edge_count:
        return False
    return all(
        h.has_edge(mapping[u], mapping[v]) for u in range(g.n) for v in g.neighbors(u)
    )


def _run_ladder(inputs: dict, clock: Clock) -> list[dict]:
    out = []
    relabel = inputs["relabel"]
    for name in inputs["rungs"]:
        with clock:
            if name.startswith("ag"):
                g = constructions.build_std_ag(int(name[2:]))
            else:
                g = codes.coset_graph(_ladder_code(name))
            arr = graph.is_distance_regular(g)
            back = graph.graph6_decode(graph.graph6_encode(g))
        obs = {"name": name, "array": str(arr), "roundtrip": _same_graph(g, back)}
        del back  # not held through the isomorphism search
        perm = relabel.get(name)
        if perm is not None:
            edges = [(perm[u], perm[v]) for u, v in g.edges()]
            with clock:
                h = graph.Graph(g.n, edges)
                mapping = graph.are_isomorphic(g, h)
                certified = mapping is not None and graph.verify_bijection(g, h, mapping)
            obs["certificate"] = certified and _certificate_holds(g, h, mapping)
        out.append(obs)
    return out


def _size_ordered(matrix, sizes) -> tuple[tuple[int, ...], ...]:
    order = sorted(range(len(sizes)), key=lambda i: sizes[i])
    return tuple(tuple(matrix[i][j] for j in order) for i in order)


def _run_group(inputs: dict, clock: Clock) -> list[dict]:
    out = []
    for text in inputs["gens"]:
        with clock:
            action = permaction.parse_generator_file(text, degree=GROUP_DEGREE)
            order = permaction.group_order(action)
            decomp = permaction.orbitals(action)
            scan = permaction.scan_orbital_unions(decomp)
            half = constructions.compute_coset_half(decomp)
            models = {
                w: constructions.orbital_model(decomp, w, half=half)
                for w in constructions.ORBITAL_MODELS
            }
            collapsed = {
                w: permaction.collapsed_matrix(models[w].graph, decomp)
                for w in COLLAPSED
            }
            blocks = constructions.blocks_report(models["delta"], models["gamma_half"])
        graphs = {w: getattr(m, "graph", m) for w, m in models.items()}
        out.append(
            {
                "order": order,
                "rank": decomp.rank,
                "suborbits": tuple(sorted(decomp.suborbit_sizes)),
                "scan": tuple(sorted(str(r.array) for r in scan)),
                "coset_half": len(half),
                "edges": {w: g.edge_count for w, g in graphs.items()},
                "collapsed": {
                    w: _size_ordered(m, decomp.suborbit_sizes)
                    for w, m in collapsed.items()
                },
                "blocks": (
                    blocks.blocks_checked,
                    blocks.block_size,
                    blocks.all_cocliques,
                    blocks.halved_equals_complement,
                ),
            }
        )
        # The actions are independent runs of the --gens path; dropping this
        # one's objects (untimed) keeps peak memory that of a single action.
        del action, decomp, scan, half, models, collapsed, blocks, graphs
        gc.collect()
    return out


def run(workload: str, inputs: dict, clock: Clock) -> list[dict]:
    """Run the workload's program calls; return one observation per unit."""
    body = {"verify": _run_verify, "ladder": _run_ladder, "group": _run_group}
    return body[workload](inputs, clock)


# --- checks -----------------------------------------------------------------


def _check_verify(observations: list[dict]) -> list[tuple[str, bool]]:
    (obs,) = observations
    verdicts = obs["verdicts"]
    all_pass = all(verdicts.get(c) == "PASS" for c in VERIFY_CLAIMS)
    # The exit code must agree with the report, else nothing in it is trusted.
    exit_ok = obs["exit"] == (0 if all_pass else 1)
    return [(c, exit_ok and verdicts.get(c) == "PASS") for c in VERIFY_CLAIMS]


def _check_ladder(observations: list[dict]) -> list[tuple[str, bool]]:
    out = []
    for obs in observations:
        name = obs["name"]
        out.append((f"{name}.array", obs["array"] == LADDER_ARRAYS[name]))
        out.append((f"{name}.graph6", obs["roundtrip"]))
        if "certificate" in obs:
            out.append((f"{name}.isomorphism", obs["certificate"]))
    return out


def _check_group(observations: list[dict]) -> list[tuple[str, bool]]:
    out = []
    for obs in observations:
        results = {
            "order": obs["order"] == GROUP_ORDER,
            "rank": obs["rank"] == GROUP_RANK,
            "suborbits": obs["suborbits"] == SUBORBIT_SIZES,
            "scan": obs["scan"] == tuple(sorted(SCAN_ARRAYS)),
            "coset_half": obs["coset_half"] == GROUP_DEGREE // 2,
            **{f"model.{w}": obs["edges"][w] == e for w, e in MODEL_EDGES.items()},
            **{
                f"collapsed.{w}": obs["collapsed"][w] == m
                for w, m in COLLAPSED.items()
            },
            "blocks": obs["blocks"] == (243, 45, True, True),
        }
        out.extend((name, results[name]) for name in GROUP_CHECKS)
    return out


def check(workload: str, observations: list[dict]) -> list[tuple[str, bool]]:
    """Verdict of every check the workload owns, in a fixed order."""
    checker = {"verify": _check_verify, "ladder": _check_ladder, "group": _check_group}
    return checker[workload](observations)


def unexpected_failures(workload: str, results: list[tuple[str, bool]]) -> list[str]:
    """Failed checks that are not listed in KNOWN_DEFECTS."""
    known = KNOWN_DEFECTS.get(workload, frozenset())
    return [name for name, ok in results if not ok and name not in known]
