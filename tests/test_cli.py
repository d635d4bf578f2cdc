import contextlib
import dataclasses
import hashlib
import io
import json
import re
import sys
import tempfile
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings

from golay486 import cli, codes, constructions, gf3, permaction
from golay486.graph import Graph, graph6_decode
from oracles import GENERATOR_FILES, check_dot, compose, inverse


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_code_info(capsys):
    code, out, _ = run(capsys, "code", "info")
    assert code == 0
    assert "length 11, dimension 6" in out
    assert "minimum distance 5" in out


def test_code_weight_distribution(capsys):
    code, out, _ = run(capsys, "code", "wd")
    assert code == 0
    lines = dict(
        (int(a), int(b)) for a, b in (ln.split() for ln in out.strip().splitlines())
    )
    assert lines == {0: 1, 5: 132, 6: 132, 8: 330, 9: 110, 11: 24}


def test_code_cosets(capsys):
    code, out, _ = run(capsys, "code", "cosets")
    assert code == 0
    counts = sorted(int(ln.split()[1]) for ln in out.strip().splitlines())
    assert counts == [1, 2, 20, 40, 180]


def test_group_order(capsys):
    code, out, _ = run(capsys, "group", "order")
    assert code == 0 and out.strip() == "349920"


def test_group_orbitals(capsys):
    code, out, _ = run(capsys, "group", "orbitals")
    assert code == 0
    assert "rank 9" in out
    assert "1 2 20 36 40 45 72 90 180" in out


def test_group_scan(capsys):
    code, out, _ = run(capsys, "group", "scan")
    assert code == 0
    assert out.count("{") == 6
    assert "{45,44,36,5; 1,9,40,45}" in out


def test_top_level_scan_alias(capsys):
    code, out, _ = run(capsys, "scan")
    assert code == 0
    assert out.count("{") == 6


NOT_UTF8 = b"\xff\xfe\x00bad"


def test_group_with_corrupt_gens_file(tmp_path, capsys):
    bad = tmp_path / "gens.txt"
    for data in (b"a := (1,2,2)\n", NOT_UTF8):
        bad.write_bytes(data)
        code, _, err = run(capsys, "group", "order", "--gens", str(bad))
        assert code == 2
        assert "position" in err


def test_gens_file_errors_report_file_offsets(tmp_path, capsys):
    bad = tmp_path / "gens.txt"
    for text, position in [("a := (1,2)\nb = (3,4)\n", 11), ("a = (1,2)\nb := (3,4)\n", 0)]:
        bad.write_text(text)
        code, _, err = run(capsys, "group", "order", "--gens", str(bad))
        assert code == 2
        assert f"(at position {position})" in err


def test_an_intransitive_bundled_asset_fails_claims_or_exits_2(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(constructions, "_bundled_generators_text", lambda: "a := (1,2)\n")
    code, out, _ = run(capsys, "verify")
    assert code == 1
    lines = {line.split()[0]: line.split()[1:] for line in out.splitlines()}
    assert lines["group.transitive"][0] == "FAIL"
    for claim in ("group.rank", "scan.count", "delta.array", "iso.sigma_orbital_coordinate"):
        assert lines[claim][0] == "FAIL"
        assert "unavailable:" in lines[claim]
    for argv in (["diagram", "delta"], ["export", "sigma", "-o", str(tmp_path / "s.g6")]):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "not transitive" in err


def test_a_gens_file_over_the_byte_cap_exits_2(tmp_path, capsys):
    over = tmp_path / "over.txt"
    over.write_bytes(b" " * (cli.MAX_GENERATOR_BYTES + 1))
    for argv in (("group", "order"), ("verify",)):
        code, out, err = run(capsys, *argv, "--gens", str(over))
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            f"generator data is corrupt: file longer than {cli.MAX_GENERATOR_BYTES} "
            f"bytes (at position {cli.MAX_GENERATOR_BYTES})"
        ]
    # a file of exactly the cap is read whole
    at_cap = tmp_path / "at_cap.txt"
    at_cap.write_bytes(b"a := (1,2)\n".ljust(cli.MAX_GENERATOR_BYTES))
    code, out, _ = run(capsys, "group", "order", "--gens", str(at_cap))
    assert code == 0 and out.strip() == "2"


def test_group_with_missing_gens_file(capsys):
    code, _, err = run(capsys, "group", "order", "--gens", "/nonexistent/gens.txt")
    assert code == 2


def test_verify_skip_iso_and_json(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--skip", "iso", "--json", str(out_path))
    assert code == 0
    assert "SKIPPED" in out
    report = json.loads(out_path.read_text())
    assert report["schema_version"] == 1
    assert report["overall"] is True
    verdicts = {e["claim_id"]: e["verdict"] for e in report["entries"]}
    assert verdicts["iso.sigma_orbital_coordinate"] == "SKIPPED"
    assert verdicts["delta.array"] == "PASS"
    # round-trip: the JSON carries everything the text table showed
    assert len(report["entries"]) == out.count("expected")


def test_verify_rejects_a_skip_prefix_that_matches_no_claim(capsys, monkeypatch):
    def unavailable(*args):
        raise AssertionError("a claim ran before the prefixes were checked")

    monkeypatch.setattr(cli, "Run", unavailable)
    # "flat" is a prefix of "flats.count" only as a string, not as a dotted id
    for skip, bad in (
        ("nosuch", "nosuch"),
        ("iso,nosuch", "nosuch"),
        ("flat,code.perfect.x", "flat, code.perfect.x"),
    ):
        code, out, err = run(capsys, "verify", "--skip", skip)
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"--skip prefix matches no claim: {bad}"]


VERIFY_IDS = (
    "code.parameters", "code.perfect", "gamma.srg", "gamma.complement_srg",
    "flats.functional_counts", "flats.count", "flats.types", "flats.macwilliams",
    "cosets.shapes",
    "group.generators", "group.transitive", "group.order", "group.rank",
    "group.suborbits", "scan.count", "scan.arrays", "delta.array",
    "delta.imprimitivity", "upsilon.array", "upsilon.fold", "sigma.array",
    "sigma.imprimitivity", "lambda.array", "lambda.fold", "gamma_half.srg",
    "blocks.cocliques", "halved_delta.complement",
    "iso.sigma_orbital_coordinate", "iso.sigma_coordinate_affine",
    "iso.lambda_orbital_coordinate", "iso.gamma_half_coset",
    "iso.lambda_coordinate_shortened", "experiment.incidence_degrees",
)
STAGES = ["code", "flats", "group", "scan", "models", "iso", "experiment"]


def claim_lines(out: str) -> list[str]:
    return out.splitlines()[:-1]  # the last line is the overall verdict


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    """A default verify: exit code, stdout and the --json report."""
    path = tmp_path_factory.mktemp("verify") / "report.json"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "--json", str(path)])
    return code, out.getvalue(), json.loads(path.read_text())


def test_verify_reports_every_claim_in_order(full_run):
    code, out, report = full_run
    assert code == 0 and report["overall"] is True
    entries = report["entries"]
    assert tuple(e["claim_id"] for e in entries) == VERIFY_IDS
    assert all(e["verdict"] == "PASS" for e in entries)
    assert [stage for stage, _ in report["timings"]] == STAGES
    width = max(map(len, VERIFY_IDS))
    assert claim_lines(out) == [
        f"{e['claim_id']:<{width}}  {e['verdict']:<7} expected {e['expected']}; "
        f"observed {e['observed']}"
        for e in entries
    ]
    assert out.splitlines()[-1].startswith("overall: PASS (33 claims, ")


def test_macwilliams_claim_checks_the_enumerated_types(family, monkeypatch):
    # the dual {0, phi, 2 phi} depends only on the weight of phi: 9 for
    # Type I, 6 for Type II, so two transforms serve all 81 ten-spaces
    transform = codes.macwilliams_transform
    calls = []

    def counted(dual):
        calls.append(dual)
        return transform(dual)

    monkeypatch.setattr(codes, "macwilliams_transform", counted)
    (claim,) = [c for c in cli.CLAIMS if c.claim_id == "flats.macwilliams"]
    assert claim.evaluate(SimpleNamespace(family=family)) == ("81 of 81 equal", True)
    assert len(calls) == 2
    swapped = dataclasses.replace(
        family, types=tuple("II" if t == "I" else "I" for t in family.types)
    )
    assert claim.evaluate(SimpleNamespace(family=swapped)) == ("0 of 81 equal", False)


def test_verify_skip_does_not_evaluate(full_run, tmp_path, capsys, monkeypatch):
    def unavailable(*args):
        raise AssertionError("a skipped claim was evaluated")

    monkeypatch.setattr(constructions, "classify_types", unavailable)
    out_path = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "verify", "--skip", "flats,cosets,iso,experiment",
        "--json", str(out_path),
    )
    assert code == 0
    full = {e["claim_id"]: e for e in full_run[2]["entries"]}
    skipped = [e for e in json.loads(out_path.read_text())["entries"]
               if e["verdict"] == "SKIPPED"]
    assert [e["claim_id"] for e in skipped] == [
        c for c in VERIFY_IDS
        if c.split(".")[0] in ("flats", "cosets", "iso", "experiment")
    ]
    for e in skipped:
        assert e["observed"] == "not evaluated"
        assert e["description"] == full[e["claim_id"]]["description"]
        assert e["expected"] == full[e["claim_id"]]["expected"]
        line = next(ln for ln in claim_lines(out) if ln.split()[0] == e["claim_id"])
        assert line.split()[1] == "SKIPPED"
        assert f"expected {full[e['claim_id']]['expected']}; " in line


def test_verify_without_orbitals_lists_every_claim(tmp_path, capsys):
    wrong = tmp_path / "gens.txt"
    wrong.write_text("a := (1,2)\nb := (3,4)\n")  # not transitive: no orbitals
    out_path = tmp_path / "report.json"
    code, out, err = run(
        capsys, "verify", "--gens", str(wrong), "--json", str(out_path)
    )
    assert code == 1
    assert "first failing claim: group.generators" in err
    entries = json.loads(out_path.read_text())["entries"]
    assert tuple(e["claim_id"] for e in entries) == VERIFY_IDS
    assert len(claim_lines(out)) == len(VERIFY_IDS)
    models = VERIFY_IDS[
        VERIFY_IDS.index("delta.array") : VERIFY_IDS.index("halved_delta.complement") + 1
    ]
    needs_orbitals = {
        "group.rank", "group.suborbits", "scan.count", "scan.arrays", *models,
        "iso.sigma_orbital_coordinate", "iso.lambda_orbital_coordinate",
        "iso.gamma_half_coset",
    }
    assert len(needs_orbitals) == 18
    for e in entries:
        if e["claim_id"] in needs_orbitals:
            assert e["verdict"] == "FAIL"
            assert e["observed"] == "unavailable: action is not transitive"
        elif e["claim_id"].startswith("group."):
            assert e["verdict"] == "FAIL"  # wrong generators, degree-486 action
        else:
            assert e["verdict"] == "PASS", e["claim_id"]


def test_verify_reports_an_exhausted_isomorphism_budget(tmp_path, capsys, monkeypatch):
    real = cli.are_isomorphic
    searched = []

    def exhausted(g1, g2):
        searched.append((g1.n, g2.n))
        return real(g1, g2)

    monkeypatch.setattr(cli, "are_isomorphic", exhausted)
    monkeypatch.setattr("golay486.graph.ISOMORPHISM_BUDGET", 10)
    others = sorted({c.split(".")[0] for c in VERIFY_IDS} - {"iso"})
    out_path = tmp_path / "report.json"
    code, out, err = run(
        capsys, "verify", "--skip", ",".join(others), "--json", str(out_path)
    )
    assert code == 1
    assert "Traceback" not in err
    assert "first failing claim: iso.lambda_orbital_coordinate" in err
    observed = {
        e["claim_id"]: (e["verdict"], e["observed"])
        for e in json.loads(out_path.read_text())["entries"]
        if e["verdict"] != "SKIPPED"
    }
    # the first round of refinement charges one step per vertex of both
    # graphs.  The one search fails both claims that share its certificate;
    # the others certify a constructed map and search nothing.
    exhausted = ("FAIL", f"unavailable: refinement budget exhausted after {2 * 243} steps")
    assert observed == {
        "iso.sigma_orbital_coordinate": ("PASS", "isomorphic"),
        "iso.sigma_coordinate_affine": ("PASS", "isomorphic"),
        "iso.lambda_orbital_coordinate": exhausted,
        "iso.gamma_half_coset": exhausted,
        "iso.lambda_coordinate_shortened": ("PASS", "isomorphic"),
    }
    # the run keeps the budget error, so the search is not repeated
    assert searched == [(243, 243)]


def test_cold_verify_searches_only_the_orbital_claims(monkeypatch):
    real = cli.are_isomorphic
    searched = []

    def counted(g1, g2):
        searched.append((g1.n, g2.n))
        return real(g1, g2)

    monkeypatch.setattr(cli, "are_isomorphic", counted)
    report = cli.run_verification()
    assert report.overall
    # Run.lambda_certificate, which iso.lambda_orbital_coordinate and
    # iso.gamma_half_coset share; Sigma is coordinatised with no search
    assert searched == [(243, 243)]


def test_cold_verify_takes_three_null_spaces(monkeypatch):
    real = gf3.null_space
    widths = []

    def counted(m, width=None):
        widths.append(width)
        return real(m, width=width)

    monkeypatch.setattr(gf3, "null_space", counted)
    assert cli.run_verification().overall
    # the Golay code's check, then that of Run.shortened, the one
    # shorten(golay, 0); every other syndrome, coset word and functional
    # reads one of these
    assert widths == [11, 10]


def test_cold_verify_row_reduces_sixteen_matrices(monkeypatch):
    real = gf3.rref
    shapes = []

    def counted(m):
        shapes.append((len(m), len(m[0])))
        return real(m)

    monkeypatch.setattr(gf3, "rref", counted)
    assert cli.run_verification().overall
    # the Golay code and its spans, C' = shorten(golay, 0), both checks,
    # design_map's frame and AG(5,3).  A check's pivots are read off its
    # reduced rows, so neither check (5 x 11, 5 x 10) is reduced again.
    assert Counter(shapes) == {(11, 11): 1, (6, 11): 4, (5, 11): 4, (5, 10): 5, (5, 5): 2}


def test_cold_verify_counts_each_golay_fact_once(monkeypatch):
    calls = Counter()

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(codes, "golay_code")
    counted(gf3, "hyperplane_functionals")
    counted(gf3, "_span")
    assert cli.run_verification().overall
    # one Golay code per run.  The functionals are listed by classify_types
    # and by build_std_ag(5) alone: syndrome_map reads AG(5,3)'s flat
    # numbers in closed form.  The eight spans are golay.lifts, the Golay
    # words that _coset_tallies and minimum_distance list, the two lists of
    # functionals, projective_points of golay.check, AG(5,3)'s points, and
    # the lifts of Run.shortened.
    assert calls == {"golay_code": 1, "hyperplane_functionals": 2, "_span": 8}


# the claims certified by a constructed map: the map's module and name, and
# the graphs of a Run that it maps from and onto
CONSTRUCTED_MAPS = {
    "iso.sigma_orbital_coordinate": (
        constructions,
        "design_map",
        lambda run: (run.graph("sigma"), run.sigma_coordinate),
    ),
    "iso.sigma_coordinate_affine": (
        constructions,
        "syndrome_map",
        lambda run: (run.sigma_coordinate, constructions.build_std_ag(5)),
    ),
    "iso.lambda_coordinate_shortened": (
        codes,
        "shortening_map",
        lambda run: (codes.coset_graph(run.shortened), run.lambda_coordinate),
    ),
}


def _first_broken_pair(g1, g2, mapping, moved):
    """The first pair (u, v) in row-major order whose adjacency in g1
    differs from that of its image in g2, when only the vertices in
    `moved` map differently from an isomorphism."""
    pairs = sorted(
        (min(u, v), max(u, v)) for u in moved for v in range(g1.n) if u != v
    )
    return next(
        (u, v)
        for u, v in pairs
        if g1.has_edge(u, v) != g2.has_edge(int(mapping[u]), int(mapping[v]))
    )


@pytest.mark.parametrize("claim_id", sorted(CONSTRUCTED_MAPS))
def test_a_constructed_map_that_breaks_adjacency_names_the_pair(
    tmp_path, capsys, monkeypatch, bundled_action, claim_id
):
    module, name, graphs = CONSTRUCTED_MAPS[claim_id]
    real = getattr(module, name)
    swapped = (5, 17)
    maps = []

    def swapping(*args):
        mapping = real(*args).copy()
        mapping[list(swapped)] = mapping[list(swapped[::-1])]
        maps.append(mapping)
        return mapping

    monkeypatch.setattr(module, name, swapping)
    out_path = tmp_path / "report.json"
    code, out, err = run(capsys, "verify", "--json", str(out_path))
    assert code == 1
    assert "Traceback" not in err
    assert f"first failing claim: {claim_id}" in err
    g1, g2 = graphs(cli.Run(bundled_action))
    [mapping] = maps
    u, v = _first_broken_pair(g1, g2, mapping, swapped)
    kind = "edge" if g1.has_edge(u, v) else "non-edge"
    entries = {e["claim_id"]: e for e in json.loads(out_path.read_text())["entries"]}
    assert entries[claim_id]["verdict"] == "FAIL"
    assert entries[claim_id]["observed"] == f"the map breaks the {kind} ({u}, {v})"
    assert [c for c, e in entries.items() if e["verdict"] == "FAIL"] == [claim_id]


@pytest.mark.parametrize("claim_id", sorted(CONSTRUCTED_MAPS))
def test_a_constructed_map_that_is_no_bijection_fails(monkeypatch, claim_id):
    module, name, _ = CONSTRUCTED_MAPS[claim_id]
    real = getattr(module, name)

    def merging(*args):
        mapping = real(*args).copy()
        mapping[1] = mapping[0]
        return mapping

    monkeypatch.setattr(module, name, merging)
    entries = {e.claim_id: e for e in cli.run_verification().entries}
    assert (entries[claim_id].verdict, entries[claim_id].observed) == (
        "FAIL", "the map is not a bijection"
    )


def _sigma_orbital_entry():
    """The iso.sigma_orbital_coordinate entry of a verify run that skips
    every other claim."""
    claim_id = "iso.sigma_orbital_coordinate"
    others = tuple(c.claim_id for c in cli.CLAIMS if c.claim_id != claim_id)
    entries = {e.claim_id: e for e in cli.run_verification(skip=others).entries}
    return entries[claim_id]


def test_a_sigma_with_two_flats_partly_swapped_fails_with_a_witness(monkeypatch):
    real = constructions.orbital_model

    def swapping(decomp, which, half):
        # flat f takes a point of a parallel flat g, and gives g one of its own
        model = real(decomp, which, half=half)
        if which != "sigma":
            return model
        a = model.graph.adjacency_matrix.copy()
        f = model.half_b[0]
        g = next(g for g in model.half_b if g != f and not (a[f] & a[g]).any())
        p, q = np.flatnonzero(a[f])[0], np.flatnonzero(a[g])[0]
        for flat, drop, add in ((f, p, q), (g, q, p)):
            a[flat, drop] = a[drop, flat] = False
            a[flat, add] = a[add, flat] = True
        return dataclasses.replace(model, graph=Graph.from_adjacency(a))

    monkeypatch.setattr(constructions, "orbital_model", swapping)
    entry = _sigma_orbital_entry()
    assert entry.verdict == "FAIL"
    # f's class is among the first the labels are read from, so the
    # coordinates themselves break
    assert re.fullmatch(
        r"unavailable: only [0-4] parallel classes, not 5, each triple the joint "
        r"labels: points \d+ and \d+ share the labels of those",
        entry.observed,
    ), entry.observed


def test_delta_read_as_sigma_fails_with_a_witness(monkeypatch):
    monkeypatch.setitem(constructions.ORBITAL_MODELS, "sigma", frozenset({45}))
    entry = _sigma_orbital_entry()
    assert entry.verdict == "FAIL"
    assert re.fullmatch(
        r"unavailable: flat \d+ has 22 parallel flats, not 2", entry.observed
    ), entry.observed


def test_verify_reports_a_failed_data_check(tmp_path, capsys, monkeypatch):
    # doubled coset tallies match neither reference tally, so classify_types
    # fails its check on the first subspace.  The coset shape count reads
    # the leader table, not the tallies, so only the claims that need the
    # flat family fail.
    real_tallies = constructions._coset_tallies
    monkeypatch.setattr(
        constructions, "_coset_tallies", lambda code, rows: 2 * real_tallies(code, rows)
    )
    calls = Counter()
    real = constructions.classify_types

    def counted(golay):
        calls["classify_types"] += 1
        return real(golay)

    monkeypatch.setattr(constructions, "classify_types", counted)
    out_path = tmp_path / "report.json"
    code, out, err = run(capsys, "verify", "--json", str(out_path))
    assert code == 1
    assert "Traceback" not in err
    assert "first failing claim: flats.functional_counts" in err
    needs_family = {
        "flats.functional_counts", "flats.count", "flats.types", "flats.macwilliams",
        "iso.sigma_orbital_coordinate", "iso.sigma_coordinate_affine",
        "experiment.incidence_degrees",
    }
    entries = json.loads(out_path.read_text())["entries"]
    assert tuple(e["claim_id"] for e in entries) == VERIFY_IDS
    for e in entries:
        if e["claim_id"] in needs_family:
            assert e["verdict"] == "FAIL"
            assert e["observed"] == (
                "unavailable: subspace of functional (1, 0, 0, 0, 0, 1, 0, 1, 2, 2, 2) "
                "has unmatched weight tally (2, 20, 140, 840, 3540, 9984, 19644, "
                "27960, 28320, 18880, 7360, 1408)"
            )
        else:
            assert e["verdict"] == "PASS", e["claim_id"]
    # the failed build is kept: every claim that needs it sees the same error
    assert calls["classify_types"] == 1


def test_code_perfect_reads_the_sphere_size_of_the_code():
    (claim,) = [c for c in cli.CLAIMS if c.claim_id == "code.perfect"]
    golay = codes.golay_code()
    observed = claim.evaluate(SimpleNamespace(golay=golay))
    assert observed == ("sphere size 243, perfect=True", True)
    shortened = SimpleNamespace(golay=codes.shorten(golay, 0))
    assert claim.evaluate(shortened) == ("sphere size 201, perfect=False", False)


def test_verify_out_of_memory_exits_2(capsys, monkeypatch):
    def exhausted(code):
        raise MemoryError

    monkeypatch.setattr(codes, "syndrome_table", exhausted)
    code, out, err = run(capsys, "verify")
    assert code == 2
    assert "Traceback" not in err
    assert err == "out of memory\n" and out == ""


def test_verify_builds_the_golay_artifacts_once(monkeypatch):
    tables = Counter()
    callers = Counter()
    real_table, real_code = codes.syndrome_table, codes.golay_code

    def table(code):
        tables[code] += 1
        return real_table(code)

    def golay():
        callers[sys._getframe(1).f_code.co_name] += 1
        return real_code()

    monkeypatch.setattr(codes, "syndrome_table", table)
    monkeypatch.setattr(codes, "golay_code", golay)
    assert cli.run_verification().overall
    assert tables == {real_code(): 1}
    # Run.golay builds the code, and nothing builds it again
    assert callers == {"golay": 1}


def test_each_run_builds_its_artifacts_once(tmp_path, capsys, monkeypatch):
    calls = Counter()

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(constructions, "classify_types")
    counted(permaction, "orbitals")
    # nothing is kept between runs, and nothing is built twice within one
    for _ in range(2):
        assert run(capsys, "verify")[0] == 0
    assert calls == {"classify_types": 2, "orbitals": 2}
    calls.clear()
    assert run(capsys, "export", "gamma", "-o", str(tmp_path / "gamma.g6"))[0] == 0
    assert calls["orbitals"] == 0


def test_verify_with_corrupt_gens_file(tmp_path, capsys):
    bad = tmp_path / "gens.txt"
    for data in (b"a := (1,487)\n", NOT_UTF8):
        bad.write_bytes(data)
        code, _, err = run(capsys, "verify", "--gens", str(bad))
        assert code == 2
        assert "corrupt" in err and "position" in err


def test_verify_with_wrong_group_fails_claims(tmp_path, capsys):
    wrong = tmp_path / "gens.txt"
    wrong.write_text("a := (1,2)\nb := (3,4)\n")  # parses, but the wrong group
    code, out, err = run(capsys, "verify", "--gens", str(wrong), "--skip", "iso")
    assert code == 1
    assert "FAIL" in out
    assert "first failing claim" in err


def test_verify_with_relabelled_generators_passes(tmp_path, capsys):
    # conjugating the bundled action by any relabelling must not change verdicts
    bundled = constructions.bundled_action()
    relabel = tuple(reversed(range(486)))
    lines = []
    for name, g in zip("abc", bundled.generators):
        conj = compose(compose(inverse(relabel), g), relabel)
        lines.append(f"{name} := {permaction.format_cycles(conj)}")
    gens = tmp_path / "gens.txt"
    gens.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "verify", "--gens", str(gens))
    assert code == 0
    assert "FAIL" not in out


def test_verify_with_seeded_relabelling_passes_block_claims(
    tmp_path, capsys, relabelled_action
):
    gens = tmp_path / "gens.txt"
    gens.write_text(
        "".join(
            f"{name} := {permaction.format_cycles(g)}\n"
            for name, g in zip("abc", relabelled_action.generators)
        )
    )
    code, out, _ = run(capsys, "verify", "--gens", str(gens), "--skip", "iso")
    assert code == 0
    verdicts = dict(line.split()[:2] for line in out.splitlines()[:-1])
    assert verdicts["blocks.cocliques"] == "PASS"
    assert verdicts["halved_delta.complement"] == "PASS"


def test_a_failed_coclique_check_shows_its_witness(tmp_path, capsys, monkeypatch):
    # join two coset neighbours of the first flat in the gamma_half model:
    # that block is no longer a coclique, and (flat, u, v) names it
    real = constructions.orbital_model
    witness = []

    def corrupted(decomp, which, half):
        model = real(decomp, which, half=half)
        if which != "gamma_half":
            return model
        delta = real(decomp, "delta", half=half)
        flat = delta.half_b[0]
        u, v = delta.graph.neighbors(flat)[:2]
        witness.append((flat, u, v))
        joined = (half.index(u), half.index(v))
        return Graph(model.n, list(model.edges()) + [joined])

    monkeypatch.setattr(constructions, "orbital_model", corrupted)
    out_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "verify", "--skip", "iso", "--json", str(out_path))
    assert code == 1
    (flat, u, v), = witness
    entries = {e["claim_id"]: e for e in json.loads(out_path.read_text())["entries"]}
    assert entries["blocks.cocliques"]["verdict"] == "FAIL"
    assert entries["blocks.cocliques"]["observed"] == (
        f"243 blocks of size 45, cocliques=False ({flat}, {u}, {v})"
    )


def test_gens_files_are_read_at_the_bundled_degree(tmp_path, capsys):
    small = tmp_path / "small.txt"
    small.write_text("a := (1,2,3)\nb := (1,2)\n")
    code, out, _ = run(capsys, "group", "order", "--gens", str(small))
    assert code == 0 and out.strip() == "6"
    # 486 points with 483 fixed: not transitive, reported without a traceback
    code, _, err = run(capsys, "group", "orbitals", "--gens", str(small))
    assert code == 2
    assert "not transitive" in err

    huge = tmp_path / "huge.txt"
    huge.write_text(f"a := (1,{10**9})\n")
    for argv in (("group", "order"), ("verify",)):
        code, _, err = run(capsys, *argv, "--gens", str(huge))
        assert code == 2
        assert "corrupt" in err and "position" in err


def test_a_group_over_the_chain_budget_exits_2_or_reads_unavailable(
    tmp_path, capsys, monkeypatch
):
    # S_20 on the first 20 of 486 points needs 0.88 MiB of chain
    gens = tmp_path / "s20.txt"
    gens.write_text("a := (1,2)\nb := (" + ",".join(map(str, range(1, 21))) + ")\n")
    monkeypatch.setattr(permaction, "MAX_CHAIN_BYTES", 3 * 2**18)
    message = "stabilizer chain of degree 486 needs"
    for argv in (("group", "order"), ("group", "orbitals"), ("group", "scan"), ("scan",)):
        code, out, err = run(capsys, *argv, "--gens", str(gens))
        assert code == 2 and out == ""
        assert err.startswith(f"generated group is too large: {message}")
        assert err.count("\n") == 1 and "Traceback" not in err
    out_path = tmp_path / "report.json"
    code, _, err = run(capsys, "verify", "--gens", str(gens), "--json", str(out_path))
    assert code == 1 and "Traceback" not in err
    entries = json.loads(out_path.read_text())["entries"]
    observed = {e["claim_id"]: e["observed"] for e in entries}
    assert observed["group.order"].startswith(f"unavailable: {message}")
    assert observed["group.rank"].startswith(f"unavailable: {message}")


def test_a_group_over_the_sift_bound_exits_2_or_reads_unavailable(
    tmp_path, capsys, monkeypatch
):
    # a 486-cycle and a transposition generate S_486, whose chain would
    # sift rows for minutes; never build it without a bound
    gens = tmp_path / "s486.txt"
    gens.write_text("a := (1,2)\nb := (" + ",".join(map(str, range(1, 487))) + ")\n")
    monkeypatch.setattr(permaction, "MAX_SIFTED_ROWS", 1000)
    message = "stabilizer chain of degree 486 sifted"
    code, out, err = run(capsys, "group", "order", "--gens", str(gens))
    assert code == 2 and out == ""
    assert err.startswith(f"generated group is too large: {message}")
    assert err.endswith("over MAX_SIFTED_ROWS=1000\n")
    assert err.count("\n") == 1 and "Traceback" not in err
    out_path = tmp_path / "report.json"
    code, _, err = run(capsys, "verify", "--gens", str(gens), "--json", str(out_path))
    assert code == 1 and "Traceback" not in err
    entries = json.loads(out_path.read_text())["entries"]
    observed = {e["claim_id"]: e["observed"] for e in entries}
    assert observed["group.order"].startswith(f"unavailable: {message}")


def test_verify_builds_a_refused_chain_once(tmp_path, capsys, monkeypatch):
    # group.order and the orbital decomposition read one chain; a refused
    # chain is refused once, not built again for the second reader
    gens = tmp_path / "s486.txt"
    gens.write_text("a := (1,2)\nb := (" + ",".join(map(str, range(1, 487))) + ")\n")
    monkeypatch.setattr(permaction, "MAX_SIFTED_ROWS", 1000)
    builds = []
    build = permaction.StabilizerChain.__init__

    def counted(chain, action):
        builds.append(action)
        build(chain, action)

    monkeypatch.setattr(permaction.StabilizerChain, "__init__", counted)
    code, _, err = run(capsys, "verify", "--gens", str(gens))
    assert code == 1 and "Traceback" not in err
    assert len(builds) == 1


@settings(max_examples=40, deadline=None)
@given(GENERATOR_FILES)
def test_group_and_scan_exit_0_1_or_2_on_any_generator_file(text):
    # any --gens text, undecodable bytes included, ends in an exit code:
    # no exception escapes main
    with tempfile.TemporaryDirectory() as scratch, pytest.MonkeyPatch.context() as patch:
        patch.setattr(permaction, "MAX_SIFTED_ROWS", 1000)
        gens = f"{scratch}/gens.txt"
        with open(gens, "wb") as handle:
            handle.write(text.encode("utf-8", "surrogatepass"))
        for argv in (["group", "order"], ["scan"]):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
                io.StringIO()
            ):
                assert cli.main([*argv, "--gens", gens]) in (0, 1, 2)


def test_a_scan_over_the_rank_bound_exits_2(tmp_path, capsys):
    # the regular cyclic action of degree 486 has rank 486
    gens = tmp_path / "c486.txt"
    gens.write_text("a := (" + ",".join(map(str, range(1, 487))) + ")\n")
    bound = permaction.MAX_SCAN_RANK
    for argv in (("group", "scan"), ("scan",)):
        code, out, err = run(capsys, *argv, "--gens", str(gens))
        assert code == 2 and out == ""
        assert err == f"unusable generator data: rank 486 exceeds the scan bound {bound}\n"
    code, out, _ = run(capsys, "group", "orbitals", "--gens", str(gens))
    assert code == 0 and out.startswith("rank 486\n")


def test_diagram_distance_delta(capsys):
    code, out, _ = run(capsys, "diagram", "delta", "--kind", "distance")
    assert code == 0
    assert check_dot(out)
    for i, size in enumerate((1, 45, 220, 198, 22)):
        assert f'k{i} [label="{size}"]' in out  # bipartite: no a-values


def test_diagram_distance_lambda(capsys):
    code, out, _ = run(capsys, "diagram", "lambda", "--kind", "distance")
    assert code == 0
    assert check_dot(out)
    for i, size in enumerate((1, 20, 180, 40, 2)):
        assert f'k{i} [label="{size}' in out  # classes with a_i > 0 append it


def test_diagram_orbit_upsilon(tmp_path, capsys):
    out_path = tmp_path / "ups.dot"
    code, _, _ = run(capsys, "diagram", "upsilon", "--kind", "orbit", "-o", str(out_path))
    assert code == 0
    text = out_path.read_text()
    assert check_dot(text)
    for size in (1, 2, 20, 36, 40, 45, 72, 90, 180):
        assert f'[label="{size}"]' in text


def test_diagram_orbit_rejects_coset_graphs(capsys):
    code, _, err = run(capsys, "diagram", "gamma", "--kind", "orbit")
    assert code == 2
    assert "orbit diagrams" in err


def test_export_graph6_round_trip(tmp_path, capsys):
    out_path = tmp_path / "gamma.g6"
    code, _, _ = run(capsys, "export", "gamma", "--format", "graph6", "-o", str(out_path))
    assert code == 0
    text = out_path.read_text()
    g = graph6_decode(text)
    assert g.n == 243 and g.edge_count == 243 * 22 // 2
    # deterministic byte-identical output
    again = tmp_path / "gamma2.g6"
    run(capsys, "export", "gamma", "--format", "graph6", "-o", str(again))
    assert again.read_bytes() == out_path.read_bytes()


def test_export_edgelist_counts(tmp_path, capsys):
    delta_path = tmp_path / "delta.txt"
    code, _, _ = run(capsys, "export", "delta", "--format", "edgelist", "-o", str(delta_path))
    assert code == 0
    assert len(delta_path.read_text().splitlines()) == 10935  # 486*45/2

    lam_path = tmp_path / "lambda.txt"
    run(capsys, "export", "lambda", "--format", "edgelist", "-o", str(lam_path))
    assert len(lam_path.read_text().splitlines()) == 2430  # 243*20/2


# sha256 of the files written before export and diagram built their graphs
# through Run; the bytes must not move with the code path.
EXPORT_GRAPH6_SHA256 = {
    "gamma": "b64d53aab2dd3d0a0b89c9558b0dd1276112b1bca459bbe5cc9843fed4333e96",
    "delta": "2407ed59334d257379141937defe7924edbd52f0649eb1bdb441e036b6baed38",
    "upsilon": "3096514a0cd2fbdbf292b55875eee28a9172702a7e96ec620211555ac6c940f8",
    "sigma": "0dab4c16b9610f558ab32c8753b38c43f3a83f9316bf310d7d6bd5782c28c93c",
    "lambda": "d15ee49ec31eaddaba6bfb5c516c818724e8d5944590ffe739e1ce7468234a2f",
}
ORBIT_DIAGRAM_SHA256 = {
    "delta": "766ad437c5e567bb9793bd71c289ef63bf0720c78b915df6ef92716a2f0093ae",
    "upsilon": "857e6a59a9e415541627bbf5c918ecc0573422d4ab774baf6e91a95d498fe36f",
    "sigma": "52cd717e03ed9822224599598614132d104810f4d7be022c11ddbb0750d65dc4",
}


@pytest.mark.parametrize("which", cli.GRAPH_SELECTORS)
def test_export_graph6_bytes(which, tmp_path, capsys):
    path = tmp_path / f"{which}.g6"
    code, _, _ = run(capsys, "export", which, "--format", "graph6", "-o", str(path))
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == EXPORT_GRAPH6_SHA256[which]


@pytest.mark.parametrize("which", sorted(ORBIT_DIAGRAM_SHA256))
def test_orbit_diagram_bytes(which, tmp_path, capsys):
    path = tmp_path / f"{which}.dot"
    code, _, _ = run(capsys, "diagram", which, "--kind", "orbit", "-o", str(path))
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == ORBIT_DIAGRAM_SHA256[which]


# sha256 of outputs recorded before the coset half was checked as a block of
# the action: the 32 verify claim lines (not the timed overall line) before
# iso.gamma_half_coset was added, the group subcommands, the distance
# diagrams and the edge-list exports.  VERIFY_CLAIM_LINES_SHA256 covers all
# 33 claim lines, recorded when iso.gamma_half_coset was added.
VERIFY_32_CLAIM_LINES_SHA256 = "11909d8db1667e1f0c3d816e571b2401e26a05a882a90021b48f7eba7228f827"
VERIFY_CLAIM_LINES_SHA256 = "afcf3b1c93a1217d83bf88bb00f879c3ac0fb4937bd359347b66e8674dcb0287"
GROUP_SHA256 = {
    "order": "c60e0f9f89ac171a9a1061882520bb6c4c7b0e54d3d30b888ecd102bcbda68ec",
    "orbitals": "639798f240b19e212dc34ebe0e899070e5c5c315c3e3f577ed1e43a1af05dabe",
    "scan": "dd59b080215ae9b354390aee551dca58163bd955e2df0369b225b63e89eb06d8",
}
DISTANCE_DIAGRAM_SHA256 = {
    "gamma": "02ba64004165871d4b3dd711b7bc64b94f821066aff4ae41d3717ef73c25195f",
    "delta": "3311d5d89bbd8b3612008b516544fe61a8830a7ce376e5bb1262fb1dd6dbd7af",
    "upsilon": "358bef26b94d70d98c60908cfb6772d1ce16f7354e2237db135101c339564db6",
    "sigma": "4831116335ddfd3de29d1a3e5f46064b33374cd2fb77b2a4f5b6453efa49ab28",
    "lambda": "1e89428c6369b1a7ac1be1f3307ccb6561d161cac1c073a8e45862d8b91a38b8",
}
EXPORT_EDGELIST_SHA256 = {
    "gamma": "65dc2bc9c070f9780fc313b6a8d279cd9be015858fdb9763088299b885800367",
    "delta": "03781bb907f28e9413faa0d6baedbfe5dd2db104aff35885d03b1389dab5ff85",
    "upsilon": "1315895a68ebf5da39c32b8cacaeafb1a27c66e721e6296a32b8b38e01e90556",
    "sigma": "0f634531e1d7edce04659c25f89e5f2fd8ebf468daca1162f32bad993dc8826d",
    "lambda": "eab08d20a6cb13c998e08b6984deaaf1ab257c39bd332a646b089e56ca9cf102",
}

# sha256 of the code subcommands' output, recorded before collapsed_matrix
# was read off the scan's quotient table
CODE_SHA256 = {
    "info": "6b8eee412d962b587b114c77d504b415239d729ed78fbee78a5e4e7fbfa1fc8e",
    "wd": "d0dde20895acd86993bf2f7740ccf536d38ca4eebd282aedf2f024141a8d4f3d",
    "cosets": "8e5a3c59c9c22a8092597f6e3c68c3aef17228cc0fbb8d177c56feaa3feb7285",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_verify_claim_lines_are_golden(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    claims = out[: out.index("overall:")]
    assert len(claims.splitlines()) == 33
    assert _sha256(claims) == VERIFY_CLAIM_LINES_SHA256
    # the lines of the 32 claims that came before iso.gamma_half_coset
    # are unchanged
    older = [ln for ln in claims.splitlines(True) if ln.split()[0] != "iso.gamma_half_coset"]
    assert len(older) == 32
    assert _sha256("".join(older)) == VERIFY_32_CLAIM_LINES_SHA256


@pytest.mark.parametrize("action", sorted(GROUP_SHA256))
def test_group_output_is_golden(action, capsys):
    code, out, _ = run(capsys, "group", action)
    assert code == 0
    assert _sha256(out) == GROUP_SHA256[action]


@pytest.mark.parametrize("action", sorted(CODE_SHA256))
def test_code_output_is_golden(action, capsys):
    code, out, _ = run(capsys, "code", action)
    assert code == 0
    assert _sha256(out) == CODE_SHA256[action]


@pytest.mark.parametrize("which", cli.GRAPH_SELECTORS)
def test_distance_diagram_is_golden(which, tmp_path, capsys):
    path = tmp_path / f"{which}.dot"
    code, _, _ = run(capsys, "diagram", which, "--kind", "distance", "-o", str(path))
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DISTANCE_DIAGRAM_SHA256[which]


@pytest.mark.parametrize("which", cli.GRAPH_SELECTORS)
def test_export_edgelist_is_golden(which, tmp_path, capsys):
    path = tmp_path / f"{which}.txt"
    code, _, _ = run(capsys, "export", which, "--format", "edgelist", "-o", str(path))
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == EXPORT_EDGELIST_SHA256[which]


def test_check_dot_rejects_garbage():
    assert not check_dot("digraph g { a -> b; }")
    assert not check_dot("graph g {\n  unterminated\n}")
    assert not check_dot("")
