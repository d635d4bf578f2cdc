import json

from golay486 import cli
from golay486.graph import graph6_decode


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


def test_group_with_corrupt_gens_file(tmp_path, capsys):
    bad = tmp_path / "gens.txt"
    bad.write_text("a := (1,2,2)\n")
    code, _, err = run(capsys, "group", "order", "--gens", str(bad))
    assert code == 2
    assert "position" in err


def test_group_with_missing_gens_file(capsys):
    code, _, err = run(capsys, "group", "order", "--gens", "/nonexistent/gens.txt")
    assert code == 2


def test_verify_skip_iso_and_json(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "verify", "--skip", "iso", "--json", str(out_path), "--seed", "7"
    )
    assert code == 0
    assert "SKIPPED" in out
    report = json.loads(out_path.read_text())
    assert report["schema_version"] == 1
    assert report["overall"] is True
    verdicts = {e["claim_id"]: e["verdict"] for e in report["entries"]}
    assert verdicts["iso.sigma_orbital_coordinate"] == "SKIPPED"
    assert verdicts["delta.array"] == "PASS"
    assert ["seed", "7"] in report["metadata"]
    # round-trip: the JSON carries everything the text table showed
    assert len(report["entries"]) == out.count("expected")


def test_verify_with_corrupt_gens_file(tmp_path, capsys):
    bad = tmp_path / "gens.txt"
    bad.write_text("a := (1,487)\n")
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
    from golay486 import constructions, permaction

    bundled = constructions.bundled_action()
    relabel = tuple(reversed(range(486)))
    lines = []
    for name, g in zip("abc", bundled.generators):
        conj = permaction.compose(permaction.compose(permaction.inverse(relabel), g), relabel)
        lines.append(f"{name} := {permaction.format_cycles(conj)}")
    gens = tmp_path / "gens.txt"
    gens.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "verify", "--gens", str(gens))
    assert code == 0
    assert "FAIL" not in out


def test_verify_with_seeded_relabelling_passes_block_claims(
    tmp_path, capsys, relabelled_action
):
    from golay486 import permaction

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


def test_diagram_distance_delta(capsys):
    code, out, _ = run(capsys, "diagram", "delta", "--kind", "distance")
    assert code == 0
    assert cli.check_dot(out)
    for i, size in enumerate((1, 45, 220, 198, 22)):
        assert f'k{i} [label="{size}"]' in out  # bipartite: no a-values


def test_diagram_distance_lambda(capsys):
    code, out, _ = run(capsys, "diagram", "lambda", "--kind", "distance")
    assert code == 0
    assert cli.check_dot(out)
    for i, size in enumerate((1, 20, 180, 40, 2)):
        assert f'k{i} [label="{size}' in out  # classes with a_i > 0 append it


def test_diagram_orbit_upsilon(tmp_path, capsys):
    out_path = tmp_path / "ups.dot"
    code, _, _ = run(capsys, "diagram", "upsilon", "--kind", "orbit", "-o", str(out_path))
    assert code == 0
    text = out_path.read_text()
    assert cli.check_dot(text)
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


def test_check_dot_rejects_garbage():
    assert not cli.check_dot("digraph g { a -> b; }")
    assert not cli.check_dot("graph g {\n  unterminated\n}")
    assert not cli.check_dot("")
