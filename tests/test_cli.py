import json
import subprocess
import sys

import pytest

from bendix.cli import main, render_table

PENTAGON = {
    "edges": [
        {"id": "e1", "length": "1"},
        {"id": "e2", "length": "1"},
        {"id": "e3", "length": "1"},
        {"id": "e4", "length": "1"},
        {"id": "e5", "length": "3/2"},
    ]
}


@pytest.fixture
def pentagon_file(tmp_path):
    path = tmp_path / "pentagon.json"
    path.write_text(json.dumps(PENTAGON))
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check(capsys, pentagon_file):
    code, out, _ = run_cli(capsys, ["check", "-f", pentagon_file])
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "edges": 5,
        "generic": True,
        "nonempty": True,
        "vanishing_signs": None,
        "dimension": 4,
    }


def test_nmin(capsys, pentagon_file):
    code, out, _ = run_cli(capsys, ["nmin", "-f", pentagon_file])
    assert code == 0
    doc = json.loads(out)
    assert doc["N"] == 4
    assert ["e5", "e4"] in doc["witness"]


def test_lopsided_and_image_and_critical(capsys, pentagon_file):
    code, out, _ = run_cli(
        capsys, ["lopsided", "-f", pentagon_file, "-I", '["e4","e5"]']
    )
    assert code == 0
    assert json.loads(out) == {
        "subset": ["e5", "e4"],
        "lopsided": True,
        "dominant": "e5",
    }
    code, out, _ = run_cli(capsys, ["image", "-f", pentagon_file, "-I", '["e4","e5"]'])
    assert json.loads(out) == {"lo": "1/2", "hi": "5/2"}
    code, out, _ = run_cli(
        capsys, ["critical", "-f", pentagon_file, "-I", '["e4","e5"]']
    )
    assert json.loads(out) == {"values": ["1/2", "1", "5/2"]}


def test_dim_fill_maximal(capsys, pentagon_file, tmp_path):
    bending = tmp_path / "circle.json"
    bending.write_text(json.dumps({"members": [["e4", "e5"]]}))
    code, out, _ = run_cli(
        capsys, ["dim", "-f", pentagon_file, "-b", str(bending)]
    )
    doc = json.loads(out)
    assert doc["dimension"] == 1 and doc["is_full"] is True

    code, out, _ = run_cli(
        capsys, ["maximal", "-f", pentagon_file, "-b", str(bending)]
    )
    doc = json.loads(out)
    assert doc["is_maximal_bending"] is True
    assert doc["common_value"] == "1"
    assert doc["theorem_b"] == "MaximalHamiltonian"

    code, out, _ = run_cli(capsys, ["fill", "-f", pentagon_file, "-b", str(bending)])
    assert json.loads(out) == {"members": [["e5", "e4"]]}


def test_reduce(capsys, pentagon_file):
    code, out, _ = run_cli(
        capsys,
        ["reduce", "-f", pentagon_file, "-I", '["e4","e5"]', "-t", "2"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["t"] == "2"
    assert [e["length"] for e in doc["left"]["edges"]] == ["1", "3/2", "2"]
    assert doc["left_generic"] is True and doc["right_generic"] is True


def test_enumerate_with_limit(capsys, pentagon_file):
    code, out, _ = run_cli(
        capsys, ["enumerate", "-f", pentagon_file, "--limit", "2"]
    )
    doc = json.loads(out)
    assert doc["spectrum"] == [1]
    assert len(doc["reports"]) == 2


def test_enumerate_rejects_negative_limit(capsys, pentagon_file):
    code, out, err = run_cli(
        capsys, ["enumerate", "-f", pentagon_file, "--limit", "-1"]
    )
    assert code == 2
    assert out == ""
    doc = json.loads(err)
    assert doc["code"] == "schema"
    assert doc["context"] == {"limit": -1}


def test_enumerate_limit_zero_is_empty(capsys, pentagon_file):
    code, out, _ = run_cli(
        capsys, ["enumerate", "-f", pentagon_file, "--limit", "0"]
    )
    assert code == 0
    assert json.loads(out)["reports"] == []


def test_polytope_and_conjugacy(capsys, tmp_path):
    lam_path = tmp_path / "p1a444.json"
    lam_path.write_text(
        json.dumps(
            {
                "edges": [
                    {"id": "e1", "length": "1"},
                    {"id": "e2", "length": "2"},
                    {"id": "e3", "length": "4"},
                    {"id": "e4", "length": "4"},
                    {"id": "e5", "length": "4"},
                ]
            }
        )
    )
    t1 = tmp_path / "t1.json"
    t1.write_text(json.dumps({"members": [["e3", "e1"], ["e4", "e2"]]}))
    code, out, _ = run_cli(capsys, ["polytope", "-f", str(lam_path), "-b", str(t1)])
    assert code == 0
    doc = json.loads(out)
    assert doc["vertices"] == [["3", "2"], ["3", "6"], ["5", "2"], ["5", "6"]]
    assert doc["is_delzant"] is True

    code, out, _ = run_cli(capsys, ["conjugacy", "-f", str(lam_path)])
    doc = json.loads(out)
    assert doc["count"] == 2 and doc["complete"] is True
    assert doc["nonbending_report"]["strong"] is False


def test_polytope_csv_export(capsys, tmp_path):
    lam_path = tmp_path / "p1a444.json"
    lam_path.write_text(
        json.dumps(
            {
                "edges": [
                    {"id": "e1", "length": "1"},
                    {"id": "e2", "length": "2"},
                    {"id": "e3", "length": "4"},
                    {"id": "e4", "length": "4"},
                    {"id": "e5", "length": "4"},
                ]
            }
        )
    )
    t1 = tmp_path / "t1.json"
    t1.write_text(json.dumps({"members": [["e3", "e1"], ["e4", "e2"]]}))
    code, out, _ = run_cli(
        capsys, ["polytope", "-f", str(lam_path), "-b", str(t1), "--csv"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "e3+e1,e4+e2"
    assert lines[1:] == ["3.0,2.0", "3.0,6.0", "5.0,2.0", "5.0,6.0"]


def test_bending_set_json_roundtrip(capsys, pentagon_file, tmp_path):
    bending = tmp_path / "circle.json"
    bending.write_text(json.dumps({"members": [["e4", "e5"]]}))
    code, out, _ = run_cli(capsys, ["fill", "-f", pentagon_file, "-b", str(bending)])
    # the emitted document re-parses under the published schema
    bending.write_text(out)
    code, out2, _ = run_cli(capsys, ["fill", "-f", pentagon_file, "-b", str(bending)])
    assert code == 0 and out2 == out


def test_validation_errors_exit_2(capsys, tmp_path, pentagon_file):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = run_cli(capsys, ["check", "-f", str(bad)])
    assert code == 2
    assert json.loads(err)["code"] == "schema"

    code, _, err = run_cli(
        capsys, ["lopsided", "-f", pentagon_file, "-I", '["zzz"]']
    )
    assert code == 2
    assert json.loads(err)["code"] == "unknown-edge"

    code, _, err = run_cli(capsys, ["image", "-f", pentagon_file])
    assert code == 2


def test_guard_env_and_force(capsys, tmp_path, monkeypatch):
    lam_path = tmp_path / "six.json"
    lam_path.write_text(
        json.dumps(
            {"edges": [{"id": f"e{i}", "length": "1"} for i in range(1, 7)]}
        )
    )
    monkeypatch.setenv("BENDIX_MAX_EDGES", "5")
    code, _, err = run_cli(capsys, ["enumerate", "-f", str(lam_path)])
    assert code == 2
    assert json.loads(err)["code"] == "guard-exceeded"
    code, out, _ = run_cli(capsys, ["enumerate", "-f", str(lam_path), "--force"])
    assert code == 0


def test_deterministic_output(capsys, pentagon_file):
    _, first, _ = run_cli(capsys, ["enumerate", "-f", pentagon_file])
    _, second, _ = run_cli(capsys, ["enumerate", "-f", pentagon_file])
    assert first == second


def test_table_format_carries_same_content(capsys, pentagon_file):
    _, as_json, _ = run_cli(capsys, ["check", "-f", pentagon_file])
    _, as_table, _ = run_cli(capsys, ["check", "-f", pentagon_file, "--format", "table"])
    doc = json.loads(as_json)
    assert render_table(doc) + "\n" == as_table
    for key, value in doc.items():
        assert key in as_table
        if value is not None and not isinstance(value, bool):
            assert str(value) in as_table


def test_examples_all_pass(capsys):
    code, out, _ = run_cli(capsys, ["examples"])
    assert code == 0
    doc = json.loads(out)
    assert doc["all_pass"] is True
    assert {r["status"] for r in doc["results"]} == {"pass"}


def test_examples_single_and_unknown(capsys):
    code, out, _ = run_cli(capsys, ["examples", "--id", "pentagon-critical"])
    assert code == 0
    assert json.loads(out)["results"] == [
        {"id": "pentagon-critical", "status": "pass"}
    ]
    code, _, err = run_cli(capsys, ["examples", "--id", "nope"])
    assert code == 2
    assert json.loads(err)["code"] == "schema"


def test_subprocess_entrypoint(pentagon_file):
    proc = subprocess.run(
        [sys.executable, "-m", "bendix", "nmin", "-f", pentagon_file],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["N"] == 4
