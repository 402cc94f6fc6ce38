import csv
import json
import math

import pytest

from gral.cli import main


def run_cli(*argv):
    return main(list(argv))


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--version")
    assert exc.value.code == 0
    assert "gral" in capsys.readouterr().out


def test_simulate_localize_round_trip(tmp_path, capsys):
    out = tmp_path / "inst"
    assert run_cli("simulate", "--scenario", "1", "--seed", "4", "--out", str(out)) == 0
    for name in ("graph.json", "packages.ndjson", "ground_truth.csv"):
        assert (out / name).exists()

    result_csv = tmp_path / "localized.csv"
    code = run_cli(
        "localize",
        "--variant",
        "gral",
        "--graph",
        str(out / "graph.json"),
        "--packages",
        str(out / "packages.ndjson"),
        "--out",
        str(result_csv),
    )
    assert code == 0
    with result_csv.open() as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    assert set(rows[0]) == {"node", "seq", "t", "from", "to", "offset", "span", "method"}
    assert all(r["method"] == "gral" for r in rows)
    truth_rows = list(csv.DictReader((out / "ground_truth.csv").open()))
    assert len(rows) == len(truth_rows)


def test_localize_all_variants(tmp_path):
    out = tmp_path / "inst"
    run_cli("simulate", "--scenario", "2", "--seed", "1", "--out", str(out))
    for variant in ("baseline", "gral", "gral+cp", "gral+pr", "gral+cp+pr"):
        path = tmp_path / f"{variant.replace('+', '_')}.csv"
        assert (
            run_cli(
                "localize",
                "--variant",
                variant,
                "--graph",
                str(out / "graph.json"),
                "--packages",
                str(out / "packages.ndjson"),
                "--out",
                str(path),
            )
            == 0
        )
        assert path.exists()


def test_evaluate_writes_summary(tmp_path, capsys):
    out_csv = tmp_path / "summary.csv"
    per_instance = tmp_path / "irmse.csv"
    code = run_cli(
        "evaluate",
        "--scenario",
        "1",
        "--instances",
        "5",
        "--seed0",
        "0",
        "--variants",
        "baseline,gral",
        "--out",
        str(out_csv),
        "--per-instance-out",
        str(per_instance),
    )
    assert code == 0
    rows = list(csv.DictReader(out_csv.open()))
    assert [r["variant"] for r in rows] == ["baseline", "gral"]
    assert float(rows[1]["drmse"]) < float(rows[0]["drmse"])
    irmse_rows = list(csv.DictReader(per_instance.open()))
    assert len(irmse_rows) == 10  # 5 instances x 2 variants
    assert "dRMSE" in capsys.readouterr().out


def test_evaluate_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        assert (
            run_cli(
                "evaluate",
                "--scenario",
                "1",
                "--instances",
                "3",
                "--seed0",
                "7",
                "--variants",
                "baseline,gral",
                "--out",
                str(path),
            )
            == 0
        )
    assert a.read_bytes() == b.read_bytes()


def test_scenario_file_input(tmp_path):
    from gral.sim import make_scenario, scenario_to_json

    scenario_file = tmp_path / "custom.json"
    scenario_file.write_text(json.dumps(scenario_to_json(make_scenario(1))))
    out = tmp_path / "inst"
    assert run_cli("simulate", "--scenario", str(scenario_file), "--seed", "0", "--out", str(out)) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--scenario", "9", "--seed", "0", "--out", "x"),
        ("simulate", "--scenario", "/nonexistent.json", "--seed", "0", "--out", "x"),
        ("evaluate", "--scenario", "1", "--instances", "2", "--variants", "bogus", "--out", "x"),
    ],
)
def test_input_errors_exit_1(tmp_path, argv):
    argv = [a if a != "x" else str(tmp_path / "out") for a in argv]
    assert run_cli(*argv) == 1


def test_localize_rejects_malformed_stream(tmp_path):
    out = tmp_path / "inst"
    run_cli("simulate", "--scenario", "1", "--seed", "0", "--out", str(out))
    bad = tmp_path / "bad.ndjson"
    bad.write_text('{"node": "n", "seq": 1}\n')
    code = run_cli(
        "localize",
        "--variant",
        "gral",
        "--graph",
        str(out / "graph.json"),
        "--packages",
        str(bad),
        "--out",
        str(tmp_path / "r.csv"),
    )
    assert code == 1


@pytest.mark.parametrize(
    "mutate",
    [
        lambda graph, pkgs: graph["junctions"][0]["gateway"].update(radius=math.nan),
        lambda graph, pkgs: graph["links"][0].update(length=math.inf),
        lambda graph, pkgs: pkgs[3].update(t=math.nan),
        lambda graph, pkgs: pkgs[3].update(obs=[["gw-a", math.nan]]),
        lambda graph, pkgs: pkgs[3].update(contacts=[["n2", math.inf]]),
    ],
    ids=["gateway-radius", "link-length", "package-t", "gateway-strength", "contact-strength"],
)
def test_localize_rejects_non_finite_input(tmp_path, mutate):
    out = tmp_path / "inst"
    run_cli("simulate", "--scenario", "1", "--seed", "0", "--out", str(out))
    graph = json.loads((out / "graph.json").read_text())
    pkgs = [json.loads(line) for line in (out / "packages.ndjson").read_text().splitlines()]
    mutate(graph, pkgs)
    (out / "graph.json").write_text(json.dumps(graph))
    (out / "packages.ndjson").write_text("".join(json.dumps(p) + "\n" for p in pkgs))
    code = run_cli(
        "localize",
        "--variant",
        "gral",
        "--graph",
        str(out / "graph.json"),
        "--packages",
        str(out / "packages.ndjson"),
        "--out",
        str(tmp_path / "r.csv"),
    )
    assert code == 1
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize(
    "mutate",
    [
        lambda o: o.update(base_step=math.nan),
        lambda o: o.update(contact_radius=math.inf),
        lambda o: o["insertions"][0]["at"].update(offset=math.nan),
    ],
    ids=["base_step", "contact_radius", "insertion-offset"],
)
def test_simulate_rejects_non_finite_scenario(tmp_path, mutate):
    from gral.sim import make_scenario, scenario_to_json

    obj = scenario_to_json(make_scenario(1))
    mutate(obj)
    scenario_file = tmp_path / "custom.json"
    scenario_file.write_text(json.dumps(obj))
    out = tmp_path / "inst"
    assert run_cli("simulate", "--scenario", str(scenario_file), "--seed", "0", "--out", str(out)) == 1
    assert not out.exists()


def test_flag_errors_exit_1():
    with pytest.raises(SystemExit) as exc:
        run_cli("localize", "--variant", "gral")  # missing required flags
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        run_cli("frobnicate")
    assert exc.value.code == 1
