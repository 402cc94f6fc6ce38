import csv
import json
import math

import pytest

import gral.cli
from gral.cli import main
from gral.graph import Gateway, Junction, Link, build_graph
from gral.metrics import run_experiment
from gral.sim import Insertion, ScenarioSpec, scenario_to_json


def run_cli(*argv):
    return main(list(argv))


def renumber_junction(graph, old, new, *positions):
    """Rename a junction of a JSON graph, and of JSON positions on it, everywhere
    it is named, to a non-string id."""
    for obj, key in (
        [(jobj, "id") for jobj in graph["junctions"]]
        + [(lobj, end) for lobj in graph["links"] for end in ("u", "v")]
        + [(graph, "root")]
        + [(pos, end) for pos in positions for end in ("from", "to")]
    ):
        if obj[key] == old:
            obj[key] = new


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
    truth_rows = list(csv.DictReader((out / "ground_truth.csv").read_text().splitlines()))
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
    rows = list(csv.DictReader(out_csv.read_text().splitlines()))
    assert [r["variant"] for r in rows] == ["baseline", "gral"]
    assert float(rows[1]["drmse"]) < float(rows[0]["drmse"])
    irmse_rows = list(csv.DictReader(per_instance.read_text().splitlines()))
    assert len(irmse_rows) == 10  # 5 instances x 2 variants
    assert "dRMSE" in capsys.readouterr().out


def test_evaluate_per_instance_rows_name_their_seed(tmp_path):
    # One gateway of radius 0.5 mid-chain: most instances step over it and
    # localize nothing, so they have no iRMSE row.
    graph = build_graph(
        [Junction("a"), Junction("b", Gateway("gw-b", "b", 0.5)), Junction("c")],
        [Link("a", "b", 20.0), Link("b", "c", 20.0)],
        "c",
    )
    spec = ScenarioSpec(
        graph,
        [Insertion("n1", graph.position_at("a"), 0)],
        gateway_radius_default=0.5,
        measurement_interval=2,
    )
    scenario = tmp_path / "sparse.json"
    scenario.write_text(json.dumps(scenario_to_json(spec)), encoding="utf-8")
    per_instance = tmp_path / "irmse.csv"
    code = run_cli(
        "evaluate", "--scenario", str(scenario), "--instances", "8", "--seed0", "0",
        "--variants", "baseline", "--out", str(tmp_path / "summary.csv"),
        "--per-instance-out", str(per_instance),
    )
    assert code == 0
    rows = [(int(r["seed"]), r["irmse"]) for r in csv.DictReader(per_instance.read_text().splitlines())]
    expected = []
    for seed in range(8):
        (alone,) = run_experiment(spec, ["baseline"], 1, seed0=seed)
        expected += [(seed, repr(value)) for value in alone.instance_rmse]
    assert rows == expected
    assert 0 < len(rows) < 8 and [seed for seed, _ in rows] != list(range(len(rows)))


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


@pytest.mark.parametrize("variant, builds", [("baseline", 0), ("gral", 1)])
def test_localize_segments_only_for_graph_variants(tmp_path, monkeypatch, variant, builds):
    out = tmp_path / "inst"
    run_cli("simulate", "--scenario", "4", "--seed", "0", "--out", str(out))
    real_build_state = gral.cli.build_state
    calls = []

    def counting_build_state(*args):
        calls.append(args)
        return real_build_state(*args)

    monkeypatch.setattr(gral.cli, "build_state", counting_build_state)
    result_csv = tmp_path / "r.csv"
    argv = ["--graph", str(out / "graph.json"), "--packages", str(out / "packages.ndjson")]
    assert run_cli("localize", "--variant", variant, *argv, "--out", str(result_csv)) == 0
    assert len(calls) == builds
    # The same rows as localizing from a fully segmented state.
    graph = gral.cli.load_graph((out / "graph.json").read_text())
    streams = {}
    for pkg in gral.cli.parse_package_stream((out / "packages.ndjson").read_text()):
        streams.setdefault(pkg.node, []).append(pkg)
    results = gral.cli.run_pipeline(real_build_state(graph, streams), streams, variant)
    rows = [m for node in sorted(results) for m in results[node]]
    assert rows
    assert result_csv.read_text() == gral.cli._localized_csv(rows)


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


@pytest.mark.parametrize("variant", ["gral", "gral+cp", "gral+pr", "gral+cp+pr"])
def test_localize_rejects_self_contact_on_its_line(tmp_path, capsys, variant):
    out = tmp_path / "inst"
    run_cli("simulate", "--scenario", "2", "--seed", "1", "--out", str(out))
    records = [json.loads(line) for line in (out / "packages.ndjson").read_text().splitlines()]
    (index,) = [i for i, r in enumerate(records) if r["node"] == "n2" and r["seq"] == 20]
    records[index]["contacts"].append(["n2", 0.5])
    (out / "packages.ndjson").write_text("".join(json.dumps(r) + "\n" for r in records))
    capsys.readouterr()
    argv = ["--graph", str(out / "graph.json"), "--packages", str(out / "packages.ndjson")]
    assert run_cli("localize", "--variant", variant, *argv, "--out", str(tmp_path / "r.csv")) == 1
    assert f"error: line {index + 1}: node 'n2' lists itself as a contact" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize(
    "mutate",
    [
        lambda graph, pkgs: graph["junctions"][0]["gateway"].update(radius=math.nan),
        lambda graph, pkgs: graph["links"][0].update(length=math.inf),
        lambda graph, pkgs: pkgs[3].update(t=math.nan),
        lambda graph, pkgs: pkgs[3].update(obs=[["gw-a", math.nan]]),
        lambda graph, pkgs: pkgs[3].update(contacts=[["n2", math.inf]]),
        lambda graph, pkgs: graph["junctions"][0].pop("id"),
        lambda graph, pkgs: graph["links"][0].pop("u"),
        lambda graph, pkgs: graph["links"][0].pop("length"),
        lambda graph, pkgs: pkgs[3].update(seq=pkgs[3]["seq"] + 0.5),
        lambda graph, pkgs: pkgs[1].update(t=True),
        lambda graph, pkgs: pkgs[3].update(t=str(pkgs[3]["t"])),
        lambda graph, pkgs: pkgs[3].update(obs=["g5"]),
        lambda graph, pkgs: pkgs[3].update(contacts=[["p", "2"]]),
        lambda graph, pkgs: graph["links"][0].update(length=True),
        lambda graph, pkgs: graph["junctions"][0]["gateway"].update(radius="3"),
        lambda graph, pkgs: pkgs[3].update(node=5),
        lambda graph, pkgs: pkgs[3].update(obs=[[7, 1.0]]),
        lambda graph, pkgs: pkgs[3].update(contacts=[[None, 1.0]]),
        lambda graph, pkgs: graph["junctions"][0]["gateway"].update(id=None),
        lambda graph, pkgs: renumber_junction(graph, "c", 3),
    ],
    ids=[
        "gateway-radius",
        "link-length",
        "package-t",
        "gateway-strength",
        "contact-strength",
        "junction-without-id",
        "link-without-u",
        "link-without-length",
        "package-fractional-seq",
        "package-bool-t",
        "package-string-t",
        "gateway-obs-string-entry",
        "contact-string-strength",
        "link-bool-length",
        "gateway-string-radius",
        "package-number-node",
        "gateway-number-id",
        "contact-null-peer",
        "gateway-null-id",
        "junction-number-id",
    ],
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
        lambda o: o["insertions"][0].update(tick=2.7),
        lambda o: o.update(measurement_interval=1.9),
        lambda o: o.update(max_ticks=math.nan),
        lambda o: o["insertions"][0].pop("at"),
        lambda o: o["insertions"][0].pop("node"),
        lambda o: o.update(insertions=5),
        lambda o: o.update(base_step=True),
        lambda o: o.update(noise_p="0.1"),
        lambda o: o["insertions"][0]["at"].update(offset="0"),
        lambda o: o["insertions"][0]["at"].update(offset=False),
        lambda o: o["graph"]["links"][0].update(length="50"),
        lambda o: o["insertions"][0].update(node=1),
        lambda o: renumber_junction(o["graph"], "a", 0, o["insertions"][0]["at"]),
    ],
    ids=[
        "base_step",
        "contact_radius",
        "insertion-offset",
        "insertion-tick",
        "measurement_interval",
        "max_ticks",
        "insertion-without-at",
        "insertion-without-node",
        "insertions-not-array",
        "base_step-bool",
        "noise_p-string",
        "insertion-string-offset",
        "insertion-bool-offset",
        "graph-string-length",
        "insertion-number-node",
        "junction-number-id",
    ],
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
