import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gral.cli
from gral.cli import main
from gral.graph import Gateway, Junction, Link, build_graph
from gral.metrics import run_experiment
from gral.sim import Insertion, ScenarioSpec, make_scenario, scenario_to_json

from conftest import DEEP_JSON, LONG_INT_JSON


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


@pytest.mark.parametrize(
    "variants, message",
    [
        ("gral,gral", "variant 'gral' given more than once"),
        ("baseline,gral, baseline", "variant 'baseline' given more than once"),
        ("", "no variants given"),
        (" , ", "no variants given"),
    ],
)
def test_evaluate_rejects_repeated_or_no_variants(tmp_path, capsys, variants, message):
    out = tmp_path / "summary.csv"
    argv = ["--instances", "2", "--variants", variants, "--out", str(out)]
    assert run_cli("evaluate", "--scenario", "1", *argv) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_rejects_scenario_without_insertions(tmp_path, capsys):
    graph = build_graph(
        [Junction("a"), Junction("b", Gateway("gw-b", "b", 2.0))], [Link("a", "b", 20.0)], "b"
    )
    scenario = tmp_path / "empty.json"
    scenario.write_text(json.dumps(scenario_to_json(ScenarioSpec(graph, []))), encoding="utf-8")
    out = tmp_path / "summary.csv"
    argv = ["--scenario", str(scenario), "--instances", "1", "--variants", "gral", "--out", str(out)]
    assert run_cli("evaluate", *argv) == 1
    assert "error: scenario has no insertions" in capsys.readouterr().err
    assert not out.exists()
    # Simulating it stays valid and emits nothing.
    inst = tmp_path / "inst"
    assert run_cli("simulate", "--scenario", str(scenario), "--seed", "0", "--out", str(inst)) == 0
    assert (inst / "packages.ndjson").read_text(encoding="utf-8") == ""


def test_evaluate_rejects_scenario_with_every_insertion_at_the_root(tmp_path, capsys):
    obj = scenario_to_json(make_scenario(2))
    for ins in obj["insertions"]:
        ins["at"] = {"from": "c", "to": "c", "offset": 0.0, "span": 0.0}
    scenario = tmp_path / "at_root.json"
    scenario.write_text(json.dumps(obj), encoding="utf-8")
    out = tmp_path / "summary.csv"
    argv = ["--scenario", str(scenario), "--instances", "2", "--out", str(out)]
    assert run_cli("evaluate", *argv) == 1
    assert "error: every insertion is at the root" in capsys.readouterr().err
    assert not out.exists()
    # Simulating it stays valid: each node records its one package at the root.
    inst = tmp_path / "inst"
    assert run_cli("simulate", "--scenario", str(scenario), "--seed", "0", "--out", str(inst)) == 0


def test_simulate_warns_when_an_instance_is_truncated(tmp_path, capsys):
    obj = scenario_to_json(make_scenario(1))
    obj["max_ticks"] = 5
    scenario = tmp_path / "short.json"
    scenario.write_text(json.dumps(obj), encoding="utf-8")
    inst = tmp_path / "inst"
    assert run_cli("simulate", "--scenario", str(scenario), "--seed", "0", "--out", str(inst)) == 0
    assert "warning: instance truncated at max_ticks" in capsys.readouterr().err
    truth = (inst / "ground_truth.csv").read_text(encoding="utf-8").splitlines()
    assert len(truth) == 1 + 6  # header, then ticks 0..5


@pytest.mark.parametrize(
    "max_ticks, instances, warning",
    [
        (40, 2, "warning: 2 of 2 instances truncated at max_ticks (seeds 0, 1)"),
        # Seed 0 of scenario 2 takes 69 ticks to reach the root, seeds 1 and 2 fewer.
        (67, 3, "warning: 1 of 3 instances truncated at max_ticks (seeds 0)"),
        (5000, 3, None),
    ],
)
def test_evaluate_warns_with_the_seeds_of_truncated_instances(
    tmp_path, capsys, max_ticks, instances, warning
):
    obj = scenario_to_json(make_scenario(2))
    obj["max_ticks"] = max_ticks
    scenario = tmp_path / "short.json"
    scenario.write_text(json.dumps(obj), encoding="utf-8")
    out = tmp_path / "summary.csv"
    argv = ["--scenario", str(scenario), "--instances", str(instances), "--out", str(out)]
    assert run_cli("evaluate", *argv) == 0
    err = capsys.readouterr().err
    assert (warning in err) if warning else "warning" not in err
    # Truncated instances are still scored as they are.
    rows = {r["variant"]: r for r in csv.DictReader(out.read_text().splitlines())}
    if max_ticks == 40:
        assert rows["gral"]["packages"] == "133"
        assert rows["gral"]["coverage_pct"] == "87.96992481203007"


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
        lambda o: o.update(max_ticks=-5),
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
        lambda o: o["insertions"][0]["at"].update(bogus=1),
    ],
    ids=[
        "base_step",
        "contact_radius",
        "insertion-offset",
        "insertion-tick",
        "measurement_interval",
        "max_ticks",
        "max_ticks-negative",
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
        "position-unknown-field",
    ],
)
def test_simulate_rejects_non_finite_scenario(tmp_path, mutate):
    obj = scenario_to_json(make_scenario(1))
    mutate(obj)
    scenario_file = tmp_path / "custom.json"
    scenario_file.write_text(json.dumps(obj))
    out = tmp_path / "inst"
    assert run_cli("simulate", "--scenario", str(scenario_file), "--seed", "0", "--out", str(out)) == 1
    assert not out.exists()


def test_scenario_error_does_not_depend_on_hash_seed(tmp_path):
    # Several bad settings: the first in ScenarioSpec's order is reported,
    # whatever order a set of their names iterates in.
    obj = scenario_to_json(make_scenario(1))
    obj.update(base_step="1", noise_p="x", max_ticks=1.5, measurement_interval=True)
    scenario_file = tmp_path / "bad.json"
    scenario_file.write_text(json.dumps(obj))
    source = str(Path(gral.cli.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    messages = set()
    for seed in ("1", "2", "3"):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "gral.cli",
                "simulate",
                "--scenario",
                str(scenario_file),
                "--seed",
                "0",
                "--out",
                str(tmp_path / "inst"),
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": pythonpath, "PYTHONHASHSEED": seed},
        )
        assert proc.returncode == 1
        messages.add(proc.stderr)
    (message,) = messages
    assert message.startswith("error: base_step"), message


@pytest.mark.parametrize("command", ["localize", "simulate", "evaluate"])
@pytest.mark.parametrize("text", [DEEP_JSON, LONG_INT_JSON], ids=["deep-nesting", "long-integer"])
def test_undecodable_graph_and_scenario_files_exit_1(
    tmp_path, capsys, int_digit_limit, command, text
):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    out = str(tmp_path / "out")
    argv = {
        "localize": ["--variant", "gral", "--graph", str(bad), "--packages", str(bad)],
        "simulate": ["--scenario", str(bad), "--seed", "0"],
        "evaluate": ["--scenario", str(bad), "--instances", "1"],
    }[command]
    assert run_cli(command, *argv, "--out", out) == 1
    kind = "graph" if command == "localize" else "scenario"
    assert capsys.readouterr().err.startswith(f"error: invalid JSON in {kind} file: ")


def test_flag_errors_exit_1():
    with pytest.raises(SystemExit) as exc:
        run_cli("localize", "--variant", "gral")  # missing required flags
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        run_cli("frobnicate")
    assert exc.value.code == 1


# -- golden file outputs of simulate and localize -------------------------------

# sha256 of graph.json, packages.ndjson and ground_truth.csv from
# `gral simulate --scenario k --seed 0`.
SIMULATE_GOLDEN = {
    1: (
        "b6a7abb79a9d90671bcbb5a14b50d934c89c81a5e8d8cdfa35f30059eaff1514",
        "746f1ab47af897cb3085903cf06c45801955b0fdbc868a7906ef4038cbd8d071",
        "4d90d1ff1cbf11fe25c1d5962faebacb28e6d3527392ad06ac9fa29065da6c71",
    ),
    2: (
        "b6a7abb79a9d90671bcbb5a14b50d934c89c81a5e8d8cdfa35f30059eaff1514",
        "011eb8c96a98b41720762ebfc2a2a5fd39f7dda4c26b97060937ea5fa7f6e89c",
        "195899d51a392c37d7b04c622b75e893d4c4bf14b5d85c3c6232f777d8e29dca",
    ),
    3: (
        "330a12564c409cfdee09089a0677b45a7e0bc0c18ca060e81e7ac17114e0fc1d",
        "f6c1fb36de432b76df60ca0451829cb5cb076e8592448f1f647ec437afbd3082",
        "0c5a9ba3a0a11ed64cf9fb74668d752805ec28a0732acdafb2b5264af76a7347",
    ),
    4: (
        "5f61ee1bcc07951fd7294dfd277c645d044d01cb3c3bea396f2233cbf48b51db",
        "5344d0a53137beecb2633f4a0219695fe5cca3b0edbc1862d618efe67d59f3f7",
        "1cff86619a7c1aba9d7ad499b4fe7ce3c4336dd0394ea8f44d4862552dac6ac7",
    ),
}

# sha256 of the `gral localize` CSV of each variant on scenario 4, seed 0.
def localize_bytes(tmp_path, data: bytes) -> int:
    """Localize `data` as a stream on scenario 1's graph, simulated once."""
    inst = tmp_path / "inst"
    if not inst.exists():
        assert run_cli("simulate", "--scenario", "1", "--seed", "0", "--out", str(inst)) == 0
    stream = tmp_path / "stream.ndjson"
    stream.write_bytes(data)
    argv = ["--graph", str(inst / "graph.json"), "--packages", str(stream)]
    return run_cli("localize", "--variant", "gral", *argv, "--out", str(tmp_path / "r.csv"))


def test_localize_reads_the_stream_as_the_parser_does(tmp_path, capsys):
    assert localize_bytes(tmp_path, b"") == 0
    lf = (tmp_path / "inst" / "packages.ndjson").read_bytes()
    assert localize_bytes(tmp_path, lf) == 0
    expected = (tmp_path / "r.csv").read_bytes()
    assert localize_bytes(tmp_path, lf.replace(b"\n", b"\r\n")) == 0
    assert (tmp_path / "r.csv").read_bytes() == expected
    # Only "\n" ends a record: with lone "\r" endings, the stream is one line.
    (tmp_path / "r.csv").unlink()
    capsys.readouterr()
    assert localize_bytes(tmp_path, lf.replace(b"\n", b"\r")) == 1
    assert capsys.readouterr().err == "error: line 1: invalid JSON: Extra data\n"
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize(
    "payload, message",
    [
        (b"[" * 100_000 + b"]" * 100_000, "invalid JSON: nested too deeply"),
        (b'"\xff"', "invalid UTF-8: invalid start byte"),
    ],
    ids=["deep-nesting", "undecodable-byte"],
)
def test_localize_names_the_line_of_an_undecodable_record(tmp_path, capsys, payload, message):
    assert localize_bytes(tmp_path, b"") == 0
    lines = (tmp_path / "inst" / "packages.ndjson").read_bytes().splitlines()
    lines[2] = lines[2].replace(b'"payload":{"tick":2}', b'"payload":' + payload)
    capsys.readouterr()
    assert localize_bytes(tmp_path, b"\n".join(lines)) == 1
    assert capsys.readouterr().err == f"error: line 3: {message}\n"


LOCALIZE_GOLDEN = {
    "baseline": "81980b3d5efe1cb0dd278f15dd5ec38f771a3603a7860c92228376344787f6e2",
    "gral": "d42f2243a586c706fed4ad562c9628fd781235b7d5ed90f3af3d1f06e419115d",
    "gral+cp": "446751815cbd51cc0697cb09ea8db24d3871e6e7098c55c6fb613235c924ba21",
    "gral+pr": "0c3d0eda85119e22957c8348e49965cfe1a85c160947947ced780338f453900d",
    "gral+cp+pr": "97f3846f7e6dbddf87af5c62997aac852b0b4d516a0ab8cfc9e60abb7c868a3a",
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("scenario", sorted(SIMULATE_GOLDEN))
def test_simulate_outputs_match_golden_hashes(scenario, tmp_path):
    out = tmp_path / "inst"
    assert run_cli("simulate", "--scenario", str(scenario), "--seed", "0", "--out", str(out)) == 0
    names = ("graph.json", "packages.ndjson", "ground_truth.csv")
    assert tuple(sha256(out / name) for name in names) == SIMULATE_GOLDEN[scenario]


def test_localize_csvs_match_golden_hashes(tmp_path):
    out = tmp_path / "inst"
    assert run_cli("simulate", "--scenario", "4", "--seed", "0", "--out", str(out)) == 0
    got = {}
    for variant in LOCALIZE_GOLDEN:
        path = tmp_path / "localized.csv"
        code = run_cli(
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
        assert code == 0
        got[variant] = sha256(path)
    assert got == LOCALIZE_GOLDEN
