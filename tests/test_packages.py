import json
import math
import random

import pytest

from gral.packages import (
    GatewayObservation,
    NodeContact,
    Package,
    StreamFormatError,
    parse_package_stream,
    serialize_packages,
    strongest,
)


def make_packages():
    return [
        Package(
            "n1",
            1,
            0.0,
            (GatewayObservation("gw-a", 3.0), GatewayObservation("gw-b", 1.5)),
            (NodeContact("n2", 2.0),),
            payload={"tick": 0},
        ),
        Package("n1", 2, 1.0, (), (), payload=None),
        Package("n2", 1, 0.0, (GatewayObservation("gw-b", 0.25),), (), payload=[1, 2]),
    ]


def test_parse_empty():
    assert parse_package_stream("") == []
    assert parse_package_stream(b"\n\n") == []


def test_round_trip_values_and_bytes():
    pkgs = make_packages()
    text = serialize_packages(pkgs)
    again = parse_package_stream(text)
    assert again == pkgs
    assert serialize_packages(again) == text


def test_observations_resorted_on_parse():
    line = json.dumps(
        {
            "node": "n1",
            "seq": 1,
            "t": 0.0,
            "obs": [["gw-weak", 1.0], ["gw-strong", 9.0]],
            "contacts": [],
            "payload": None,
        }
    )
    (pkg,) = parse_package_stream(line)
    assert [o.gateway for o in pkg.observations] == ["gw-strong", "gw-weak"]


def test_seq_regression_reports_line():
    lines = [
        {"node": "n1", "seq": 5, "t": 0.0, "obs": [], "contacts": [], "payload": None},
        {"node": "n1", "seq": 3, "t": 1.0, "obs": [], "contacts": [], "payload": None},
    ]
    text = "\n".join(json.dumps(l) for l in lines)
    with pytest.raises(StreamFormatError, match="line 2.*seq regression"):
        parse_package_stream(text)


def test_timestamp_regression_rejected():
    lines = [
        {"node": "n1", "seq": 1, "t": 5.0, "obs": [], "contacts": [], "payload": None},
        {"node": "n1", "seq": 2, "t": 4.0, "obs": [], "contacts": [], "payload": None},
    ]
    text = "\n".join(json.dumps(l) for l in lines)
    with pytest.raises(StreamFormatError, match="timestamp regression"):
        parse_package_stream(text)


def test_negative_strength_rejected():
    line = json.dumps(
        {"node": "n1", "seq": 1, "t": 0.0, "obs": [["g", -1.0]], "contacts": [], "payload": None}
    )
    with pytest.raises(StreamFormatError, match="line 1.*negative strength"):
        parse_package_stream(line)


@pytest.mark.parametrize(
    "field, value",
    [
        ("t", math.nan),
        ("t", math.inf),
        ("t", -math.inf),
        ("obs", [["g", math.nan]]),
        ("obs", [["g", math.inf]]),
        ("contacts", [["p", math.nan]]),
        ("contacts", [["p", math.inf]]),
    ],
)
def test_non_finite_values_rejected(field, value):
    obj = {"node": "n1", "seq": 1, "t": 0.0, "obs": [], "contacts": [], "payload": None}
    obj[field] = value
    with pytest.raises(StreamFormatError, match="line 1.*non-finite"):
        parse_package_stream(json.dumps(obj))


def test_malformed_json_reports_line():
    with pytest.raises(StreamFormatError, match="line 2"):
        parse_package_stream('{"node":"n","seq":1,"t":0,"obs":[],"contacts":[],"payload":null}\n{oops')


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda o: o.pop("seq"), "missing"),
        (lambda o: o.update(color=1), "unknown"),
    ],
)
def test_field_validation(mutate, message):
    obj = {"node": "n", "seq": 1, "t": 0.0, "obs": [], "contacts": [], "payload": None}
    mutate(obj)
    with pytest.raises(StreamFormatError, match=message):
        parse_package_stream(json.dumps(obj))


def test_strongest_empty():
    assert strongest(Package("n", 1, 0.0)) is None


def test_strongest_simple():
    pkg = Package(
        "n", 1, 0.0, (GatewayObservation("gA", 5.0), GatewayObservation("gB", 2.0))
    )
    assert strongest(pkg) == GatewayObservation("gA", 5.0)


def test_strongest_tie_breaks_on_lowest_gateway_id():
    pkg = Package(
        "n", 1, 0.0, (GatewayObservation("gB", 5.0), GatewayObservation("gA", 5.0))
    )
    assert strongest(pkg) == GatewayObservation("gA", 5.0)


def test_strongest_invariant_under_permutation():
    rng = random.Random(5)
    base = [GatewayObservation(f"g{i}", rng.choice([1.0, 2.0, 5.0])) for i in range(6)]
    reference = strongest(Package("n", 1, 0.0, tuple(base)))
    for _ in range(20):
        shuffled = base[:]
        rng.shuffle(shuffled)
        assert strongest(Package("n", 1, 0.0, tuple(shuffled))) == reference
