import json
import math
import random

import pytest

import gral.packages
from gral.graph import check_integer, check_number, check_string
from gral.packages import (
    GatewayObservation,
    NodeContact,
    Package,
    StreamFormatError,
    parse_package_stream,
    serialize_packages,
    strongest,
)
from gral.sim import make_scenario, run_instance


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


@pytest.mark.parametrize("seq", [1.5, True, "3"], ids=["fraction", "bool", "string"])
def test_seq_must_be_an_integer(seq):
    obj = {"node": "n", "seq": seq, "t": 0.0, "obs": [], "contacts": [], "payload": None}
    with pytest.raises(StreamFormatError, match="line 1.*seq must be an integer"):
        parse_package_stream(json.dumps(obj))


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("t", True, "t must be a number"),
        ("t", "2.5", "t must be a number"),
        ("obs", [["g", "5"]], "obs strength must be a number"),
        ("obs", [["g", False]], "obs strength must be a number"),
        ("contacts", [["p", "2"]], "contacts strength must be a number"),
        ("obs", ["g5"], "obs must be an array of"),
        ("obs", [["g", 1.0, 2.0]], "obs must be an array of"),
        ("obs", {"g": 5}, "obs must be an array of"),
        ("contacts", ["p2"], "contacts must be an array of"),
        ("node", 5, "node must be a string, got 5"),
        ("node", None, "node must be a string, got None"),
        ("obs", [[7, 1.0]], "obs id must be a string, got 7"),
        ("contacts", [[None, 1.0]], "contacts id must be a string, got None"),
        ("contacts", [[["p"], 1.0]], "contacts id must be a string"),
    ],
    ids=[
        "t-bool",
        "t-string",
        "obs-string-strength",
        "obs-bool-strength",
        "contact-string-strength",
        "obs-string-entry",
        "obs-triple",
        "obs-object",
        "contact-string-entry",
        "node-number",
        "node-null",
        "obs-number-id",
        "contact-null-id",
        "contact-array-id",
    ],
)
def test_numbers_and_signal_pairs_are_json_typed(field, value, message):
    obj = {"node": "n", "seq": 1, "t": 0.0, "obs": [], "contacts": [], "payload": None}
    obj[field] = value
    with pytest.raises(StreamFormatError, match=f"line 1.*{message}"):
        parse_package_stream(json.dumps(obj))


def test_whole_float_seq_reads_as_integer():
    obj = {"node": "n", "seq": 2.0, "t": 0.0, "obs": [], "contacts": [], "payload": None}
    [pkg] = parse_package_stream(json.dumps(obj))
    assert pkg.seq == 2 and isinstance(pkg.seq, int)


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


# -- the parser against a plain reference ---------------------------------------

REFERENCE_KEYS = {"node", "seq", "t", "obs", "contacts", "payload"}


def reference_signals(value, what, signal):
    if not isinstance(value, list):
        raise ValueError(f"{what} must be an array of [id, strength] pairs, got {value!r}")
    signals = []
    for entry in value:
        if not isinstance(entry, list) or len(entry) != 2:
            raise ValueError(f"{what} must be an array of [id, strength] pairs, got {value!r}")
        signals.append(
            signal(check_string(entry[0], f"{what} id"), check_number(entry[1], f"{what} strength"))
        )
    return tuple(signals)


def reference_package(obj, line):
    if not isinstance(obj, dict):
        raise StreamFormatError("record is not a JSON object", line)
    missing = REFERENCE_KEYS - set(obj)
    if missing:
        raise StreamFormatError(f"missing field(s) {sorted(missing)}", line)
    unknown = set(obj) - REFERENCE_KEYS
    if unknown:
        raise StreamFormatError(f"unknown field(s) {sorted(unknown)}", line)
    try:
        observations = reference_signals(obj["obs"], "obs", GatewayObservation)
        contacts = reference_signals(obj["contacts"], "contacts", NodeContact)
        pkg = Package(
            node=check_string(obj["node"], "node"),
            seq=check_integer(obj["seq"], "seq"),
            t=check_number(obj["t"], "t"),
            observations=tuple(sorted(observations, key=lambda o: (-o.strength, o.gateway))),
            contacts=contacts,
            payload=obj["payload"],
        )
    except (TypeError, ValueError) as exc:
        raise StreamFormatError(str(exc), line) from exc
    if not math.isfinite(pkg.t):
        raise StreamFormatError(f"non-finite timestamp {pkg.t}", line)
    for signal in observations + contacts:
        if not math.isfinite(signal.strength):
            raise StreamFormatError(f"non-finite strength {signal.strength}", line)
    if any(c.peer == pkg.node for c in contacts):
        raise StreamFormatError(f"node {pkg.node!r} lists itself as a contact", line)
    return pkg


def reference_parse(text):
    """Reference parser: `json.loads` and a `check_*` call on every field."""
    packages = []
    last_seq, last_t = {}, {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise StreamFormatError(f"invalid JSON: {exc.msg}", lineno) from exc
        pkg = reference_package(obj, lineno)
        if pkg.node in last_seq and pkg.seq <= last_seq[pkg.node]:
            raise StreamFormatError(
                f"seq regression for node {pkg.node!r}: {pkg.seq} after {last_seq[pkg.node]}",
                lineno,
            )
        if pkg.node in last_t and pkg.t < last_t[pkg.node]:
            raise StreamFormatError(
                f"timestamp regression for node {pkg.node!r}: {pkg.t} after {last_t[pkg.node]}",
                lineno,
            )
        last_seq[pkg.node] = pkg.seq
        last_t[pkg.node] = pkg.t
        packages.append(pkg)
    return packages


def random_records(rng):
    """A few well-formed records from two nodes, as JSON objects."""
    records = []
    seq = {"n1": 0, "n2": 0}
    t = {"n1": 0.0, "n2": 0.0}
    for _ in range(rng.randint(1, 5)):
        node = rng.choice(["n1", "n2"])
        seq[node] += rng.randint(1, 3)
        t[node] += rng.choice([0.0, 1.0, 2.5])
        records.append(
            {
                "node": node,
                "seq": seq[node],
                "t": t[node],
                "obs": [[f"gw-{rng.randint(0, 3)}", rng.choice([0.0, 0.5, 3.25])] for _ in range(rng.randint(0, 3))],
                "contacts": [[rng.choice(sorted({"n1", "n2", "n3"} - {node})), rng.random()] for _ in range(rng.randint(0, 2))],
                "payload": rng.choice([None, {"tick": 3}, [1, 2], "x"]),
            }
        )
    return records


BAD_NUMBERS = [math.nan, math.inf, -math.inf, -1.5, True, False, None, "3", [1.0], 10**400, 7]
BAD_SIGNALS = ["g", 5, None, {"g": 1.0}, ["g"], ["g", 1.0, 2.0], [7, 1.0], [None, 1.0], [["g"], 1.0]]


def finite(value, default):
    small_int = type(value) is int and abs(value) < 10**9
    return value if small_int or type(value) is float and math.isfinite(value) else default


def mutate_record(rng, obj):
    """Apply one random change to a record object; may return a non-object."""
    kind = rng.randrange(11)
    t, seq = finite(obj.get("t"), 2.0), int(finite(obj.get("seq"), 2))
    if kind == 0:
        obj["t"] = rng.choice([int(t), 10**400, math.nan, math.inf, -math.inf, True, "2.5", None])
    elif kind == 1:
        obj["seq"] = rng.choice([float(seq), seq + 0.5, True, "3", None, 10**400, math.nan])
    elif kind in (2, 3):
        fields = rng.choice([["obs"], ["contacts"], ["obs", "contacts"]])
        for field in fields:
            signals = list(obj[field]) if isinstance(obj.get(field), list) else []
            if len(fields) == 2:
                # Which list's non-finite strength is reported?
                signals.append(["g", rng.choice([math.nan, math.inf])])
            elif kind == 2:
                signals.append([rng.choice(["g", "p"]), rng.choice(BAD_NUMBERS)])
            else:
                signals.append(rng.choice(BAD_SIGNALS))
            rng.shuffle(signals)
            obj[field] = signals
    elif kind == 4:
        obj[rng.choice(["obs", "contacts"])] = rng.choice([{"g": 1.0}, "g", None, 3, [["g", 1.0]]])
    elif kind == 5 and obj:
        del obj[rng.choice(sorted(obj))]
        if rng.random() < 0.3:
            obj["extra"] = 1
    elif kind == 6:
        obj[rng.choice(["extra", "color"])] = 1
    elif kind == 7:
        obj["node"] = rng.choice([5, None, ["n1"], "n1", "n2", True])
    elif kind == 8:
        # A regression when an earlier record of the node has a later seq or t.
        obj["seq"] = rng.randint(1, max(seq, 1))
        obj["t"] = t - rng.choice([0.0, 0.5, 3.0])
    elif kind == 9:
        return rng.choice([[obj], 3, "record", None, True])
    elif kind == 10 and isinstance(obj.get("contacts"), list):
        # A node that lists itself as a contact.
        obj["contacts"] = obj["contacts"] + [[obj.get("node"), 0.5]]
    return obj


def mutate_line(rng, line):
    """Apply one random change to a record's text."""
    kind = rng.randrange(6)
    pad = rng.choice([" ", "\t", "\xa0", "  ", "\ufeff"])
    if kind == 0:
        return pad + line
    if kind == 1:
        return line + pad
    if kind == 2:
        return line[: rng.randrange(len(line))]
    if kind == 3:
        cut = rng.randrange(len(line) + 1)
        return line[:cut] + rng.choice(["}", ",", "x", '"', "]", "\x0c", "\r"]) + line[cut:]
    if kind == 4:
        return line + rng.choice(["{}", "1", "\n", "\n\xa0", "\n \t"])
    return rng.choice(["", " ", "\xa0", "\t\t"])


def outcome(parse, text):
    try:
        return ("ok", parse(text))
    except StreamFormatError as exc:
        return ("error", str(exc), exc.line)


def test_parser_matches_reference_on_mutated_records():
    rng = random.Random(10)
    errors = 0
    for _ in range(4000):
        records = random_records(rng)
        victim = rng.randrange(len(records))
        in_record = rng.random() < 0.6
        if in_record:
            records[victim] = mutate_record(rng, records[victim])
            # A second fault in the same record checks which error fires first.
            if rng.random() < 0.3 and isinstance(records[victim], dict):
                records[victim] = mutate_record(rng, records[victim])
        lines = [json.dumps(r, separators=rng.choice([(",", ":"), (", ", ": ")])) for r in records]
        if not in_record:
            lines[victim] = mutate_line(rng, lines[victim])
        text = "\n".join(lines)
        expected = outcome(reference_parse, text)
        assert outcome(parse_package_stream, text) == expected, text
        errors += expected[0] == "error"
    # Most cases fail somewhere, and a fair share still parse.
    assert 2000 < errors < 3800


def test_well_formed_stream_parses_without_check_helpers(monkeypatch):
    pkgs = [p for b in run_instance(make_scenario(4), 1).batches for p in b.packages]
    text = serialize_packages(pkgs)
    calls = {}
    for name in ("check_number", "check_integer", "check_string"):
        helper = getattr(gral.packages, name)

        def counted(*args, helper=helper, name=name):
            calls[name] = calls.get(name, 0) + 1
            return helper(*args)

        monkeypatch.setattr(gral.packages, name, counted)
    assert parse_package_stream(text) == pkgs
    assert calls == {}
    # A coerced field still takes its helper.
    obj = {"node": "n", "seq": 2.0, "t": 1, "obs": [["g", 2]], "contacts": [], "payload": None}
    parse_package_stream(json.dumps(obj))
    assert calls == {"check_number": 2, "check_integer": 1}


# -- serializer ------------------------------------------------------------------


def reference_serialize(packages):
    """The serializer as one `json.dumps` of a field dict per package."""
    return "".join(
        json.dumps(
            {
                "node": p.node,
                "seq": p.seq,
                "t": p.t,
                "obs": [[o.gateway, o.strength] for o in p.observations],
                "contacts": [[c.peer, c.strength] for c in p.contacts],
                "payload": p.payload,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        + "\n"
        for p in packages
    )


IDS = ["n1", "gw-a", 'q"uote', "back\\slash", "tab\tnew\nline", "café", "☃", "\x00", ""]
NUMBERS = [
    0.0, -0.0, 5.0, 1e-7, 1e22, 1e16, 0.1, 2.5e-300, 1.7976931348623157e308,
    0, 7, -3, 10**30, -(2**64), True, False, math.inf, -math.inf, math.nan,
]


def random_payload(rng, depth=0):
    kinds = ["scalar", "id", "none"] + (["list", "dict"] if depth < 3 else [])
    kind = rng.choice(kinds)
    if kind == "scalar":
        return rng.choice(NUMBERS)
    if kind == "id":
        return rng.choice(IDS)
    if kind == "none":
        return None
    if kind == "list":
        return [random_payload(rng, depth + 1) for _ in range(rng.randrange(4))]
    return {rng.choice(IDS): random_payload(rng, depth + 1) for _ in range(rng.randrange(4))}


def test_serializer_matches_json_dumps_byte_for_byte():
    rng = random.Random(12)
    strengths = [s for s in NUMBERS if not (isinstance(s, (int, float)) and s < 0)]
    packages = []
    for _ in range(600):
        signals = [(rng.choice(IDS), rng.choice(strengths)) for _ in range(rng.randrange(4))]
        packages.append(
            Package(
                rng.choice(IDS),
                rng.choice([1, 12, 10**30, 2**63]),
                rng.choice(NUMBERS),
                tuple(GatewayObservation(*s) for s in signals[: rng.randrange(len(signals) + 1)]),
                tuple(NodeContact(*s) for s in signals),
                random_payload(rng),
            )
        )
    packages += [p for b in run_instance(make_scenario(4), 2).batches for p in b.packages]
    assert serialize_packages(packages) == reference_serialize(packages)
