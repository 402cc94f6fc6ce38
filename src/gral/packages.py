"""Measurement packages, node contacts, checkpoints, and the stream format.

A package is one timestamped measurement record carrying the gateway signals
and peer contacts heard at recording time plus an opaque sensor payload. The
backend receives packages in batches; on the wire they are newline-delimited
JSON, one package per line.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, NamedTuple, Optional

from .graph import GraphPosition, check_integer, check_number, check_string


class StreamFormatError(ValueError):
    """Raised for malformed package streams; carries the offending line number."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


@dataclass(frozen=True)
class GatewayObservation:
    gateway: str
    strength: float

    def __post_init__(self) -> None:
        if self.strength < 0:
            raise ValueError(f"negative strength {self.strength} for gateway {self.gateway!r}")


@dataclass(frozen=True)
class NodeContact:
    peer: str
    strength: float

    def __post_init__(self) -> None:
        if self.strength < 0:
            raise ValueError(f"negative strength {self.strength} for peer {self.peer!r}")


@dataclass(frozen=True)
class Package:
    """One measurement record. Observations are kept sorted strongest-first."""

    node: str
    seq: int
    t: float
    observations: tuple[GatewayObservation, ...] = ()
    contacts: tuple[NodeContact, ...] = ()
    payload: Any = None

    def __post_init__(self) -> None:
        observations = self.observations
        if type(observations) is not tuple:
            observations = tuple(observations)
        if len(observations) > 1:
            # Strongest first; ties broken by lowest gateway id so "the
            # strongest signal" is well-defined even on equal readings.
            observations = tuple(sorted(observations, key=lambda o: (-o.strength, o.gateway)))
        if observations is not self.observations:
            object.__setattr__(self, "observations", observations)
        if type(self.contacts) is not tuple:
            object.__setattr__(self, "contacts", tuple(self.contacts))


def strongest(package: Package) -> Optional[GatewayObservation]:
    """Top gateway observation of a package, or None when nothing was heard."""
    return package.observations[0] if package.observations else None


@dataclass(frozen=True)
class Checkpoint:
    """Position/time anchor one node issues for a peer it met."""

    issuer: str
    target: str
    t: float
    position: GraphPosition

    def __post_init__(self) -> None:
        if self.issuer == self.target:
            raise ValueError("checkpoint issuer and target must differ")


# Localization variants, also the method tag each estimate carries.
VARIANTS = ("baseline", "gral", "gral+cp", "gral+pr", "gral+cp+pr")


class LocalizedMeasurement(NamedTuple):
    node: str
    seq: int
    t: float
    position: GraphPosition
    method: str


# -- stream format ------------------------------------------------------------

_PACKAGE_KEYS = {"node", "seq", "t", "obs", "contacts", "payload"}
_INF = math.inf
_raw_decode = json.JSONDecoder().raw_decode

# Each field is first tested for the exact type a well-formed record holds.
# Only a value that fails that test goes through the `check_*` helper, which
# coerces it (an integer `t` or strength, a whole-float `seq`) or raises.


def _signals(value: Any, what: str, signal: type) -> tuple[tuple, Optional[float]]:
    # `obs` and `contacts` are JSON arrays of [id, strength] arrays. Also
    # returns the first NaN or +inf strength: the caller reports it only
    # after every other field has passed.
    if type(value) is not list:
        raise ValueError(f"{what} must be an array of [id, strength] pairs, got {value!r}")
    signals = []
    non_finite = None
    for entry in value:
        if type(entry) is not list or len(entry) != 2:
            raise ValueError(f"{what} must be an array of [id, strength] pairs, got {value!r}")
        ident, strength = entry
        if type(ident) is not str:
            ident = check_string(ident, f"{what} id")
        if type(strength) is not float or not 0.0 <= strength < _INF:
            strength = check_number(strength, f"{what} strength")
            if non_finite is None and not math.isfinite(strength):
                non_finite = strength
        signals.append(signal(ident, strength))
    return tuple(signals), non_finite


def _package_from_json(obj: Any, line: int) -> Package:
    if type(obj) is not dict:
        raise StreamFormatError("record is not a JSON object", line)
    if obj.keys() != _PACKAGE_KEYS:
        missing = _PACKAGE_KEYS - set(obj)
        if missing:
            raise StreamFormatError(f"missing field(s) {sorted(missing)}", line)
        raise StreamFormatError(f"unknown field(s) {sorted(set(obj) - _PACKAGE_KEYS)}", line)
    try:
        observations, bad_obs = _signals(obj["obs"], "obs", GatewayObservation)
        contacts, bad_contact = _signals(obj["contacts"], "contacts", NodeContact)
        node, seq, t = obj["node"], obj["seq"], obj["t"]
        if type(node) is not str:
            node = check_string(node, "node")
        if type(seq) is not int:
            seq = check_integer(seq, "seq")
        if type(t) is not float:
            t = check_number(t, "t")
        pkg = Package(node, seq, t, observations, contacts, obj["payload"])
    except (TypeError, ValueError) as exc:
        raise StreamFormatError(str(exc), line) from exc
    if not -_INF < t < _INF:
        raise StreamFormatError(f"non-finite timestamp {t}", line)
    bad = bad_obs if bad_obs is not None else bad_contact
    if bad is not None:
        raise StreamFormatError(f"non-finite strength {bad}", line)
    for contact in contacts:
        if contact.peer == node:
            raise StreamFormatError(f"node {node!r} lists itself as a contact", line)
    return pkg


def parse_package_stream(data: str | bytes) -> list[Package]:
    """Parse newline-delimited JSON packages, enforcing per-node ordering.

    Sequence numbers must be strictly increasing and timestamps non-decreasing
    per node; violations and malformed records raise StreamFormatError with
    the line number.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    packages: list[Package] = []
    last: dict[str, tuple[int, float]] = {}
    for lineno, line in enumerate(data.splitlines(), start=1):
        # A record that fills its line decodes in one call; padded, blank
        # and malformed lines take `json.loads` and its error message.
        try:
            obj, end = _raw_decode(line)
        except json.JSONDecodeError:
            end = -1
        if end != len(line):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise StreamFormatError(f"invalid JSON: {exc.msg}", lineno) from exc
        pkg = _package_from_json(obj, lineno)
        previous = last.get(pkg.node)
        if previous is not None:
            if pkg.seq <= previous[0]:
                raise StreamFormatError(
                    f"seq regression for node {pkg.node!r}: {pkg.seq} after {previous[0]}",
                    lineno,
                )
            if pkg.t < previous[1]:
                raise StreamFormatError(
                    f"timestamp regression for node {pkg.node!r}: {pkg.t} after {previous[1]}",
                    lineno,
                )
        last[pkg.node] = (pkg.seq, pkg.t)
        packages.append(pkg)
    return packages


_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_quote = json.encoder.encode_basestring_ascii


def _json_scalar(value: Any) -> str:
    # What `_encode` writes for `value`: exact strings, ints and finite
    # floats directly, anything else (NaN, bools, subclasses) through it.
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is float and value - value == 0.0 or kind is int:
        return repr(value)
    return _encode(value)


def serialize_packages(packages: list[Package]) -> str:
    """Newline-delimited JSON: one compact object per package, keys sorted.

    Each line is what `json.dumps(..., sort_keys=True, separators=(",", ":"))`
    gives the object of the package's fields, with `obs` and `contacts` as
    [id, strength] arrays. The fixed key order is written field by field;
    only the payload goes through the encoder whole.
    """
    return "".join(
        '{"contacts":['
        + ",".join(f"[{_json_scalar(c.peer)},{_json_scalar(c.strength)}]" for c in p.contacts)
        + f'],"node":{_json_scalar(p.node)},"obs":['
        + ",".join(f"[{_json_scalar(o.gateway)},{_json_scalar(o.strength)}]" for o in p.observations)
        + f'],"payload":{_encode(p.payload)},"seq":{_json_scalar(p.seq)},"t":{_json_scalar(p.t)}}}\n'
        for p in packages
    )
