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
from typing import Any, Optional

from .graph import GraphPosition


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


def _sorted_observations(obs: tuple[GatewayObservation, ...]) -> tuple[GatewayObservation, ...]:
    # Strongest first; ties broken by lowest gateway id so "the strongest
    # signal" is well-defined even on equal readings.
    return tuple(sorted(obs, key=lambda o: (-o.strength, o.gateway)))


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
        object.__setattr__(self, "observations", _sorted_observations(tuple(self.observations)))
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


@dataclass(frozen=True)
class LocalizedMeasurement:
    node: str
    seq: int
    t: float
    position: GraphPosition
    method: str

    def __post_init__(self) -> None:
        if self.method not in VARIANTS:
            raise ValueError(f"unknown method tag {self.method!r}")


# -- stream format ------------------------------------------------------------

_PACKAGE_KEYS = {"node", "seq", "t", "obs", "contacts", "payload"}


def _package_from_json(obj: dict, line: int) -> Package:
    if not isinstance(obj, dict):
        raise StreamFormatError("record is not a JSON object", line)
    missing = _PACKAGE_KEYS - set(obj)
    if missing:
        raise StreamFormatError(f"missing field(s) {sorted(missing)}", line)
    unknown = set(obj) - _PACKAGE_KEYS
    if unknown:
        raise StreamFormatError(f"unknown field(s) {sorted(unknown)}", line)
    try:
        observations = tuple(GatewayObservation(str(g), float(s)) for g, s in obj["obs"])
        contacts = tuple(NodeContact(str(p), float(s)) for p, s in obj["contacts"])
        pkg = Package(
            node=str(obj["node"]),
            seq=int(obj["seq"]),
            t=float(obj["t"]),
            observations=observations,
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
    last_seq: dict[str, int] = {}
    last_t: dict[str, float] = {}
    for lineno, line in enumerate(data.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise StreamFormatError(f"invalid JSON: {exc.msg}", lineno) from exc
        pkg = _package_from_json(obj, lineno)
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


def package_to_json(pkg: Package) -> dict:
    return {
        "node": pkg.node,
        "seq": pkg.seq,
        "t": pkg.t,
        "obs": [[o.gateway, o.strength] for o in pkg.observations],
        "contacts": [[c.peer, c.strength] for c in pkg.contacts],
        "payload": pkg.payload,
    }


def serialize_packages(packages: list[Package]) -> str:
    return "".join(
        json.dumps(package_to_json(p), sort_keys=True, separators=(",", ":")) + "\n"
        for p in packages
    )
