"""Measurement packages, node contacts, checkpoints, and the stream format.

A package is one timestamped measurement record carrying the gateway signals
and peer contacts heard at recording time plus an opaque sensor payload. The
backend receives packages in batches; on the wire they are newline-delimited
JSON, one package per line.
"""

from __future__ import annotations

import functools
import gc
import json
import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Optional, TypeVar

from .graph import GraphPosition, check_integer, check_number, check_string


_F = TypeVar("_F", bound=Callable[..., Any])


def _gc_paused(fn: _F) -> _F:
    # Runs `fn` with CPython's cyclic garbage collector off. The packages,
    # epochs, positions and records that parsing, segmentation, placement and
    # scoring build hold no reference cycles, so reference counting frees
    # them all, and each collection would only re-traverse live objects.
    # A call made while the collector is already off, as a nested call is,
    # leaves it off. The switch is process-wide: a thread that turns the
    # collector off during the call has it turned back on at the call's exit.
    @functools.wraps(fn)
    def paused(*args: Any, **kwargs: Any) -> Any:
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return paused  # type: ignore[return-value]


class StreamFormatError(ValueError):
    """Raised for malformed package streams; carries the offending line number."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class GatewayObservation(NamedTuple):
    gateway: str
    strength: float


class NodeContact(NamedTuple):
    peer: str
    strength: float


class _PackageFields(NamedTuple):
    node: str
    seq: int
    t: float
    observations: tuple[GatewayObservation, ...] = ()
    contacts: tuple[NodeContact, ...] = ()
    payload: Any = None


def _strongest_first(o: GatewayObservation) -> tuple[float, str]:
    # Strongest first; ties broken by lowest gateway id so "the strongest
    # signal" is well-defined even on equal readings.
    return (-o.strength, o.gateway)


class Package(_PackageFields):
    """One measurement record. Observations are kept sorted strongest-first.

    Strengths are checked where packages enter, by the stream parser.
    """

    __slots__ = ()

    def __new__(
        cls,
        node: str,
        seq: int,
        t: float,
        observations: Iterable[GatewayObservation] = (),
        contacts: Iterable[NodeContact] = (),
        payload: Any = None,
    ) -> Package:
        if type(observations) is not tuple:
            observations = tuple(observations)
        if len(observations) > 1:
            observations = tuple(sorted(observations, key=_strongest_first))
        if type(contacts) is not tuple:
            contacts = tuple(contacts)
        return tuple.__new__(cls, (node, seq, t, observations, contacts, payload))


def strongest(package: Package) -> Optional[GatewayObservation]:
    """Top gateway observation of a package, or None when nothing was heard."""
    return package.observations[0] if package.observations else None


def strongest_gateways(packages: Iterable[Package]) -> list[Optional[str]]:
    """Strongest gateway id of each package, None where nothing was heard."""
    return [p.observations[0].gateway if p.observations else None for p in packages]


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
# What `JSONDecoder.raw_decode` calls, without its frame: it raises
# StopIteration where no value starts, and JSONDecodeError on a malformed one.
_scan_once = json.JSONDecoder().scan_once

# Each field is first tested for the exact type a well-formed record holds.
# Only a value that fails goes through its `check_*` helper, which coerces it
# (an integer `t` or strength, a whole-float `seq`) or raises, and only a
# non-empty `obs` or `contacts` array through `_signals`. `tuple.__new__`
# builds every record: it skips the `__new__` of the NamedTuple classes and
# of `Package`, so the parser sorts observations itself, with `Package`'s key.


def _signals(value: Any, what: str, signal: type) -> tuple[tuple, Optional[float]]:
    # `obs` and `contacts` are JSON arrays of [id, strength] arrays. A
    # negative strength fails at once, named by the record's id field
    # (gateway or peer). Also returns the first NaN or +inf strength: the
    # caller reports it only after every other field has passed.
    if type(value) is not list:
        raise ValueError(f"{what} must be an array of [id, strength] pairs, got {value!r}")
    new = tuple.__new__
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
            if strength < 0:
                raise ValueError(f"negative strength {strength} for {signal._fields[0]} {ident!r}")
            if non_finite is None and not math.isfinite(strength):
                non_finite = strength
        signals.append(new(signal, (ident, strength)))
    return tuple(signals), non_finite


# Lines that one scanner call decodes together (see `_decode_chunk`).
_CHUNK = 64


def _decode_chunk(chunk: list[str]) -> Optional[list]:
    # One scanner call decodes the lines joined as one array, with a `null`
    # between each two, or returns None. Where no line holds "null", every
    # None in the array is a separator; n - 1 of them at the odd places of
    # 2n - 1 items, with the array ending at the text's end, put every
    # separator at the top level, so each line held exactly one JSON value
    # and the array accepts just what a scan of each line alone accepts.
    # Any failure, even one a line alone would not meet (the array nests one
    # level deeper than its lines), leaves the chunk to `_decode_lines`.
    n = len(chunk)
    joined = ",null,".join(chunk)
    if joined.count("null") != n - 1:
        return None
    text = "[" + joined + "]"
    try:
        values, end = _scan_once(text, 0)
    except (StopIteration, ValueError, RecursionError):
        return None
    if end != len(text) or len(values) != 2 * n - 1 or values[1::2].count(None) != n - 1:
        return None
    return values[::2]


def _decode_lines(chunk: list[str], first: int) -> Iterator[tuple[int, Any]]:
    # Line by line, with each line's number: blank and whitespace-only lines
    # are skipped, and the first malformed one raises.
    for lineno, line in enumerate(chunk, start=first):
        # A record that fills its line, or all of a CRLF line but its "\r",
        # decodes in one scanner call; padded, blank and malformed lines take
        # `json.loads` and its error message.
        try:
            try:
                obj, end = _scan_once(line, 0)
            except (StopIteration, json.JSONDecodeError):
                end = -1
            if end != len(line) and (end < 0 or line[end:] != "\r"):
                if not line.strip():
                    continue
                obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise StreamFormatError(f"invalid JSON: {exc.msg}", lineno) from exc
        except RecursionError:
            raise StreamFormatError("invalid JSON: nested too deeply", lineno) from None
        yield lineno, obj


def _records(text: str) -> Iterator[tuple[int, Any]]:
    # Every record of the stream with its line number, decoded a chunk of
    # lines at a time; a chunk that does not decode as a whole goes line by
    # line. Records are separated by "\n" only: JSON strings may hold other
    # line breaks raw, and the "\r" of a CRLF line is JSON whitespace.
    lines = text.split("\n")
    if lines[-1] == "":
        del lines[-1]
    for start in range(0, len(lines), _CHUNK):
        chunk = lines[start : start + _CHUNK]
        values = _decode_chunk(chunk)
        if values is None:
            yield from _decode_lines(chunk, start + 1)
        else:
            yield from enumerate(values, start + 1)


@_gc_paused
def parse_package_stream(data: str | bytes) -> list[Package]:
    """Parse newline-delimited JSON packages, enforcing per-node ordering.

    Sequence numbers must be strictly increasing and timestamps non-decreasing
    per node; violations and malformed records raise StreamFormatError with
    the line number, as do bytes that are not UTF-8. The lines are decoded
    64 at a time, with one call of the JSON decoder's scanner on the chunk
    joined as one array; a chunk that holds `null` anywhere, or does not
    decode to one value per line, is decoded line by line, with the same
    result and the same error. A well-formed record with empty `obs` and
    `contacts` is checked with no Python function call, and its `Package`
    is built by `tuple.__new__`. It runs with the cyclic garbage collector
    paused; the pause is process-wide, so another thread's `gc.disable()`
    made during the call is undone when it returns.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise StreamFormatError(f"invalid UTF-8: {exc.reason}", line) from exc
    new = tuple.__new__
    packages: list[Package] = []
    last: dict[str, Package] = {}
    for lineno, obj in _records(data):
        if type(obj) is not dict:
            raise StreamFormatError("record is not a JSON object", lineno)
        try:  # six fields that all subscript are exactly the six names
            if len(obj) != 6:
                raise KeyError
            node, seq, t = obj["node"], obj["seq"], obj["t"]
            obs, contacts, payload = obj["obs"], obj["contacts"], obj["payload"]
        except KeyError:
            missing = _PACKAGE_KEYS - obj.keys()
            if missing:
                raise StreamFormatError(f"missing field(s) {sorted(missing)}", lineno) from None
            unknown = sorted(obj.keys() - _PACKAGE_KEYS)
            raise StreamFormatError(f"unknown field(s) {unknown}", lineno) from None
        try:
            obs, bad_obs = _signals(obs, "obs", GatewayObservation) if obs != [] else ((), None)
            contacts, bad_contact = (
                _signals(contacts, "contacts", NodeContact) if contacts != [] else ((), None)
            )
            if type(node) is not str:
                node = check_string(node, "node")
            if type(seq) is not int:
                seq = check_integer(seq, "seq")
            if type(t) is not float:
                t = check_number(t, "t")
            if len(obs) > 1:
                obs = tuple(sorted(obs, key=_strongest_first))
        except (TypeError, ValueError) as exc:
            raise StreamFormatError(str(exc), lineno) from exc
        if not -_INF < t < _INF:
            raise StreamFormatError(f"non-finite timestamp {t}", lineno)
        bad = bad_obs if bad_obs is not None else bad_contact
        if bad is not None:
            raise StreamFormatError(f"non-finite strength {bad}", lineno)
        for contact in contacts:
            if contact.peer == node:
                raise StreamFormatError(f"node {node!r} lists itself as a contact", lineno)
        previous = last.get(node)
        if previous is not None:
            if seq <= previous.seq:
                raise StreamFormatError(
                    f"seq regression for node {node!r}: {seq} after {previous.seq}", lineno
                )
            if t < previous.t:
                raise StreamFormatError(
                    f"timestamp regression for node {node!r}: {t} after {previous.t}", lineno
                )
        last[node] = pkg = new(Package, (node, seq, t, obs, contacts, payload))
        packages.append(pkg)
    return packages


_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def serialize_packages(packages: list[Package]) -> str:
    """Newline-delimited JSON: one compact object per package, keys sorted.

    Each line is what `json.dumps(..., sort_keys=True, separators=(",", ":"))`
    gives the object of the package's fields; `obs` and `contacts` are
    tuples of pairs, so they come out as [id, strength] arrays.
    """
    return "".join(
        _encode(
            {
                "contacts": p.contacts,
                "node": p.node,
                "obs": p.observations,
                "payload": p.payload,
                "seq": p.seq,
                "t": p.t,
            }
        )
        + "\n"
        for p in packages
    )
