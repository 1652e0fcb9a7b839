"""Bitwise-faithful JSON serialisation of ensemble results.

The store persists :class:`~repro.lv.ensemble.LVEnsembleResult` chunks as
JSON objects whose scalar fields (schema, rates, initial state, scenario)
stay plain JSON, so journal lines remain greppable, while the arrays are
stored together as raw bytes::

    "arrays": {"layout": [[name, dtype, shape], ...], "zlib": "<base64>"}

``layout`` lists the arrays in field order; ``zlib`` is the base64 of one
zlib stream (level :data:`ZLIB_LEVEL`) over their little-endian bytes in C
order, concatenated in layout order.  Round-tripping is *bitwise* by
construction: the decoder inflates exactly the bytes that were written and
reinterprets each array's slice with its recorded dtype and shape, so
reloaded chunks concatenate and compare equal to freshly computed ones down
to the last bit — the property the resume-determinism tests enforce.
Decoded arrays are native-endian, writable copies.

Older forms still decode: one ``{"dtype", "shape", "zlib"}`` stream per
array (repro 3.2 to 6.1) and ``{"dtype", "data"}`` JSON lists (3.1).  Their
chunks never replay: each carries schema 3 or lower in its key and payload,
and :func:`ensemble_from_payload` accepts only :data:`~repro.store.keys
.RESULT_SCHEMA_VERSION`, so a run against an old journal recomputes them.
They are decoded for ``repro merge-cache`` (:func:`reencode_payload`
converts them to the layout form, :func:`payloads_equal` checks conflicts)
and for the shard planner's history harvest
(:meth:`~repro.shard.planner.EventRateHistory.from_journal`).  Encoders only
write the layout form.  zlib's output bytes may differ between zlib builds,
so encoded arrays are never compared — :func:`payloads_equal` compares
decoded ones.
"""

from __future__ import annotations

import base64
import functools
import math
import zlib
from typing import Any, Mapping

import numpy as np
import numpy.typing as npt

from repro.exceptions import StoreError
from repro.lv.ensemble import _ARRAY_FIELDS, LVEnsembleResult
from repro.lv.params import CompetitionMechanism, LVParams
from repro.lv.state import LVState
from repro.store.keys import RESULT_SCHEMA_VERSION, canonical_json, params_payload

__all__ = [
    "ZLIB_LEVEL",
    "decode_arrays",
    "encode_arrays",
    "ensemble_from_payload",
    "ensemble_to_payload",
    "payloads_equal",
    "reencode_payload",
]

#: zlib level of stored arrays: the fastest level.  It already journals the
#: perfbench exact-sweep list in 0.91 MB, against 4.39 MB as JSON lists and
#: 14.1 MB as uncompressed base64.
ZLIB_LEVEL = 1

#: Layout order of a chunk's arrays: the result fields, then the optional ones.
_ARRAY_ORDER = (*_ARRAY_FIELDS, "leap_events", "finals")


@functools.lru_cache(maxsize=32)
def _dtype_name(dtype: np.dtype[Any]) -> str:
    """``str(dtype)``, which numpy builds in Python at ~5 µs a call."""
    return str(dtype)


def encode_arrays(arrays: Mapping[str, npt.NDArray[Any]]) -> dict[str, Any]:
    """The stored form of named *arrays*: their layout and one compressed stream."""
    layout = [[name, _dtype_name(array.dtype), list(array.shape)] for name, array in arrays.items()]
    data = b"".join(
        array.astype(array.dtype.newbyteorder("<"), copy=False).tobytes()
        for array in arrays.values()
    )
    stream = zlib.compress(data, ZLIB_LEVEL)
    return {"layout": layout, "zlib": base64.b64encode(stream).decode("ascii")}


def decode_arrays(arrays: Any) -> dict[str, npt.NDArray[Any]]:
    """Inverse of :func:`encode_arrays`; also reads both older forms.

    Raises :class:`~repro.exceptions.StoreError` for malformed arrays: bad
    base64, bad zlib data, bytes that do not exactly fill the layout (or an
    older entry's shape), or a name the layout lists twice.
    """
    if not isinstance(arrays, Mapping):
        raise StoreError(f"stored arrays are a {type(arrays).__name__}, not a mapping")
    if "layout" in arrays:
        return _decode_stream(arrays["layout"], arrays.get("zlib"))
    return {str(name): _decode_entry(str(name), entry) for name, entry in arrays.items()}


def _decode_stream(layout: Any, stream: Any) -> dict[str, npt.NDArray[Any]]:
    """The arrays *layout* names, sliced in order out of one base64 zlib *stream*."""
    decoded: dict[str, npt.NDArray[Any]] = {}
    try:
        raw = zlib.decompress(base64.b64decode(stream, validate=True))
        offset = 0
        for name, dtype_name, sizes in layout:
            dtype = np.dtype(dtype_name).newbyteorder("=")
            shape = tuple(int(size) for size in sizes)
            count = math.prod(shape)
            if min(shape, default=0) < 0 or offset + count * dtype.itemsize > len(raw):
                raise ValueError(f"{name} of shape {list(shape)} overruns the stored bytes")
            little = np.frombuffer(raw, dtype.newbyteorder("<"), count, offset)
            decoded[str(name)] = little.reshape(shape).astype(dtype)  # writable, native
            offset += count * dtype.itemsize
        expected = len(layout)
    except (KeyError, TypeError, ValueError, zlib.error) as error:
        raise StoreError(f"malformed stored arrays: {error}") from error
    if offset != len(raw) or len(decoded) != expected:
        raise StoreError(f"{len(raw)} stored byte(s) do not fill a layout of {expected} names")
    return decoded


def _decode_entry(name: str, entry: Any) -> npt.NDArray[Any]:
    """One array of the per-array form (a one-array stream) or of the 3.1 list form."""
    try:
        if "zlib" in entry:
            return _decode_stream([[name, entry["dtype"], entry["shape"]]], entry["zlib"])[name]
        return np.array(entry["data"], dtype=np.dtype(entry["dtype"]).newbyteorder("="))
    except (KeyError, TypeError, ValueError) as error:
        raise StoreError(f"malformed stored array {name}: {error}") from error


def _has_arrays(payload: Any) -> bool:
    return isinstance(payload, Mapping) and isinstance(payload.get("arrays"), Mapping)


def reencode_payload(payload: Any) -> Any:
    """*payload* with its arrays in the current stored form, in layout order.

    A payload without arrays (not an ensemble payload) comes back unchanged.
    """
    if not _has_arrays(payload):
        return payload
    decoded = decode_arrays(payload["arrays"])
    ordered = {name: decoded[name] for name in _ARRAY_ORDER if name in decoded}
    return {**payload, "arrays": encode_arrays({**ordered, **decoded})}


def _scalar_fields(payload: Mapping[str, Any]) -> str:
    return canonical_json({name: value for name, value in payload.items() if name != "arrays"})


def payloads_equal(first: Any, second: Any) -> bool:
    """Whether two stored payloads hold the same chunk, bit for bit.

    Scalar fields compare as canonical JSON; arrays compare decoded (names,
    dtype, shape and bytes), so payloads of one chunk in any of the three
    stored forms are equal.  Payloads without arrays compare as canonical
    JSON.
    """
    if not (_has_arrays(first) and _has_arrays(second)):
        return canonical_json(first) == canonical_json(second)
    if _scalar_fields(first) != _scalar_fields(second):
        return False
    left, right = decode_arrays(first["arrays"]), decode_arrays(second["arrays"])
    if sorted(left) != sorted(right):
        return False
    for name in left:
        a, b = left[name], right[name]
        if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
            return False
    return True


def ensemble_to_payload(result: LVEnsembleResult) -> dict[str, Any]:
    """JSON-serialisable payload of one ensemble result.

    Generic-scenario ensembles additionally record the scenario name, the
    full ``(R, S)`` ``finals`` array, and the initial counts tuple; the
    two-species default omits them (absent keys mean ``"lv2"``), keeping
    default-path payloads byte-compatible modulo the schema number.
    """
    arrays = {name: getattr(result, name) for name in _ARRAY_ORDER}
    payload: dict[str, Any] = {
        "schema": RESULT_SCHEMA_VERSION,
        "params": params_payload(result.params),
        "initial_state": [result.initial_state.x0, result.initial_state.x1],
        "arrays": encode_arrays(
            {name: array for name, array in arrays.items() if array is not None}
        ),
    }
    if result.finals is not None:
        payload["scenario"] = result.scenario
        payload["initial_counts"] = [
            int(count) for count in (result.initial_counts or ())
        ]
    return payload


def ensemble_from_payload(payload: dict[str, Any]) -> LVEnsembleResult:
    """Inverse of :func:`ensemble_to_payload`."""
    try:
        schema = payload["schema"]
        if schema != RESULT_SCHEMA_VERSION:
            raise StoreError(
                f"stored chunk has schema {schema}, expected {RESULT_SCHEMA_VERSION}"
            )
        rates = payload["params"]
        params = LVParams(
            beta=rates["beta"],
            delta=rates["delta"],
            alpha0=rates["alpha0"],
            alpha1=rates["alpha1"],
            gamma0=rates["gamma0"],
            gamma1=rates["gamma1"],
            mechanism=CompetitionMechanism(rates["mechanism"]),
        )
        arrays = decode_arrays(payload["arrays"])
        fields = {name: arrays[name] for name in _ARRAY_FIELDS}
        initial_counts = payload.get("initial_counts")
        return LVEnsembleResult(
            params=params,
            initial_state=LVState(*payload["initial_state"]),
            leap_events=arrays.get("leap_events"),
            scenario=payload.get("scenario", "lv2"),
            finals=arrays.get("finals"),
            initial_counts=(
                None if initial_counts is None else tuple(initial_counts)
            ),
            **fields,
        )
    except (KeyError, TypeError, ValueError) as error:
        raise StoreError(f"malformed stored chunk payload: {error}") from error
