"""Bitwise-faithful JSON serialisation of ensemble results.

The store persists :class:`~repro.lv.ensemble.LVEnsembleResult` chunks as
JSON objects whose scalar fields (schema, rates, initial state, scenario)
stay plain JSON, so journal lines remain greppable, while every array is
stored as its raw bytes::

    {"dtype": "int64", "shape": [R, 2], "zlib": "<base64 of zlib bytes>"}

``zlib`` is the base64 of the zlib-compressed (level :data:`ZLIB_LEVEL`)
little-endian bytes of the array in C order.  Round-tripping is *bitwise*
by construction: the decoder inflates exactly the bytes that were written
and reinterprets them with the recorded dtype and shape, so reloaded chunks
concatenate and compare equal to freshly computed ones down to the last bit
— the property the resume-determinism tests enforce.  Decoded arrays are
native-endian, writable copies.

Arrays written before this form (repro 3.1 and earlier) are JSON lists,
``{"dtype": ..., "data": [...]}``; they still decode, so old journals replay
without a recompute.  Encoders only write the compressed form.  zlib's
output bytes may differ between zlib builds, so encoded arrays are never
compared — :func:`payloads_equal` compares decoded ones.
"""

from __future__ import annotations

import base64
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
    "decode_array",
    "encode_array",
    "ensemble_from_payload",
    "ensemble_to_payload",
    "payloads_equal",
    "reencode_payload",
]

#: zlib level of stored arrays: the fastest level.  It already journals the
#: perfbench exact-sweep list in 0.91 MB, against 4.39 MB as JSON lists and
#: 14.1 MB as uncompressed base64.
ZLIB_LEVEL = 1


def encode_array(array: npt.NDArray[Any]) -> dict[str, Any]:
    """The stored form of *array*: dtype, shape and compressed little-endian bytes."""
    little = array.astype(array.dtype.newbyteorder("<"), copy=False)
    return {
        "dtype": str(array.dtype),
        "shape": list(array.shape),
        "zlib": base64.b64encode(zlib.compress(little.tobytes(), ZLIB_LEVEL)).decode(
            "ascii"
        ),
    }


def decode_array(entry: Mapping[str, Any]) -> npt.NDArray[Any]:
    """Inverse of :func:`encode_array`; also reads the 3.1 ``"data"`` list form.

    Raises :class:`~repro.exceptions.StoreError` for a malformed entry: bad
    base64, bad zlib data, or bytes that do not fill the recorded shape.
    """
    try:
        dtype = np.dtype(entry["dtype"]).newbyteorder("=")
        if "zlib" not in entry:
            return np.array(entry["data"], dtype=dtype)
        shape = tuple(int(size) for size in entry["shape"])
        raw = zlib.decompress(base64.b64decode(entry["zlib"], validate=True))
    except (KeyError, TypeError, ValueError, zlib.error) as error:
        raise StoreError(f"malformed stored array: {error}") from error
    if min(shape, default=0) < 0 or len(raw) != math.prod(shape) * dtype.itemsize:
        raise StoreError(
            f"stored array holds {len(raw)} byte(s), which do not fill shape "
            f"{list(shape)} of dtype {dtype}"
        )
    little = np.frombuffer(raw, dtype=dtype.newbyteorder("<")).reshape(shape)
    return little.astype(dtype)  # a writable, native-endian copy


def _has_arrays(payload: Any) -> bool:
    return isinstance(payload, Mapping) and isinstance(payload.get("arrays"), Mapping)


def reencode_payload(payload: Any) -> Any:
    """*payload* with every array in the current stored form.

    A payload without arrays (not an ensemble payload) comes back unchanged.
    """
    if not _has_arrays(payload):
        return payload
    arrays = payload["arrays"]
    return {
        **payload,
        "arrays": {name: encode_array(decode_array(arrays[name])) for name in arrays},
    }


def _scalar_fields(payload: Mapping[str, Any]) -> str:
    return canonical_json({name: value for name, value in payload.items() if name != "arrays"})


def payloads_equal(first: Any, second: Any) -> bool:
    """Whether two stored payloads hold the same chunk, bit for bit.

    Scalar fields compare as canonical JSON; arrays compare decoded (dtype,
    shape and bytes), so a 3.1 list-form payload equals the compressed
    payload of the same chunk.  Payloads without arrays compare as
    canonical JSON.
    """
    if not (_has_arrays(first) and _has_arrays(second)):
        return canonical_json(first) == canonical_json(second)
    left, right = first["arrays"], second["arrays"]
    if sorted(left) != sorted(right) or _scalar_fields(first) != _scalar_fields(second):
        return False
    for name in sorted(left):
        a, b = decode_array(left[name]), decode_array(right[name])
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
    payload: dict[str, Any] = {
        "schema": RESULT_SCHEMA_VERSION,
        "params": params_payload(result.params),
        "initial_state": [result.initial_state.x0, result.initial_state.x1],
        "arrays": {
            name: encode_array(getattr(result, name)) for name in _ARRAY_FIELDS
        },
    }
    if result.leap_events is not None:
        payload["arrays"]["leap_events"] = encode_array(result.leap_events)
    if result.finals is not None:
        payload["scenario"] = result.scenario
        payload["initial_counts"] = [
            int(count) for count in (result.initial_counts or ())
        ]
        payload["arrays"]["finals"] = encode_array(result.finals)
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
        arrays = payload["arrays"]
        fields = {name: decode_array(arrays[name]) for name in _ARRAY_FIELDS}
        leap = arrays.get("leap_events")
        finals = arrays.get("finals")
        initial_counts = payload.get("initial_counts")
        return LVEnsembleResult(
            params=params,
            initial_state=LVState(*payload["initial_state"]),
            leap_events=None if leap is None else decode_array(leap),
            scenario=payload.get("scenario", "lv2"),
            finals=None if finals is None else decode_array(finals),
            initial_counts=(
                None if initial_counts is None else tuple(initial_counts)
            ),
            **fields,
        )
    except (KeyError, TypeError, ValueError) as error:
        raise StoreError(f"malformed stored chunk payload: {error}") from error
