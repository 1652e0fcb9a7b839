"""Journal-line parsing shared by the store tests.

A journal line is ``<SHA-256 hex of BODY> <BODY>`` in the current form, or
the record's JSON alone in the repro 3.1 form.  These helpers split either
form without verifying it (the store's own scan does that), so tests can
find a record by key or compare two journals by content.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.store.serialize import decode_arrays

__all__ = ["decoded_payload", "journal_contents", "parse_line", "split_line"]


def split_line(line: bytes) -> tuple[bytes | None, bytes]:
    """``(checksum prefix, body)`` of one line; the prefix is ``None`` in the 3.1 form."""
    line = line.rstrip(b"\n")
    if line.startswith(b"{"):
        return None, line
    prefix, _, body = line.partition(b" ")
    return prefix, body


def parse_line(line: bytes) -> dict[str, Any]:
    """The record of one journal line, in either form."""
    return json.loads(split_line(line)[1])


def decoded_payload(payload: Any) -> Any:
    """*payload* with every array decoded to a ``dtype``/``shape``/``data`` list.

    Encoded arrays are never compared (zlib builds may compress the same
    bytes differently); this is the form two journals are compared in.
    Payloads without arrays come back unchanged.
    """
    if not (isinstance(payload, dict) and isinstance(payload.get("arrays"), dict)):
        return payload
    arrays = {
        name: {"dtype": str(array.dtype), "shape": list(array.shape), "data": array.tolist()}
        for name, array in decode_arrays(payload["arrays"]).items()
    }
    return {**payload, "arrays": arrays}


def journal_contents(cache_dir: Path) -> dict[str, str]:
    """``{key: sorted-keys JSON of the decoded payload}`` of a cache's journal."""
    contents = {}
    for line in (Path(cache_dir) / "journal.jsonl").read_bytes().splitlines():
        record = parse_line(line)
        contents[record["key"]] = json.dumps(decoded_payload(record["payload"]), sort_keys=True)
    return contents
