"""Flat named-tensor container: one JSON document with a header (format,
format version, config) and, per tensor, its dtype, shape and the base64 of
its little-endian float64 bytes, so values round-trip bit-exact.  Tensors are
written one at a time, in name order, straight to the file."""

from __future__ import annotations

import base64

import numpy as np

from ..dataio import _dumps, read_json
from .autodiff import Tensor

FORMAT = "clarikit-tensors"
FORMAT_VERSION = 2
DTYPE = "<f8"


def save_tensors(path: str, tensors: dict[str, Tensor], config: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        # keys in sorted order, as json.dumps(sort_keys=True) would write them
        fh.write(f'{{"config":{_dumps(config or {})},"format":{_dumps(FORMAT)},"format_version":{FORMAT_VERSION},"tensors":{{')
        for i, (name, t) in enumerate(sorted(tensors.items())):
            fh.write(f'{"," if i else ""}{_dumps(name)}:{{"data":"')
            fh.write(base64.b64encode(np.ascontiguousarray(t.data, dtype=DTYPE).tobytes()).decode("ascii"))
            fh.write(f'","dtype":"{DTYPE}","shape":{_dumps(list(t.data.shape))}}}')
        fh.write("}}\n")


def load_tensors(path: str, requires_grad: bool = True) -> tuple[dict[str, Tensor], dict]:
    payload = read_json(path)
    if payload.get("format") != FORMAT:
        raise ValueError(f"{path}: not a {FORMAT} file")
    if payload.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format version {payload.get('format_version')}")
    if not isinstance(payload.get("tensors"), dict):
        raise ValueError(f"{path}: tensors must be a JSON object")
    tensors = {}
    for name, spec in payload["tensors"].items():
        try:
            if spec["dtype"] != DTYPE:
                raise ValueError(f"dtype {spec['dtype']!r} is not {DTYPE!r}")
            data = np.frombuffer(base64.b64decode(spec["data"], validate=True), dtype=DTYPE).reshape(spec["shape"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: tensor {name!r}: {exc}") from None
        tensors[name] = Tensor(data.astype(np.float64), requires_grad=requires_grad)
    return tensors, payload.get("config", {})
