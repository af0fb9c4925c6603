"""Binary model container: lossless, bit-exact, versioned.

Layout (all multi-byte fields little-endian):

    magic     4s   b"SBUM"
    version   u16  currently 1
    meta      u32 length + UTF-8 JSON
    n_classes u16, n_input_channels u16,
    dtype_mode u8 (its position in seusim.model.DTYPE_MODES: 0=float32, 1=int8)
    input_quant  u8 flag [+ f64 scale + i32 zero_point]
    node_count u32, then per node:
        id u32, kind u8, stride u8, padding u8, eps f64, act u8,
        out_quant flag[+payload], input count u16 + u32 ids,
        param count u16, then per param:
            kind u8, dtype u8 (its row in seusim.tensor.FORMATS), ndim u8, dims u32 each,
            quant flag[+payload], raw element bytes (row-major)
    crc32     u32 over everything before it

Raw tensor payloads are the exact in-memory bit patterns, which keeps
fault locations stable across save/load round trips.
"""

from __future__ import annotations

import hashlib
import json
import struct
import zlib

import numpy as np

from .model import DTYPE_MODES, LayerNode, ModelGraph, ParamKind, validate_model
from .tensor import FORMATS, QuantParams, Tensor

MAGIC = b"SBUM"
VERSION = 1

_KIND_TAGS = {"conv": 0, "batch_norm": 1, "max_pool2": 2, "upsample2": 3, "activation": 4, "concat": 5}
_KIND_FROM_TAG = {v: k for k, v in _KIND_TAGS.items()}
_ACT_TAGS = {None: 0, "relu": 1, "sigmoid": 2, "hard_sigmoid": 3}
_ACT_FROM_TAG = {v: k for k, v in _ACT_TAGS.items()}
_PARAM_TAGS = {k: i for i, k in enumerate(ParamKind)}
_PARAM_FROM_TAG = {v: k for k, v in _PARAM_TAGS.items()}
_MODE_TAGS = {m: i for i, m in enumerate(DTYPE_MODES)}
_MODE_FROM_TAG = dict(enumerate(DTYPE_MODES))
_DTYPE_TAGS = {k: i for i, k in enumerate(FORMATS)}
_DTYPE_FROM_TAG = dict(enumerate(FORMATS))
_NP_LE = {k: f.dtype.newbyteorder("<") for k, f in FORMATS.items()}


class ModelFormatError(Exception):
    """Corrupt or non-model file."""


class ModelVersionError(ModelFormatError):
    """File written by an unknown format version."""


def _pack_quant(q: QuantParams | None) -> bytes:
    if q is None:
        return struct.pack("<B", 0)
    return struct.pack("<Bdi", 1, q.scale, q.zero_point)


def serialize_model(graph: ModelGraph) -> bytes:
    out = [MAGIC, struct.pack("<H", VERSION)]
    meta = json.dumps(graph.meta, sort_keys=True).encode()
    out.append(struct.pack("<I", len(meta)))
    out.append(meta)
    if graph.dtype_mode not in _MODE_TAGS:
        raise ValueError(f"unknown dtype mode {graph.dtype_mode!r}")
    out.append(struct.pack("<HHB", graph.n_classes, graph.n_input_channels, _MODE_TAGS[graph.dtype_mode]))
    out.append(_pack_quant(graph.input_quant))
    out.append(struct.pack("<I", len(graph.nodes)))
    for n in graph.nodes:
        if n.kind not in _KIND_TAGS:
            raise ValueError(f"node {n.id} has unknown layer kind {n.kind!r}")
        if n.act not in _ACT_TAGS:
            raise ValueError(f"node {n.id} has unknown activation function {n.act!r}")
        out.append(struct.pack("<IBBBd", n.id, _KIND_TAGS[n.kind], n.stride, n.padding, n.eps))
        out.append(struct.pack("<B", _ACT_TAGS[n.act]))
        out.append(_pack_quant(n.out_quant))
        out.append(struct.pack("<H", len(n.inputs)))
        out.append(struct.pack(f"<{len(n.inputs)}I", *n.inputs) if n.inputs else b"")
        out.append(struct.pack("<H", len(n.params)))
        for kind in ParamKind:  # fixed order keeps serialization canonical
            if kind not in n.params:
                continue
            t = n.params[kind]
            out.append(struct.pack("<BBB", _PARAM_TAGS[kind], _DTYPE_TAGS[t.dtype], t.data.ndim))
            out.append(struct.pack(f"<{t.data.ndim}I", *t.shape))
            out.append(_pack_quant(t.quant))
            out.append(np.ascontiguousarray(t.data, dtype=_NP_LE[t.dtype]).tobytes())
    body = b"".join(out)
    return body + struct.pack("<I", zlib.crc32(body))


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, fmt: str):
        size = struct.calcsize(fmt)
        if self.pos + size > len(self.blob):
            raise ModelFormatError("truncated model file")
        vals = struct.unpack_from(fmt, self.blob, self.pos)
        self.pos += size
        return vals

    def take_bytes(self, size: int) -> bytes:
        if self.pos + size > len(self.blob):
            raise ModelFormatError("truncated model file")
        b = self.blob[self.pos : self.pos + size]
        self.pos += size
        return b

    def take_quant(self) -> QuantParams | None:
        (flag,) = self.take("<B")
        if flag == 0:
            return None
        scale, zp = self.take("<di")
        return QuantParams(scale, zp)


def deserialize_model(blob: bytes) -> ModelGraph:
    if len(blob) < 10 or blob[:4] != MAGIC:
        raise ModelFormatError("not a model file (bad magic)")
    (version,) = struct.unpack_from("<H", blob, 4)
    if version != VERSION:
        raise ModelVersionError(f"unsupported model format version {version}")
    if zlib.crc32(blob[:-4]) != struct.unpack_from("<I", blob, len(blob) - 4)[0]:
        raise ModelFormatError("checksum mismatch (corrupt model file)")

    r = _Reader(blob[:-4])
    r.pos = 6
    (meta_len,) = r.take("<I")
    try:
        meta = json.loads(r.take_bytes(meta_len).decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ModelFormatError(f"bad metadata block: {e}") from None
    n_classes, n_input_channels, mode_tag = r.take("<HHB")
    if mode_tag not in _MODE_FROM_TAG:
        raise ModelFormatError("unknown dtype mode tag")
    input_quant = r.take_quant()
    (node_count,) = r.take("<I")

    nodes = []
    for _ in range(node_count):
        nid, kind_tag, stride, padding, eps = r.take("<IBBBd")
        (act_tag,) = r.take("<B")
        out_quant = r.take_quant()
        (n_inputs,) = r.take("<H")
        inputs = list(r.take(f"<{n_inputs}I")) if n_inputs else []
        (n_params,) = r.take("<H")
        params = {}
        for _ in range(n_params):
            ptag, dtag, ndim = r.take("<BBB")
            if ptag not in _PARAM_FROM_TAG or dtag not in _DTYPE_FROM_TAG:
                raise ModelFormatError("unknown parameter or dtype tag")
            dims = r.take(f"<{ndim}I")
            quant = r.take_quant()
            dtype = _DTYPE_FROM_TAG[dtag]
            n_elems = int(np.prod(dims)) if dims else 1
            raw = r.take_bytes(n_elems * _NP_LE[dtype].itemsize)
            arr = np.frombuffer(raw, dtype=_NP_LE[dtype]).reshape(dims).astype(_NP_LE[dtype])
            params[_PARAM_FROM_TAG[ptag]] = Tensor(arr, dtype, quant)
        if kind_tag not in _KIND_FROM_TAG:
            raise ModelFormatError("unknown layer kind tag")
        if act_tag not in _ACT_FROM_TAG:
            raise ModelFormatError("unknown activation tag")
        nodes.append(
            LayerNode(
                id=nid, kind=_KIND_FROM_TAG[kind_tag], params=params, inputs=inputs,
                stride=stride, padding=padding, act=_ACT_FROM_TAG[act_tag], eps=eps,
                out_quant=out_quant,
            )
        )
    if r.pos != len(r.blob):
        raise ModelFormatError("trailing bytes after node records")

    graph = ModelGraph(
        nodes, n_classes=n_classes, n_input_channels=n_input_channels,
        dtype_mode=_MODE_FROM_TAG[mode_tag],
        input_quant=input_quant, meta=meta,
    )
    validate_model(graph)
    return graph


def save_model(graph: ModelGraph, path) -> None:
    with open(path, "wb") as f:
        f.write(serialize_model(graph))


def load_model(path) -> ModelGraph:
    with open(path, "rb") as f:
        return deserialize_model(f.read())


def model_digest(graph: ModelGraph) -> str:
    """SHA-256 of the canonical serialization."""
    return hashlib.sha256(serialize_model(graph)).hexdigest()

