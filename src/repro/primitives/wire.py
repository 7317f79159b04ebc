"""Payload schemas for the four primitives.

Application values are encoded with the container's configured codec; these
wrappers (name, timestamps, chunk numbers) always use the binary codec so
the protocol stays parseable regardless of the application-data plug-in.

Every primitive payload may carry an optional **trace-context tail**: one
tag byte (:data:`TRACE_TAIL_TAG`) followed by an encoded
:data:`TRACE_CONTEXT_SCHEMA` struct, appended *after* the payload struct.
Untraced frames are byte-identical to the pre-tracing format, and
:func:`decode` accepts both shapes — so old and new containers interoperate
and tracing costs nothing when disabled.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.encoding.compiled import DECODE_FAULTS, CompiledCodec, compile_plan, truncated
from repro.encoding.types import (
    BOOL,
    BYTES,
    FLOAT64,
    STRING,
    UINT32,
    UINT64,
    StructType,
    VectorType,
)
from repro.observability.trace import TraceContext
from repro.util.errors import EncodingError

# The protocol wrappers always speak the binary wire format; the compiled
# codec emits byte-identical frames from flat precompiled plans (the
# differential suites in tests/property machine-check the equivalence).
_CODEC = CompiledCodec()

# -- variables (§4.1) -----------------------------------------------------------

VAR_SAMPLE_SCHEMA = StructType(
    "VarSample",
    [("name", STRING), ("timestamp", FLOAT64), ("value", BYTES)],
)

VAR_INITIAL_REQUEST_SCHEMA = StructType(
    "VarInitialRequest",
    [("name", STRING), ("subscriber", STRING)],
)

VAR_INITIAL_RESPONSE_SCHEMA = StructType(
    "VarInitialResponse",
    [("name", STRING), ("timestamp", FLOAT64), ("has_value", BOOL), ("value", BYTES)],
)

# -- events (§4.2) ---------------------------------------------------------------

EVENT_MESSAGE_SCHEMA = StructType(
    "EventMessage",
    [("name", STRING), ("timestamp", FLOAT64), ("value", BYTES)],
)

EVENT_SUBSCRIBE_SCHEMA = StructType(
    "EventSubscribe",
    [("name", STRING), ("subscriber", STRING), ("subscribe", BOOL)],
)

# -- remote invocation (§4.3) -------------------------------------------------------

RPC_REQUEST_SCHEMA = StructType(
    "RpcRequest",
    [("call_id", STRING), ("function", STRING), ("args", BYTES)],
)

RPC_RESPONSE_SCHEMA = StructType(
    "RpcResponse",
    [("call_id", STRING), ("ok", BOOL), ("error", STRING), ("result", BYTES)],
)

# -- file transmission (§4.4) --------------------------------------------------------

FILE_ANNOUNCE_SCHEMA = StructType(
    "FileAnnounce",
    [
        ("name", STRING),
        ("revision", UINT32),
        ("size", UINT64),
        ("chunk_size", UINT32),
        ("total_chunks", UINT32),
    ],
)

FILE_SUBSCRIBE_SCHEMA = StructType(
    "FileSubscribe",
    [("name", STRING), ("subscriber", STRING), ("revision", UINT32)],
)

FILE_CHUNK_SCHEMA = StructType(
    "FileChunk",
    [
        ("name", STRING),
        ("revision", UINT32),
        ("index", UINT32),
        ("total", UINT32),
        ("data", BYTES),
    ],
)

FILE_STATUS_REQUEST_SCHEMA = StructType(
    "FileStatusRequest",
    [("name", STRING), ("revision", UINT32)],
)

FILE_ACK_SCHEMA = StructType(
    "FileAck",
    [("name", STRING), ("subscriber", STRING), ("revision", UINT32)],
)

#: Missing chunks are reported as inclusive [start, end] ranges — the
#: "compressed list of the chunks it lacks" from §4.4.
CHUNK_RANGE_SCHEMA = StructType("ChunkRange", [("start", UINT32), ("end", UINT32)])

FILE_NACK_SCHEMA = StructType(
    "FileNack",
    [
        ("name", STRING),
        ("subscriber", STRING),
        ("revision", UINT32),
        ("missing", VectorType(CHUNK_RANGE_SCHEMA)),
    ],
)

FILE_DONE_SCHEMA = StructType(
    "FileDone",
    [("name", STRING), ("revision", UINT32)],
)


# -- trace-context tail ---------------------------------------------------------

#: Rides after the payload struct when a frame carries tracing context.
TRACE_CONTEXT_SCHEMA = StructType(
    "TraceContext",
    [("trace_id", STRING), ("span_id", STRING)],
)

#: Tag byte introducing the trace tail (ASCII 'T'). A payload struct decode
#: consumes exact lengths, so the byte after it is unambiguous.
TRACE_TAIL_TAG = 0x54


#: The generated decoder of every schema above, keyed by identity (the
#: schemas are module constants, so no other live object shares an id):
#: :func:`decode_traced` calls it with no codec layer in between.
_DECODERS = {
    id(schema): compile_plan(schema)[1]
    for schema in (
        VAR_SAMPLE_SCHEMA,
        VAR_INITIAL_REQUEST_SCHEMA,
        VAR_INITIAL_RESPONSE_SCHEMA,
        EVENT_MESSAGE_SCHEMA,
        EVENT_SUBSCRIBE_SCHEMA,
        RPC_REQUEST_SCHEMA,
        RPC_RESPONSE_SCHEMA,
        FILE_ANNOUNCE_SCHEMA,
        FILE_SUBSCRIBE_SCHEMA,
        FILE_CHUNK_SCHEMA,
        FILE_STATUS_REQUEST_SCHEMA,
        FILE_ACK_SCHEMA,
        FILE_NACK_SCHEMA,
        FILE_DONE_SCHEMA,
    )
}


def encode(schema: StructType, doc: dict, trace: Optional[TraceContext] = None) -> bytes:
    """Encode ``doc``; with ``trace`` set, append the trace-context tail.

    ``trace=None`` produces exactly the historical untraced bytes."""
    payload = _CODEC.encode(schema, doc)
    if trace is None:
        return payload
    tail = _CODEC.encode(TRACE_CONTEXT_SCHEMA, trace.to_doc())
    return payload + bytes((TRACE_TAIL_TAG,)) + tail


def decode_traced(
    schema: StructType, payload: bytes
) -> Tuple[dict, Optional[TraceContext]]:
    """Decode a payload that may carry a trace tail; (doc, context-or-None).

    Calls the schema's generated decoder directly, mapping its faults to
    EncodingError exactly as ``CompiledCodec`` does."""
    try:
        doc, consumed = (_DECODERS.get(id(schema)) or compile_plan(schema)[1])(
            payload, 0
        )
    except DECODE_FAULTS as exc:
        raise truncated(exc) from exc
    if consumed == len(payload):
        return doc, None
    if payload[consumed] != TRACE_TAIL_TAG:
        raise EncodingError(
            f"{len(payload) - consumed} trailing bytes after decoding "
            f"{schema.describe()} (not a trace tail)"
        )
    tail = _CODEC.decode(TRACE_CONTEXT_SCHEMA, payload[consumed + 1 :])
    return doc, TraceContext.from_doc(tail)


def decode(schema: StructType, payload: bytes) -> dict:
    """Decode a payload, tolerating (and dropping) a trace tail."""
    return decode_traced(schema, payload)[0]


def ranges_from_indices(indices) -> list:
    """Run-length-compress a set of chunk indices into [start, end] ranges."""
    out = []
    for index in sorted(indices):
        if out and index == out[-1]["end"] + 1:
            out[-1]["end"] = index
        else:
            out.append({"start": index, "end": index})
    return out


def indices_from_ranges(ranges) -> list:
    """Expand [start, end] ranges back into a sorted index list."""
    out = []
    for r in ranges:
        if r["end"] < r["start"]:
            raise ValueError(f"bad chunk range {r}")
        out.extend(range(r["start"], r["end"] + 1))
    return out


__all__ = [
    "VAR_SAMPLE_SCHEMA",
    "VAR_INITIAL_REQUEST_SCHEMA",
    "VAR_INITIAL_RESPONSE_SCHEMA",
    "EVENT_MESSAGE_SCHEMA",
    "EVENT_SUBSCRIBE_SCHEMA",
    "RPC_REQUEST_SCHEMA",
    "RPC_RESPONSE_SCHEMA",
    "FILE_ANNOUNCE_SCHEMA",
    "FILE_SUBSCRIBE_SCHEMA",
    "FILE_CHUNK_SCHEMA",
    "FILE_STATUS_REQUEST_SCHEMA",
    "FILE_ACK_SCHEMA",
    "FILE_NACK_SCHEMA",
    "FILE_DONE_SCHEMA",
    "CHUNK_RANGE_SCHEMA",
    "TRACE_CONTEXT_SCHEMA",
    "TRACE_TAIL_TAG",
    "encode",
    "decode",
    "decode_traced",
    "ranges_from_indices",
    "indices_from_ranges",
]
