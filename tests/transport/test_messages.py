"""Property suite for the wire codec: every message type round-trips.

``decode(encode(msg)) == msg`` is the codec's whole contract — the
asyncio backend and the sim/real differential both lean on it.  The
strategies deliberately stress the awkward corners: unicode block ids
and paths, non-ASCII tenant labels, binary block payloads, empty
tuples, nested commands carrying explicit ``seq`` values.
"""

import dataclasses
import json
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.commands import EvictCommand, MigrateCommand, MigrationWorkItem
from repro.dfs.blocks import Block
from repro.transport.messages import (
    PROTOCOL_VERSION,
    Ack,
    BlockPlacement,
    BlockReadReply,
    BlockReadRequest,
    BlockWriteReply,
    BlockWriteRequest,
    CodecError,
    CreateFileReply,
    CreateFileRequest,
    DemoteBlocksRequest,
    EvictFilesRequest,
    EvictMsg,
    FailoverMsg,
    FileInfoReply,
    FileInfoRequest,
    HeartbeatMsg,
    LocationsReply,
    LocationsRequest,
    MESSAGE_TYPES,
    MigrateFilesRequest,
    MigrateMsg,
    PromoteBlocksRequest,
    ReplicaPipelineMsg,
    decode,
    encode,
)

_LEN = struct.Struct(">I")


def _split(frame):
    """Frame → (envelope dict, raw blob section), parsed by hand."""
    (head_len,) = _LEN.unpack_from(frame)
    head = frame[_LEN.size : _LEN.size + head_len]
    return json.loads(head.decode("utf-8")), frame[_LEN.size + head_len :]


def _frame(envelope, blob_section=b"", head_len=None):
    """Hand-built frame; ``head_len`` overrides the envelope length."""
    head = json.dumps(envelope).encode("utf-8")
    if head_len is None:
        head_len = len(head)
    return _LEN.pack(head_len) + head + blob_section


# -- strategies --------------------------------------------------------------------

#: Identifiers exercise the full unicode plane minus surrogates (JSON
#: cannot carry lone surrogates).
_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)),
    min_size=1,
    max_size=24,
)
_tiers = st.sampled_from(["mem", "ssd", "hdd", "disk", "память"])
_tenants = st.one_of(st.just("default"), _text)
_sizes = st.floats(min_value=0.0, max_value=1e15, allow_nan=False)
_times = st.floats(min_value=0.0, max_value=1e9, allow_nan=False)
_names = st.lists(_text, max_size=4).map(tuple)
_payloads = st.binary(max_size=256)


@st.composite
def blocks(draw):
    return Block(
        block_id=draw(_text),
        path="/" + draw(_text),
        index=draw(st.integers(0, 64)),
        nbytes=draw(_sizes),
    )


@st.composite
def work_items(draw):
    # seq passed explicitly: drawing from the strategy must never
    # consume the global sequence counter (same rule as the decoder).
    return MigrationWorkItem(
        block=draw(blocks()),
        job_id=draw(_text),
        job_input_bytes=draw(_sizes),
        job_submitted_at=draw(_times),
        implicit_eviction=draw(st.booleans()),
        order_hint=draw(st.integers(0, 1000)),
        dst_tier=draw(_tiers),
        src_tier=draw(st.none() | _tiers),
        seq=draw(st.integers(0, 10**9)),
        received_at=draw(_times),
    )


def _placements():
    return st.builds(
        BlockPlacement,
        block_id=_text,
        index=st.integers(0, 64),
        nbytes=_sizes,
        nodes=_names,
    )


#: One strategy per message type; the suite fails if a new message type
#: is added without one (see test_every_message_type_covered).
MESSAGE_STRATEGIES = {
    Ack: st.builds(Ack, ok=st.booleans()),
    MigrateMsg: st.builds(
        MigrateMsg,
        command=st.builds(
            MigrateCommand,
            job_id=_text,
            items=st.lists(work_items(), max_size=3).map(tuple),
        ),
    ),
    EvictMsg: st.builds(
        EvictMsg,
        command=st.builds(
            EvictCommand,
            job_id=_text,
            block_ids=_names,
        ),
    ),
    MigrateFilesRequest: st.builds(
        MigrateFilesRequest,
        paths=_names,
        job_id=_text,
        implicit_eviction=st.booleans(),
        dst_tier=st.none() | _tiers,
    ),
    EvictFilesRequest: st.builds(
        EvictFilesRequest, paths=_names, job_id=_text
    ),
    PromoteBlocksRequest: st.builds(
        PromoteBlocksRequest,
        blocks=st.lists(blocks(), max_size=3).map(tuple),
        owner=_tenants,
        dst_tier=st.none() | _tiers,
    ),
    DemoteBlocksRequest: st.builds(
        DemoteBlocksRequest, block_ids=_names, owner=_tenants
    ),
    HeartbeatMsg: st.builds(
        HeartbeatMsg,
        node=_text,
        seq=st.integers(0, 10**9),
        tier_blocks=st.dictionaries(_tiers, _names, max_size=3),
    ),
    BlockReadRequest: st.builds(
        BlockReadRequest, block_id=_text, prefer_tier=st.none() | _tiers
    ),
    BlockReadReply: st.builds(
        BlockReadReply,
        ok=st.booleans(),
        tier=st.none() | _tiers,
        nbytes=_sizes,
        data=_payloads,
    ),
    BlockWriteRequest: st.builds(
        BlockWriteRequest,
        block_id=_text,
        path=_text,
        index=st.integers(0, 64),
        data=_payloads,
        pipeline=_names,
    ),
    BlockWriteReply: st.builds(
        BlockWriteReply, ok=st.booleans(), stored=_names
    ),
    ReplicaPipelineMsg: st.builds(
        ReplicaPipelineMsg,
        block_id=_text,
        source=_text,
        targets=_names,
        reason=st.sampled_from(["repair", "rebalance", "decommission"]),
    ),
    FailoverMsg: st.builds(
        FailoverMsg, generation=st.integers(0, 100), active=_text
    ),
    CreateFileRequest: st.builds(
        CreateFileRequest,
        path=_text,
        nbytes=_sizes,
        replication=st.none() | st.integers(1, 5),
    ),
    BlockPlacement: _placements(),
    CreateFileReply: st.builds(
        CreateFileReply,
        ok=st.booleans(),
        blocks=st.lists(_placements(), max_size=3).map(tuple),
    ),
    LocationsRequest: st.builds(LocationsRequest, block_id=_text),
    LocationsReply: st.builds(
        LocationsReply, nodes=_names, memory_nodes=_names
    ),
    FileInfoRequest: st.builds(FileInfoRequest, path=_text),
    FileInfoReply: st.builds(
        FileInfoReply,
        exists=st.booleans(),
        blocks=st.lists(_placements(), max_size=3).map(tuple),
    ),
}

any_message = st.one_of(*MESSAGE_STRATEGIES.values())


# -- round-trip properties ---------------------------------------------------------


def test_every_message_type_covered():
    assert set(MESSAGE_STRATEGIES) == set(MESSAGE_TYPES)


@settings(max_examples=200)
@given(any_message)
def test_round_trip_identity(message):
    decoded = decode(encode(message))
    assert type(decoded) is type(message)
    assert decoded == message


@given(any_message)
def test_wire_form_is_canonical_json(message):
    frame = encode(message)
    envelope, blob_section = _split(frame)
    assert envelope["v"] == PROTOCOL_VERSION
    assert envelope["kind"] == type(message).__name__
    # The blob lengths listed in the envelope fill the rest of the frame.
    assert sum(envelope.get("blobs", [])) == len(blob_section)
    # Canonical: re-encoding the decoded message reproduces the bytes.
    assert encode(decode(frame)) == frame


@given(work_items())
def test_work_item_seq_and_timestamps_survive(item):
    """``seq`` is excluded from the priority-order contract only if the
    wire preserves it exactly (``received_at`` is ``compare=False``, so
    ``==`` would not catch a regression — check the fields directly)."""
    msg = MigrateMsg(MigrateCommand(job_id="j", items=(item,)))
    round_tripped = decode(encode(msg)).command.items[0]
    assert round_tripped.seq == item.seq
    assert round_tripped.received_at == item.received_at
    assert round_tripped.dst_tier == item.dst_tier


@given(st.lists(_text, min_size=1, max_size=4).map(tuple))
def test_tuples_stay_tuples(paths):
    decoded = decode(encode(MigrateFilesRequest(paths, "job")))
    assert isinstance(decoded.paths, tuple)
    assert decoded.paths == paths


@given(_payloads)
def test_binary_payloads_survive(data):
    decoded = decode(encode(BlockReadReply(ok=True, data=data)))
    assert decoded.data == data
    assert isinstance(decoded.data, bytes)


#: 0 B, 1 B, one byte past the asyncio transport's 64 KiB receive
#: buffer, and a block sixteen times the real cluster's.
_BLOCK_SIZES = [0, 1, 64 * 1024 + 1, 4 * 1024 * 1024]


def _block(size):
    return bytes(range(256)) * (size // 256) + bytes(size % 256)


@pytest.mark.parametrize("size", _BLOCK_SIZES)
@pytest.mark.parametrize(
    "make",
    [
        lambda data: BlockReadReply(ok=True, tier="mem", nbytes=len(data), data=data),
        lambda data: BlockWriteRequest(
            block_id="b0", path="/f", index=0, data=data, pipeline=("n1", "n2")
        ),
    ],
    ids=["BlockReadReply", "BlockWriteRequest"],
)
def test_block_payload_round_trip(make, size):
    message = make(_block(size))
    frame = encode(message)
    assert decode(frame) == message
    # The payload travels raw: the frame is the envelope plus the block.
    envelope, blob_section = _split(frame)
    assert envelope["blobs"] == [size]
    assert blob_section == message.data


# -- malformed input ---------------------------------------------------------------


def test_wrong_protocol_version_rejected():
    envelope, _ = _split(encode(Ack()))
    envelope["v"] = PROTOCOL_VERSION + 1
    with pytest.raises(CodecError, match="protocol version"):
        decode(_frame(envelope))


def test_unknown_kind_rejected():
    frame = _frame({"v": PROTOCOL_VERSION, "kind": "NoSuchMessage", "body": {}})
    with pytest.raises(CodecError, match="malformed envelope"):
        decode(frame)


def test_malformed_body_rejected():
    frame = _frame(
        {
            "v": PROTOCOL_VERSION,
            "kind": "HeartbeatMsg",
            "body": {"node": "n1"},  # missing seq / tier_blocks
        }
    )
    with pytest.raises(CodecError, match="malformed HeartbeatMsg"):
        decode(frame)


def test_non_json_payload_rejected():
    bad = b"\xff\xfe not json"
    with pytest.raises(CodecError, match="undecodable"):
        decode(_LEN.pack(len(bad)) + bad)


def malformed_frames(**extra):
    """Frames that lie about their own layout, by name.  ``extra`` fields
    join each envelope (the socket tests add a message id)."""
    good, _ = _split(encode(BlockReadReply(ok=True, data=b"abcd")))
    good.update(extra)
    return {
        "truncated-blob-section": _frame(good, b"abc"),
        "blob-lengths-short-of-frame": _frame({**good, "blobs": [3]}, b"abcd"),
        "blob-lengths-not-ints": _frame({**good, "blobs": ["4"]}, b"abcd"),
        "blob-reference-out-of-range": _frame(
            {**good, "body": {**good["body"], "data": {"__b__": 1}}}, b"abcd"
        ),
        "envelope-length-beyond-frame": _frame(good, b"abcd", head_len=10_000),
        "shorter-than-envelope-length-field": b"\x00\x01",
    }


MALFORMED = sorted(malformed_frames())


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_frame_rejected(name):
    with pytest.raises(CodecError):
        decode(malformed_frames()[name])


def test_unregistered_type_rejected():
    @dataclasses.dataclass
    class Rogue:
        x: int

    with pytest.raises(CodecError, match="unknown message type"):
        encode(Rogue(1))
