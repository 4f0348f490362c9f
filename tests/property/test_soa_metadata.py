"""Property tests: the 64-bit metadata word round-trips every field boundary.

Every plane stamps MID|PID|version (Fig. 5) as a
:class:`~repro.net.packet.PacketMeta`; these properties pin (1)
pack/unpack round-trips over the full field ranges with the boundary
values always included, (2) the word's bit layout, (3) range validation
on both ends, and (4) that the compiler's 15-concurrent-version ceiling
-- the 4-bit version field of the word -- still trips at 16.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CompileError
from repro.core.compiler import MAX_VERSIONS
from repro.core.actions import Action, ActionProfile, Verb
from repro.core.orchestrator import Orchestrator
from repro.core.policy import Policy
from repro.net import Field, PacketMeta

MAX_MID = (1 << PacketMeta.MID_BITS) - 1
MAX_PID = (1 << PacketMeta.PID_BITS) - 1
MAX_VERSION = (1 << PacketMeta.VERSION_BITS) - 1

#: Each field strategy mixes uniform draws with the exact boundaries, so
#: every run exercises 0 and the field maximum.
mids = st.one_of(st.sampled_from([0, 1, MAX_MID - 1, MAX_MID]),
                 st.integers(min_value=0, max_value=MAX_MID))
pids = st.one_of(st.sampled_from([0, 1, MAX_PID - 1, MAX_PID]),
                 st.integers(min_value=0, max_value=MAX_PID))
versions = st.integers(min_value=0, max_value=MAX_VERSION)


def _fields(word):
    meta = PacketMeta.unpack(word)
    return meta.mid, meta.pid, meta.version


@settings(max_examples=200, deadline=None)
@given(mid=mids, pid=pids, version=versions)
def test_pack_unpack_round_trips(mid, pid, version):
    assert _fields(PacketMeta(mid, pid, version).pack()) == (mid, pid, version)


@settings(max_examples=200, deadline=None)
@given(mid=mids, pid=pids, version=versions)
def test_word_layout_matches_packet_meta(mid, pid, version):
    word = PacketMeta(mid=mid, pid=pid, version=version).pack()
    assert word == (mid << 44) | (pid << 4) | version


@pytest.mark.parametrize("mid,pid,version", [
    (MAX_MID + 1, 0, 1),
    (-1, 0, 1),
    (0, MAX_PID + 1, 1),
    (0, -1, 1),
    (0, 0, MAX_VERSION + 1),
    (0, 0, -1),
])
def test_pack_word_rejects_out_of_range_fields(mid, pid, version):
    with pytest.raises(ValueError):
        PacketMeta(mid, pid, version)


@pytest.mark.parametrize("word", [-1, 1 << 64])
def test_unpack_word_rejects_non_64_bit_words(word):
    with pytest.raises(ValueError):
        PacketMeta.unpack(word)


def test_word_boundaries_round_trip_exactly():
    for mid in (0, MAX_MID):
        for pid in (0, MAX_PID):
            for version in (0, MAX_VERSION):
                word = PacketMeta(mid, pid, version).pack()
                assert word < (1 << 64)
                assert _fields(word) == (mid, pid, version)
    assert PacketMeta(MAX_MID, MAX_PID, MAX_VERSION).pack() == (1 << 64) - 1


# --------------------------------------------- compiler version ceiling
def _same_field_writers(n):
    """A chain of ``n`` NFs all writing the same field: every NF needs
    its own packet version, the worst case for the 4-bit field."""
    orch = Orchestrator()
    kinds = []
    for i in range(n):
        kind = f"scrub{i}"
        orch.register_profile(
            ActionProfile(kind, [Action(Verb.WRITE, Field.TTL)]))
        kinds.append(kind)
    return orch, Policy.from_chain(kinds)


def test_version_ceiling_is_the_soa_field_maximum():
    # The compiler's ceiling and the word's version maximum are the
    # same number -- 15 concurrent versions fit, 16 cannot be encoded.
    assert MAX_VERSIONS == MAX_VERSION


def test_fifteen_concurrent_versions_compile_and_encode():
    orch, policy = _same_field_writers(MAX_VERSIONS)
    graph = orch.compile(policy).graph
    assert graph.num_versions == MAX_VERSIONS
    for version in range(1, MAX_VERSIONS + 1):
        assert _fields(PacketMeta(1, 1, version).pack())[2] == version


def test_sixteen_concurrent_versions_still_trip_the_ceiling():
    orch, policy = _same_field_writers(MAX_VERSIONS + 1)
    with pytest.raises(CompileError):
        orch.compile(policy)
    with pytest.raises(ValueError):
        PacketMeta(1, 1, MAX_VERSIONS + 1)
