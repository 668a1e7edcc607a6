import functools
import json

import pytest

import bits

# a change that moves bits on purpose rewrites bits.json with
# `python tests/bits.py --write` and names the moved chunks
RECORDED = json.loads(bits.PATH.read_text())
group_digests = functools.cache(bits.group_digests)


@pytest.mark.parametrize("chunk", sorted(RECORDED))
def test_the_recorded_chunk_did_not_move(chunk):
    group = chunk.rpartition("#")[0]
    assert group_digests(group).get(chunk) == RECORDED[chunk]


def test_no_chunk_appeared_or_went():
    current = [name for group in bits.GROUPS for name in group_digests(group)]
    assert sorted(current) == sorted(RECORDED)
