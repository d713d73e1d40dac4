"""Memory guards: what one parsed gate and one signed bit cost.

A cold request holds the parsed netlist through every stage, and the
signature stage builds a :class:`~repro.core.hashkey.BitSignature` per
signed bit and a :class:`~repro.core.hashkey.Subtree` per child net.
The fast reader keeps one ``str`` per distinct name, so a net named in
a declaration, a driver and several fanout pins is held once, and the
per-bit records have no instance ``__dict__``.
"""

import copy
import dataclasses
import gc
import pickle
import tracemalloc

import pytest

from repro.core.hashkey import (
    BitSignature,
    Subtree,
    fast_signature,
    fast_subtree,
)
from repro.netlist.verilog import parse_verilog, write_verilog

#: Bytes a parsed gate may hold, netlist included.  The writer's b14
#: text reads about 223 here, and about 394 with a new ``str`` per name
#: occurrence and no two-input fast line.
MAX_BYTES_PER_GATE = 300


def test_a_parsed_gate_costs_at_most_300_bytes(itc99):
    text = write_verilog(itc99("b14"))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        netlist = parse_verilog(text)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held / netlist.num_gates <= MAX_BYTES_PER_GATE


def _twins():
    subtree = fast_subtree("n1", "($$AND)")
    signature = fast_signature(
        "y", "NAND2", (subtree, fast_subtree("n2", "$")), ("$", "($$AND)")
    )
    built_subtree = Subtree("n1", "($$AND)")
    built_signature = BitSignature(
        "y", "NAND2", (built_subtree, Subtree("n2", "$")), ("$", "($$AND)")
    )
    return [(subtree, built_subtree), (signature, built_signature)]


@pytest.mark.parametrize(
    "fast, built", _twins(), ids=["Subtree", "BitSignature"]
)
def test_per_bit_records_are_slotted_twins_of_the_dataclass(fast, built):
    assert not hasattr(fast, "__dict__")
    assert not hasattr(built, "__dict__")
    assert fast == built and hash(fast) == hash(built)
    assert repr(fast) == repr(built)
    assert [
        (field.name, getattr(fast, field.name))
        for field in dataclasses.fields(fast)
    ] == [
        (field.name, getattr(built, field.name))
        for field in dataclasses.fields(built)
    ]
    # Frozen, and copied and pickled whole.
    with pytest.raises(dataclasses.FrozenInstanceError):
        fast.key = "other"
    assert copy.copy(fast) == fast == copy.deepcopy(fast)
    assert pickle.loads(pickle.dumps(fast)) == fast


def test_field_order_is_unchanged():
    assert [f.name for f in dataclasses.fields(Subtree)] == ["root_net", "key"]
    assert [f.name for f in dataclasses.fields(BitSignature)] == [
        "net", "root_type", "subtrees", "sorted_keys",
    ]
