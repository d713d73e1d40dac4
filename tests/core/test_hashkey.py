"""Tests for hash keys and bit signatures (Section 2.3 data structures)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SignatureIndex, hash_key, signature_of
from repro.core.hashkey import LEAF_TOKEN
from repro.netlist import NetlistBuilder, extract_cone


def two_bit_pair(swap_fanins=False):
    """Two structurally identical bits, optionally with permuted fanins."""
    b = NetlistBuilder("t")
    a, c, d, e = b.inputs("a", "c", "d", "e")
    x1 = b.nand(a, c)
    y1 = b.nand(x1, d)
    x2 = b.nand(c, d)
    y2 = b.nand(e, x2) if swap_fanins else b.nand(x2, e)
    return b.build(), y1, y2


class TestHashKey:
    def test_leaf_token_for_inputs(self):
        b = NetlistBuilder("t")
        a = b.input("a")
        nl = b.build()
        assert hash_key(extract_cone(nl, a, 4)) == LEAF_TOKEN

    def test_gate_types_recorded_not_names(self):
        nl, y1, y2 = two_bit_pair()
        k1 = hash_key(extract_cone(nl, y1, 4))
        k2 = hash_key(extract_cone(nl, y2, 4))
        assert k1 == k2  # different nets, same shape

    def test_fanin_order_is_canonicalized(self):
        nl, y1, y2 = two_bit_pair(swap_fanins=True)
        k1 = hash_key(extract_cone(nl, y1, 4))
        k2 = hash_key(extract_cone(nl, y2, 4))
        assert k1 == k2

    def test_different_gate_types_differ(self):
        b = NetlistBuilder("t")
        a, c = b.inputs("a", "c")
        n1 = b.nand(a, c)
        n2 = b.nor(a, c)
        nl = b.build()
        assert hash_key(extract_cone(nl, n1, 4)) != hash_key(
            extract_cone(nl, n2, 4)
        )

    def test_depth_truncation_equalizes_deep_structure(self):
        """Beyond the depth budget, different logic looks identical."""
        b = NetlistBuilder("t")
        a, c = b.inputs("a", "c")
        deep1 = b.nand(b.nand(b.nand(b.xor(a, c), c), a), c)
        deep2 = b.nand(b.nand(b.nand(b.and_(a, c), c), a), c)
        nl = b.build()
        assert hash_key(extract_cone(nl, deep1, 3)) == hash_key(
            extract_cone(nl, deep2, 3)
        )
        assert hash_key(extract_cone(nl, deep1, 4)) != hash_key(
            extract_cone(nl, deep2, 4)
        )


class TestSignature:
    def test_signature_decomposes_subtrees(self):
        b = NetlistBuilder("t")
        a, c, d = b.inputs("a", "c", "d")
        s1 = b.nand(a, c)
        s2 = b.inv(d)
        root = b.nand(s1, s2)
        nl = b.build()
        sig = signature_of(nl, root)
        assert sig.root_type == "NAND2"
        assert len(sig.subtrees) == 2
        assert {s.root_net for s in sig.subtrees} == {s1, s2}
        assert sig.sorted_keys == tuple(sorted(sig.sorted_keys))

    def test_leaf_signature(self):
        b = NetlistBuilder("t")
        a = b.input("a")
        q = b.dff(b.inv(a), output="r_reg_0")
        nl = b.build()
        sig = signature_of(nl, q)  # register output: a cone boundary
        assert sig.is_leaf
        assert sig.full_key() == LEAF_TOKEN

    def test_root_type_includes_arity(self):
        b = NetlistBuilder("t")
        a, c, d = b.inputs("a", "c", "d")
        n2 = b.nand(a, c)
        n3 = b.nand(a, c, d)
        nl = b.build()
        assert signature_of(nl, n2).root_type == "NAND2"
        assert signature_of(nl, n3).root_type == "NAND3"

    def test_full_key_matches_cone_hash(self):
        nl, y1, _ = two_bit_pair()
        sig = signature_of(nl, y1, 4)
        assert sig.full_key() == hash_key(extract_cone(nl, y1, 4))

    def test_lazy_cone_matches_eager_extraction(self):
        """A subtree's key is the hash of its root's cone, extracted on
        demand ``depth - 1`` levels deep (subtrees hold no cone)."""
        nl, y1, _ = two_bit_pair()
        sig = signature_of(nl, y1, 4)
        for subtree in sig.subtrees:
            cone = extract_cone(nl, subtree.root_net, 3)
            assert hash_key(cone) == subtree.key


class TestSignatureIndex:
    def test_index_matches_signature_of(self):
        nl, y1, y2 = two_bit_pair()
        index = SignatureIndex(nl, 4)
        for net in (y1, y2):
            direct = signature_of(nl, net, 4)
            indexed = index.signature(net)
            assert indexed.root_type == direct.root_type
            assert indexed.sorted_keys == direct.sorted_keys

    def test_memoization_shares_overlapping_cones(self):
        nl, y1, y2 = two_bit_pair()
        index = SignatureIndex(nl, 4)
        index.signature(y1)
        before = len(index._keys)
        index.signature(y1)  # fully cached second time
        assert len(index._keys) == before

    def test_invalid_depth_rejected(self):
        nl, _, _ = two_bit_pair()
        with pytest.raises(ValueError):
            SignatureIndex(nl, 0)


@st.composite
def random_tree_netlists(draw):
    """Random cone-shaped logic; returns (netlist, root_net, depth)."""
    b = NetlistBuilder("rand")
    nets = list(b.inputs("i0", "i1", "i2", "i3"))
    for _ in range(draw(st.integers(min_value=2, max_value=14))):
        op = draw(st.sampled_from(["nand", "nor", "and_", "or_", "xor", "inv"]))
        if op == "inv":
            nets.append(b.inv(draw(st.sampled_from(nets))))
        else:
            x, y = draw(st.sampled_from(nets)), draw(st.sampled_from(nets))
            if x == y:
                continue
            nets.append(getattr(b, op)(x, y))
    return b.build(), nets[-1], draw(st.integers(min_value=1, max_value=5))


@given(random_tree_netlists())
@settings(max_examples=60, deadline=None)
def test_index_key_equals_tree_hash_key(case):
    """The memoized key must equal the tree-expansion key everywhere."""
    nl, root, depth = case
    index = SignatureIndex(nl, depth)
    assert index.key(root, depth) == hash_key(extract_cone(nl, root, depth))
