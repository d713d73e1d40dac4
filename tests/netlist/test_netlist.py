"""Unit tests for the netlist data model."""

import pytest

from repro.netlist import (
    AND,
    BUF,
    DFF,
    INV,
    NAND,
    Netlist,
    NetlistError,
    NetlistBuilder,
    OR,
    TIE0,
)


@pytest.fixture
def small():
    """x,y -> n1=NAND(x,y); q=DFF(n1); n2=AND(n1,q); PO out=n2."""
    nl = Netlist("small")
    nl.add_input("x")
    nl.add_input("y")
    nl.add_gate("g1", NAND, ["x", "y"], "n1")
    nl.add_gate("ff", DFF, ["n1"], "q")
    nl.add_gate("g2", AND, ["n1", "q"], "n2")
    nl.add_output("n2")
    return nl


class TestConstruction:
    def test_counts(self, small):
        assert small.num_gates == 3
        assert small.num_ffs == 1
        assert small.num_nets == 5

    def test_duplicate_gate_name_rejected(self, small):
        with pytest.raises(NetlistError):
            small.add_gate("g1", AND, ["x", "y"], "other")

    def test_multiple_drivers_rejected(self, small):
        with pytest.raises(NetlistError):
            small.add_gate("g3", AND, ["x", "y"], "n1")

    def test_driving_primary_input_rejected(self, small):
        with pytest.raises(NetlistError):
            small.add_gate("g3", AND, ["n1", "q"], "x")

    def test_input_on_driven_net_rejected(self, small):
        with pytest.raises(NetlistError):
            small.add_input("n1")

    def test_arity_enforced_at_construction(self):
        nl = Netlist()
        nl.add_input("a")
        with pytest.raises(ValueError):
            nl.add_gate("g", AND, ["a"], "out")


class TestQueries:
    def test_driver_and_fanouts(self, small):
        assert small.driver("n1").name == "g1"
        assert small.driver("x") is None
        assert {g.name for g in small.fanouts("n1")} == {"ff", "g2"}
        assert small.fanouts("n2") == ()

    def test_file_order_preserved(self, small):
        assert [g.name for g in small.gates_in_file_order()] == [
            "g1", "ff", "g2",
        ]

    def test_register_nets(self, small):
        assert small.register_output_nets() == {"q"}
        assert small.register_input_nets() == ["n1"]
        assert small.cone_leaf_nets() == {"x", "y", "q"}

    def test_has_net(self, small):
        assert small.has_net("x")
        assert small.has_net("n2")
        assert not small.has_net("nope")


class TestMutation:
    def test_remove_gate_detaches(self, small):
        small.remove_gate("g2")
        assert small.num_gates == 2
        assert small.fanouts("q") == ()
        assert small.driver("n2") is None

    def test_replace_gate_keeps_position(self, small):
        small.replace_gate("g2", OR, ["n1", "q"])
        assert [g.name for g in small.gates_in_file_order()] == [
            "g1", "ff", "g2",
        ]
        assert small.gate("g2").cell is OR
        assert small.driver("n2").name == "g2"

    def test_replace_gate_rejects_taken_output(self, small):
        with pytest.raises(NetlistError):
            small.replace_gate("g2", BUF, ["n1"], output="q")


class TestTopologicalOrder:
    def test_order_respects_dependencies(self, small):
        order = [g.name for g in small.topological_order()]
        assert order.index("g1") < order.index("g2")
        assert order[-1] == "ff"  # flip-flops come last

    def test_cycle_detected(self):
        nl = Netlist()
        nl.add_input("a")
        nl.add_gate("g1", AND, ["a", "n2"], "n1")
        nl.add_gate("g2", AND, ["n1", "a"], "n2")
        with pytest.raises(NetlistError):
            nl.topological_order()

    def test_cycle_through_ff_is_fine(self):
        nl = Netlist()
        nl.add_input("a")
        nl.add_gate("g1", AND, ["a", "q"], "d")
        nl.add_gate("ff", DFF, ["d"], "q")
        order = [g.name for g in nl.topological_order()]
        assert order == ["g1", "ff"]


class TestCopy:
    def test_copy_is_independent(self, small):
        dup = small.copy()
        dup.remove_gate("g2")
        assert small.num_gates == 3
        assert dup.num_gates == 2

    def test_copy_preserves_everything(self, small):
        dup = small.copy("renamed")
        assert dup.name == "renamed"
        assert dup.primary_inputs == small.primary_inputs
        assert dup.primary_outputs == small.primary_outputs
        assert [g.name for g in dup.gates_in_file_order()] == [
            g.name for g in small.gates_in_file_order()
        ]


class TestPorts:
    def test_ports_keep_declaration_order_without_duplicates(self):
        nl = Netlist("p")
        for net in ("b", "a", "b"):
            nl.add_input(net)
        for net in ("z", "a", "y", "z"):
            nl.add_output(net)
        assert nl.primary_inputs == ["b", "a"]
        assert nl.primary_outputs == ["z", "a", "y"]
        # A net that is both input and output is listed once, as an input.
        assert nl.ports() == ["b", "a", "z", "y"]

    def test_internal_nets_exclude_every_port(self, small):
        assert small.internal_nets() == {"n1", "q"}
        assert small.internal_nets() | {"x", "y", "n2"} == small.nets()

    def test_has_net_sees_undriven_ports(self):
        nl = Netlist("p")
        nl.add_input("a")
        nl.add_output("dangling")
        assert nl.has_net("a") and nl.has_net("dangling")
        assert not nl.has_net("other")

    def test_copy_has_independent_port_sets(self, small):
        dup = small.copy()
        dup.add_input("w")
        dup.add_output("n1")
        assert "w" not in small.primary_inputs and not small.has_net("w")
        assert small.primary_outputs == ["n2"]
        with pytest.raises(NetlistError):
            dup.add_gate("g9", AND, ["x", "y"], "w")
        small.add_gate("g9", AND, ["x", "y"], "w")  # still legal here


class TestEquality:
    def test_same_object_does_not_walk_the_gates(self, small, monkeypatch):
        def walk(self):
            raise AssertionError("structural compare of a netlist with itself")

        monkeypatch.setattr(Netlist, "gates_in_file_order", walk)
        assert small == small

    def test_weak_lookup_of_a_live_netlist_does_not_walk(
        self, small, monkeypatch
    ):
        import weakref

        table = weakref.WeakKeyDictionary({small: 1})

        def walk(self):
            raise AssertionError("structural compare on a weak lookup")

        monkeypatch.setattr(Netlist, "gates_in_file_order", walk)
        assert table.get(small) == 1

    def test_structural_compare_still_applies_to_copies(self, small):
        dup = small.copy()
        assert dup == small
        dup.add_output("q")
        assert dup != small


class TestBuilder:
    def test_expression_style(self):
        b = NetlistBuilder("t")
        a, c = b.inputs("a", "c")
        out = b.inv(b.nand(a, c))
        b.output(out, name="y")
        nl = b.build()
        assert nl.num_gates == 3  # nand, inv, output buf
        assert nl.primary_outputs == ["y"]

    def test_register_word_naming(self):
        b = NetlistBuilder("t")
        bits = b.input_word("d", 3)
        qs = b.register_word(bits, "count")
        assert qs == ["count_reg_0", "count_reg_1", "count_reg_2"]
        assert b.build().num_ffs == 3

    def test_fresh_names_never_collide(self):
        b = NetlistBuilder("t")
        a = b.input("U1")  # occupy the first auto name
        net = b.nand(a, a)
        assert net != "U1"

    def test_constants(self):
        b = NetlistBuilder("t")
        z = b.const0()
        o = b.const1()
        nl = b.build()
        assert nl.driver(z).cell is TIE0
        assert nl.driver(o).cell.name == "TIE1"
