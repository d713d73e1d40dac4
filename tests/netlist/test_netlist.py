"""Unit tests for the netlist data model."""

import pytest

from repro.netlist import (
    AND,
    BUF,
    DFF,
    INV,
    NAND,
    NOR,
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

    @staticmethod
    def _connectivity(netlist):
        """Every gate line, and each net's driver and fanout gate names."""
        return (
            [repr(gate) for gate in netlist.gates_in_file_order()],
            {
                net: (
                    getattr(netlist.driver(net), "name", None),
                    sorted(gate.name for gate in netlist.fanouts(net)),
                )
                for net in sorted(netlist.nets())
            },
        )

    @pytest.mark.parametrize("call, error", [
        # Another gate drives the new output.
        (("g1", AND, ["x", "y"], "q"), NetlistError),
        # The new output is a primary input.
        (("g1", AND, ["x", "y"], "x"), NetlistError),
        # AND takes at least two inputs.
        (("g1", AND, ["x"]), ValueError),
        (("g2", AND, ["n1"], "fresh"), ValueError),
    ])
    def test_refused_replacement_leaves_the_netlist_unedited(
        self, small, call, error
    ):
        before = small.copy()
        revision = small.revision
        small.fanouts("x")  # the fanout index is built, as synthesis has it
        with pytest.raises(error):
            small.replace_gate(*call)
        assert self._connectivity(small) == self._connectivity(before)
        assert small == before
        assert small.revision == revision

    def test_replacement_may_keep_or_move_its_own_output(self, small):
        small.replace_gate("g1", NOR, ["y", "x"], output="n1")
        assert small.driver("n1").cell is NOR
        small.replace_gate("g2", OR, ["n1", "q"], output="m")
        assert small.driver("n2") is None
        assert small.driver("m").name == "g2"
        assert [g.name for g in small.fanouts("q")] == ["g2"]


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


def _rows(netlist):
    return [
        (gate.name, gate.cell, gate.inputs, gate.output)
        for gate in netlist.gates_in_file_order()
    ]


class TestRowConstructor:
    """``Netlist._from_rows`` builds in one pass what ``add_input``,
    ``add_output`` and ``add_gate`` build, and refuses what they refuse
    whatever the order of declarations and gates."""

    def test_equals_the_incremental_build(self, small):
        built = Netlist._from_rows(
            "small", ["x", "y", "x"], ["n2", "n2"], _rows(small)
        )
        assert built == small
        assert built.revision == small.revision
        assert built.flip_flops()[0].name == "ff"
        assert (built.num_ffs, built.num_nets) == (1, 5)
        assert built.fanouts("n1") == tuple(
            built.gate(name) for name in ("ff", "g2")
        )

    @pytest.mark.parametrize("row", [
        ("g1", AND, ("x", "y"), "other"),  # duplicate gate name
        ("g3", AND, ("x", "y"), "n1"),     # a second driver of n1
        ("g3", AND, ("n1", "q"), "x"),     # drives a primary input
    ])
    def test_refuses_what_add_gate_refuses(self, small, row):
        with pytest.raises(NetlistError):
            small.add_gate(*row)
        with pytest.raises(NetlistError):
            Netlist._from_rows("m", ["x", "y"], [], _rows(small) + [row])

    def test_refuses_a_driven_net_declared_an_input_after_its_gate(
        self, small
    ):
        with pytest.raises(NetlistError):
            small.add_input("n1")
        with pytest.raises(NetlistError):
            Netlist._from_rows("m", ["x", "y", "n1"], [], _rows(small))

    def test_refuses_a_wrong_input_count(self):
        with pytest.raises(ValueError):
            Netlist._from_rows("m", ["a"], [], [("g", AND, ("a",), "y")])


class TestLazyFacts:
    """The fanout index is built on the first query that needs it, and the
    flip-flop list and net count are kept until the revision moves."""

    def test_counts_and_net_sets_never_build_the_fanout_index(self, small):
        fresh = small.copy()
        assert fresh.num_nets == 5
        assert fresh.nets() == {"x", "y", "n1", "q", "n2"}
        assert fresh.internal_nets() == {"n1", "q"}
        assert fresh.num_ffs == 1
        assert fresh._fanouts is None
        assert fresh.has_net("n1")  # a driven net: no index either
        assert fresh._fanouts is None
        assert fresh.fanouts("q") == (fresh.gate("g2"),)
        assert fresh._fanouts is not None

    def test_edits_before_the_index_is_built_match_edits_after(self, small):
        lazy, eager = small.copy(), small.copy()
        eager.fanouts("x")  # built before any edit
        for netlist in (lazy, eager):
            netlist.remove_gate("g2")
            netlist.add_gate("g3", OR, ["q", "x"], "n3")
            netlist.add_gate("g4", AND, ["x", "n1"], "n4")
            netlist.replace_gate("g1", NAND, ["y", "x"])
        for net in ("x", "y", "n1", "q", "n3", "n4"):
            assert [g.name for g in lazy.fanouts(net)] == [
                g.name for g in eager.fanouts(net)
            ], net
        assert [g.name for g in lazy.fanouts("x")] == ["g3", "g4", "g1"]

    def test_stale_facts_are_recomputed_after_a_mutation(self, small):
        assert (small.num_ffs, small.num_nets) == (1, 5)
        small.add_gate("ff2", DFF, ["n2"], "q2")
        assert (small.num_ffs, small.num_nets) == (2, 6)
        assert [g.name for g in small.flip_flops()] == ["ff", "ff2"]
        small.remove_gate("ff")
        assert (small.num_ffs, small.num_nets) == (1, 6)
        small.add_input("w")
        assert small.num_nets == 7


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
