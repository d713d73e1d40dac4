#!/usr/bin/env python3
"""Reconstruction of the paper's Figure 1 walkthrough (benchmark b03).

Builds, gate by gate, the structure of Figure 1: a 3-bit word (U215,
U216, U217) whose fanin cones each contain two structurally similar
subtrees (selecting CODA0/CODA1 register bits via shared controls
U202/U255) and one dissimilar subtree fed through shared control signals
U201 and U221.  The script then narrates every stage of Section 2:

1. potential-bit grouping puts U215..U217 in one group,
2. partial matching finds the common and dissimilar subtrees,
3. control-signal identification recovers exactly {U201, U221}
   (U223 is discarded as dominated, exactly as in the paper),
4. circuit reduction under U201 = 0 removes the dissimilar subtrees,
5. the re-check declares the 3-bit word — which shape hashing alone
   had split into {U215, U216} + {U217}.

Run: ``python examples/figure1_case_study.py``
"""

from repro.core import (
    AnalysisContext,
    find_control_signals,
    form_subgroups,
    group_by_adjacency,
    identify_words,
    reduce_netlist,
    shape_hashing,
    signature_of,
)
from repro.netlist import NetlistBuilder, extract_cone, write_verilog
from repro.netlist.cone import extract_subcircuit


def build_figure1():
    """The Figure 1 circuit; returns (netlist, the 3 word-bit nets)."""
    b = NetlistBuilder("fig1_b03")
    mode, busy, enable, sel = b.inputs("mode", "busy", "enable", "sel")
    coda0 = [b.dff(b.input(f"d0_{i}"), output=f"CODA0_REG_{i}") for i in range(3)]
    coda1 = [b.dff(b.input(f"d1_{i}"), output=f"CODA1_REG_{i}") for i in range(3)]
    ru2 = [b.dff(b.input(f"d2_{i}"), output=f"RU2_REG_{i}") for i in range(3)]
    ru3 = [b.dff(b.input(f"d3_{i}"), output=f"RU3_REG_{i}") for i in range(3)]

    # The shared control cone (the red circle of Figure 1).
    u223 = b.nor(mode, busy, output="U223")
    u201 = b.inv(u223, output="U201")
    u221 = b.nand(u223, enable, output="U221")
    # Controls of the similar subtrees.
    u202 = b.inv(sel, output="U202")
    u255 = b.buf(sel, output="U255")

    sim_a = [b.nand(u202, coda0[i]) for i in range(3)]
    sim_b = [b.nand(u255, coda1[i]) for i in range(3)]
    diss = []
    for i in range(2):  # bits 0 and 1 share one dissimilar shape ...
        diss.append(b.nand(u201, b.nand(u221, ru2[i])))
    diss.append(b.nand(u201, b.nor(u221, ru3[2])))  # ... bit 2 another

    bits = [
        b.nand(sim_a[i], sim_b[i], diss[i], output=f"U21{5 + i}")
        for i in range(3)
    ]
    b.register_word(bits, "coda_out")
    for i in range(3):
        b.output(f"coda_out_reg_{i}")
    return b.build(), bits


def main():
    netlist, bits = build_figure1()
    print("the Figure 1 circuit:")
    print(write_verilog(netlist))

    print("step 1 — potential bits (Section 2.2):")
    group = next(g for g in group_by_adjacency(netlist) if bits[0] in g)
    print(f"  adjacent NAND3 lines grouped: {group}\n")

    print("step 2 — partial matching (Section 2.3):")
    context = AnalysisContext(netlist)
    signatures = [context.signature(net) for net in bits]
    for sig in signatures:
        print(f"  {sig.net}: root {sig.root_type}")
        for subtree in sig.subtrees:
            print(f"    subtree at {subtree.root_net:<6} key {subtree.key}")
    subgroup = form_subgroups(signatures)[0]
    print(f"  dissimilar subtrees: "
          f"{ {bit: roots for bit, roots in subgroup.dissimilar.items()} }\n")

    print("step 3 — relevant control signals (Section 2.4):")
    candidates = find_control_signals(subgroup, context)
    for cand in candidates:
        print(f"  {cand.net} (feasible values {cand.values})")
    print("  (U223 was common too, but lies in U201's fanin cone -> dropped)\n")

    print("step 4 — reduction under U201 = 0 (Section 2.5):")
    subcircuit = extract_subcircuit(netlist, bits)
    reduced = reduce_netlist(subcircuit, {"U201": 0})
    for net in bits:
        gate = reduced.netlist.driver(net)
        print(f"  {net}: now {gate.cell.name}{len(gate.inputs)} "
              f"({', '.join(gate.inputs)})")
    new_keys = {
        net: signature_of(reduced.netlist, net).sorted_keys for net in bits
    }
    assert len(set(new_keys.values())) == 1
    print("  all three bits now share identical hash keys\n")

    print("step 5 — the verdict:")
    base = shape_hashing(netlist)
    ours = identify_words(netlist)
    print(f"  shape hashing [6] : {[str(w) for w in base.words if set(w.bits) & set(bits)]}"
          f" + singleton {[s for s in base.singletons if s in bits]}")
    word = ours.word_of(bits[0])
    print(f"  this work         : {word} "
          f"(via {ours.control_assignments[word]})")


if __name__ == "__main__":
    main()
