"""Integration tests over the Table 1 benchmark suite.

Every benchmark netlist must be structurally valid, carry extractable
reference words, and satisfy the paper's qualitative claims (Ours >= Base
everywhere).  The heavyweight quantitative comparison lives in
``benchmarks/test_table1.py``; these tests keep the designs honest during
development at a fraction of the cost by checking the small benchmarks
exhaustively and the big ones structurally.
"""

import pytest

from repro.eval import evaluate, extract_reference_words
from repro.eval.runner import run_benchmark
from repro.netlist import validate
from repro.synth.designs import BENCHMARKS

SMALL = ["b03", "b04", "b05", "b07", "b08", "b11", "b12", "b13"]


@pytest.mark.parametrize("name", SMALL)
class TestSmallBenchmarks:
    def test_netlist_valid(self, name, itc99):
        assert validate(itc99(name)).ok

    def test_netlist_is_technology_mapped(self, name, itc99):
        netlist = itc99(name)
        assert all(g.cell.family != "mux" for g in netlist.gates())
        for gate in netlist.gates():
            assert len(gate.inputs) <= 4

    def test_reference_words_exist(self, name, itc99):
        """Paper: "we only experimented with ITC benchmarks with at least
        5 identified reference words"."""
        words = extract_reference_words(itc99(name))
        assert len(words) >= 5

    def test_ours_never_worse_than_base(self, name, itc99):
        run = run_benchmark(itc99(name))
        assert run.ours_metrics.num_full >= run.base_metrics.num_full
        assert run.ours_metrics.num_not_found <= run.base_metrics.num_not_found

    def test_deterministic_build(self, name):
        first = BENCHMARKS[name]()
        second = BENCHMARKS[name]()
        assert first.num_gates == second.num_gates
        assert [g.name for g in first.gates_in_file_order()] == [
            g.name for g in second.gates_in_file_order()
        ]


class TestSuiteShape:
    def test_all_twelve_present(self):
        assert list(BENCHMARKS) == [
            "b03", "b04", "b05", "b07", "b08", "b11",
            "b12", "b13", "b14", "b15", "b17", "b18",
        ]

    def test_b03_matches_paper_exactly(self, itc99):
        """The walkthrough benchmark reproduces its Table 1 row verbatim."""
        run = run_benchmark(itc99("b03"))
        row = run.row()
        assert row.num_words == 7
        assert row.avg_word_size == pytest.approx(3.14, abs=0.01)
        assert row.base.pct_full == pytest.approx(71.4, abs=0.1)
        assert row.ours.pct_full == pytest.approx(85.7, abs=0.1)
        assert row.base.fragmentation_rate == pytest.approx(0.67, abs=0.01)
        assert row.ours.fragmentation_rate == 0.0

    def test_b08_needs_pair_assignment(self, itc99):
        """b08's 3 control signals include a simultaneous pair."""
        run = run_benchmark(itc99("b08"))
        assert len(run.ours_result.control_signals) == 3
        sizes = {
            len(a.signals)
            for a in run.ours_result.control_assignments.values()
        }
        assert 2 in sizes  # at least one word needed a pair

    def test_gate_counts_in_paper_order_of_magnitude(self, itc99):
        paper_gate_counts = {
            "b03": 122, "b04": 652, "b05": 927, "b07": 383, "b08": 149,
            "b11": 726, "b12": 944, "b13": 289,
        }
        for name, paper in paper_gate_counts.items():
            built = itc99(name).num_gates
            assert paper / 4 <= built <= paper * 4, (
                f"{name}: {built} gates vs paper {paper}"
            )


class TestBigBenchmarksStructure:
    """b14-b18 are exercised lightly here; fully in benchmarks/."""

    def test_b14_profile_sizes(self):
        from repro.synth.designs.b14 import PROFILE

        assert PROFILE.total_word_bits() == 243

    def test_b17_is_three_cores_plus_glue(self, itc99):
        netlist = itc99("b17")
        prefixes = {g.name.split("_", 1)[0] for g in netlist.gates()}
        assert {"core1", "core2", "core3", "glue"} <= prefixes
        words = extract_reference_words(netlist)
        assert len(words) == 98  # 3 x 32 + 2 glue words

    def test_b18_word_count_matches_paper(self, itc99):
        netlist = itc99("b18")
        words = extract_reference_words(netlist)
        assert len(words) == 212
        assert netlist.num_ffs > 3000


class TestExcludedBenchmarks:
    """The paper's selection rule: "at least 5 identified reference words"."""

    def test_excluded_circuits_fall_below_the_bar(self):
        from repro.synth.designs import EXCLUDED

        for name, build_fn in EXCLUDED.items():
            netlist = build_fn()
            assert validate(netlist).ok, name
            words = extract_reference_words(netlist)
            assert len(words) < 5, (
                f"{name} has {len(words)} reference words; the paper "
                f"excluded it for having fewer than 5"
            )

    def test_excluded_not_in_table1_suite(self):
        from repro.synth.designs import EXCLUDED

        assert not set(EXCLUDED) & set(BENCHMARKS)

    def test_identification_still_runs_on_them(self):
        from repro.synth.designs import EXCLUDED

        for build_fn in EXCLUDED.values():
            run = run_benchmark(build_fn())
            assert run.ours_metrics.num_full >= run.base_metrics.num_full
