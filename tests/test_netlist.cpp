// Unit tests for src/netlist: design model, .bench I/O, the synthetic
// generator (including the Table II benchmark suite), placement container.

#include <gtest/gtest.h>

#include <sstream>

#include "netlist/bench_io.hpp"
#include "netlist/benchmarks.hpp"
#include "netlist/generator.hpp"
#include "netlist/netlist.hpp"
#include "netlist/placement.hpp"

namespace rotclk::netlist {
namespace {

Design tiny_design() {
  // PI -> g1 -> FF -> g2 -> PO, plus a feedback from FF into g1.
  Design d("tiny");
  d.add_primary_input("in");
  d.add_flip_flop("q", "d");
  d.add_gate(GateFn::Nand, "g1", {"in", "q"});
  d.add_gate(GateFn::Buf, "d", {"g1"});
  d.add_gate(GateFn::Not, "g2", {"q"});
  d.add_primary_output("g2");
  d.validate();
  return d;
}

TEST(Design, CountsAndLookup) {
  const Design d = tiny_design();
  EXPECT_EQ(d.num_cells(), 4);          // 3 gates + 1 FF
  EXPECT_EQ(d.num_flip_flops(), 1);
  EXPECT_EQ(d.num_primary_inputs(), 1);
  EXPECT_EQ(d.num_primary_outputs(), 1);
  EXPECT_EQ(d.num_signal_nets(), 5);    // in, q, g1, d, g2 all driven+loaded
  EXPECT_GE(d.find_cell("g1"), 0);
  EXPECT_EQ(d.find_cell("nope"), -1);
  EXPECT_GE(d.find_net("q"), 0);
  EXPECT_EQ(d.find_net("nope"), -1);
}

TEST(Design, FlipFlopList) {
  const Design d = tiny_design();
  const auto ffs = d.flip_flops();
  ASSERT_EQ(ffs.size(), 1u);
  EXPECT_TRUE(d.cell(ffs[0]).is_flip_flop());
  EXPECT_EQ(d.cell(ffs[0]).name, "q");
}

TEST(Design, TopoOrderCoversAllGates) {
  const Design d = tiny_design();
  const auto order = d.combinational_topo_order();
  EXPECT_EQ(order.size(), 3u);
  // g1 must precede d (the buffer consuming it).
  int pos_g1 = -1, pos_d = -1;
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (d.cell(order[i]).name == "g1") pos_g1 = static_cast<int>(i);
    if (d.cell(order[i]).name == "d") pos_d = static_cast<int>(i);
  }
  EXPECT_LT(pos_g1, pos_d);
}

TEST(Design, CombinationalCycleDetected) {
  Design d("cyclic");
  d.add_primary_input("in");
  d.add_gate(GateFn::And, "a", {"in", "b"});
  d.add_gate(GateFn::And, "b", {"a"});
  EXPECT_THROW(d.combinational_topo_order(), std::runtime_error);
  EXPECT_THROW(d.validate(), std::runtime_error);
}

TEST(Design, SequentialLoopIsFine) {
  // FF feedback through combinational logic is not a combinational cycle.
  Design d("seqloop");
  d.add_flip_flop("q", "d");
  d.add_gate(GateFn::Not, "d", {"q"});
  EXPECT_NO_THROW(d.validate());
}

TEST(Design, RejectsDuplicateDriver) {
  Design d("dup");
  d.add_primary_input("x");
  EXPECT_THROW(d.add_primary_input("x"), std::runtime_error);
  EXPECT_THROW(d.add_gate(GateFn::Buf, "x", {"x"}), std::runtime_error);
}

TEST(Design, RejectsUndrivenNetOnValidate) {
  Design d("undriven");
  d.add_gate(GateFn::Buf, "g", {"ghost"});
  EXPECT_THROW(d.validate(), std::runtime_error);
}

TEST(Design, GateFnNamesRoundTrip) {
  for (GateFn fn : {GateFn::Buf, GateFn::Not, GateFn::And, GateFn::Nand,
                    GateFn::Or, GateFn::Nor, GateFn::Xor, GateFn::Xnor,
                    GateFn::Dff}) {
    EXPECT_EQ(gate_fn_from_name(gate_fn_name(fn)), fn);
  }
  EXPECT_THROW(gate_fn_from_name("MUX4"), std::runtime_error);
}

TEST(BenchIO, ParsesCanonicalFormat) {
  const std::string text = R"(
# comment line
INPUT(G0)
INPUT(G1)
OUTPUT(G17)

G10 = DFF(G14)
G11 = NAND(G0, G10)
G14 = NOT(G11)
G17 = AND(G11, G1)
)";
  const Design d = read_bench_string(text, "mini");
  EXPECT_EQ(d.num_cells(), 4);
  EXPECT_EQ(d.num_flip_flops(), 1);
  EXPECT_EQ(d.num_primary_inputs(), 2);
  EXPECT_EQ(d.num_primary_outputs(), 1);
}

TEST(BenchIO, RoundTrip) {
  const Design d = tiny_design();
  const std::string text = write_bench_string(d);
  const Design d2 = read_bench_string(text, "tiny2");
  EXPECT_EQ(d2.num_cells(), d.num_cells());
  EXPECT_EQ(d2.num_flip_flops(), d.num_flip_flops());
  EXPECT_EQ(d2.num_signal_nets(), d.num_signal_nets());
  EXPECT_EQ(d2.num_primary_inputs(), d.num_primary_inputs());
  EXPECT_EQ(d2.num_primary_outputs(), d.num_primary_outputs());
  // Round-trip again: text after the name comment must be stable.
  const std::string text2 = write_bench_string(d2);
  EXPECT_EQ(text2.substr(text2.find('\n')), text.substr(text.find('\n')));
}

TEST(BenchIO, GeneratorOutputRoundTrips) {
  GeneratorConfig cfg;
  cfg.num_gates = 150;
  cfg.num_flip_flops = 12;
  cfg.seed = 3;
  const Design d = generate_circuit(cfg);
  const Design d2 = read_bench_string(write_bench_string(d), "rt");
  EXPECT_EQ(d2.num_cells(), d.num_cells());
  EXPECT_EQ(d2.num_signal_nets(), d.num_signal_nets());
}

TEST(BenchIO, RejectsMalformedLines) {
  EXPECT_THROW(read_bench_string("G1 = NAND(", "bad"), std::runtime_error);
  EXPECT_THROW(read_bench_string("INPUT G1", "bad"), std::runtime_error);
  EXPECT_THROW(read_bench_string("G1 = BLORP(G0)\nINPUT(G0)", "bad"),
               std::runtime_error);
}

TEST(Generator, RespectsExactCellAndFFCounts) {
  GeneratorConfig cfg;
  cfg.num_gates = 200;
  cfg.num_flip_flops = 25;
  cfg.num_primary_inputs = 10;
  cfg.num_primary_outputs = 8;
  cfg.seed = 11;
  const Design d = generate_circuit(cfg);
  EXPECT_EQ(d.num_cells(), 225);
  EXPECT_EQ(d.num_flip_flops(), 25);
  EXPECT_EQ(d.num_primary_inputs(), 10);
  EXPECT_GE(d.num_primary_outputs(), 8);
}

TEST(Generator, DeterministicInSeed) {
  GeneratorConfig cfg;
  cfg.num_gates = 120;
  cfg.num_flip_flops = 10;
  cfg.seed = 77;
  const Design a = generate_circuit(cfg);
  const Design b = generate_circuit(cfg);
  EXPECT_EQ(write_bench_string(a), write_bench_string(b));
  cfg.seed = 78;
  const Design c = generate_circuit(cfg);
  EXPECT_NE(write_bench_string(a), write_bench_string(c));
}

TEST(Generator, DepthCapHolds) {
  GeneratorConfig cfg;
  cfg.num_gates = 400;
  cfg.num_flip_flops = 30;
  cfg.max_depth = 8;
  cfg.seed = 5;
  const Design d = generate_circuit(cfg);
  // Compute exact combinational depth by topological sweep.
  std::vector<int> level(d.cells().size(), 0);
  for (int g : d.combinational_topo_order()) {
    int lvl = 0;
    for (int n : d.cell(g).in_nets) {
      const int drv = d.net(n).driver;
      if (drv >= 0 && d.cell(drv).is_gate())
        lvl = std::max(lvl, level[static_cast<std::size_t>(drv)]);
    }
    level[static_cast<std::size_t>(g)] = lvl + 1;
  }
  for (int g : d.combinational_topo_order())
    EXPECT_LE(level[static_cast<std::size_t>(g)], cfg.max_depth + 1);
}

TEST(Generator, EveryFlipFlopDrivenAndLoaded) {
  GeneratorConfig cfg;
  cfg.num_gates = 300;
  cfg.num_flip_flops = 40;
  cfg.seed = 9;
  const Design d = generate_circuit(cfg);
  for (int ff : d.flip_flops()) {
    const Cell& c = d.cell(ff);
    ASSERT_EQ(c.in_nets.size(), 1u);
    EXPECT_GE(d.net(c.in_nets[0]).driver, 0) << "undriven D input";
    EXPECT_FALSE(d.net(c.out_net).sinks.empty()) << "unused Q output";
  }
}

TEST(Generator, RejectsBadConfigs) {
  GeneratorConfig cfg;
  cfg.num_gates = 5;
  cfg.num_flip_flops = 10;
  EXPECT_THROW(generate_circuit(cfg), std::runtime_error);
  cfg.num_gates = 50;
  cfg.num_flip_flops = 2;
  cfg.num_primary_inputs = 0;
  EXPECT_THROW(generate_circuit(cfg), std::runtime_error);
}

TEST(Generator, ZeroFlipFlopsAllowed) {
  GeneratorConfig cfg;
  cfg.num_gates = 60;
  cfg.num_flip_flops = 0;
  cfg.seed = 2;
  const Design d = generate_circuit(cfg);
  EXPECT_EQ(d.num_flip_flops(), 0);
  EXPECT_EQ(d.num_cells(), 60);
}

}  // namespace

// CTest names each case after its printed parameter. The default printer
// dumps the spec's raw bytes, which start with the name string's heap
// pointer, so the discovered test names changed from one build to the
// next. ADL finds this overload only in BenchmarkSpec's own namespace.
void PrintTo(const BenchmarkSpec& spec, std::ostream* os) { *os << spec.name; }

namespace {

// --- Table II suite: parameterized over all five circuits -----------------

class BenchmarkSuiteTest : public ::testing::TestWithParam<BenchmarkSpec> {};

TEST_P(BenchmarkSuiteTest, MatchesTableII) {
  const BenchmarkSpec& spec = GetParam();
  const Design d = make_benchmark(spec, 1);
  EXPECT_EQ(d.num_cells(), spec.cells) << spec.name;
  EXPECT_EQ(d.num_flip_flops(), spec.flip_flops) << spec.name;
  // Net counts match Table II exactly up to a tiny feasibility slack.
  EXPECT_NEAR(d.num_signal_nets(), spec.nets, 3) << spec.name;
  EXPECT_NO_THROW(d.validate());
}

INSTANTIATE_TEST_SUITE_P(AllCircuits, BenchmarkSuiteTest,
                         ::testing::ValuesIn(benchmark_suite()));

TEST(Benchmarks, SuiteHasFiveCircuitsInPaperOrder) {
  const auto& suite = benchmark_suite();
  ASSERT_EQ(suite.size(), 5u);
  EXPECT_EQ(suite[0].name, "s9234");
  EXPECT_EQ(suite[4].name, "s35932");
  EXPECT_THROW(benchmark_spec("s0"), std::runtime_error);
}

TEST(Placement, HpwlOfSimpleNet) {
  const Design d = tiny_design();
  Placement p(d, geom::Rect{0, 0, 100, 100});
  // All cells at the center initially: zero wirelength.
  EXPECT_DOUBLE_EQ(p.total_hpwl(d), 0.0);
  p.set_loc(d.find_cell("in"), {0, 0});
  p.set_loc(d.find_cell("g1"), {10, 5});
  const int net = d.find_net("in");
  EXPECT_DOUBLE_EQ(p.net_hpwl(d, net), 15.0);
}

TEST(Placement, SizeDieScalesWithUtilization) {
  const Design d = tiny_design();
  const geom::Rect a = size_die(d, 0.5);
  const geom::Rect b = size_die(d, 0.1);
  EXPECT_GT(b.area(), a.area());
  EXPECT_NEAR(a.area() * 5.0, b.area(), 1e-6);
  EXPECT_DOUBLE_EQ(a.width(), a.height());  // square die
}

}  // namespace
}  // namespace rotclk::netlist
