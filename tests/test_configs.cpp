// Tests that the shipped config files in configs/ load into devices that
// match the built-ins — they are generated from the library and must stay
// in sync.
#include <gtest/gtest.h>

#include "arch/builtin.hpp"
#include "arch/config.hpp"
#include "core/compiler.hpp"
#include "workloads/workloads.hpp"

namespace qmap {
namespace {

std::string config_path(const std::string& name) {
  // ctest runs from the build tree; configs live in the source tree.
  return std::string(QMAP_CONFIG_DIR) + "/" + name;
}

struct ConfigCase {
  const char* file;
  Device (*builtin)();
};

// Print the case by its file name: gtest's default dumps the raw bytes of
// the two pointers, which would put load addresses into the test names.
void PrintTo(const ConfigCase& param, std::ostream* os) { *os << param.file; }

Device qdot2x5() { return devices::quantum_dot_array(2, 5); }

class ShippedConfig : public testing::TestWithParam<ConfigCase> {};

TEST_P(ShippedConfig, MatchesBuiltinDevice) {
  const ConfigCase& param = GetParam();
  const Device loaded = load_device(config_path(param.file));
  const Device builtin = param.builtin();
  EXPECT_EQ(loaded.name(), builtin.name());
  EXPECT_EQ(loaded.num_qubits(), builtin.num_qubits());
  EXPECT_EQ(loaded.coupling().num_edges(), builtin.coupling().num_edges());
  for (const auto& edge : builtin.coupling().edges()) {
    EXPECT_TRUE(loaded.coupling().connected(edge.a, edge.b));
    EXPECT_EQ(loaded.coupling().orientation_allowed(edge.a, edge.b),
              builtin.coupling().orientation_allowed(edge.a, edge.b));
  }
  EXPECT_EQ(loaded.native_two_qubit(), builtin.native_two_qubit());
  EXPECT_EQ(loaded.frequency_groups(), builtin.frequency_groups());
  EXPECT_EQ(loaded.feedlines(), builtin.feedlines());
  EXPECT_EQ(loaded.supports_shuttling(), builtin.supports_shuttling());
}

INSTANTIATE_TEST_SUITE_P(
    AllShipped, ShippedConfig,
    testing::Values(ConfigCase{"ibm_qx4.json", devices::ibm_qx4},
                    ConfigCase{"ibm_qx5.json", devices::ibm_qx5},
                    ConfigCase{"surface17.json", devices::surface17},
                    ConfigCase{"surface7.json", devices::surface7},
                    ConfigCase{"qdot2x5.json", qdot2x5}),
    [](const auto& info) {
      std::string name = info.param.file;
      name.resize(name.size() - 5);  // drop ".json"
      return name;
    });

TEST(ShippedConfig, NoisySurface17LoadsAndCompiles) {
  const Device device = load_device(config_path("surface17_noisy.json"));
  ASSERT_TRUE(device.has_noise());
  EXPECT_GT(device.noise().two_qubit_error(1, 5), 0.0);
  CompilerOptions options;
  options.placer = "reliability";
  options.router = "reliability";
  const Compiler compiler(device, options);
  const CompilationResult result = compiler.compile(workloads::ghz(4));
  EXPECT_TRUE(Compiler::verify(result));
}

}  // namespace
}  // namespace qmap
