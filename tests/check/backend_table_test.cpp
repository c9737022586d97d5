// backend_table_test.cpp — the pinned backend-differential table.
//
// The reliability curves are Monte Carlo averages, so every number this
// repo reports rests on one contract: every execution backend — any
// thread count, any lane count from 1 to 512, every SIMD tier the CPU
// runs, the anatomy sink on or off — reproduces the scalar serial
// engine bit for bit. The backend-differential family's runner checks
// that whole contract for one case document (check/oracles.hpp). This
// file is a table of such documents, in the format the family writes
// into check/repro/ files, each replayed as its own gtest instance:
// ctest spreads the rows over cores, and a failure names its row.
//
// Rows that differ only by ALU and lane count are generated from the ALU
// catalogue, so a newly catalogued ALU is covered without editing this
// file. Every other row is a literal document, brittle on purpose: a row
// that stops loading means the case format changed, and committed repro
// files no longer replay either. docs/TESTING.md says how to add a row.
#include <gtest/gtest.h>

#include <iterator>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "alu/alu_factory.hpp"
#include "check/json_value.hpp"
#include "check/oracles.hpp"
#include "check/property.hpp"

namespace nbx::check {
namespace {

struct Row {
  std::string name;  ///< gtest instance name: [A-Za-z0-9_]+, unique
  std::string doc;   ///< one backend-differential case document
};

// The ctest entry's name carries this after "# GetParam() =".
void PrintTo(const Row& row, std::ostream* os) { *os << row.name; }

// Templates for the generated rows: "{alu}" and "{lanes}" are filled in
// per catalogue entry and lane count.

// Every catalogued ALU — every decode path and module organisation — at
// every lane-word width W = 1, 2, 4, 8 (a ragged two-word group at 96),
// at 2% and at a dense 25% that puts several flips into most LUT
// segments. 2 trials per workload keep every live lane in lane word 0.
constexpr std::string_view kEveryAlu =
    R"({"family": "backend-differential", "alu": "{alu}",)"
    R"( "percents": [2, 25], "trials": 2, "seed": 20260808,)"
    R"( "policy": "round", "burst_length": 1, "burst_rows": 1,)"
    R"( "burst_row_stride": 0, "scope": "all", "datapath_sites": 0,)"
    R"( "schedule": "constant", "end_factor": 1, "shape": 1,)"
    R"( "lanes": {lanes}, "threads": 2})";
constexpr unsigned kEveryAluLanes[] = {64, 96, 256, 512};

// The paper's twelve Table-2 ALUs at the paper's rates on 8 threads. 7
// trials packed three ways: one trial per group (1 lane), exactly full
// groups (7), and one partial group (64).
constexpr std::string_view kTableTwo =
    R"({"family": "backend-differential", "alu": "{alu}",)"
    R"( "percents": [0.5, 2, 10], "trials": 7, "seed": 20260805,)"
    R"( "policy": "round", "burst_length": 1, "burst_rows": 1,)"
    R"( "burst_row_stride": 0, "scope": "all", "datapath_sites": 0,)"
    R"( "schedule": "constant", "end_factor": 1, "shape": 1,)"
    R"( "lanes": {lanes}, "threads": 8})";
constexpr unsigned kTableTwoLanes[] = {1, 7, 64};

// The literal rows.
const Row kLiteralRows[] = {
    // 130 trials fill lane words 0-2 of a 256- and a 512-lane group, and
    // at 2% each word's carries, copy results and syndromes diverge on
    // their own: a kernel that judged a mux selector row uniform from one
    // lane word, or skipped decoding a leaf another word's lanes address,
    // fails here. TMR, naive Hamming, Hsiao and Reed-Solomon LUT cores.
    {"CrossWord_aluss_256lanes",
     R"({"family": "backend-differential", "alu": "aluss",)"
     R"( "percents": [2], "trials": 130, "seed": 20261017,)"
     R"( "policy": "round", "burst_length": 1, "burst_rows": 1,)"
     R"( "burst_row_stride": 0, "scope": "all", "datapath_sites": 0,)"
     R"( "schedule": "constant", "end_factor": 1, "shape": 1,)"
     R"( "lanes": 256, "threads": 4})"},
    {"CrossWord_aluss_512lanes",
     R"({"family": "backend-differential", "alu": "aluss",)"
     R"( "percents": [2], "trials": 130, "seed": 20261017,)"
     R"( "policy": "round", "burst_length": 1, "burst_rows": 1,)"
     R"( "burst_row_stride": 0, "scope": "all", "datapath_sites": 0,)"
     R"( "schedule": "constant", "end_factor": 1, "shape": 1,)"
     R"( "lanes": 512, "threads": 4})"},
    {"CrossWord_alush_256lanes",
     R"({"family": "backend-differential", "alu": "alush",)"
     R"( "percents": [2], "trials": 130, "seed": 20261017,)"
     R"( "policy": "round", "burst_length": 1, "burst_rows": 1,)"
     R"( "burst_row_stride": 0, "scope": "all", "datapath_sites": 0,)"
     R"( "schedule": "constant", "end_factor": 1, "shape": 1,)"
     R"( "lanes": 256, "threads": 4})"},
    {"CrossWord_alush_512lanes",
     R"({"family": "backend-differential", "alu": "alush",)"
     R"( "percents": [2], "trials": 130, "seed": 20261017,)"
     R"( "policy": "round", "burst_length": 1, "burst_rows": 1,)"
     R"( "burst_row_stride": 0, "scope": "all", "datapath_sites": 0,)"
     R"( "schedule": "constant", "end_factor": 1, "shape": 1,)"
     R"( "lanes": 512, "threads": 4})"},
    {"CrossWord_alushsiao_256lanes",
     R"({"family": "backend-differential", "alu": "alushsiao",)"
     R"( "percents": [2], "trials": 130, "seed": 20261017,)"
     R"( "policy": "round", "burst_length": 1, "burst_rows": 1,)"
     R"( "burst_row_stride": 0, "scope": "all", "datapath_sites": 0,)"
     R"( "schedule": "constant", "end_factor": 1, "shape": 1,)"
     R"( "lanes": 256, "threads": 4})"},
    {"CrossWord_alushsiao_512lanes",
     R"({"family": "backend-differential", "alu": "alushsiao",)"
     R"( "percents": [2], "trials": 130, "seed": 20261017,)"
     R"( "policy": "round", "burst_length": 1, "burst_rows": 1,)"
     R"( "burst_row_stride": 0, "scope": "all", "datapath_sites": 0,)"
     R"( "schedule": "constant", "end_factor": 1, "shape": 1,)"
     R"( "lanes": 512, "threads": 4})"},
    {"CrossWord_alusrs_256lanes",
     R"({"family": "backend-differential", "alu": "alusrs",)"
     R"( "percents": [2], "trials": 130, "seed": 20261017,)"
     R"( "policy": "round", "burst_length": 1, "burst_rows": 1,)"
     R"( "burst_row_stride": 0, "scope": "all", "datapath_sites": 0,)"
     R"( "schedule": "constant", "end_factor": 1, "shape": 1,)"
     R"( "lanes": 256, "threads": 4})"},
    {"CrossWord_alusrs_512lanes",
     R"({"family": "backend-differential", "alu": "alusrs",)"
     R"( "percents": [2], "trials": 130, "seed": 20261017,)"
     R"( "policy": "round", "burst_length": 1, "burst_rows": 1,)"
     R"( "burst_row_stride": 0, "scope": "all", "datapath_sites": 0,)"
     R"( "schedule": "constant", "end_factor": 1, "shape": 1,)"
     R"( "lanes": 512, "threads": 4})"},

    // A five-point sweep from 0% to 75% must not move with the thread
    // count: no RNG state threads between trials, the fold keeps its
    // order, and no worker races on a shared buffer.
    {"ThreadCount_alunn_2threads",
     R"({"family": "backend-differential", "alu": "alunn",)"
     R"( "percents": [0, 1, 5, 20, 75], "trials": 3, "seed": 99,)"
     R"( "policy": "round", "burst_length": 1, "burst_rows": 1,)"
     R"( "burst_row_stride": 0, "scope": "all", "datapath_sites": 0,)"
     R"( "schedule": "constant", "end_factor": 1, "shape": 1,)"
     R"( "lanes": 64, "threads": 2})"},
    {"ThreadCount_alunn_8threads",
     R"({"family": "backend-differential", "alu": "alunn",)"
     R"( "percents": [0, 1, 5, 20, 75], "trials": 3, "seed": 99,)"
     R"( "policy": "round", "burst_length": 1, "burst_rows": 1,)"
     R"( "burst_row_stride": 0, "scope": "all", "datapath_sites": 0,)"
     R"( "schedule": "constant", "end_factor": 1, "shape": 1,)"
     R"( "lanes": 64, "threads": 8})"},
    {"ThreadCount_aluss_2threads",
     R"({"family": "backend-differential", "alu": "aluss",)"
     R"( "percents": [0, 1, 5, 20, 75], "trials": 3, "seed": 99,)"
     R"( "policy": "round", "burst_length": 1, "burst_rows": 1,)"
     R"( "burst_row_stride": 0, "scope": "all", "datapath_sites": 0,)"
     R"( "schedule": "constant", "end_factor": 1, "shape": 1,)"
     R"( "lanes": 64, "threads": 2})"},
    {"ThreadCount_aluss_8threads",
     R"({"family": "backend-differential", "alu": "aluss",)"
     R"( "percents": [0, 1, 5, 20, 75], "trials": 3, "seed": 99,)"
     R"( "policy": "round", "burst_length": 1, "burst_rows": 1,)"
     R"( "burst_row_stride": 0, "scope": "all", "datapath_sites": 0,)"
     R"( "schedule": "constant", "end_factor": 1, "shape": 1,)"
     R"( "lanes": 64, "threads": 8})"},
    // One data point on more threads than it has trials.
    {"OnePoint_alunh_8threads",
     R"({"family": "backend-differential", "alu": "alunh",)"
     R"( "percents": [3], "trials": 5, "seed": 42,)"
     R"( "policy": "round", "burst_length": 1, "burst_rows": 1,)"
     R"( "burst_row_stride": 0, "scope": "all", "datapath_sites": 0,)"
     R"( "schedule": "constant", "end_factor": 1, "shape": 1,)"
     R"( "lanes": 64, "threads": 8})"},

    // The anatomy counters are integer sums over a fixed trial
    // population: 1, 4 and 8 threads by 1, 7 and 64 lanes (the scalar
    // engine runs at each row's thread count too).
    {"Anatomy_aluss_1thread_1lane",
     R"({"family": "backend-differential", "alu": "aluss",)"
     R"( "percents": [2], "trials": 3, "seed": 2026,)"
     R"( "policy": "round", "burst_length": 1, "burst_rows": 1,)"
     R"( "burst_row_stride": 0, "scope": "all", "datapath_sites": 0,)"
     R"( "schedule": "constant", "end_factor": 1, "shape": 1,)"
     R"( "lanes": 1, "threads": 1})"},
    {"Anatomy_aluss_4threads_7lanes",
     R"({"family": "backend-differential", "alu": "aluss",)"
     R"( "percents": [2], "trials": 3, "seed": 2026,)"
     R"( "policy": "round", "burst_length": 1, "burst_rows": 1,)"
     R"( "burst_row_stride": 0, "scope": "all", "datapath_sites": 0,)"
     R"( "schedule": "constant", "end_factor": 1, "shape": 1,)"
     R"( "lanes": 7, "threads": 4})"},
    {"Anatomy_aluss_8threads_64lanes",
     R"({"family": "backend-differential", "alu": "aluss",)"
     R"( "percents": [2], "trials": 3, "seed": 2026,)"
     R"( "policy": "round", "burst_length": 1, "burst_rows": 1,)"
     R"( "burst_row_stride": 0, "scope": "all", "datapath_sites": 0,)"
     R"( "schedule": "constant", "end_factor": 1, "shape": 1,)"
     R"( "lanes": 64, "threads": 8})"},
    {"Anatomy_alunh_1thread_1lane",
     R"({"family": "backend-differential", "alu": "alunh",)"
     R"( "percents": [2], "trials": 3, "seed": 2026,)"
     R"( "policy": "round", "burst_length": 1, "burst_rows": 1,)"
     R"( "burst_row_stride": 0, "scope": "all", "datapath_sites": 0,)"
     R"( "schedule": "constant", "end_factor": 1, "shape": 1,)"
     R"( "lanes": 1, "threads": 1})"},
    {"Anatomy_alunh_4threads_7lanes",
     R"({"family": "backend-differential", "alu": "alunh",)"
     R"( "percents": [2], "trials": 3, "seed": 2026,)"
     R"( "policy": "round", "burst_length": 1, "burst_rows": 1,)"
     R"( "burst_row_stride": 0, "scope": "all", "datapath_sites": 0,)"
     R"( "schedule": "constant", "end_factor": 1, "shape": 1,)"
     R"( "lanes": 7, "threads": 4})"},
    {"Anatomy_alunh_8threads_64lanes",
     R"({"family": "backend-differential", "alu": "alunh",)"
     R"( "percents": [2], "trials": 3, "seed": 2026,)"
     R"( "policy": "round", "burst_length": 1, "burst_rows": 1,)"
     R"( "burst_row_stride": 0, "scope": "all", "datapath_sites": 0,)"
     R"( "schedule": "constant", "end_factor": 1, "shape": 1,)"
     R"( "lanes": 64, "threads": 8})"},

    // The ablation knobs. Datapath scope: aluts's three TMR-coded core
    // passes (3 x aluns's 1,536 sites) take faults, its voter and
    // storage do not, so the wide engine's generator covers only the
    // leading segment.
    {"DatapathScope_aluts",
     R"({"family": "backend-differential", "alu": "aluts",)"
     R"( "percents": [5], "trials": 7, "seed": 20260805,)"
     R"( "policy": "round", "burst_length": 1, "burst_rows": 1,)"
     R"( "burst_row_stride": 0, "scope": "datapath", "datapath_sites": 4608,)"
     R"( "schedule": "constant", "end_factor": 1, "shape": 1,)"
     R"( "lanes": 64, "threads": 2})"},
    {"BurstPolicy_aluts",
     R"({"family": "backend-differential", "alu": "aluts",)"
     R"( "percents": [5], "trials": 5, "seed": 20260805,)"
     R"( "policy": "burst", "burst_length": 4, "burst_rows": 1,)"
     R"( "burst_row_stride": 0, "scope": "all", "datapath_sites": 0,)"
     R"( "schedule": "constant", "end_factor": 1, "shape": 1,)"
     R"( "lanes": 64, "threads": 2})"},
    {"FloorPolicy_alunh",
     R"({"family": "backend-differential", "alu": "alunh",)"
     R"( "percents": [3], "trials": 7, "seed": 20260805,)"
     R"( "policy": "floor", "burst_length": 1, "burst_rows": 1,)"
     R"( "burst_row_stride": 0, "scope": "all", "datapath_sites": 0,)"
     R"( "schedule": "constant", "end_factor": 1, "shape": 1,)"
     R"( "lanes": 64, "threads": 2})"},
    {"BernoulliPolicy_alunh",
     R"({"family": "backend-differential", "alu": "alunh",)"
     R"( "percents": [3], "trials": 7, "seed": 20260805,)"
     R"( "policy": "bernoulli", "burst_length": 1, "burst_rows": 1,)"
     R"( "burst_row_stride": 0, "scope": "all", "datapath_sites": 0,)"
     R"( "schedule": "constant", "end_factor": 1, "shape": 1,)"
     R"( "lanes": 64, "threads": 2})"},
    {"BurstPolicy_alunh",
     R"({"family": "backend-differential", "alu": "alunh",)"
     R"( "percents": [3], "trials": 7, "seed": 20260805,)"
     R"( "policy": "burst", "burst_length": 4, "burst_rows": 1,)"
     R"( "burst_row_stride": 0, "scope": "all", "datapath_sites": 0,)"
     R"( "schedule": "constant", "end_factor": 1, "shape": 1,)"
     R"( "lanes": 64, "threads": 2})"},
};

void add_generated(std::vector<Row>& rows, std::string_view prefix,
                   std::string_view doc, const std::vector<AluSpec>& specs,
                   const auto& lane_counts) {
  for (const AluSpec& spec : specs) {
    for (const unsigned lanes : lane_counts) {
      const std::string n = std::to_string(lanes);
      std::string filled(doc);
      filled.replace(filled.find("{alu}"), 5, spec.name);
      filled.replace(filled.find("{lanes}"), 7, n);
      rows.push_back({std::string(prefix) + "_" + spec.name + "_" + n +
                          "lanes",
                      std::move(filled)});
    }
  }
}

std::vector<Row> table() {
  std::vector<Row> rows;
  add_generated(rows, "EveryAlu", kEveryAlu, all_specs(), kEveryAluLanes);
  add_generated(rows, "TableTwo", kTableTwo, table2_specs(), kTableTwoLanes);
  rows.insert(rows.end(), std::begin(kLiteralRows), std::end(kLiteralRows));
  return rows;
}

class BackendTable : public ::testing::TestWithParam<Row> {};

TEST_P(BackendTable, MatchesTheScalarSerialEngine) {
  const Row& row = GetParam();
  const std::optional<Property> family =
      oracle_property_by_name("backend-differential");
  ASSERT_TRUE(family.has_value());
  std::string parse_error;
  const std::optional<JsonValue> doc = JsonValue::parse(row.doc, &parse_error);
  ASSERT_TRUE(doc.has_value()) << parse_error << "\n  row: " << row.doc;
  const ReplayOutcome outcome = family->replay(*doc);
  ASSERT_TRUE(outcome.loaded) << outcome.load_error << "\n  row: " << row.doc;
  EXPECT_FALSE(outcome.failure.has_value())
      << outcome.failure.value_or("") << "\n  row: " << row.doc
      << "\n  (save the row as a repro file's \"case\" and run"
         " nbxcheck --replay on it to reproduce)";
}

INSTANTIATE_TEST_SUITE_P(Pinned, BackendTable, ::testing::ValuesIn(table()),
                         [](const ::testing::TestParamInfo<Row>& info) {
                           return info.param.name;
                         });

}  // namespace
}  // namespace nbx::check
