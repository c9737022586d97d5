// oracles_test.cpp — the differential-oracle registry and replay
// contracts: family names, smoke depth, deterministic case seeds, and
// hand-written cases through each family's decoder. The generated smoke
// cases of every family run once per tier-1 pass, in the check_smoke
// ctest entry (the nbxcheck CLI at its default seed and depths).
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "check/oracles.hpp"
#include "check/property.hpp"
#include "check/repro.hpp"

namespace nbx::check {
namespace {

TEST(OracleSmoke, SmokeDepthCoversAtLeastTwoHundredCases) {
  // The tier-1 budget promised in docs/TESTING.md: the families'
  // default depths sum to >= 200 generated cases.
  std::size_t total = 0;
  for (const Property& p : oracle_properties()) {
    total += default_smoke_cases(p.name());
  }
  EXPECT_GE(total, 200u);
}

TEST(OracleRegistry, NamesResolveAndAreUnique) {
  std::vector<std::string> names;
  for (const Property& p : oracle_properties()) {
    names.push_back(p.name());
    EXPECT_TRUE(oracle_property_by_name(p.name()).has_value()) << p.name();
  }
  EXPECT_EQ(names.size(), 5u);
  for (std::size_t i = 0; i < names.size(); ++i) {
    for (std::size_t j = i + 1; j < names.size(); ++j) {
      EXPECT_NE(names[i], names[j]);
    }
  }
  EXPECT_FALSE(oracle_property_by_name("no-such-family").has_value());

  // The families backend-differential absorbed resolve to it, so their
  // repro files replay.
  for (const char* absorbed : {"engine-differential", "simd-differential",
                               "scenario-differential"}) {
    const std::optional<Property> p = oracle_property_by_name(absorbed);
    ASSERT_TRUE(p.has_value()) << absorbed;
    EXPECT_EQ(p->name(), "backend-differential") << absorbed;
  }
}

TEST(OracleReplay, KnownGoodCasesReplayAsPasses) {
  // Hand-written cases covering each family's decoder; replay must load
  // them (schema round-trip) and report no failure (the code is
  // healthy).
  const struct {
    const char* property;
    const char* case_json;
  } cases[] = {
      {"decode-t-error",
       R"({"family": "decode-t-error", "code": "hamming",)"
       R"( "data_bits": 8, "data": "10110100", "flips": [3]})"},
      {"decode-t-error",
       R"({"family": "decode-t-error", "code": "hsiao",)"
       R"( "data_bits": 8, "data": "10110100", "flips": [2, 9]})"},
      {"decode-t-error",
       R"({"family": "decode-t-error", "code": "rs",)"
       R"( "data_bits": 8, "data": "10110100", "flips": [4, 5, 6, 7]})"},
      {"decode-t-error",
       R"({"family": "decode-t-error", "code": "tmr",)"
       R"( "data_bits": 4, "data": "1010", "flips": [0, 5, 10]})"},
      {"alu-vs-cmos",
       R"({"family": "alu-vs-cmos", "alu": "aluss",)"
       R"( "instrs": [["ADD", 200, 100], ["XOR", 15, 240]]})"},
      {"backend-differential",
       R"({"family": "backend-differential", "alu": "alutn",)"
       R"( "percents": [0.5, 5], "trials": 6, "seed": 5, "policy": "burst",)"
       R"( "burst_length": 2, "burst_rows": 2, "burst_row_stride": 8,)"
       R"( "scope": "datapath", "datapath_sites": 900,)"
       R"( "schedule": "weibull", "end_factor": 5000, "shape": 2,)"
       R"( "lanes": 96, "threads": 3})"},
      // Cases of the three families backend-differential absorbed, with
      // their own field sets: each loads into it and passes.
      {"engine-differential",
       R"({"family": "engine-differential", "alu": "alunn",)"
       R"( "percents": [2], "trials": 1, "seed": 7, "policy": "round",)"
       R"( "burst_length": 1, "scope": "all", "datapath_sites": 0,)"
       R"( "lanes": 3, "threads": 2})"},
      {"simd-differential",
       R"({"family": "simd-differential", "alu": "aluss",)"
       R"( "percents": [1, 3], "trials": 66, "seed": 9, "policy": "floor",)"
       R"( "burst_length": 1, "scope": "datapath", "datapath_sites": 2000,)"
       R"( "lanes": 130})"},
      {"scenario-differential",
       R"({"family": "scenario-differential", "alu": "alutsi",)"
       R"( "percents": [2], "trials": 6, "seed": 13, "policy": "burst",)"
       R"( "burst_length": 3, "burst_rows": 2, "burst_row_stride": 16,)"
       R"( "schedule": "linear", "end_factor": 6, "shape": 1,)"
       R"( "lanes": 200, "threads": 4})"},
      {"pipeline-differential",
       R"({"family": "pipeline-differential", "mode": "program",)"
       R"( "alu": "aluns", "length": 12, "seed": 11, "registers": 4,)"
       R"( "forwarding": false, "fetch_percent": 2, "decode_percent": 0,)"
       R"( "execute_percent": 5, "writeback_percent": 0.5})"},
      {"pipeline-differential",
       R"({"family": "pipeline-differential", "mode": "legacy",)"
       R"( "alu": "aluns", "length": 6, "seed": 3, "registers": 8,)"
       R"( "forwarding": true, "fetch_percent": 0, "decode_percent": 0,)"
       R"( "execute_percent": 2, "writeback_percent": 0})"},
  };
  for (const auto& c : cases) {
    const std::optional<Property> p = oracle_property_by_name(c.property);
    ASSERT_TRUE(p.has_value()) << c.property;
    const auto doc = JsonValue::parse(c.case_json);
    ASSERT_TRUE(doc.has_value()) << c.case_json;
    const ReplayOutcome outcome = p->replay(*doc);
    EXPECT_TRUE(outcome.loaded) << c.case_json << ": " << outcome.load_error;
    EXPECT_FALSE(outcome.failure.has_value())
        << c.case_json << ": " << outcome.failure.value_or("");
  }
}

TEST(OracleReplay, InvalidAndMisroutedCasesAreHandled) {
  std::optional<Property> decode = oracle_property_by_name("decode-t-error");
  ASSERT_TRUE(decode.has_value());

  // A case tagged for another family does not load here.
  const auto misrouted = JsonValue::parse(
      R"({"family": "alu-vs-cmos", "alu": "aluss", "instrs": []})");
  EXPECT_FALSE(decode->replay(*misrouted).loaded);

  // A structurally valid but precondition-violating case loads and
  // fails with an "invalid case" diagnosis rather than crashing.
  const auto overloaded = JsonValue::parse(
      R"({"family": "decode-t-error", "code": "hamming",)"
      R"( "data_bits": 4, "data": "1011", "flips": [0, 1]})");
  const ReplayOutcome outcome = decode->replay(*overloaded);
  ASSERT_TRUE(outcome.loaded);
  ASSERT_TRUE(outcome.failure.has_value());
  EXPECT_NE(outcome.failure->find("invalid case"), std::string::npos);

  // backend-differential defaults the fields an absorbed family's schema
  // lacked, but a present field of the wrong kind, or a missing field
  // every schema carried, still does not decode.
  std::optional<Property> backend =
      oracle_property_by_name("backend-differential");
  ASSERT_TRUE(backend.has_value());
  for (const char* doc : {
           R"({"family": "simd-differential", "alu": "aluss",)"
           R"( "percents": [1], "trials": "66", "seed": 9,)"
           R"( "policy": "floor", "burst_length": 1, "lanes": 130})",
           R"({"family": "engine-differential", "alu": "alunn",)"
           R"( "percents": [2], "trials": 1, "seed": 7, "policy": "round",)"
           R"( "burst_length": 1, "lanes": 3, "threads": [2]})",
           R"({"family": "scenario-differential", "alu": "alunn",)"
           R"( "percents": [2], "trials": 1, "seed": 7, "policy": "round",)"
           R"( "burst_length": 1, "lanes": 3, "end_factor": "6"})",
           R"({"family": "backend-differential", "alu": "alunn",)"
           R"( "percents": ["2"], "trials": 1, "seed": 7,)"
           R"( "policy": "round", "burst_length": 1, "lanes": 3})",
           R"({"family": "backend-differential", "alu": "alunn",)"
           R"( "percents": [2], "trials": 1, "seed": 7,)"
           R"( "policy": "round", "burst_length": 1})",
       }) {
    const auto parsed = JsonValue::parse(doc);
    ASSERT_TRUE(parsed.has_value()) << doc;
    const ReplayOutcome wrong = backend->replay(*parsed);
    EXPECT_FALSE(wrong.loaded) << doc;
    EXPECT_NE(wrong.load_error.find("does not decode"), std::string::npos)
        << doc;
  }
}

TEST(OracleReplay, RsFlipsSpanningSymbolsAreInvalid) {
  std::optional<Property> decode = oracle_property_by_name("decode-t-error");
  ASSERT_TRUE(decode.has_value());
  const auto spanning = JsonValue::parse(
      R"({"family": "decode-t-error", "code": "rs",)"
      R"( "data_bits": 8, "data": "10110100", "flips": [3, 4]})");
  const ReplayOutcome outcome = decode->replay(*spanning);
  ASSERT_TRUE(outcome.loaded);
  ASSERT_TRUE(outcome.failure.has_value());
  EXPECT_NE(outcome.failure->find("invalid case"), std::string::npos);
}

TEST(OracleRegistry, CaseSeedsAreDeterministicAndDistinct) {
  // The replay contract rests on case_seed being a pure function of
  // (run seed, family name, index) — and different per family, so one
  // run seed never reuses a case stream across families.
  const std::vector<Property> properties = oracle_properties();
  for (const Property& p : properties) {
    EXPECT_EQ(p.case_seed(2026, 5), p.case_seed(2026, 5));
    EXPECT_NE(p.case_seed(2026, 5), p.case_seed(2026, 6));
    EXPECT_NE(p.case_seed(2026, 5), p.case_seed(2027, 5));
  }
  EXPECT_NE(properties[0].case_seed(2026, 0),
            properties[1].case_seed(2026, 0));
  EXPECT_NE(properties[1].case_seed(2026, 0),
            properties[2].case_seed(2026, 0));
}

}  // namespace
}  // namespace nbx::check
