// alloc_audit_test.cpp — steady-state heap discipline of the wide lane
// engine.
//
// The batched backend's throughput story depends on the per-worker
// arena (src/simd/lane_kernels.hpp): after a warm-up group has sized the
// thread-local buffers, running more trials must allocate NOTHING —
// every lane group reuses the same mask matrix, RNG array, scorer and
// netlist scratch. This binary replaces the global operator new/delete
// pair with a counting shim and asserts that two engine runs differing
// ONLY in trial count perform exactly the same number of heap
// allocations; any per-trial or per-group allocation would make the
// longer run allocate more. It lives in its own test binary
// (test_audit) so the counting allocator cannot perturb any other
// suite.
//
// threads is pinned to 1: the audit targets the trial path, not the
// thread pool's one-off queue setup.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <tuple>

#include "alu/alu_factory.hpp"
#include "cell/processor_cell.hpp"
#include "obs/metrics.hpp"
#include "serve/service.hpp"
#include "serve/wire.hpp"
#include "sim/trial_engine.hpp"
#include "workload/instruction_stream.hpp"

// GCC pattern-matches std::free against the replaced operator new and
// reports a mismatched pair; the pairing is correct by construction in
// this file (every replaced new allocates with malloc/aligned_alloc).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t n) { return ::operator new(n); }

void* operator new(std::size_t n, std::align_val_t al) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  const std::size_t padded = (n + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, padded != 0 ? padded : a)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace nbx {
namespace {

std::uint64_t allocations_during_sweep(const IAlu& alu,
                                       const std::vector<std::vector<Instruction>>& streams,
                                       unsigned lanes, int trials) {
  ParallelConfig par;
  par.threads = 1;  // serial execute: no pool setup in the window
  par.batch_lanes = lanes;
  SweepSpec spec;
  spec.percents = {2.0};
  spec.trials_per_workload = trials;
  spec.seed = 20260808;
  const TrialEngine engine(par);
  const std::uint64_t before =
      g_allocations.load(std::memory_order_relaxed);
  const std::vector<DataPoint> points = engine.sweep(alu, streams, spec);
  const std::uint64_t after =
      g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].samples, static_cast<std::size_t>(trials) * 2);
  return after - before;
}

void expect_zero_per_trial_allocations(const std::string& alu_name,
                                       unsigned lanes) {
  const auto alu = make_alu(alu_name);
  const auto streams = paper_streams(2026);
  // Warm-up: sizes the thread-local arena (mask matrix, RNG array,
  // scorer, netlist scratch) and any lazy per-ALU statics. Uses the
  // larger trial count so nothing needs to grow during measurement.
  (void)allocations_during_sweep(*alu, streams, lanes, 96);
  // Two measured runs differ only in trial count — 96 trials spans two
  // lane groups per workload at 64 lanes, so both per-trial AND
  // per-group allocations would break the equality.
  const std::uint64_t short_run =
      allocations_during_sweep(*alu, streams, lanes, 32);
  const std::uint64_t long_run =
      allocations_during_sweep(*alu, streams, lanes, 96);
  EXPECT_EQ(short_run, long_run)
      << alu_name << " lanes=" << lanes << ": the 96-trial run allocated "
      << long_run << " times vs " << short_run
      << " for 32 trials — some allocation scales with trials";
}

TEST(AllocAudit, WideEngineSteadyStateAllocatesNothingAt64Lanes) {
  expect_zero_per_trial_allocations("aluss", 64);
}

TEST(AllocAudit, WideEngineSteadyStateAllocatesNothingAt512Lanes) {
  expect_zero_per_trial_allocations("aluss", 512);
}

// The Hsiao and Reed-Solomon codings decode word-parallel like TMR and
// Hamming. A per-lane scalar decode creeping back (CodedLut's decoder
// allocates its faulted data and check strings on every read) would
// allocate per faulted read, hence per trial, and fail here.
class AllocAuditCoding
    : public ::testing::TestWithParam<std::tuple<std::string, unsigned>> {};

std::string audit_case_name(
    const ::testing::TestParamInfo<AllocAuditCoding::ParamType>& info) {
  return std::get<0>(info.param) + "_" +
         std::to_string(std::get<1>(info.param)) + "lanes";
}

TEST_P(AllocAuditCoding, WideEngineSteadyStateAllocatesNothing) {
  expect_zero_per_trial_allocations(std::get<0>(GetParam()),
                                    std::get<1>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    HsiaoAndRs, AllocAuditCoding,
    ::testing::Combine(::testing::Values(std::string("alushsiao"),
                                         std::string("alusrs"),
                                         std::string("alunhsiao"),
                                         std::string("alunrs")),
                       ::testing::Values(64u, 512u)),
    audit_case_name);

// The hw ALUs' gate-level LUT read paths run as lane-sliced netlists in
// the arena's node scratch. A per-lane scalar read creeping back
// (Netlist::evaluate returns a fresh node vector per read) would
// allocate per read, hence per trial, and fail here.
INSTANTIATE_TEST_SUITE_P(
    GateLevel, AllocAuditCoding,
    ::testing::Combine(::testing::Values(std::string("alunhw"),
                                         std::string("alushw"),
                                         std::string("aluthw")),
                       ::testing::Values(64u, 512u)),
    audit_case_name);

// The scalar engine, the oracle every wide row is checked against and
// nbxd's cold path (lanes = 0): the Hamming, Hsiao and Reed-Solomon
// readers decode a faulted read in thread-local working strings and
// fold its syndrome into an integer, so at 2%, where most reads are
// faulted, a trial allocates nothing.
class AllocAuditScalar : public ::testing::TestWithParam<std::string> {};

TEST_P(AllocAuditScalar, ScalarEngineSteadyStateAllocatesNothing) {
  expect_zero_per_trial_allocations(GetParam(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    CodedLuts, AllocAuditScalar,
    ::testing::Values(std::string("alush"), std::string("alushsiao"),
                      std::string("alusrs")),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

TEST(AllocAudit, MetricsHotPathAllocatesNothing) {
  // The sharded metric primitives must be pure arithmetic after the
  // handle is resolved: registration may allocate, add()/observe() must
  // not — they run inside every trial when a registry is attached.
  obs::MetricsRegistry reg;
  obs::MetricCounter& c = reg.counter("audit_total", {{"backend", "x"}});
  obs::MetricGauge& g = reg.gauge("audit_gauge");
  obs::MetricHistogram& h = reg.histogram("audit_hist");
  c.add(1);  // fault in this thread's shard slot
  const std::uint64_t before =
      g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 10000; ++i) {
    c.increment();
    g.add(1.0);
    h.observe(static_cast<double>(i));
  }
  (void)c.value();
  const std::uint64_t after =
      g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "metric updates allocated " << (after - before) << " times";
}

TEST(AllocAudit, AttachedRegistrySteadyStateAllocationIsTrialInvariant) {
  // With a registry attached, the engine resolves its handles per run
  // (a constant number of registrations) but the per-trial path must
  // stay allocation-free — the same invariant as the detached audit
  // above, now with instrumentation live.
  const auto alu = make_alu("aluss");
  const auto streams = paper_streams(2026);
  obs::MetricsRegistry reg;
  const obs::ScopedMetricsRegistry attach(&reg);
  (void)allocations_during_sweep(*alu, streams, 64, 96);  // warm-up
  const std::uint64_t short_run =
      allocations_during_sweep(*alu, streams, 64, 32);
  const std::uint64_t long_run =
      allocations_during_sweep(*alu, streams, 64, 96);
  EXPECT_EQ(short_run, long_run)
      << "attached-registry runs allocated " << long_run << " vs "
      << short_run << " — some metric allocation scales with trials";
}

// Drives one full shift-in / compute / shift-out round: the instruction
// packet arrives flit-by-flit on the top bus, the cell scans its memory
// and computes the stored word, then emits the result packet, which the
// harness drains from every port. Exactly the grid's per-cell cadence.
void drive_cell_round(ProcessorCell& cell,
                      const std::array<std::uint8_t, kPacketFlits>& flits) {
  cell.set_mode(CellMode::kShiftIn);
  for (std::uint8_t f : flits) {
    cell.receive_flit(Port::kTop, f);
    cell.step();
  }
  cell.set_mode(CellMode::kCompute);
  for (int i = 0; i < 40; ++i) {
    cell.step();
  }
  cell.set_mode(CellMode::kShiftOut);
  for (int i = 0; i < 24; ++i) {
    cell.step();
    for (std::size_t p = 0; p < kPortCount; ++p) {
      while (cell.pop_output(static_cast<Port>(p)).has_value()) {
      }
    }
  }
}

TEST(AllocAudit, CellStepSteadyStateAllocatesNothing) {
  // The cycle-level cell model must be heap-silent once warm: flits move
  // through fixed FlitRings, packets encode via encode_packet_flits, the
  // assembler buffer and every fault-mask scratch are sized on first
  // use. Warm-up runs two full rounds (first sizes the buffers, second
  // proves the sizing is stable), then an identical third round must
  // allocate exactly zero times.
  CellConfig cfg;
  cfg.alu_fault_percent = 2.0;  // mask generation live in the window
  ProcessorCell cell(CellId{0, 0}, cfg);
  Packet p;
  p.kind = PacketKind::kInstruction;
  p.dest = CellId{0, 0};
  p.instr_id = 7;
  p.op = Opcode::kXor;
  p.operand1 = 0x5A;
  p.operand2 = 0xF0;
  const auto flits = encode_packet_flits(p);
  drive_cell_round(cell, flits);
  drive_cell_round(cell, flits);
  const std::uint64_t before =
      g_allocations.load(std::memory_order_relaxed);
  drive_cell_round(cell, flits);
  const std::uint64_t after =
      g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "a warm shift-in/compute/shift-out round allocated "
      << (after - before) << " times";
  // The measured round did real work: stored, computed and emitted.
  EXPECT_EQ(cell.stats().results_emitted, 3u);
  EXPECT_EQ(cell.stats().instructions_computed, 3u);
}

TEST(AllocAudit, PipelinedCellCycleLoopAllocatesNothing) {
  // The 4-deep program pipeline's clock is the same story: store fabric,
  // per-stage mask scratch and the retired-op vector are all sized by
  // load() plus one warm run; reset() re-arms without freeing, and the
  // re-seeded second run is bit-identical to the first, so its retired
  // list fits the warmed capacity exactly.
  PipelineConfig cfg;
  cfg.fetch.fault_percent = 1.0;
  cfg.decode.fault_percent = 0.5;
  cfg.execute.fault_percent = 2.0;
  cfg.writeback.fault_percent = 0.5;
  CellPipeline pipe(cfg, CellId{1, 2});
  Rng rng(20260808);
  const std::vector<Instruction> program = random_stream(48, rng);
  ASSERT_TRUE(pipe.load(program));
  const auto spin = [&pipe] {
    pipe.reset();
    while (pipe.cycle()) {
    }
  };
  spin();  // warm-up
  const std::uint64_t before =
      g_allocations.load(std::memory_order_relaxed);
  spin();
  const std::uint64_t after =
      g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "a warm pipeline run allocated " << (after - before) << " times";
  EXPECT_FALSE(pipe.retired().empty());
  EXPECT_GT(pipe.counters().cycles, program.size());
}

TEST(AllocAudit, ServeCacheHitPathAllocatesNothing) {
  // The nbxd steady state is "many designers, few distinct specs":
  // almost every request is a cache hit, so the hit path is the
  // service's hot loop. After the first request has computed and cached
  // the rendered response (and one hit has faulted in any lazy statics),
  // serving the same spec again must be pure lookup-and-append — zero
  // heap allocations per request, with the response buffer's capacity
  // amortized by the caller exactly as a connection loop would.
  serve::ServiceConfig cfg;
  cfg.workers = 1;
  serve::SweepService service(cfg);
  serve::SweepRequest req;
  req.alu = "aluss";
  req.spec.percents = {2.0};
  req.spec.trials_per_workload = 2;
  req.spec.seed = 20260808;

  std::string out;
  ASSERT_EQ(service.serve(req, out), serve::SweepService::Status::kOk);
  const std::string expected = out;
  out.clear();
  ASSERT_EQ(service.serve(req, out), serve::SweepService::Status::kOk);
  ASSERT_EQ(out, expected);

  const std::uint64_t before =
      g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    out.clear();  // keeps capacity: the realistic reuse pattern
    service.serve(req, out);
  }
  const std::uint64_t after =
      g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "1000 cache-hit requests allocated " << (after - before)
      << " times — the hit path is not allocation-free";
  EXPECT_EQ(out, expected);
  EXPECT_GE(service.stats().hits, 1001u);
  EXPECT_EQ(service.stats().jobs_computed, 1u);
}

TEST(AllocAudit, CountingAllocatorIsLive) {
  // Meta-check: the audit is vacuous if the replacement operator new is
  // not actually the one being linked.
  const std::uint64_t before =
      g_allocations.load(std::memory_order_relaxed);
  auto* p = new std::vector<int>(1000);
  delete p;
  EXPECT_GT(g_allocations.load(std::memory_order_relaxed), before);
}

}  // namespace
}  // namespace nbx
