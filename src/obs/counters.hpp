// counters.hpp — the fault-anatomy counter set.
//
// One `Counters` object tallies, for a batch of simulated instructions,
// what happened to every injected fault at every layer of the stack:
//
//   injection    — how many masks were generated, how many bits flipped.
//   code[layer]  — per coded-storage read: did the code see a clean
//                  word, genuinely correct the damage, miscorrect it,
//                  detect-without-repair, fire a false-positive
//                  "correction" on an undamaged bit, or miss the damage
//                  entirely (undetected)?
//   module_level — module-redundancy events: majority votes taken,
//                  replica copies outvoted, voter-self-fault escapes
//                  (voted output differs from the clean majority of its
//                  inputs), time-redundancy storage faults.
//   end_to_end   — per instruction: clean-correct, silently corrupted,
//                  caught (wrong but flagged), or false-alarmed.
//
// Contracts the sweep engine relies on:
//   * Counters hold only unsigned integers and merge with operator+=.
//     Integer addition is associative and commutative, so any per-
//     thread / per-lane accumulation schedule folds to bit-identical
//     totals — determinism across threads and batch_lanes comes free.
//   * Accounting never draws from the trial RNG and never perturbs the
//     simulation; attaching a sink cannot move a pinned golden.
//   * A null sink pointer is the off switch: every hook is guarded by
//     one pointer test, so the cost when detached is unmeasurable.
//
// Classification is defined against the *golden* (fault-free) content,
// which the simulator always has on hand — "corrected" means the read
// returned the golden value despite damage, not merely that the decoder
// claimed success. See docs/OBSERVABILITY.md for the full semantics.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

namespace nbx::obs {

/// Which ECC/redundancy scheme a coded read went through.
enum class CodeLayer : std::uint8_t {
  kHamming = 0,  // naive + ideal Hamming(12,8) LUT protection
  kHsiao,        // Hsiao SEC-DED(13,8)
  kRs,           // Reed-Solomon over GF(16)
  kTmr,          // bit-level LUT triplication
  kParity,       // even-parity detect-only words
};

inline constexpr std::size_t kCodeLayerCount = 5;

inline constexpr std::array<CodeLayer, kCodeLayerCount> kAllCodeLayers = {
    CodeLayer::kHamming, CodeLayer::kHsiao, CodeLayer::kRs, CodeLayer::kTmr,
    CodeLayer::kParity};

/// Stable lower-case name ("hamming", "hsiao", ...) used as JSON keys.
std::string_view code_layer_name(CodeLayer layer);

/// What one coded read did with the fault mask it saw. Every read lands
/// in exactly one outcome bucket, so the buckets sum to `reads`.
struct CodeLayerCounters {
  std::uint64_t reads = 0;    // coded reads observed (sum of the below)
  std::uint64_t clean = 0;    // no mask bit touched the read's sites
  std::uint64_t corrected = 0;              // repaired back to golden
  std::uint64_t miscorrected = 0;           // "corrected" to a wrong value
  std::uint64_t detected_uncorrectable = 0;  // flagged, not repaired
  std::uint64_t false_positive = 0;  // undamaged bit toggled by decoder
  std::uint64_t undetected = 0;      // damage on sites, syndrome silent

  CodeLayerCounters& operator+=(const CodeLayerCounters& o) {
    reads += o.reads;
    clean += o.clean;
    corrected += o.corrected;
    miscorrected += o.miscorrected;
    detected_uncorrectable += o.detected_uncorrectable;
    false_positive += o.false_positive;
    undetected += o.undetected;
    return *this;
  }
  friend bool operator==(const CodeLayerCounters&,
                         const CodeLayerCounters&) = default;
};

/// Module-redundancy (voting / time-redundancy) events.
struct ModuleLayerCounters {
  std::uint64_t votes = 0;            // majority votes performed
  std::uint64_t copies_outvoted = 0;  // replica inputs that lost a vote
  std::uint64_t voter_self_faults = 0;  // voted output != clean majority
  std::uint64_t storage_faults = 0;   // time-redundancy storage bits hit

  ModuleLayerCounters& operator+=(const ModuleLayerCounters& o) {
    votes += o.votes;
    copies_outvoted += o.copies_outvoted;
    voter_self_faults += o.voter_self_faults;
    storage_faults += o.storage_faults;
    return *this;
  }
  friend bool operator==(const ModuleLayerCounters&,
                         const ModuleLayerCounters&) = default;
};

/// Fault-injection volume, as produced by MaskGenerator.
struct InjectionCounters {
  std::uint64_t masks_generated = 0;  // one per simulated instruction
  std::uint64_t faults_injected = 0;  // total mask bits set

  InjectionCounters& operator+=(const InjectionCounters& o) {
    masks_generated += o.masks_generated;
    faults_injected += o.faults_injected;
    return *this;
  }
  friend bool operator==(const InjectionCounters&,
                         const InjectionCounters&) = default;
};

/// Per-instruction outcome after every layer has had its say. An
/// instruction is *flagged* when the ALU reports a voter disagreement
/// or an invalid result. The four buckets sum to `instructions`.
struct EndToEndCounters {
  std::uint64_t instructions = 0;
  std::uint64_t correct = 0;             // right answer, no flag
  std::uint64_t silent_corruptions = 0;  // wrong answer, no flag
  std::uint64_t caught_errors = 0;       // wrong answer, flagged
  std::uint64_t false_alarms = 0;        // right answer, flagged

  EndToEndCounters& operator+=(const EndToEndCounters& o) {
    instructions += o.instructions;
    correct += o.correct;
    silent_corruptions += o.silent_corruptions;
    caught_errors += o.caught_errors;
    false_alarms += o.false_alarms;
    return *this;
  }
  friend bool operator==(const EndToEndCounters&,
                         const EndToEndCounters&) = default;
};

/// FaultScenario attribution (fault/scenario.hpp): how much of the
/// injected volume came from the correlated/aging overlays rather than
/// the paper's i.i.d. model. Accounted by the sweep backends from the
/// trial coordinates alone (pure arithmetic, no RNG), so scalar and wide
/// totals are bit-identical by construction.
struct ScenarioCounters {
  std::uint64_t scheduled_trials = 0;  // trials under a non-identity
                                       // rate schedule
  std::uint64_t wear_adjusted_trials = 0;  // trials whose effective rate
                                           // differed from the base rate
  std::uint64_t burst_strikes = 0;  // correlated strikes delivered

  ScenarioCounters& operator+=(const ScenarioCounters& o) {
    scheduled_trials += o.scheduled_trials;
    wear_adjusted_trials += o.wear_adjusted_trials;
    burst_strikes += o.burst_strikes;
    return *this;
  }
  friend bool operator==(const ScenarioCounters&,
                         const ScenarioCounters&) = default;
};

/// The full anatomy for one accumulation scope (a trial, a lane group,
/// a data point, a whole sweep — merge scopes with +=).
struct Counters {
  InjectionCounters injection;
  std::array<CodeLayerCounters, kCodeLayerCount> code;
  ModuleLayerCounters module_level;
  EndToEndCounters end_to_end;
  ScenarioCounters scenario;

  CodeLayerCounters& at(CodeLayer layer) {
    return code[static_cast<std::size_t>(layer)];
  }
  const CodeLayerCounters& at(CodeLayer layer) const {
    return code[static_cast<std::size_t>(layer)];
  }

  Counters& operator+=(const Counters& o) {
    injection += o.injection;
    for (std::size_t i = 0; i < kCodeLayerCount; ++i) code[i] += o.code[i];
    module_level += o.module_level;
    end_to_end += o.end_to_end;
    scenario += o.scenario;
    return *this;
  }
  friend bool operator==(const Counters&, const Counters&) = default;

  void reset() { *this = Counters{}; }
};

/// Writes one Counters as a single-line JSON object (no newline):
/// {"injection":{...},"code":{"hamming":{...},...},"module":{...},
///  "e2e":{...},"scenario":{...}}. Suitable both for embedding in a
/// larger document and as one JSONL record.
void write_counters_json(std::ostream& os, const Counters& c);

/// Convenience: write_counters_json into a string.
std::string counters_json(const Counters& c);

// ----------------------------------------------------------------------
// Pipelined-cell anatomy (src/cell/pipeline). A separate top-level
// counter set rather than a Counters member: the ALU-sweep anatomy JSON
// and its differential tests are pinned, and pipeline events only exist
// where a cell runs a program.

/// Stage index space of the cell pipeline, in program order
/// (fetch=0, decode=1, execute=2, writeback=3 — cell/pipeline/
/// pipeline_config.hpp owns the enum; obs stays cell-agnostic).
inline constexpr std::size_t kPipelineStageCount = 4;

/// Stable stage name for index `i` ("fetch", "decode", "execute",
/// "writeback"), the pipeline metrics' `stage` label.
std::string_view pipeline_stage_label(std::size_t i);

/// Per-stage tallies.
struct PipelineStageCounters {
  std::uint64_t ops = 0;         // instructions that used the stage
  std::uint64_t bit_faults = 0;  // injected flips seen at the stage
                                 // (transient + defect-forced)

  PipelineStageCounters& operator+=(const PipelineStageCounters& o) {
    ops += o.ops;
    bit_faults += o.bit_faults;
    return *this;
  }
  friend bool operator==(const PipelineStageCounters&,
                         const PipelineStageCounters&) = default;
};

/// Anatomy of one pipelined program run (merge runs with +=).
struct PipelineCounters {
  std::uint64_t cycles = 0;
  std::uint64_t retired = 0;   // instructions that committed a result
  std::uint64_t stalls = 0;    // decode held for a RAW hazard
  std::uint64_t bubbles = 0;   // empty execute slots
  std::uint64_t forwards = 0;  // EX/WB value forwarded to decode
  std::uint64_t flushes = 0;   // instructions squashed on misdecode
  std::array<PipelineStageCounters, kPipelineStageCount> stage{};

  PipelineStageCounters& at(std::size_t i) { return stage[i]; }
  const PipelineStageCounters& at(std::size_t i) const { return stage[i]; }

  PipelineCounters& operator+=(const PipelineCounters& o) {
    cycles += o.cycles;
    retired += o.retired;
    stalls += o.stalls;
    bubbles += o.bubbles;
    forwards += o.forwards;
    flushes += o.flushes;
    for (std::size_t i = 0; i < kPipelineStageCount; ++i) {
      stage[i] += o.stage[i];
    }
    return *this;
  }
  friend bool operator==(const PipelineCounters&,
                         const PipelineCounters&) = default;

  void reset() { *this = PipelineCounters{}; }
};

}  // namespace nbx::obs
