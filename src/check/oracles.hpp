// oracles.hpp — the differential-oracle property families.
//
// The paper's argument is statistical, so the statistics machinery gets
// the strongest oracle treatment we can afford: rather than pinning a
// handful of hand-picked goldens, five families of *generated* cases
// cross-examine independent implementations of the same contract:
//
//   backend-differential — a generated experiment (ALU, percents,
//       trials, seed, fault policy, scope, wear-out schedule toward
//       base*end_factor, 2-D burst geometry) in a generated execution
//       shape (1..512 lanes, 2..8 threads), checked against ONE
//       scalar-serial anatomy baseline, each contract once: the thread
//       count changes neither points nor counters on the scalar or the
//       wide engine; every compiled-in + CPU-supported SIMD tier, forced
//       one at a time via simd::ScopedTierOverride, reproduces the
//       baseline's points and anatomy counters (hence the tiers are
//       pairwise identical); accounting is passive — a plain sweep gives
//       the same points on the scalar engine and on every tier of the
//       wide engine; a non-default but
//       i.i.d.-degenerate scenario reproduces the default-scenario sweep
//       bitwise; and a case with a schedule or a burst obeys the
//       generator laws directly: schedule anchored at the base rate,
//       monotone to clamp(base*end_factor), in [0, 100]; burst flips
//       inside their declared L×R neighbourhood (anchors replayed from a
//       twin Rng); remap plans injective and never reading a
//       known-defective site when feasible. The names of the three
//       families it absorbed (engine-, simd- and scenario-differential)
//       still resolve here, so their repro files replay.
//
//   pipeline-differential — a generated NBXS program through the
//       pipelined cell. Mode "program": under zero faults the 4-deep
//       CellPipeline must retire every instruction in order with the
//       architectural reference value, flipping forwarding must change
//       timing only (and never make forwarding slower), and a faulted
//       run replayed after reset() must be bit-identical, per-stage
//       counters included. Mode "legacy": the ProcessorCell's
//       shift-in/compute/shift-out machinery must round-trip every
//       instruction packet to a golden_alu result packet under zero
//       faults, and identically-seeded faulted twin cells must emit
//       identical packets.
//
//   alu-vs-cmos — generated (op, a, b) instruction streams under zero
//       faults: every catalogued ALU, the gate-level CMOS reference
//       netlist, and the behavioural golden_alu must all agree, and the
//       module layer must report no disagreement/invalid flags.
//
//   serve-differential — a generated SweepSpec rendered to the nbxd wire
//       format and submitted to a live in-process SweepService (generated
//       worker count and shard granularity) must return bytes identical
//       to the canonical rendering of a direct scalar TrialEngine run
//       (points AND anatomy counters); resubmitting must hit the
//       content-addressed cache — identical bytes, exactly one computed
//       job; and a truncated/bit-flipped/garbage copy of the payload must
//       always yield a structured JSON response (truncation/garbage a
//       status:"error" one), never a crash.
//
//   decode-t-error — generated codewords with generated <= t-error
//       masks: hamming (t=1) and rs (one symbol) must restore the data
//       exactly; hsiao must restore at t=1 and refuse to touch the word
//       on a detected double; TMR LUT reads must return the golden bit
//       whenever at most one copy of each entry is hit.
//
// Failures shrink and serialize through check/property.hpp; replay is
// dispatched by property name (see oracle_property_by_name).
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>
#include <vector>

#include "check/property.hpp"

namespace nbx::check {

Property backend_differential_property();
Property pipeline_differential_property();
Property alu_vs_cmos_property();
Property decode_t_error_property();
Property serve_differential_property();

/// The oracle families, in reporting order.
std::vector<Property> oracle_properties();

/// Looks up one family by its name (replay dispatch). The names of the
/// families backend-differential absorbed resolve to it.
std::optional<Property> oracle_property_by_name(std::string_view name);

/// Per-family case count for the bounded check_smoke run. The totals
/// across oracle_properties() exceed 200 cases, and the whole run fits
/// the 5-second smoke budget (no backend-differential case above 1 s).
std::size_t default_smoke_cases(std::string_view property_name);

}  // namespace nbx::check
