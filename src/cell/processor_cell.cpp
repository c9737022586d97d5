#include "cell/processor_cell.hpp"

#include <cassert>

#include "coding/majority.hpp"

namespace nbx {

Port port_for(RouteDecision d) {
  switch (d) {
    case RouteDecision::kSendLeft:
      return Port::kLeft;
    case RouteDecision::kSendRight:
      return Port::kRight;
    case RouteDecision::kSendUp:
      return Port::kTop;
    case RouteDecision::kSendDown:
      return Port::kBottom;
    case RouteDecision::kKeepHere:
      break;
  }
  assert(false && "kKeepHere has no port");
  return Port::kTop;
}

ProcessorCell::ProcessorCell(CellId id, const CellConfig& config)
    : id_(id), config_(config), memory_(config.memory_words),
      decode_(config.control_coding, config.control_fault_percent,
              config.seed ^ 0xC0117201u),
      execute_(config.alu_coding),
      rng_(config.seed ^ (static_cast<std::uint64_t>(id.packed()) << 32)) {
  // Manufacture the execute stage's fabric from the cell RNG — the
  // exact draw sequence of the historical monolithic constructor.
  execute_.manufacture(config.alu_defect_density, config.alu_spare_sites,
                       config.remap_defects, rng_);
  execute_.set_fault_percent(config.alu_fault_percent);
}

void ProcessorCell::set_mode(CellMode m) {
  mode_ = m;
  scan_ptr_ = 0;
  if (m == CellMode::kShiftOut) {
    shift_out_ptr_ = 0;
    sent_initial_shift_out_ = false;
  }
}

void ProcessorCell::receive_flit(Port from, std::uint8_t flit) {
  if (!alive_ && !router_survives_) {
    return;  // completely dead cell: the bus drives into nothing
  }
  if (!in_flits_[static_cast<std::size_t>(from)].push_back(flit)) {
    ++stats_.dropped_ring_overflow;
  }
}

std::optional<std::uint8_t> ProcessorCell::pop_output(Port to) {
  auto& q = out_flits_[static_cast<std::size_t>(to)];
  if (q.empty()) {
    return std::nullopt;
  }
  const std::uint8_t f = q.front();
  q.pop_front();
  return f;
}

void ProcessorCell::note_error(std::uint64_t n) {
  stats_.errors += n;
  if (alive_ && stats_.errors > config_.error_threshold) {
    // §2.3: the cell exceeded its error threshold; it stops beating so
    // the watchdog will disable it.
    alive_ = false;
  }
}

void ProcessorCell::step() {
  if (!alive_ && !router_survives_) {
    return;
  }
  if (alive_) {
    ++heartbeat_;
    ++stats_.cycles;
  }
  process_incoming();
  if (alive_) {
    if (config_.memory_upsets_per_cycle > 0.0) {
      // Poisson-ish: inject one upset with the configured probability
      // (rates << 1 per cycle in all experiments).
      if (rng_.bernoulli(config_.memory_upsets_per_cycle)) {
        memory_.inject_upsets(rng_, 1);
      }
    }
    if (config_.scrub_interval != 0 &&
        heartbeat_ % config_.scrub_interval == 0) {
      stats_.scrub_repairs += memory_.scrub();
    }
    switch (mode_) {
      case CellMode::kShiftIn:
        break;  // shift-in work happens in process_incoming()
      case CellMode::kCompute:
        step_compute();
        break;
      case CellMode::kShiftOut:
        step_shift_out();
        break;
    }
  }
}

void ProcessorCell::process_incoming() {
  for (std::size_t p = 0; p < kPortCount; ++p) {
    auto& q = in_flits_[p];
    if (q.empty()) {
      continue;
    }
    // One flit per bus per cycle.
    const std::uint8_t flit = q.front();
    q.pop_front();
    if (auto pkt = assemblers_[p].push(flit)) {
      handle_packet(static_cast<Port>(p), *pkt);
    }
  }
}

void ProcessorCell::queue_flits(
    FlitRing& q, const std::array<std::uint8_t, kPacketFlits>& flits) {
  for (const std::uint8_t f : flits) {
    if (!q.push_back(f)) {
      ++stats_.dropped_ring_overflow;
    }
  }
}

void ProcessorCell::handle_packet(Port from, const Packet& p) {
  // Dead-but-salvageable cells still route traffic around themselves;
  // they no longer accept work.
  if (p.kind == PacketKind::kResult && mode_ == CellMode::kShiftOut) {
    // §3.2.3: incoming result packets (necessarily from below) are passed
    // straight up, taking priority over the cell's own packets.
    (void)from;
    queue_flits(out_flits_[static_cast<std::size_t>(Port::kTop)],
                encode_packet_flits(p));
    ++stats_.packets_forwarded;
    trace_event(TraceEvent::kPacketForwarded, p.instr_id);
    return;
  }
  const RouteDecision d =
      alive_ ? decode_.route(id_, p.dest) : golden_route(id_, p.dest);
  if (d == RouteDecision::kKeepHere) {
    if (!alive_) {
      return;  // disabled cell: traffic for it is already rerouted by the
               // watchdog; drop anything stale
    }
    if (p.kind == PacketKind::kInstruction ||
        p.kind == PacketKind::kSalvage) {
      store_instruction(p);
      if (p.kind == PacketKind::kSalvage) {
        ++stats_.salvage_received;
      }
    }
    return;
  }
  forward_packet(p, d);
}

void ProcessorCell::store_instruction(const Packet& p) {
  MemoryWord w;
  w.instr_id = p.instr_id;
  w.op = p.op;
  w.operand1 = p.operand1;
  w.operand2 = p.operand2;
  w.set_result(p.result);
  w.set_valid(true);
  w.set_pending(true);
  if (memory_.store(w)) {
    ++stats_.packets_stored;
    trace_event(TraceEvent::kPacketStored, p.instr_id);
  } else {
    ++stats_.dropped_full_memory;
    note_error();
  }
}

void ProcessorCell::forward_packet(const Packet& p, RouteDecision d) {
  queue_flits(out_flits_[static_cast<std::size_t>(port_for(d))],
              encode_packet_flits(p));
  ++stats_.packets_forwarded;
  trace_event(TraceEvent::kPacketForwarded, p.instr_id);
}

std::uint8_t ProcessorCell::compute_pass(Opcode op, std::uint8_t a,
                                         std::uint8_t b) {
  std::uint64_t disagreements = 0;
  const std::uint8_t r = execute_.pass(op, a, b, rng_, &disagreements);
  if (disagreements != 0) {
    stats_.masked_alu_faults += disagreements;
    if (config_.count_masked_faults) {
      note_error(disagreements);
    }
  }
  return r;
}

void ProcessorCell::step_compute() {
  // The degenerate 1-deep pipeline (§3.2.2): fetch scans one word,
  // decode runs the aluctrl gate, execute produces the three result
  // copies, writeback retires the word — the same draws in the same
  // order as the historical monolithic pass.
  if (memory_.capacity() == 0) {
    return;
  }
  MemoryWord& w = fetch_.scan(memory_, scan_ptr_);
  if (w.has_internal_disagreement()) {
    ++stats_.memory_disagreements;
    note_error();
  }
  if (!decode_.should_compute(w)) {
    return;
  }
  // Three copies of the result are generated (module-level redundancy);
  // the majority vote happens at shift-out time (§3.2.3).
  for (std::size_t i = 0; i < 3; ++i) {
    w.result[i] = compute_pass(w.op, w.operand1, w.operand2);
  }
  writeback_.retire(w);
  ++stats_.instructions_computed;
  trace_event(TraceEvent::kComputed, w.instr_id);
}

void ProcessorCell::emit_result_packet(MemoryWord& w) {
  Packet p;
  p.kind = PacketKind::kResult;
  p.dest = CellId{0xF, id_.col};  // toward the control processor (top)
  p.source = id_;
  p.instr_id = w.instr_id;
  p.op = w.op;
  p.operand1 = w.operand1;
  p.operand2 = w.operand2;
  p.result = w.voted_result();
  queue_flits(out_flits_[static_cast<std::size_t>(Port::kTop)],
              encode_packet_flits(p));
  w.set_valid(false);  // the slot is free once its result left the cell
  ++stats_.results_emitted;
  trace_event(TraceEvent::kResultEmitted, p.instr_id);
}

void ProcessorCell::step_shift_out() {
  // Own packets are emitted only when the upward bus is idle; forwarded
  // traffic from below was already queued by handle_packet and takes
  // priority (§3.2.3).
  auto& up = out_flits_[static_cast<std::size_t>(Port::kTop)];
  if (!up.empty()) {
    return;
  }
  while (shift_out_ptr_ < memory_.capacity()) {
    MemoryWord& w = memory_.word(shift_out_ptr_);
    if (w.valid() && !w.pending()) {
      emit_result_packet(w);
      ++shift_out_ptr_;
      return;
    }
    ++shift_out_ptr_;
  }
}

void ProcessorCell::force_fail(bool router_survives) {
  alive_ = false;
  router_survives_ = router_survives;
}

bool ProcessorCell::load_program(const std::vector<Instruction>& program) {
  PipelineConfig cfg = config_.pipeline;
  // Per-cell derived seed: deterministic in (cell seed, pipeline seed,
  // cell id), independent of the cell's other RNG streams.
  cfg.seed = derive_seed({config_.seed, config_.pipeline.seed,
                          static_cast<std::uint64_t>(id_.packed())});
  pipeline_ = std::make_unique<CellPipeline>(cfg, id_);
  pipeline_->set_trace(trace_);
  return pipeline_->load(program);
}

PipelineRunResult ProcessorCell::run_program(std::size_t max_cycles) {
  assert(pipeline_ != nullptr && "load_program first");
  return pipeline_->run(max_cycles);
}

std::vector<MemoryWord> ProcessorCell::salvage_words() {
  std::vector<MemoryWord> out;
  if (!router_survives_) {
    return out;  // §2.3: salvage requires a functioning router and memory
  }
  for (std::size_t i = 0; i < memory_.capacity(); ++i) {
    MemoryWord& w = memory_.word(i);
    if (w.valid()) {
      out.push_back(w);
      w.set_valid(false);
    }
  }
  if (pipeline_ != nullptr) {
    // §2.3 extended to the program pipeline: in-flight instructions are
    // handed to the neighbours along with the memory words.
    for (const MemoryWord& w : pipeline_->salvage_words()) {
      out.push_back(w);
      trace_event(TraceEvent::kWordSalvaged, w.instr_id);
    }
  }
  return out;
}

bool ProcessorCell::quiescent() const {
  for (std::size_t p = 0; p < kPortCount; ++p) {
    if (!in_flits_[p].empty() || !out_flits_[p].empty() ||
        assemblers_[p].mid_packet()) {
      return false;
    }
  }
  return true;
}

}  // namespace nbx
