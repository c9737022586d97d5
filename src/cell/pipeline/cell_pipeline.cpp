#include "cell/pipeline/cell_pipeline.hpp"

#include <cassert>

#include "alu/alu_factory.hpp"
#include "obs/metrics.hpp"

namespace nbx {

namespace {

std::unique_ptr<IAlu> make_execute_alu(const std::string& name, bool* ok) {
  auto alu = make_alu(name);
  *ok = alu != nullptr;
  if (alu == nullptr) {
    // Keep the object constructible; load() reports the bad name.
    alu = make_alu("aluns");
  }
  return alu;
}

// Micro-op register/mode fields, shared with the architectural
// reference (see DecodedOp for the layout).
struct OpFields {
  std::uint8_t dst, mode, src1, src2;
};

OpFields fields_of(std::uint16_t id) {
  return OpFields{static_cast<std::uint8_t>(id & 0x7u),
                  static_cast<std::uint8_t>((id >> 3) & 0x3u),
                  static_cast<std::uint8_t>((id >> 5) & 0x7u),
                  static_cast<std::uint8_t>((id >> 8) & 0x7u)};
}

constexpr std::size_t stage_idx(PipeStage s) {
  return static_cast<std::size_t>(s);
}

}  // namespace

CellPipeline::CellPipeline(const PipelineConfig& config, CellId id)
    : config_(config), id_(id),
      decode_(LutCoding::kNone, 0.0, config.seed),
      execute_(make_execute_alu(config.execute_alu, &alu_ok_)),
      regs_(config.registers == 0 ? 1 : config.registers),
      fetch_rng_(0), decode_rng_(0), execute_rng_(0), writeback_rng_(0) {
  if (config_.registers == 0) {
    config_.registers = 1;
  }
}

CellPipeline::~CellPipeline() = default;

Rng CellPipeline::stage_rng(PipeStage s) const {
  return Rng(derive_seed({config_.seed, fnv1a64(pipe_stage_name(s)),
                          static_cast<std::uint64_t>(id_.packed())}));
}

bool CellPipeline::load(const std::vector<Instruction>& program) {
  if (!alu_ok_) {
    return false;
  }
  program_ = program;

  const auto rate = [&](PipeStage s) {
    return config_.stage(s).effective_percent(config_.trial_index,
                                              config_.trials);
  };

  // Manufacture: one dedicated stream, drawn in stage order, so the
  // store's defects and the ALU's defects are independent of every
  // per-stage transient stream.
  Rng manufacture(derive_seed({config_.seed, fnv1a64("manufacture"),
                               static_cast<std::uint64_t>(id_.packed())}));
  store_.load(program_, config_.store_coding,
              config_.fetch.defect_density, manufacture);
  execute_.manufacture(config_.execute.defect_density, /*spare_sites=*/0,
                       /*remap=*/false, manufacture);

  fetch_.configure(store_.record_sites(), rate(PipeStage::kFetch));
  decode_.configure(config_.decode_coding, rate(PipeStage::kDecode));
  execute_.set_fault_percent(rate(PipeStage::kExecute));
  writeback_.configure(rate(PipeStage::kWriteback));

  retired_.reserve(program_.size());
  reset();
  return true;
}

void CellPipeline::reset() {
  pc_ = 0;
  if_id_ = IfIdLatch{};
  id_ex_ = IdExLatch{};
  ex_wb_ = ExWbLatch{};
  bubble_pending_ = false;
  regs_.reset();
  counters_.reset();
  retired_.clear();
  fetch_rng_ = stage_rng(PipeStage::kFetch);
  decode_rng_ = stage_rng(PipeStage::kDecode);
  execute_rng_ = stage_rng(PipeStage::kExecute);
  writeback_rng_ = stage_rng(PipeStage::kWriteback);
}

bool CellPipeline::in_flight() const {
  return if_id_.valid || id_ex_.valid || ex_wb_.valid;
}

bool CellPipeline::cycle() {
  if (pc_ >= program_.size() && !in_flight()) {
    return false;
  }
  ++counters_.cycles;

  // ---- WB: commit the instruction executed last cycle.
  if (ex_wb_.valid) {
    auto& wb = counters_.at(stage_idx(PipeStage::kWriteback));
    ++wb.ops;
    const std::uint8_t voted = writeback_.run(
        regs_, ex_wb_.dst % config_.registers, ex_wb_.value,
        writeback_rng_, &wb.bit_faults);
    retired_.push_back(RetiredOp{ex_wb_.index, ex_wb_.instr_id, voted});
    ++counters_.retired;
    trace_event(TraceEvent::kStageWriteback, ex_wb_.instr_id);
    ex_wb_.valid = false;
  }

  // ---- EX: run the decoded instruction, if any. An empty slot left by
  // last cycle's stall or flush is a bubble (fill/drain slots are not).
  if (!id_ex_.valid && bubble_pending_) {
    ++counters_.bubbles;
  }
  bubble_pending_ = false;
  if (id_ex_.valid) {
    auto& ex = counters_.at(stage_idx(PipeStage::kExecute));
    ++ex.ops;
    const AluOutput out = execute_.run(
        static_cast<Opcode>(id_ex_.op.op_bits), id_ex_.operand1,
        id_ex_.operand2, execute_rng_, &ex.bit_faults);
    ex_wb_ = ExWbLatch{true, id_ex_.index, id_ex_.op.instr_id,
                       id_ex_.op.dst, out.value, id_ex_.op};
    trace_event(TraceEvent::kStageExecute, id_ex_.op.instr_id);
    id_ex_.valid = false;
  }

  // ---- ID: decode once, then resolve operands against the register
  // file and the EX/WB latch (the only RAW-hazard distance — see the
  // header comment).
  bool stalled = false;
  if (if_id_.valid) {
    if (!if_id_.decoded) {
      auto& idc = counters_.at(stage_idx(PipeStage::kDecode));
      ++idc.ops;
      if_id_.op = decode_.run(if_id_.rec, decode_rng_, &idc.bit_faults);
      if_id_.decoded = true;
      trace_event(TraceEvent::kStageDecode, if_id_.rec.instr_id);
    }
    if (if_id_.op.flush) {
      // Misdecode: squash the instruction. It never retires — the lost
      // result scores as incorrect end to end.
      ++counters_.flushes;
      trace_event(TraceEvent::kPipelineFlush, if_id_.rec.instr_id);
      if_id_ = IfIdLatch{};
      bubble_pending_ = true;
    } else {
      const std::size_t nregs = config_.registers;
      const DecodedOp& op = if_id_.op;
      const std::size_t s1 = op.src1 % nregs;
      const std::size_t s2 = op.src2 % nregs;
      const bool reads1 = op.mode == 1 || op.mode == 3;
      const bool reads2 = op.mode == 2 || op.mode == 3;
      const bool hazard1 =
          reads1 && ex_wb_.valid && s1 == ex_wb_.dst % nregs;
      const bool hazard2 =
          reads2 && ex_wb_.valid && s2 == ex_wb_.dst % nregs;
      if ((hazard1 || hazard2) && !config_.forwarding) {
        // Hold the instruction; the bubble reaches execute next cycle.
        ++counters_.stalls;
        trace_event(TraceEvent::kPipelineStall, op.instr_id);
        stalled = true;
        bubble_pending_ = true;
      } else {
        if (hazard1 || hazard2) {
          ++counters_.forwards;
        }
        const std::uint8_t o1 =
            reads1 ? (hazard1 ? ex_wb_.value : regs_.read(s1)) : op.imm_a;
        const std::uint8_t o2 =
            reads2 ? (hazard2 ? ex_wb_.value : regs_.read(s2)) : op.imm_b;
        id_ex_ = IdExLatch{true, if_id_.index, op, o1, o2};
        if_id_ = IfIdLatch{};
      }
    }
  }

  // ---- IF: fetch the next instruction unless decode is holding.
  if (!stalled && !if_id_.valid && pc_ < program_.size()) {
    auto& ifc = counters_.at(stage_idx(PipeStage::kFetch));
    ++ifc.ops;
    const FetchedRecord rec =
        fetch_.run(store_, pc_, fetch_rng_, &ifc.bit_faults);
    if_id_ = IfIdLatch{true, pc_, rec, false, DecodedOp{}};
    trace_event(TraceEvent::kStageFetch, rec.instr_id);
    ++pc_;
  }

  return pc_ < program_.size() || in_flight();
}

PipelineRunResult CellPipeline::run(std::size_t max_cycles) {
  if (max_cycles == 0) {
    // Per instruction: at most one stall cycle on top of its own slot,
    // plus pipeline fill/drain.
    max_cycles = 2 * program_.size() + 16;
  }
  std::size_t n = 0;
  bool more = in_flight() || pc_ < program_.size();
  while (more && n < max_cycles) {
    more = cycle();
    ++n;
  }

  PipelineRunResult res;
  res.program_length = program_.size();
  res.retired = retired_.size();
  res.flushes = counters_.flushes;
  res.completed = !more;
  const std::vector<std::uint8_t> ref =
      reference_results(program_, config_.registers);
  for (const RetiredOp& r : retired_) {
    if (r.index < ref.size() && r.value == ref[r.index]) {
      ++res.correct;
    }
  }
  res.percent_correct =
      program_.empty()
          ? 100.0
          : 100.0 * static_cast<double>(res.correct) /
                static_cast<double>(program_.size());
  publish_metrics();
  return res;
}

void CellPipeline::publish_metrics() const {
  obs::MetricsRegistry* reg = obs::metrics();
  if (reg == nullptr) {
    return;
  }
  reg->counter("pipeline_cycles_total").add(counters_.cycles);
  reg->counter("pipeline_retired_total").add(counters_.retired);
  reg->counter("pipeline_stalls_total", {{"stage", "decode"}})
      .add(counters_.stalls);
  reg->counter("pipeline_flushes_total", {{"stage", "decode"}})
      .add(counters_.flushes);
  reg->counter("pipeline_bubbles_total", {{"stage", "execute"}})
      .add(counters_.bubbles);
  reg->counter("pipeline_forwards_total", {{"stage", "execute"}})
      .add(counters_.forwards);
  for (std::size_t i = 0; i < obs::kPipelineStageCount; ++i) {
    const std::string stage(obs::pipeline_stage_label(i));
    reg->counter("pipeline_stage_ops_total", {{"stage", stage}})
        .add(counters_.stage[i].ops);
    reg->counter("pipeline_stage_bit_faults_total", {{"stage", stage}})
        .add(counters_.stage[i].bit_faults);
  }
}

std::vector<MemoryWord> CellPipeline::salvage_words() const {
  std::vector<MemoryWord> out;
  const auto base_word = [](std::uint16_t id, std::uint8_t op_bits,
                            std::uint8_t a, std::uint8_t b) {
    MemoryWord w;
    w.instr_id = id;
    w.op = static_cast<Opcode>(op_bits & 0x7u);
    w.operand1 = a;
    w.operand2 = b;
    w.set_valid(true);
    return w;
  };
  if (if_id_.valid) {
    MemoryWord w = base_word(if_id_.rec.instr_id, if_id_.rec.op_bits,
                             if_id_.rec.a, if_id_.rec.b);
    w.set_pending(true);
    out.push_back(w);
  }
  if (id_ex_.valid) {
    MemoryWord w = base_word(id_ex_.op.instr_id, id_ex_.op.op_bits,
                             id_ex_.operand1, id_ex_.operand2);
    w.set_pending(true);
    out.push_back(w);
  }
  if (ex_wb_.valid) {
    MemoryWord w = base_word(ex_wb_.instr_id, ex_wb_.op.op_bits,
                             ex_wb_.op.imm_a, ex_wb_.op.imm_b);
    w.set_result(ex_wb_.value);
    w.set_pending(false);
    out.push_back(w);
  }
  return out;
}

std::vector<std::uint8_t> CellPipeline::reference_results(
    const std::vector<Instruction>& program, std::size_t registers) {
  if (registers == 0) {
    registers = 1;
  }
  std::vector<std::uint8_t> regs(registers, 0);
  std::vector<std::uint8_t> out;
  out.reserve(program.size());
  for (const Instruction& ins : program) {
    const OpFields f = fields_of(ins.id);
    const bool reads1 = f.mode == 1 || f.mode == 3;
    const bool reads2 = f.mode == 2 || f.mode == 3;
    const std::uint8_t o1 = reads1 ? regs[f.src1 % registers] : ins.a;
    const std::uint8_t o2 = reads2 ? regs[f.src2 % registers] : ins.b;
    const std::uint8_t v = golden_alu(ins.op, o1, o2);
    regs[f.dst % registers] = v;
    out.push_back(v);
  }
  return out;
}

}  // namespace nbx
