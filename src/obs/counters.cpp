#include "obs/counters.hpp"

#include <ostream>
#include <sstream>

namespace nbx::obs {

std::string_view code_layer_name(CodeLayer layer) {
  switch (layer) {
    case CodeLayer::kHamming: return "hamming";
    case CodeLayer::kHsiao: return "hsiao";
    case CodeLayer::kRs: return "rs";
    case CodeLayer::kTmr: return "tmr";
    case CodeLayer::kParity: return "parity";
  }
  return "?";
}

void write_counters_json(std::ostream& os, const Counters& c) {
  os << "{\"injection\":{\"masks_generated\":" << c.injection.masks_generated
     << ",\"faults_injected\":" << c.injection.faults_injected << "}";
  os << ",\"code\":{";
  bool first = true;
  for (const CodeLayer layer : kAllCodeLayers) {
    const CodeLayerCounters& l = c.at(layer);
    if (!first) os << ",";
    first = false;
    os << "\"" << code_layer_name(layer) << "\":{\"reads\":" << l.reads
       << ",\"clean\":" << l.clean << ",\"corrected\":" << l.corrected
       << ",\"miscorrected\":" << l.miscorrected
       << ",\"detected_uncorrectable\":" << l.detected_uncorrectable
       << ",\"false_positive\":" << l.false_positive
       << ",\"undetected\":" << l.undetected << "}";
  }
  os << "}";
  os << ",\"module\":{\"votes\":" << c.module_level.votes
     << ",\"copies_outvoted\":" << c.module_level.copies_outvoted
     << ",\"voter_self_faults\":" << c.module_level.voter_self_faults
     << ",\"storage_faults\":" << c.module_level.storage_faults << "}";
  os << ",\"e2e\":{\"instructions\":" << c.end_to_end.instructions
     << ",\"correct\":" << c.end_to_end.correct
     << ",\"silent_corruptions\":" << c.end_to_end.silent_corruptions
     << ",\"caught_errors\":" << c.end_to_end.caught_errors
     << ",\"false_alarms\":" << c.end_to_end.false_alarms << "}";
  os << ",\"scenario\":{\"scheduled_trials\":"
     << c.scenario.scheduled_trials
     << ",\"wear_adjusted_trials\":" << c.scenario.wear_adjusted_trials
     << ",\"burst_strikes\":" << c.scenario.burst_strikes << "}}";
}

std::string counters_json(const Counters& c) {
  std::ostringstream os;
  write_counters_json(os, c);
  return os.str();
}

std::string_view pipeline_stage_label(std::size_t i) {
  switch (i) {
    case 0: return "fetch";
    case 1: return "decode";
    case 2: return "execute";
    case 3: return "writeback";
    default: return "?";
  }
}

}  // namespace nbx::obs

