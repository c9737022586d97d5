// bench_analytic — validates the Monte-Carlo simulator against
// closed-form reliability models (see sim/analytic.hpp):
//   * first-order single-fault composition for aluncmos / alunn / alunh;
//   * the TMR pair model for aluns.
// Agreement between independent derivations and simulation is the
// strongest internal-consistency evidence a reproduction can offer.
#include <cmath>
#include <iostream>

#include "alu/alu_factory.hpp"
#include "bench/bench_cli.hpp"
#include "fault/sweep.hpp"
#include "sim/analytic.hpp"
#include "sim/trial_engine.hpp"
#include "sim/table_render.hpp"

int main(int argc, char** argv) {
  using namespace nbx;
  const bench::BenchCli cli(
      argc, argv,
      "Analytic-vs-simulated validation: closed-form reliability models\n"
      "against the Monte-Carlo engine, per applicability band.",
      bench::kThreads);
  if (cli.done()) {
    return cli.status();
  }
  const auto streams = paper_streams(2026);
  const std::vector<double> percents = {0.5, 1.0, 2.0, 3.0, 5.0, 9.0};
  const TrialEngine engine{ParallelConfig{.threads = cli.threads()}};
  const auto simulate = [&](const IAlu& alu, double pct) {
    SweepSpec spec;
    spec.percents = {pct};
    spec.seed = 13;
    return engine.point(alu, streams, spec).mean_percent_correct;
  };

  std::cout << "Analytic-vs-simulated validation (first-order model)\n\n";
  // Model applicability: the first-order composition assumes fault
  // effects do not interact. The Hamming decoder violates this hardest —
  // multi-fault syndromes trigger miscorrections/false positives no
  // single-fault probe can see — so its tolerance band is wider.
  double worst_independent = 0.0;  // aluncmos, alunn
  double worst_hamming = 0.0;
  for (const char* name : {"aluncmos", "alunh", "alunn"}) {
    const auto alu = make_alu(name);
    TextTable t({"fault%", "analytic", "simulated", "abs err"});
    for (const double pct : percents) {
      const double predicted = predict_first_order(*alu, streams[0], pct);
      const double simulated = simulate(*alu, pct);
      const double err = std::abs(predicted - simulated);
      if (pct <= 5.0) {
        if (std::string(name) == "alunh") {
          worst_hamming = std::max(worst_hamming, err);
        } else {
          worst_independent = std::max(worst_independent, err);
        }
      }
      t.add_row({fmt_double(pct, 1), fmt_double(predicted, 2),
                 fmt_double(simulated, 2), fmt_double(err, 2)});
    }
    std::cout << name << ":\n";
    t.print(std::cout);
    std::cout << "\n";
  }

  std::cout << "aluns (TMR pair model, opcode-aware critical entries "
               "over 1536 sites):\n";
  TextTable t({"fault%", "analytic", "simulated", "abs err"});
  const auto aluns = make_alu("aluns");
  double worst_tmr = 0.0;
  for (const double pct : percents) {
    const double predicted =
        0.5 * (predict_tmr_stream(1536, streams[0], pct) +
               predict_tmr_stream(1536, streams[1], pct));
    const double simulated = simulate(*aluns, pct);
    const double err = std::abs(predicted - simulated);
    if (pct <= 5.0) {
      worst_tmr = std::max(worst_tmr, err);
    }
    t.add_row({fmt_double(pct, 1), fmt_double(predicted, 2),
               fmt_double(simulated, 2), fmt_double(err, 2)});
  }
  t.print(std::cout);

  std::cout << "\nWorst |analytic - simulated| at <= 5% faults:\n"
            << "  independent-composition ALUs (aluncmos, alunn): "
            << fmt_double(worst_independent, 2) << " points\n"
            << "  interaction-heavy Hamming ALU (alunh):          "
            << fmt_double(worst_hamming, 2) << " points\n"
            << "  TMR pair model (aluns):                         "
            << fmt_double(worst_tmr, 2) << " points\n";
  const bool ok =
      worst_independent < 9.0 && worst_hamming < 16.0 && worst_tmr < 4.0;
  std::cout << "\nModels and simulator consistent within their "
               "applicability bands: "
            << (ok ? "yes" : "NO") << "\n";
  return ok ? 0 : 1;
}
