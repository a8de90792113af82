// Ablation: FPF-curve representation — the paper's line segments vs the
// "e.g., polynomial curve fitting" alternative §4.1 mentions in passing.
//
// For a sweep of window parameters this samples the true FPF curve, fits
// (a) the 6-segment piecewise-linear model and (b) least-squares
// polynomials of matching catalog footprint (degree 6 stores 7
// coefficients, like 7 knot-*pairs* store 14 numbers — we report both
// degree 6 and degree 13 for a fair byte-for-byte comparison), then
// evaluates both against the *true* simulated fetch counts on a dense
// buffer grid (not just the fitted samples).

#include <cmath>
#include <iostream>
#include <vector>

#include "bench/bench_common.h"
#include "buffer/stack_distance_kernel.h"
#include "epfis/lru_fit.h"
#include "util/polynomial.h"
#include "util/table_printer.h"
#include "workload/data_gen.h"

namespace epfis {
namespace {

int Run(int argc, char** argv) {
  ArgParser args(argc, argv);
  BenchOptions options = ParseBenchOptions(args, /*default_scale=*/0.05);
  ExitOnBadArgs(args);
  std::cout << "Ablation: line segments vs polynomial FPF representation "
               "(scale=" << options.scale << ")\n\n";

  for (double k : {0.05, 0.2, 1.0}) {
    SyntheticSpec spec;
    spec.num_records = static_cast<uint64_t>(1'000'000 * options.scale);
    spec.num_distinct = static_cast<uint64_t>(10'000 * options.scale);
    spec.records_per_page = 40;
    spec.window_fraction = k;
    spec.noise = 0.05;
    spec.seed = options.seed;
    auto dataset = GenerateSynthetic(spec);
    if (!dataset.ok()) {
      std::cerr << dataset.status().ToString() << '\n';
      return 1;
    }
    auto trace = (*dataset)->FullIndexPageTrace();
    if (!trace.ok()) {
      std::cerr << trace.status().ToString() << '\n';
      return 1;
    }
    uint64_t t = (*dataset)->num_pages();
    uint64_t b_min = std::max<uint64_t>(
        static_cast<uint64_t>(std::ceil(0.01 * static_cast<double>(t))), 12);

    // Fit inputs: the paper's scheduled samples.
    auto samples =
        SampleFpfCurve(*trace, b_min, t, BufferSchedule::kPaperLinear);
    if (!samples.ok()) {
      std::cerr << samples.status().ToString() << '\n';
      return 1;
    }
    std::vector<Knot> knots;
    for (const FpfPoint& p : *samples) {
      knots.push_back(Knot{static_cast<double>(p.buffer_size),
                           static_cast<double>(p.fetches)});
    }

    auto segments = FitPiecewiseLinear(knots, 6);
    auto poly6 = Polynomial::Fit(knots, 6);
    auto poly13 = Polynomial::Fit(
        knots, std::min<int>(13, static_cast<int>(knots.size()) - 1));
    if (!segments.ok() || !poly6.ok() || !poly13.ok()) {
      std::cerr << "fit failed\n";
      return 1;
    }

    // Dense ground truth: every 1% of T.
    StackDistanceKernel kernel(trace->size());
    kernel.AccessAll(*trace);
    double seg_max = 0, seg_sum = 0, p6_max = 0, p6_sum = 0, p13_max = 0,
           p13_sum = 0;
    int cells = 0;
    for (uint64_t b = b_min; b <= t; b += std::max<uint64_t>(1, t / 100)) {
      double actual = static_cast<double>(kernel.Fetches(b));
      if (actual <= 0) continue;
      double x = static_cast<double>(b);
      double e_seg = std::fabs(segments->Eval(x) - actual) / actual;
      double e_p6 = std::fabs(poly6->Eval(x) - actual) / actual;
      double e_p13 = std::fabs(poly13->Eval(x) - actual) / actual;
      seg_max = std::max(seg_max, e_seg);
      p6_max = std::max(p6_max, e_p6);
      p13_max = std::max(p13_max, e_p13);
      seg_sum += e_seg;
      p6_sum += e_p6;
      p13_sum += e_p13;
      ++cells;
    }

    std::cout << "--- K = " << k << " (" << knots.size()
              << " fitted samples) ---\n";
    TablePrinter table({"representation", "stored values", "max rel err %",
                        "mean rel err %"});
    table.AddRow()
        .Cell("6 line segments (paper)")
        .Cell(static_cast<uint64_t>(segments->knots().size() * 2))
        .Cell(100.0 * seg_max, 2)
        .Cell(100.0 * seg_sum / cells, 2);
    table.AddRow()
        .Cell("polynomial deg 6")
        .Cell(static_cast<uint64_t>(7))
        .Cell(100.0 * p6_max, 2)
        .Cell(100.0 * p6_sum / cells, 2);
    table.AddRow()
        .Cell("polynomial deg 13")
        .Cell(static_cast<uint64_t>(poly13->degree() + 1))
        .Cell(100.0 * p13_max, 2)
        .Cell(100.0 * p13_sum / cells, 2);
    table.Print(std::cout);
    std::cout << '\n';
  }
  std::cout << "Line segments handle the sharp knee of windowed FPF curves; "
               "polynomials\noscillate (Runge) or smooth it away — the "
               "quantitative case for §4.1's choice.\n";
  return 0;
}

}  // namespace
}  // namespace epfis

int main(int argc, char** argv) { return epfis::Run(argc, argv); }
