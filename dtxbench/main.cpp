// dtxbench — the DTX benchmark program.
//
//   dtxbench --workload read_large|update_small|tcp_open_loop --seed N
//            --seconds S --trace 0|1 [--out DIR] [--corrupt rows|aborted_insert]
//
// Sets up the workload's cluster from a seeded XMark base, runs it for a
// warm-up plus S measured seconds, checks the outputs, and prints as its
// last line one JSON object {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// same run is followed by a single-threaded traced replay, and the metrics
// are the per-layer ones (engine counters of the run plus replay spans).
// --corrupt injects a fault into the checks' inputs to show that they fail.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.hpp"
#include "util/log.hpp"

namespace {

using namespace dtxbench;

/// Wall-clock budget of one invocation, below the 180 s a run may take.
constexpr unsigned kDeadlineSeconds = 170;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "dtxbench: %s\nusage: dtxbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--out DIR] [--corrupt KIND]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--out") {
      args.out_dir = value;
    } else if (key == "--corrupt") {
      args.corrupt = value;
    } else {
      usage(("unknown flag " + key).c_str());
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  if (!(args.seconds > 0.0) || args.seconds > 600.0) usage("bad --seconds");
  if (!args.corrupt.empty() && args.corrupt != "rows" &&
      args.corrupt != "aborted_insert") {
    usage("--corrupt takes rows or aborted_insert");
  }
  return args;
}

double latency_ms(const Sample& s) {
  return std::chrono::duration<double, std::milli>(s.end - s.start).count();
}

double median_of(std::vector<double> values) { return percentile(values, 0.5); }

/// The measured window is cut into kSlices equal slices; every end-to-end
/// figure is computed per slice and reported as the median over the
/// slices, so one slice disturbed by the host does not move the result.
/// Latencies are sliced by start time, throughput by completion time.
constexpr std::size_t kSlices = 3;

void end_to_end(const RunResult& run, Metrics& metrics, std::string& detail) {
  const double slice_s = run.window_s / kSlices;
  std::vector<std::vector<double>> reads(kSlices);
  std::vector<std::vector<double>> updates(kSlices);
  std::vector<double> committed(kSlices, 0.0);
  const auto slice_of = [&](Clock::time_point t) {
    const double at = seconds_between(run.window_start, t) / slice_s;
    return at < 0.0 ? kSlices : static_cast<std::size_t>(at);
  };
  for (const Sample& s : run.samples) {
    if (!s.committed) continue;
    const std::size_t started = std::min(slice_of(s.start), kSlices - 1);
    (s.update ? updates : reads)[started].push_back(latency_ms(s));
    const std::size_t ended = slice_of(s.end);
    if (ended < kSlices) committed[ended] += 1.0;
  }
  std::vector<double> tput, r50, r99, u50, u99;
  std::size_t min_reads = SIZE_MAX;
  std::size_t min_updates = SIZE_MAX;
  for (std::size_t k = 0; k < kSlices; ++k) {
    min_reads = std::min(min_reads, reads[k].size());
    min_updates = std::min(min_updates, updates[k].size());
    tput.push_back(committed[k] / slice_s);
    r50.push_back(percentile(reads[k], 0.50));
    r99.push_back(percentile(reads[k], 0.99));
    u50.push_back(percentile(updates[k], 0.50));
    u99.push_back(percentile(updates[k], 0.99));
  }
  metrics.set("setup_s", run.setup_s, "s");
  metrics.set("txn_per_s", median_of(tput), "txn/s");
  metrics.set("read_p50_ms", median_of(r50), "ms");
  metrics.set("read_p99_ms", median_of(r99), "ms");
  metrics.set("update_p50_ms", median_of(u50), "ms");
  metrics.set("update_p99_ms", median_of(u99), "ms");
  metrics.set("peak_rss_mb", run.peak_rss_mb, "MB");
  detail = "{\"slices\": " + std::to_string(kSlices) +
           ", \"min_read_samples_per_slice\": " + std::to_string(min_reads) +
           ", \"min_update_samples_per_slice\": " +
           std::to_string(min_updates) +
           ", \"checked_rows\": " + std::to_string(run.checked_rows) +
           ", \"checked_ids\": " + std::to_string(run.checked_ids) +
           ", \"checked_replicas\": " + std::to_string(run.checked_replicas) +
           ", \"durable_order_divergences\": " +
           std::to_string(run.order_divergences) + "}";
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point process_start = Clock::now();
  const Args args = parse_args(argc, argv);
  Shape shape;
  if (!shape_of(args.workload, shape)) usage("unknown workload");
  dtx::util::set_log_level(dtx::util::LogLevel::kError);
  // A run that overstays its budget (a hung engine) ends without a result.
  install_exit_guards(kDeadlineSeconds);

  const Base base = make_base(shape, args.seed);
  const RunResult run = shape.tcp
                            ? run_tcp(shape, args, process_start, base)
                            : run_inproc(shape, args, process_start, base);

  Metrics metrics;
  std::string detail;
  end_to_end(run, metrics, detail);
  std::printf("{\"detail\": %s, \"end_to_end\": %s}\n", detail.c_str(),
              metrics.to_json().c_str());
  if (args.trace) {
    metrics = run.counters;
    metrics.set("workload.xmark_generate_s", base.generate_s, "s");
    metrics.set("dtx.cluster_start_s", run.cluster_start_s, "s");
    run_replay(shape, args, base, metrics);
  }
  for (const std::string& failure : run.check_failures) {
    std::fprintf(stderr, "dtxbench: check failed: %s\n", failure.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      run.check_failures.empty() ? "true" : "false",
      static_cast<unsigned long long>(run.attempted),
      static_cast<unsigned long long>(run.failed), metrics.to_json().c_str());
  std::fflush(stdout);
  return 0;
}
