// The repository benchmark's workload runner. One process runs one workload:
//
//   perfbench --workload trace_stream|sampled_serve|paper_sweep --seed N
//             --seconds S --trace 0|1 [--work-dir DIR]
//
// It builds the workload's inputs from the seed (set-up), runs whole rounds
// of the workload's operations for S seconds, checks the outputs, and prints
// one JSON line: end-to-end metrics with --trace 0, per-layer metrics with
// --trace 1. perfbench/run.py builds this binary and is the entry point.
#include <charconv>
#include <exception>
#include <iostream>
#include <string>
#include <string_view>

#include "workloads.hpp"

namespace {

bool parse_number(std::string_view text, double& out) {
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), out);
  return ec == std::errc() && ptr == text.data() + text.size();
}

bool parse_number(std::string_view text, std::uint64_t& out) {
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), out);
  return ec == std::errc() && ptr == text.data() + text.size();
}

int usage(const std::string& problem) {
  std::cerr << "error: " << problem << "\n"
            << "usage: perfbench --workload trace_stream|sampled_serve|paper_sweep --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  std::uint64_t trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const std::string_view value = argv[i + 1];
    bool ok = true;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      ok = parse_number(value, options.seed);
    } else if (flag == "--seconds") {
      ok = parse_number(value, options.seconds) && options.seconds > 0;
    } else if (flag == "--trace") {
      ok = parse_number(value, trace) && trace <= 1;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return usage("unknown flag " + std::string(flag));
    }
    if (!ok) {
      return usage("bad value for " + std::string(flag));
    }
  }
  if (argc % 2 == 0) {
    return usage("every flag takes a value");
  }
  options.trace = trace == 1;

  try {
    perfbench::WorkloadResult result;
    if (options.workload == "trace_stream") {
      result = perfbench::run_trace_stream(options);
    } else if (options.workload == "sampled_serve") {
      result = perfbench::run_sampled_serve(options);
    } else if (options.workload == "paper_sweep") {
      result = perfbench::run_paper_sweep(options);
    } else {
      return usage("unknown workload '" + options.workload + "'");
    }
    perfbench::print_result(options, result);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
