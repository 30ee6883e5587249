// peb_perfbench — one benchmark for the PEB engine.
//
//   peb_perfbench --workload <read_paper|mixed_durable|ingest_durable>
//                 --seed <n> --seconds <s> --trace <0|1> [--workdir <dir>]
//
// --trace 0 measures the workload end to end and prints the end-to-end
// metrics; --trace 1 is the separate traced run that prints the per-layer
// metrics. The last line of standard output is the JSON result. The exit
// code is 0 for a valid run with correct answers, 1 when any answer was
// wrong, 2 when the run was not a valid measurement, 3 on a harness error.
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench.h"

namespace {

[[noreturn]] void Usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: peb_perfbench --workload <read_paper|mixed_durable|"
               "ingest_durable> --seed <n> --seconds <s> --trace <0|1> "
               "[--workdir <dir>]\n";
  std::exit(3);
}

perfbench::Args Parse(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (args.seconds <= 0.0) Usage("--seconds must be positive");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args = Parse(argc, argv);
  std::filesystem::create_directories(args.workdir);
  perfbench::Report report;
  if (args.workload != "read_paper" && args.workload != "mixed_durable" &&
      args.workload != "ingest_durable") {
    Usage("unknown workload '" + args.workload + "'");
  }
  if (args.trace) {
    perfbench::RunLayers(args, &report);
  } else if (args.workload == "read_paper") {
    perfbench::RunReadPaper(args, &report);
  } else if (args.workload == "mixed_durable") {
    perfbench::RunMixedDurable(args, &report);
  } else {
    perfbench::RunIngestDurable(args, &report);
  }
  return report.Print();
}
