// perfbench: the repository benchmark's workload runner.
//
//   perfbench --workload <cold_translate|append_mix> --seed <n>
//             --seconds <s> --trace <0|1> --scratch <dir>
//
// --trace 0 runs the named workload and reports its end-to-end metrics;
// --trace 1 runs the traced layer suite and reports the per-layer metrics.
// The last line of stdout is the result JSON. Exit code 0 only when every
// output check passed.

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "common.h"

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  std::string workload;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atoi(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--scratch") {
      args.scratch_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if ((argc - 1) % 2 != 0 || args.seconds < 1 || trace < 0 || trace > 1 ||
      args.scratch_dir.empty() ||
      (workload != "cold_translate" && workload != "append_mix")) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <cold_translate|append_mix> "
                 "--seed <n> --seconds <s> --trace <0|1> --scratch <dir>\n");
    return 2;
  }
  std::filesystem::create_directories(args.scratch_dir);

  // Every thread of the run — the client, and in the traced run the wire
  // server's connection, worker and IO threads — shares one CPU, the
  // highest one allowed. Wire hand-offs are then context switches on that
  // CPU, not cross-CPU wake-ups whose latency follows the VM host: the wire
  // round-trip p95 read 75-130 us across five runs unpinned and 41-52 us
  // pinned.
  cpu_set_t cpus;
  if (sched_getaffinity(0, sizeof(cpus), &cpus) == 0) {
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
      if (!CPU_ISSET(cpu, &cpus)) continue;
      CPU_ZERO(&cpus);
      CPU_SET(cpu, &cpus);
      sched_setaffinity(0, sizeof(cpus), &cpus);
      break;
    }
  }

  const perfbench::Corpus corpus = perfbench::LoadCorpus();
  perfbench::Report report;
  if (trace == 1) {
    perfbench::RunTracedLayers(args, corpus, &report);
  } else if (workload == "cold_translate") {
    perfbench::RunColdTranslate(args, corpus, &report);
  } else {
    perfbench::RunAppendMix(args, corpus, &report);
  }
  return report.Finish(workload + (trace == 1 ? " (traced)" : ""));
}
