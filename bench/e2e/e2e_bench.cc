// e2e_bench — one workload of the end-to-end FaCT benchmark per process.
//
//   e2e_bench --workload W --seed S --seconds T --inputs DIR
//             [--traced] [--trace-out FILE] [--out FILE]
//   e2e_bench --smoke
//   e2e_bench --workload W --datasets
//
// Workloads: tabu-2k, construct-50k, oneshot-250k, service-open (see
// README.md). DIR holds the packed images (<dataset>.emp) the workload
// binds. The report — correct/attempted/failed and every metric with its
// unit — goes to FILE (stdout without --out). Untraced runs report the
// end-to-end metrics; --traced runs the same operations with spans around
// every layer call and reports the per-layer metrics. --smoke packs the
// tiny/small catalog maps into a scratch directory under the working
// directory and runs every workload briefly, untraced and traced.
// --datasets lists the catalog maps W binds, one per line, for
// run_benchmark.py to pack.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/csv.h"
#include "data/compact/writer.h"
#include "data/synthetic/dataset_catalog.h"
#include "e2e.h"

namespace {

using emp::e2e::Report;
using emp::e2e::RunConfig;

constexpr const char* kWorkloads[] = {"tabu-2k", "construct-50k",
                                      "oneshot-250k", "service-open"};

int Usage() {
  std::fprintf(stderr,
               "usage: e2e_bench --workload W --seed S --seconds T "
               "--inputs DIR [--traced] [--trace-out FILE] [--out FILE]\n"
               "       e2e_bench --smoke\n"
               "       e2e_bench --workload W --datasets\n"
               "workloads: tabu-2k construct-50k oneshot-250k "
               "service-open\n");
  return 2;
}

Report RunWorkload(const RunConfig& config) {
  Report report;
  if (emp::e2e::IsInProcessWorkload(config.workload)) {
    emp::e2e::RunInProcess(config, &report);
  } else {
    emp::e2e::RunServiceOpen(config, &report);
  }
  return report;
}

std::vector<std::string> MetricNames(const Report& report) {
  std::vector<std::string> names;
  for (const Report::Metric& m : report.metrics) names.push_back(m.name);
  return names;
}

/// Every workload, untraced and traced, on the tiny/small images: the
/// correctness gates (validator, bit-identity, service-vs-in-process) and
/// the metric sets, in a few seconds.
int RunSmoke() {
  std::string scratch = "e2e_smoke_XXXXXX";
  if (mkdtemp(scratch.data()) == nullptr) {
    std::perror("mkdtemp");
    return 1;
  }
  bool ok = true;
  for (const char* dataset : {"tiny", "small"}) {
    emp::Result<emp::AreaSet> areas =
        emp::synthetic::MakeCatalogDataset(dataset);
    emp::compact::PackOptions options;
    options.strip_geometry = true;
    const emp::Status packed =
        areas.ok() ? emp::compact::WriteCompactFile(
                         *areas, scratch + "/" + dataset + ".emp", options)
                   : areas.status();
    if (!packed.ok()) {
      std::fprintf(stderr, "pack %s: %s\n", dataset,
                   packed.ToString().c_str());
      ok = false;
    }
  }
  // Every workload reports every end-to-end metric; per-layer sets differ
  // by the layers a workload crosses.
  std::vector<std::string> end_to_end;
  for (const char* workload : kWorkloads) {
    for (const bool traced : {false, true}) {
      if (!ok) break;
      RunConfig config;
      config.workload = workload;
      config.seed = 7;
      config.seconds = 0.3;
      config.traced = traced;
      config.smoke = true;
      config.inputs = scratch;
      const Report report = RunWorkload(config);
      const std::vector<std::string> names = MetricNames(report);
      if (!traced && end_to_end.empty()) end_to_end = names;
      const bool same_names = traced || names == end_to_end;
      std::printf("smoke %-14s %-8s attempted=%lld failed=%lld metrics=%zu%s\n",
                  workload, traced ? "traced" : "untraced",
                  static_cast<long long>(report.attempted),
                  static_cast<long long>(report.failed), names.size(),
                  same_names ? "" : " (metric set differs)");
      ok = ok && report.failed == 0 && report.attempted > 0 && same_names &&
           !names.empty();
    }
  }
  std::error_code ignored;
  std::filesystem::remove_all(scratch, ignored);
  std::printf("smoke %s\n", ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  std::set<std::string> flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) return Usage();
    const std::string key = arg.substr(2);
    if (key == "traced" || key == "smoke" || key == "datasets") {
      flags.insert(key);
    } else if (i + 1 < argc) {
      args[key] = argv[++i];
    } else {
      return Usage();
    }
  }
  if (flags.count("smoke") != 0) return RunSmoke();

  RunConfig config;
  config.workload = args["workload"];
  config.seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  config.seconds = std::atof(args["seconds"].c_str());
  config.traced = flags.count("traced") != 0;
  config.inputs = args["inputs"];
  config.trace_out = args["trace-out"];
  bool known = false;
  for (const char* w : kWorkloads) known = known || config.workload == w;
  if (!known) return Usage();
  if (flags.count("datasets") != 0) {
    const std::vector<std::string> datasets =
        emp::e2e::IsInProcessWorkload(config.workload)
            ? emp::e2e::InProcessDatasets(config.workload)
            : emp::e2e::ServiceDatasets();
    for (const std::string& d : datasets) std::printf("%s\n", d.c_str());
    return 0;
  }
  if (config.inputs.empty() || config.seconds <= 0) return Usage();

  const Report report = RunWorkload(config);
  const std::string text = report.ToJson();
  if (args.count("out") != 0) {
    const emp::Status written = emp::WriteFile(args["out"], text);
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 1;
    }
  } else {
    std::fputs(text.c_str(), stdout);
  }
  return report.failed == 0 && report.attempted > 0 ? 0 : 1;
}
