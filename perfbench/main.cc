// The JUST benchmark driver. Run it through perfbench/run.py, which builds
// it; see DESIGN.md for the workloads and metrics.
//
//   just_perfbench --workload W --seed N --seconds S --trace 0|1
//                  --work-dir DIR --server-bin PATH [--git-sha SHA]
//   just_perfbench --selftest --work-dir DIR --server-bin PATH

#include <signal.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "perfbench.h"

#ifndef JUST_PERFBENCH_BUILD_TYPE
#define JUST_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

bool ParseArgs(int argc, char** argv, just::perfbench::Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--selftest") {
      args->selftest = true;
      continue;
    }
    if ((v = next()) == nullptr) return false;
    if (a == "--workload") {
      args->workload = v;
    } else if (a == "--seed") {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      args->seconds = std::atoi(v);
    } else if (a == "--trace") {
      args->trace = std::atoi(v) != 0;
    } else if (a == "--work-dir") {
      args->work_dir = v;
    } else if (a == "--server-bin") {
      args->server_bin = v;
    } else if (a == "--git-sha") {
      args->git_sha = v;
    } else {
      return false;
    }
  }
  return !args->work_dir.empty() && args->seconds > 0 &&
         (args->selftest || !args->workload.empty());
}

/// Removes `<workload>-<pid>` store directories left by runs that were
/// killed before their own cleanup.
void RemoveStaleRunDirs(const std::string& work_dir) {
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(work_dir, ec)) {
    if (!entry.is_directory()) continue;
    const std::string name = entry.path().filename().string();
    const size_t dash = name.rfind('-');
    if (dash == std::string::npos) continue;
    const int pid = std::atoi(name.c_str() + dash + 1);
    if (pid > 0 && kill(pid, 0) != 0) {
      std::filesystem::remove_all(entry.path(), ec);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace just::perfbench;  // NOLINT
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: just_perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR --server-bin PATH "
                 "[--git-sha SHA] | --selftest --work-dir DIR --server-bin "
                 "PATH\n");
    return 2;
  }
  // If the launcher dies, so do we (and the reaper takes the servers).
  prctl(PR_SET_PDEATHSIG, SIGTERM);
  InstallReaper();
  std::filesystem::create_directories(args.work_dir);
  RemoveStaleRunDirs(args.work_dir);
  if (args.selftest) return RunSelfTest(args);

  Report report;
  report.Detail(Fmt("run: workload=%s seed=%llu seconds=%d trace=%d",
                    args.workload.c_str(),
                    static_cast<unsigned long long>(args.seed), args.seconds,
                    args.trace ? 1 : 0));
  report.Detail(Fmt("build: git_sha=%s build_type=%s nproc=%ld",
                    args.git_sha.c_str(), JUST_PERFBENCH_BUILD_TYPE,
                    sysconf(_SC_NPROCESSORS_ONLN)));
  int rc = RunWorkload(args, &report);
  std::error_code ec;
  std::filesystem::remove_all(args.work_dir + "/" + args.workload + "-" +
                                  std::to_string(getpid()),
                              ec);
  if (rc != 0) return rc;
  report.Detail(Fmt("ops: attempted=%llu failed=%llu (%.4f%%)",
                    static_cast<unsigned long long>(report.attempted()),
                    static_cast<unsigned long long>(report.failed()),
                    report.attempted() == 0
                        ? 0.0
                        : 100.0 * static_cast<double>(report.failed()) /
                              static_cast<double>(report.attempted())));
  std::printf("%s\n", report.ToJson().c_str());
  std::fflush(stdout);
  return 0;
}
