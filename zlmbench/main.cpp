// zlmbench: one run of one ZipfLM benchmark workload.
//
//   zlmbench --workload char_rhn_g1|word_zipf_g4|serve_zipf --seed N
//            --seconds S [--trace 0|1] [--diverge nonfinite|oracle|replay]
//            [--out-dir DIR]
//
// Prints every metric by name with its unit, then one "RECORD {...}"
// JSON line with the host/build fingerprint.  Exit code 0 when every
// correctness check passed, 3 when one failed, 2 on bad arguments and
// 1 on an error.  zlmbench/run.py builds this binary and is the
// benchmark's entry point.
#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: zlmbench --workload char_rhn_g1|word_zipf_g4|"
               "serve_zipf --seed N --seconds S [--trace 0|1] "
               "[--diverge nonfinite|oracle|replay] [--out-dir DIR]\n");
  return 2;
}

/// char_rhn_g1's pool size: the pool's parallel path runs, while half
/// of a 4-vCPU host stays free for the noise of its other tenants.
constexpr const char* kCharPoolThreads = "2";

/// mkdir -p for a relative or absolute path.
bool make_dirs(const std::string& path) {
  for (std::size_t i = 1; i <= path.size(); ++i) {
    if (i == path.size() || path[i] == '/') {
      const std::string prefix = path.substr(0, i);
      if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  zlmbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string val = argv[++i];
    if (arg == "--workload") {
      opt.workload = val;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), nullptr);
    } else if (arg == "--trace") {
      opt.trace = val == "1";
    } else if (arg == "--diverge") {
      opt.diverge = val;
    } else if (arg == "--out-dir") {
      opt.out_dir = val;
    } else {
      return usage();
    }
  }
  if (!(opt.seconds > 0.0) || opt.seconds > 120.0) return usage();
  if (!make_dirs(opt.out_dir)) {
    std::perror(opt.out_dir.c_str());
    return 1;
  }

  // Compute threads per process, fixed before anything builds the
  // global pool.  char_rhn_g1 runs a pool of kCharPoolThreads;
  // word_zipf_g4 runs one thread per rank (four ranks fill four cores,
  // and forked ranks never inherit a pool whose worker threads did not
  // survive the fork); serve_zipf runs one per shard.
  ::setenv("ZIPFLM_THREADS",
           opt.workload == "char_rhn_g1" ? kCharPoolThreads : "1", 1);

  zlmbench::Record rec;
  const auto [steal0, total0] = zlmbench::cpu_steal_ticks();
  try {
    if (opt.workload == "char_rhn_g1") {
      zlmbench::run_char_rhn_g1(opt, rec);
    } else if (opt.workload == "word_zipf_g4") {
      zlmbench::run_word_zipf_g4(opt, rec);
    } else if (opt.workload == "serve_zipf") {
      zlmbench::run_serve_zipf(opt, rec);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "zlmbench: %s\n", e.what());
    return 1;
  }
  // Share of the machine's CPU time taken by other tenants of the host
  // while the run lasted: context for a noisy figure.
  const auto [steal1, total1] = zlmbench::cpu_steal_ticks();
  rec.note("host.steal_share",
           std::to_string(total1 > total0
                              ? (steal1 - steal0) / (total1 - total0)
                              : 0.0));
  rec.print(opt);
  return rec.correct() ? 0 : 3;
}
