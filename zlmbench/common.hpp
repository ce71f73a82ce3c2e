// Shared pieces of the ZipfLM benchmark binary: run options, the metric
// record every workload fills, small statistics helpers and the host /
// build fingerprint.
//
// The binary measures every layer from the outside: it times its own
// calls into public functions of src/ and reads public counters.  A
// record carries every metric of BENCHMARK.json by name with its unit;
// zlmbench/run.py turns it into the one-line result.
#pragma once

#include <pthread.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace zlmbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured wall time of one pass
  bool trace = false;     ///< add a traced pass; report per-layer metrics
  /// Self-test hook: corrupt one recorded output so the named check
  /// must trip ("" = off).  Only the benchmark's copy of an output is
  /// altered, never the program's state.
  std::string diverge;
  std::string out_dir = ".bench_build/zlmbench";  ///< traces, records

  /// A traced run lasts as long as an untraced one: a third of the time
  /// measures the untraced reference pass, two thirds the traced pass.
  double untraced_seconds() const { return trace ? seconds / 3.0 : seconds; }
  double traced_seconds() const { return seconds * 2.0 / 3.0; }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One run's outcome.  A failed correctness check makes the run
/// incorrect; run.py then prints no metrics and exits non-zero.
class Record {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  void fail_check(const std::string& check, const std::string& detail);
  void note(const std::string& key, const std::string& value);

  bool correct() const noexcept { return failures_.empty(); }
  const std::vector<Metric>& metrics() const noexcept { return metrics_; }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Human-readable lines plus one final "RECORD {...}" JSON line.
  void print(const Options& opt) const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
  std::vector<std::pair<std::string, std::string>> notes_;
};

/// Seconds on the monotonic clock (system-wide, so forked ranks share
/// its origin).
double now_s();

/// CPU seconds used so far by every thread of this process.  The guest
/// kernel leaves out time the hypervisor gave the vCPU to other tenants
/// (steal) and time a thread waited, blocked or runnable, so the figure
/// counts the work done, not how busy the host was.
double process_cpu_s();
/// CPU seconds used so far by one thread of this process.
double thread_cpu_s(pthread_t thread);

double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
/// "p0 p10 p25 p50 p75 p90 p99 p100" of v, each times `scale`.
std::string quantiles_text(const std::vector<double>& v, double scale);
/// Peak resident set of this process so far.
double peak_rss_mib();
/// Cumulative CPU ticks of the whole machine: {steal, total}.  Steal is
/// time the hypervisor gave this VM's vCPUs to other tenants.
std::pair<double, double> cpu_steal_ticks();

/// JSON object describing host and build: CPU model, nproc, L2/L3,
/// build type, native-arch flag, active SIMD path, ZIPFLM_THREADS and
/// the live pool size.  Records with different fingerprints must not be
/// compared.
std::string fingerprint_json();

void run_char_rhn_g1(const Options& opt, Record& rec);
void run_word_zipf_g4(const Options& opt, Record& rec);
void run_serve_zipf(const Options& opt, Record& rec);

/// Per-layer metrics a workload does not exercise are reported as 0
/// (no work done), so every record carries every name.
void zero_train_layers(Record& rec);
void zero_serve_layers(Record& rec);

}  // namespace zlmbench
