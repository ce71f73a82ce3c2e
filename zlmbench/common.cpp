#include "common.hpp"

#include <pthread.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "zipflm/support/thread_pool.hpp"
#include "zipflm/tensor/simd.hpp"

namespace zlmbench {

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

/// Size string ("2048K") of cpu0's unified or data cache at `level`.
std::string cache_size(int level) {
  for (int i = 0; i < 8; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    const std::string lv = read_first_line(dir + "level");
    if (lv.empty()) break;
    const std::string type = read_first_line(dir + "type");
    if (std::atoi(lv.c_str()) == level && type != "Instruction") {
      return read_first_line(dir + "size");
    }
  }
  return "unknown";
}

}  // namespace

void Record::set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

void Record::fail_check(const std::string& check, const std::string& detail) {
  std::fprintf(stderr, "CHECK FAILED %s: %s\n", check.c_str(),
               detail.c_str());
  failures_.push_back(check + ": " + detail);
}

void Record::note(const std::string& key, const std::string& value) {
  for (auto& [k, v] : notes_) {
    if (k == key) {
      v = value;
      return;
    }
  }
  notes_.emplace_back(key, value);
}

void Record::print(const Options& opt) const {
  for (const Metric& m : metrics_) {
    std::printf("%-34s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const auto& [k, v] : notes_) {
    std::printf("note %s: %s\n", k.c_str(), v.c_str());
  }
  std::string out = "RECORD {\"workload\":" + json_string(opt.workload) +
                    ",\"seed\":" + std::to_string(opt.seed) +
                    ",\"seconds\":" + json_number(opt.seconds) +
                    ",\"trace\":" + (opt.trace ? "true" : "false") +
                    ",\"correct\":" + (correct() ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(attempted) +
                    ",\"failed\":" + std::to_string(failed) +
                    ",\"fingerprint\":" + fingerprint_json() +
                    ",\"failures\":[";
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    if (i > 0) out += ',';
    out += json_string(failures_[i]);
  }
  out += "],\"notes\":{";
  for (std::size_t i = 0; i < notes_.size(); ++i) {
    if (i > 0) out += ',';
    out += json_string(notes_[i].first) + ":" + json_string(notes_[i].second);
  }
  out += "},\"metrics\":{";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) out += ',';
    out += json_string(metrics_[i].name) +
           ":{\"value\":" + json_number(metrics_[i].value) +
           ",\"unit\":" + json_string(metrics_[i].unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

double clock_s(clockid_t clock) {
  timespec ts{};
  if (::clock_gettime(clock, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }

double thread_cpu_s(pthread_t thread) {
  clockid_t clock{};
  if (::pthread_getcpuclockid(thread, &clock) != 0) return 0.0;
  return clock_s(clock);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

std::string quantiles_text(const std::vector<double>& v, double scale) {
  std::string out;
  for (const double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    if (!out.empty()) out += ' ';
    out += std::to_string(scale * quantile(v, q));
  }
  return out;
}

std::pair<double, double> cpu_steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double total = 0.0;
  double steal = 0.0;
  for (int i = 0; i < 8; ++i) {
    double ticks = 0.0;
    if (!(in >> ticks)) break;
    total += ticks;
    if (i == 7) steal = ticks;
  }
  return {steal, total};
}

double peak_rss_mib() {
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  return static_cast<double>(self.ru_maxrss) / 1024.0;
}

std::string fingerprint_json() {
  const char* threads = std::getenv("ZIPFLM_THREADS");
  const bool scalar =
      zipflm::simd::active_backend() == zipflm::simd::Backend::kScalar;
  std::ostringstream o;
  o << "{\"cpu\":" << json_string(cpu_model())
    << ",\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
    << ",\"l2\":" << json_string(cache_size(2))
    << ",\"l3\":" << json_string(cache_size(3))
    << ",\"build_type\":" << json_string(ZLMBENCH_BUILD_TYPE)
    << ",\"native_arch\":" << json_string(ZLMBENCH_NATIVE_ARCH)
    << ",\"simd\":"
    << json_string(scalar ? "scalar" : zipflm::simd::native_isa())
    << ",\"zipflm_threads\":" << json_string(threads ? threads : "")
    << ",\"pool_threads\":" << zipflm::ThreadPool::global().size() << "}";
  return o.str();
}

}  // namespace zlmbench
