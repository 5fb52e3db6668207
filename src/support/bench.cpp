#include "support/bench.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "support/json.h"

namespace bolt::support {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

const char* json_dir() { return std::getenv("BOLT_BENCH_JSON"); }

}  // namespace

BenchTimer::BenchTimer() : start_ns_(now_ns()) {}

double BenchTimer::elapsed_ms() const {
  return static_cast<double>(now_ns() - start_ns_) / 1e6;
}

void BenchTimer::reset() { start_ns_ = now_ns(); }

BenchReport::BenchReport(std::string name) : name_(std::move(name)) {}

void BenchReport::metric(const std::string& metric_name, double value,
                         const std::string& unit, bool gate) {
  metrics_.push_back(Entry{metric_name, value, unit, gate});
}

bool BenchReport::json_enabled() { return json_dir() != nullptr; }

std::string BenchReport::to_json() const {
  JsonWriter w(2);
  w.object([&] {
    w.field("bench", name_);
    // Machine context, so the CI baseline diff can tell same-hardware
    // comparisons (gate) from cross-hardware ones (informational).
    w.field("num_cpus", std::thread::hardware_concurrency());
    w.array("metrics", metrics_, [&](const Entry& m) {
      w.object([&] {
        w.field("name", m.name);
        w.field("value", m.value);
        w.field("unit", m.unit);
        if (!m.gate) w.field("gate", false);
      });
    });
  });
  return w.take() + "\n";
}

BenchReport::~BenchReport() {
  const char* dir = json_dir();
  if (dir == nullptr) return;
  const std::string path = std::string(dir) + "/BENCH_" + name_ + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[bench] cannot write %s\n", path.c_str());
    return;
  }
  const std::string json = to_json();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "[bench] wrote %s\n", path.c_str());
}

}  // namespace bolt::support
