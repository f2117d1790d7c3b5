#include "ledger.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <functional>
#include <queue>

namespace perfbench {

double now_s() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - origin).count();
}

Ledger::Scope::Scope(Ledger* ledger, const char* name) : ledger_(ledger) {
  if (ledger_ == nullptr) return;
  Span span;
  span.name = name;
  span.parent = ledger_->open_.empty() ? -1 : ledger_->open_.back();
  index_ = static_cast<int>(ledger_->spans_.size());
  ledger_->spans_.push_back(std::move(span));
  ledger_->open_.push_back(index_);
  ledger_->spans_.back().start_s = now_s();
}

Ledger::Scope::~Scope() {
  if (ledger_ == nullptr) return;
  ledger_->spans_[static_cast<std::size_t>(index_)].end_s = now_s();
  ledger_->open_.pop_back();
}

double Ledger::total_s(const std::string& name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) total += s.end_s - s.start_s;
  }
  return total;
}

double Ledger::self_s(const std::string& name) const {
  std::vector<double> children(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) children[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
  }
  double total = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) total += spans_[i].end_s - spans_[i].start_s - children[i];
  }
  return total;
}

std::vector<double> Ledger::durations_s(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.end_s - s.start_s);
  }
  return out;
}

bool Ledger::write_json(const std::string& path, const std::string& workload) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"workload\": \"" << workload << "\", \"spans\": [\n";
  char line[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof(line),
                  "  {\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f, "
                  "\"parent\": %d}%s\n",
                  i, s.name.c_str(), s.start_s, s.end_s, s.parent,
                  i + 1 < spans_.size() ? "," : "");
    out << line;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

void Metrics::set(const std::string& name, double value, const std::string& unit) {
  for (Metric& m : items_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  items_.push_back({name, value, unit});
}

const Metric* Metrics::find(const std::string& name) const {
  for (const Metric& m : items_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

double Metrics::value(const std::string& name) const {
  const Metric* m = find(name);
  return m == nullptr ? 0.0 : m->value;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

void Digest::add(std::uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    hash_ ^= (word >> (8 * byte)) & 0xFF;
    hash_ *= 1099511628211ull;
  }
}

void Digest::add_double(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  add(bits);
}

double host_reference_s() {
  // One cycle through every slot (Sattolo's shuffle), so the walk
  // touches the whole table instead of falling into a short loop.
  static const std::vector<std::uint32_t> table = [] {
    std::vector<std::uint32_t> t(1u << 20);
    for (std::uint32_t i = 0; i < t.size(); ++i) t[i] = i;
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (std::size_t i = t.size() - 1; i > 0; --i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      std::swap(t[i], t[(x >> 33) % i]);
    }
    return t;
  }();
  const double start = now_s();
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>, std::greater<>> heap;
  std::uint64_t x = 1, sink = 0;
  for (int i = 0; i < 200000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    heap.push(sink + (x >> 40));
    if (heap.size() > 4096) {
      sink = heap.top();
      heap.pop();
    }
  }
  std::uint32_t at = 0;
  for (int i = 0; i < 600000; ++i) at = table[at];
  const double elapsed = now_s() - start;
  // Keep the work observable so it cannot be optimized away.
  static volatile std::uint64_t keep = 0;
  keep = keep + sink + at;
  return elapsed;
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string word;
  while (status >> word) {
    if (word == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

double process_cpu_s() {
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace perfbench
