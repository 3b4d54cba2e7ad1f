#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <utility>

namespace e2ebench {

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  const size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  const double upper = samples[mid];
  if (samples.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(samples.begin(), samples.begin() + mid);
  return 0.5 * (lower + upper);
}

TailSummary SummarizeTail(std::vector<double> samples) {
  TailSummary out;
  out.samples = static_cast<int64_t>(samples.size());
  out.p50 = Median(samples);
  out.tail = out.p50;
  const int64_t n = out.samples;
  if (n < 2 * TailSummary::kTailBeyond) return out;
  const int64_t basis = std::min(n, TailSummary::kTailSample);
  out.tail_percentile =
      100.0 * static_cast<double>(basis - TailSummary::kTailBeyond) / basis;
  // Nearest rank: the ceil(p * n)-th smallest sample (1-based).
  const auto rank = static_cast<int64_t>(
      std::ceil(out.tail_percentile / 100.0 * static_cast<double>(n) - 1e-9));
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  out.tail = samples[rank - 1];
  return out;
}

void LatencySample::Add(double value) {
  ++seen_;
  if (values_.size() < capacity_) {
    values_.push_back(value);
    return;
  }
  // SplitMix64 step; keep the new value with probability capacity / seen.
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  const uint64_t slot = z % static_cast<uint64_t>(seen_);
  if (slot < capacity_) values_[slot] = value;
}

void LatencySample::Merge(const LatencySample& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  seen_ += other.seen_;
}

int32_t ThreadTrace::Begin(const char* name, int64_t id) {
  SpanRecord span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.id = id >= 0 || span.parent < 0 ? id : spans_[span.parent].id;
  const auto index = static_cast<int32_t>(spans_.size());
  open_.push_back(index);
  span.start_ns = NowNs();
  spans_.push_back(span);
  return index;
}

void ThreadTrace::End(int32_t span) {
  spans_[span].end_ns = NowNs();
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

std::vector<double> SelfSeconds(std::span<const SpanRecord> spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t begin = spans[i].start_ns;
    const int64_t end = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = begin;
    for (auto [kb, ke] : kids) {
      kb = std::max(kb, cursor);
      ke = std::min(ke, end);
      if (ke > kb) {
        covered += ke - kb;
        cursor = ke;
      }
    }
    self[i] = static_cast<double>(end - begin - covered) * 1e-9;
  }
  return self;
}

ThreadTrace* Tracer::NewThread(const std::string& thread_name) {
  std::lock_guard<std::mutex> lock(mu_);
  threads_.push_back(std::make_unique<ThreadTrace>(thread_name));
  return threads_.back().get();
}

int64_t Tracer::SpanCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t total = 0;
  for (const auto& t : threads_) total += static_cast<int64_t>(t->spans().size());
  return total;
}

std::map<std::string, LayerTime> Tracer::LayerTimes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, LayerTime> layers;
  for (const auto& t : threads_) {
    const std::vector<double> self = SelfSeconds(t->spans());
    for (size_t i = 0; i < self.size(); ++i) {
      LayerTime& layer = layers[t->spans()[i].name];
      ++layer.calls;
      layer.self_seconds += self[i];
      layer.self_samples.push_back(self[i]);
    }
  }
  return layers;
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "thread\tindex\tparent\tname\tid\tstart_ns\tend_ns\tself_ns\n");
  for (const auto& t : threads_) {
    const std::vector<double> self = SelfSeconds(t->spans());
    for (size_t i = 0; i < self.size(); ++i) {
      const SpanRecord& s = t->spans()[i];
      std::fprintf(f, "%s\t%zu\t%d\t%s\t%lld\t%lld\t%lld\t%lld\n",
                   t->thread_name().c_str(), i, s.parent, s.name,
                   static_cast<long long>(s.id),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(std::llround(self[i] * 1e9)));
    }
  }
  return std::fclose(f) == 0;
}

void Digest::Add(uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash_ ^= (value >> (8 * byte)) & 0xff;
    hash_ *= 0x100000001b3ull;
  }
}

void Digest::AddDouble(double value) { Add(std::bit_cast<uint64_t>(value)); }

void Digest::AddClusters(std::span<const alid::Cluster> clusters) {
  Add(clusters.size());
  for (const alid::Cluster& c : clusters) {
    Add(c.members.size());
    for (alid::Index m : c.members) Add(static_cast<uint64_t>(m));
    for (alid::Scalar w : c.weights) AddDouble(w);
  }
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           buf + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace e2ebench
