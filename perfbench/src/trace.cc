#include "trace.h"

#include <algorithm>
#include <cstdio>

#include "common.h"

namespace perfbench {

void Tracer::Append(std::vector<Span>* spans, uint64_t query) {
  for (Span& span : *spans) span.query = query;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.insert(spans_.end(), spans->begin(), spans->end());
  spans->clear();
}

std::vector<Span> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

SpanTimer::SpanTimer(Tracer* tracer, std::vector<Span>* out, const char* name,
                     uint32_t parent, bool concurrent)
    : out_(out) {
  span_.id = tracer->NewId();
  span_.parent = parent;
  span_.name = name;
  span_.concurrent = concurrent;
  span_.start_ns = NowNs();
}

int64_t SpanTimer::End() {
  if (open_) {
    span_.end_ns = NowNs();
    out_->push_back(span_);
    open_ = false;
  }
  return span_.end_ns;
}

namespace {

std::string LayerOf(const Span& span) {
  const std::string name = span.name;
  if (span.parent == 0 && name == "query") return "glue";
  return name.substr(0, name.find('.'));
}

double Us(int64_t ns) { return static_cast<double>(ns) * 1e-3; }

/// Length of the union of [start, end) intervals clipped to [lo, hi).
int64_t CoveredNs(std::vector<std::pair<int64_t, int64_t>> intervals,
                  int64_t lo, int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t reach = lo;
  for (auto [start, end] : intervals) {
    start = std::max(start, reach);
    end = std::min(end, hi);
    if (end > start) {
      covered += end - start;
      reach = end;
    }
  }
  return covered;
}

}  // namespace

TraceSummary Summarize(const std::vector<Span>& spans) {
  TraceSummary out;
  uint32_t max_id = 0;
  for (const Span& s : spans) max_id = std::max(max_id, s.id);
  std::vector<int64_t> index(static_cast<size_t>(max_id) + 1, -1);
  for (size_t i = 0; i < spans.size(); ++i) {
    index[spans[i].id] = static_cast<int64_t>(i);
  }
  std::vector<std::vector<size_t>> children(spans.size());
  std::vector<size_t> roots;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out.duration_us[s.name].push_back(Us(s.end_ns - s.start_ns));
    if (s.parent != 0 && s.parent <= max_id && index[s.parent] >= 0) {
      children[static_cast<size_t>(index[s.parent])].push_back(i);
    } else {
      roots.push_back(i);
    }
  }

  // Self time of span i, and the child its blocking path continues into
  // among its concurrent children (-1 when it has none).
  std::vector<int64_t> self_ns(spans.size(), 0);
  std::vector<int64_t> slowest(spans.size(), -1);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::vector<std::pair<int64_t, int64_t>> sequential;
    int64_t slowest_ns = 0;
    double concurrent_ns = 0.0;
    size_t concurrent_count = 0;
    for (const size_t c : children[i]) {
      const int64_t dur = spans[c].end_ns - spans[c].start_ns;
      if (spans[c].concurrent) {
        concurrent_ns += static_cast<double>(dur);
        ++concurrent_count;
        if (slowest[i] < 0 || dur > slowest_ns) {
          slowest_ns = dur;
          slowest[i] = static_cast<int64_t>(c);
        }
      } else {
        sequential.emplace_back(spans[c].start_ns, spans[c].end_ns);
      }
    }
    self_ns[i] = (s.end_ns - s.start_ns) -
                 CoveredNs(std::move(sequential), s.start_ns, s.end_ns) -
                 slowest_ns;
    if (concurrent_count > 0) {
      out.fanout_overhead_us.push_back(
          Us(s.end_ns - s.start_ns - slowest_ns));
      const double mean = concurrent_ns / static_cast<double>(concurrent_count);
      out.skew.push_back(mean > 0.0 ? static_cast<double>(slowest_ns) / mean
                                    : 1.0);
    }
  }

  // Walk each query or insert root along its blocking path. Kernel
  // replays are roots of their own, outside any client operation.
  std::vector<size_t> stack;
  for (const size_t r : roots) {
    if (LayerOf(spans[r]) == "kernel") continue;
    out.roots_us += Us(spans[r].end_ns - spans[r].start_ns);
    stack.push_back(r);
    while (!stack.empty()) {
      const size_t i = stack.back();
      stack.pop_back();
      out.self_us[LayerOf(spans[i])] += Us(self_ns[i]);
      for (const size_t c : children[i]) {
        if (!spans[c].concurrent || static_cast<int64_t>(c) == slowest[i]) {
          stack.push_back(c);
        }
      }
    }
  }
  return out;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "query\tid\tparent\tname\tconcurrent\tstart_ns\tend_ns\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%llu\t%u\t%u\t%s\t%d\t%lld\t%lld\n",
                 static_cast<unsigned long long>(s.query), s.id, s.parent,
                 s.name, s.concurrent ? 1 : 0,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
