#include "spans.hpp"

#include <chrono>
#include <cstdio>
#include <ctime>

#include "harness.hpp"

namespace perfbench {

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::SimStep: return "sim.step";
    case Layer::TotemRecv: return "totem.recv";
    case Layer::RepInvoke: return "rep.invoke";
    case Layer::AppState: return "app.state";
    case Layer::FtRecover: return "ft.recover_domain";
    case Layer::kCount: break;
  }
  return "?";
}

std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

SpanLog& SpanLog::get() {
  static SpanLog log;
  return log;
}

void SpanLog::enable(std::size_t capacity) {
  if (recs_.capacity() < capacity) recs_.reserve(capacity);
  if (stack_.capacity() < 64) stack_.reserve(64);
  if (epoch_ == 0) epoch_ = wall_ns();
  on_ = true;
}

void SpanLog::open(Layer layer, std::uint64_t op) {
  const std::uint64_t parent = stack_.empty() ? 0 : stack_.back().id;
  stack_.push_back(Frame{layer, next_id_++, parent, op, wall_ns() - epoch_,
                         eternal::bench::alloc_count(), 0, 0});
}

void SpanLog::close(std::uint64_t op) {
  const std::int64_t end = wall_ns() - epoch_;
  const std::uint64_t allocs = eternal::bench::alloc_count();
  const Frame f = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = end - f.start;
  const std::uint64_t a = allocs - f.allocs0;
  LayerTotals& t = totals_[static_cast<std::size_t>(f.layer)];
  ++t.calls;
  t.incl_ns += dur;
  t.self_ns += dur - f.child_ns;
  t.incl_allocs += a;
  t.self_allocs += a - f.child_allocs;
  if (!stack_.empty()) {
    stack_.back().child_ns += dur;
    stack_.back().child_allocs += a;
  }
  if (recs_.size() < recs_.capacity()) {
    recs_.push_back(Rec{f.id, f.parent, op != 0 ? op : f.op, f.start, end,
                        f.layer});
  } else {
    ++dropped_;
  }
}

bool SpanLog::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id,parent,layer,op,start_ns,end_ns\n");
  for (const Rec& r : recs_) {
    std::fprintf(f, "%llu,%llu,%s,%llu,%lld,%lld\n",
                 static_cast<unsigned long long>(r.id),
                 static_cast<unsigned long long>(r.parent),
                 layer_name(r.layer), static_cast<unsigned long long>(r.op),
                 static_cast<long long>(r.start),
                 static_cast<long long>(r.end));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
