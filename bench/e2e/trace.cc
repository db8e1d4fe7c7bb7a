#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <iterator>
#include <memory>
#include <mutex>

namespace octo::e2e {

namespace {

constexpr const char* kNames[] = {
    "op.mkdirs",
    "op.write",
    "op.create",
    "op.read",
    "op.stat",
    "op.open",
    "op.ls",
    "op.rename",
    "op.delete",
    "master.mkdirs",
    "master.create",
    "master.add_block",
    "master.commit_block",
    "master.complete_file",
    "master.get_file_status",
    "master.get_block_locations",
    "master.list_directory",
    "master.rename",
    "master.delete",
    "placement.place",
    "retrieval.order",
    "worker.open_block",
    "worker.write_packet",
    "worker.finalize_block",
    "worker.get_replica_info",
    "worker.read_block",
    "worker.note_block_read",
    "control.heartbeat_round",
    "control.monitor_round",
    "tiering.tick",
    "checkpoint.write",
};
static_assert(std::size(kNames) == kNumSpanNames, "one name per SpanName");

// One recorded interval. `parent` indexes the same thread's buffer (-1 for
// a root span); `op` is the id of the unit of work it belongs to.
struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t op = 0;
  int32_t parent = -1;
  SpanName name = SpanName::kCount;
};

// Preallocated once per recording thread (32 MiB of address space; pages
// are touched only as spans arrive), so recording never allocates.
constexpr size_t kSpansPerThread = size_t{1} << 20;

struct ThreadBuffer {
  std::vector<Span> spans;
  int32_t current = -1;
  bool active = false;
  int64_t op = 0;
  int64_t dropped = 0;
  int tid = 0;
};

std::atomic<bool> g_enabled{false};
std::mutex g_mu;
// Owned here, not by the threads: buffers outlive the threads that filled
// them so the summary can run after every worker thread has joined.
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;
thread_local ThreadBuffer* tl_buffer = nullptr;

ThreadBuffer* Buffer() {
  if (tl_buffer == nullptr) {
    auto buffer = std::make_unique<ThreadBuffer>();
    buffer->spans.reserve(kSpansPerThread);
    std::lock_guard<std::mutex> lock(g_mu);
    buffer->tid = static_cast<int>(g_buffers.size()) + 1;
    tl_buffer = buffer.get();
    g_buffers.push_back(std::move(buffer));
  }
  return tl_buffer;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int32_t OpenSpan(ThreadBuffer* b, SpanName name) {
  if (b->spans.size() == b->spans.capacity()) {
    ++b->dropped;
    return -1;
  }
  Span span;
  span.op = b->op;
  span.parent = b->current;
  span.name = name;
  span.start_ns = NowNs();
  b->spans.push_back(span);
  b->current = static_cast<int32_t>(b->spans.size() - 1);
  return b->current;
}

void CloseSpan(ThreadBuffer* b, int32_t index) {
  Span& span = b->spans[static_cast<size_t>(index)];
  span.end_ns = NowNs();
  b->current = span.parent;
}

}  // namespace

const char* SpanNameString(SpanName name) {
  return kNames[static_cast<int>(name)];
}

std::string SpanLayer(SpanName name) {
  std::string full = SpanNameString(name);
  std::string layer = full.substr(0, full.find('.'));
  return layer == "op" ? "client" : layer;
}

void SetTracing(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

bool TracingEnabled() { return g_enabled.load(std::memory_order_relaxed); }

ScopedOp::ScopedOp(SpanName root, int64_t op_id) {
  if (!TracingEnabled()) return;
  ThreadBuffer* b = Buffer();
  b->op = op_id;
  b->current = -1;
  index_ = OpenSpan(b, root);
  b->active = index_ >= 0;
}

ScopedOp::~ScopedOp() {
  if (index_ < 0) return;
  CloseSpan(tl_buffer, index_);
  tl_buffer->active = false;
}

ScopedSpan::ScopedSpan(SpanName name) {
  ThreadBuffer* b = tl_buffer;
  if (b == nullptr || !b->active) return;
  index_ = OpenSpan(b, name);
}

ScopedSpan::~ScopedSpan() {
  if (index_ >= 0) CloseSpan(tl_buffer, index_);
}

TraceSummary SummarizeTraces() {
  TraceSummary summary;
  std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& buffer : g_buffers) {
    const std::vector<Span>& spans = buffer->spans;
    std::vector<double> child_us(spans.size(), 0.0);
    for (const Span& span : spans) {
      if (span.parent >= 0) {
        child_us[static_cast<size_t>(span.parent)] +=
            static_cast<double>(span.end_ns - span.start_ns) / 1e3;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].op == 0) continue;  // background work, not a client op
      const double us =
          static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e3;
      SpanStats& stats = summary.by_name[static_cast<int>(spans[i].name)];
      ++stats.calls;
      stats.total_us += us;
      stats.self_us += us - child_us[i];
      stats.durations_us.push_back(static_cast<float>(us));
    }
    summary.spans += static_cast<int64_t>(spans.size());
    summary.dropped += buffer->dropped;
  }
  return summary;
}

Status WriteChromeTrace(const std::string& path, size_t max_spans_per_thread) {
  std::lock_guard<std::mutex> lock(g_mu);
  int64_t origin = INT64_MAX;
  for (const auto& buffer : g_buffers) {
    for (const Span& span : buffer->spans) {
      origin = std::min(origin, span.start_ns);
    }
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IoError("cannot write " + path);
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
  bool first = true;
  for (const auto& buffer : g_buffers) {
    const size_t n = std::min(buffer->spans.size(), max_spans_per_thread);
    for (size_t i = 0; i < n; ++i) {
      const Span& span = buffer->spans[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"op\":%lld}}",
                   first ? "" : ",", SpanNameString(span.name),
                   SpanLayer(span.name).c_str(), buffer->tid,
                   static_cast<double>(span.start_ns - origin) / 1e3,
                   static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                   static_cast<long long>(span.op));
      first = false;
    }
  }
  std::fputs("\n]}\n", f);
  const bool ok = std::fclose(f) == 0;
  return ok ? Status::OK() : Status::IoError("short write to " + path);
}

void ResetTraces() {
  std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& buffer : g_buffers) {
    buffer->spans.clear();
    buffer->dropped = 0;
    buffer->current = -1;
  }
}

}  // namespace octo::e2e
