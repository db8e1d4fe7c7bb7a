#ifndef OCTOPUSFS_BENCH_E2E_TRACE_H_
#define OCTOPUSFS_BENCH_E2E_TRACE_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace octo::e2e {

/// Every span the benchmark records. The text before the first '.' of a
/// span's name is the layer its self time is charged to; root spans
/// ("op.*") are the benchmark's own client, so their self time is the
/// part of an operation no instrumented layer accounts for.
enum class SpanName : uint8_t {
  kOpMkdirs,
  kOpWrite,
  kOpCreate,
  kOpRead,
  kOpStat,
  kOpOpen,
  kOpList,
  kOpRename,
  kOpDelete,
  kMasterMkdirs,
  kMasterCreate,
  kMasterAddBlock,
  kMasterCommitBlock,
  kMasterCompleteFile,
  kMasterGetFileStatus,
  kMasterGetBlockLocations,
  kMasterListDirectory,
  kMasterRename,
  kMasterDelete,
  kPlacementPlace,
  kRetrievalOrder,
  kWorkerOpenBlock,
  kWorkerWritePacket,
  kWorkerFinalizeBlock,
  kWorkerGetReplicaInfo,
  kWorkerReadBlock,
  kWorkerNoteBlockRead,
  kControlHeartbeatRound,
  kControlMonitorRound,
  kTieringTick,
  kCheckpoint,
  kCount,
};

inline constexpr int kNumSpanNames = static_cast<int>(SpanName::kCount);

/// "master.add_block", "worker.write_packet", ...
const char* SpanNameString(SpanName name);
/// "client" for root spans, otherwise the name's prefix ("master", ...).
std::string SpanLayer(SpanName name);

/// Turns span recording on or off for units of work that begin after the
/// call. A unit already running keeps the state it began with, so every
/// recorded operation is recorded whole.
void SetTracing(bool enabled);
bool TracingEnabled();

/// One unit of work on this thread (a client operation or a control
/// round) and its root span. Spans opened on the thread while it lives
/// nest under it; with tracing off it records nothing.
class ScopedOp {
 public:
  ScopedOp(SpanName root, int64_t op_id);
  ~ScopedOp();
  ScopedOp(const ScopedOp&) = delete;
  ScopedOp& operator=(const ScopedOp&) = delete;

  /// True when this unit of work is being recorded.
  bool recording() const { return index_ >= 0; }

 private:
  int32_t index_ = -1;
};

/// A child span inside the enclosing ScopedOp on this thread.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanName name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int32_t index_ = -1;
};

/// Per-name aggregate over every recorded span.
struct SpanStats {
  int64_t calls = 0;
  double total_us = 0;
  /// Duration minus the time covered by the span's children.
  double self_us = 0;
  std::vector<float> durations_us;
};

struct TraceSummary {
  std::array<SpanStats, kNumSpanNames> by_name;
  int64_t spans = 0;
  /// Spans not recorded because a thread's buffer was full.
  int64_t dropped = 0;
};

/// Aggregates the spans of client operations (op id != 0) recorded since
/// the last ResetTraces(); background rounds (op id 0) appear only in the
/// Chrome trace. Call only while no thread records.
TraceSummary SummarizeTraces();

/// Writes the recorded spans as Chrome trace-event JSON (Perfetto and
/// chrome://tracing open it), at most `max_spans_per_thread` per thread.
Status WriteChromeTrace(const std::string& path, size_t max_spans_per_thread);

/// Drops every recorded span (buffers stay allocated for their threads).
void ResetTraces();

}  // namespace octo::e2e

#endif  // OCTOPUSFS_BENCH_E2E_TRACE_H_
