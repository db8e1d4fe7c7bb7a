#ifndef OCTOPUSFS_NAMESPACEFS_EDIT_LOG_H_
#define OCTOPUSFS_NAMESPACEFS_EDIT_LOG_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/replication_vector.h"
#include "namespacefs/namespace_tree.h"
#include "storage/block.h"

namespace octo {

/// Side information collected while replaying an edit log, beyond the
/// namespace mutations themselves. Used by master recovery to restore
/// fencing and lease state.
struct EditReplayInfo {
  /// Highest EPOCH record seen (0 when the log carries none).
  uint64_t max_epoch = 0;
  /// Highest GENSTAMP record seen (0 when the log carries none); the
  /// generation-stamp allocator resumes past this after replay.
  uint64_t max_genstamp = 0;
  /// Lease holder of each file whose journaled CREATE/APPEND has not been
  /// closed by a later COMPLETE/DELETE. "" = record predates holder
  /// journaling (or the holder was unknown).
  std::map<std::string, std::string> lease_holders;
  /// Records whose effect the image already carried and that were skipped
  /// (ReplayMode::kRecovery only; always 0 under kStrict).
  int64_t skipped_records = 0;
  /// RENAME records resolved by dropping the stale pre-rename copy of the
  /// subtree (ReplayMode::kRecovery only, see Replay()).
  int64_t rename_fixups = 0;
};

/// How Replay() reacts to records whose effect is already (partially)
/// present in the tree it replays onto.
///
/// kStrict demands a tree that is exactly the journal prefix's product:
/// any record that fails to apply is an error. This is the mode for
/// replaying onto stop-the-world checkpoints and for the
/// replay-equivalence tests.
///
/// kRecovery tolerates a fuzzy-checkpoint image: the image is the
/// namespace at the checkpoint txid plus an arbitrary subset of the ops
/// journaled while the image was being written, so replaying that tail
/// re-applies some ops the image already absorbed. Records that fail
/// because their effect is already present are skipped (counted in
/// EditReplayInfo::skipped_records); ADDBLOCK checks for the block id
/// before applying so a block is never appended twice; a RENAME whose
/// source and destination both exist deletes the stale source copy
/// (the destination subtree was patched into the image after the walk
/// passed the source). Malformed records are errors in both modes.
enum class ReplayMode { kStrict, kRecovery };

/// Append-only journal of namespace mutations (the HDFS "edit log").
/// Each record is one tab-separated text line. The Master appends a record
/// for every successful mutation; recovery and Backup Masters replay
/// records on top of the last checkpoint to reconstruct the namespace.
///
/// A journal is either in-memory (EditLog(): test clusters, promoted
/// masters) or segmented on disk (OpenSegmented(dir)), HDFS-style.
/// Finalized segments are named `edits_<first>-<last>`, the tail being
/// written is `edits_inprogress_<first>` (txids are 0-based record
/// indexes). Every record — and a per-segment header — is framed as
/// `<len>\t<crc32c hex8>\t<payload>\n`. On open, a torn or bit-flipped
/// tail of the in-progress segment is truncated back to the last valid
/// frame (the longest valid prefix wins; nothing past the first bad frame
/// is ever accepted), while any damage inside a finalized segment is a
/// hard Status::Corruption — finalized segments were fsynced before their
/// rename, so damage there is not a crash artifact. RollSegment()
/// finalizes the tail (fdatasync + rename + directory fsync) and opens a
/// fresh in-progress segment; the Master rolls at each checkpoint so
/// recovery is image + later segments.
///
/// Threading contract: the typed Log* appenders, Commit(), SyncToDisk(),
/// RollSegment(), ReadEntries(), size(), durable_records(), sync_count(),
/// checkpointed()/MarkCheckpointed() and PurgeSegmentsBefore() are
/// thread-safe. A mutation's record must be appended while
/// the caller still holds that path's namespace lock, so the journal
/// order equals the linearization order that failover replay
/// reconstructs; Commit() (durability) may — and for lock-ordering
/// reasons must — happen after the namespace lock is released, but
/// before the mutation is acked. entries() returns a reference into
/// internal state and is only safe when no appender is running
/// (replay/checkpoint paths, tests); concurrent readers use
/// ReadEntries(). SetFsyncOnFlush/SetWriteFaultHook are configuration
/// and must be called before concurrent use.
///
/// Durability and failure: appends only buffer in memory; Commit() runs a
/// group commit: one caller becomes the leader and flushes every record
/// appended so far in a single write, while concurrent appenders keep
/// accumulating the next batch; callers whose records a leader already
/// covered return without touching the file. Any write, flush, or fsync
/// failure (short write, ENOSPC, injected fault) is *sticky*: the log
/// stops writing, every subsequent Commit() returns the original error,
/// and the caller (Master) is expected to fail stop — an edit is acked
/// only after a Commit() that covers it returns OK, so a crash after a
/// failed commit loses no acked edit.
class EditLog {
 public:
  /// Outcome of the pre-write fault hook. `status` non-OK fails the
  /// write; if `torn_bytes` >= 0 that many bytes of the frame buffer are
  /// still written first (and deliberately NOT truncated away),
  /// simulating a crash that tore the record on disk.
  struct WriteFault {
    Status status = Status::OK();
    int64_t torn_bytes = -1;
  };

  /// In-memory journal.
  EditLog();

  /// Segmented, checksummed journal stored in `dir` (created if missing;
  /// fsimage_* files in the same directory are ignored). Loads all
  /// finalized segments strictly, recovers the in-progress segment's
  /// torn tail by truncation, and opens a fresh in-progress segment when
  /// none exists (e.g. after a crash between finalize-rename and the
  /// next segment's creation). Fails with Status::Corruption on segment
  /// gaps, duplicate in-progress files, or damage inside a finalized
  /// segment.
  static Result<std::unique_ptr<EditLog>> OpenSegmented(
      const std::string& dir);

  EditLog(const EditLog&) = delete;
  EditLog& operator=(const EditLog&) = delete;
  ~EditLog();

  // Typed record appenders, one per journaled operation.
  void LogMkdirs(const std::string& path);
  /// `lease_holder` (when non-empty) is journaled so a promoted master can
  /// rebuild the write lease for a file still under construction.
  void LogCreate(const std::string& path, const ReplicationVector& rv,
                 int64_t block_size, bool overwrite,
                 const std::string& lease_holder = "");
  void LogAddBlock(const std::string& path, const BlockInfo& block);
  void LogComplete(const std::string& path);
  void LogAppend(const std::string& path,
                 const std::string& lease_holder = "");
  void LogRename(const std::string& src, const std::string& dst);
  void LogDelete(const std::string& path, bool recursive);
  void LogSetReplication(const std::string& path,
                         const ReplicationVector& rv);
  void LogSetQuota(const std::string& path, int slot, int64_t bytes);
  void LogSetOwner(const std::string& path, const std::string& owner,
                   const std::string& group);
  void LogSetMode(const std::string& path, uint16_t mode);
  /// Journals a master-epoch advance (written by a promoted master so the
  /// fencing epoch survives checkpoint+replay chains).
  void LogEpoch(uint64_t epoch);
  /// Journals a generation-stamp allocation, so the monotonic allocator
  /// survives checkpoint/replay and failover like the epoch does.
  void LogGenstamp(uint64_t genstamp);

  /// Makes every record appended so far durable (group commit, see the
  /// class comment) and reports any sticky write error. No-op for
  /// in-memory journals. Must be called with no namespace/service locks
  /// held.
  Status Commit();

  /// Flushes the undurable suffix and fdatasyncs the in-progress segment
  /// regardless of the fsync_on_flush setting, without finalizing it.
  /// The checkpoint path calls this *before* taking the structural lock:
  /// RollSegment() always fsyncs the closing segment, and pre-paying
  /// that sync here (kernel wait runs with internal locks released, like
  /// a group-commit leader) shrinks the in-lock sync to whatever few
  /// records arrive in between. No-op for in-memory logs. Write/sync
  /// failures are sticky like Commit()'s.
  Status SyncToDisk();

  /// Finalizes the in-progress segment (flushing any undurable suffix
  /// into it first) and opens a fresh one. Returns the first txid of the
  /// new segment == the number of records journaled so far; an empty
  /// in-progress segment is kept as-is. Segmented logs only.
  Result<int64_t> RollSegment();

  /// Deletes finalized segment files whose every record is < `txid`
  /// (i.e. fully covered by a retained checkpoint image). In-memory
  /// records are kept — only the on-disk files go — so live Backup
  /// sync is unaffected; after a restart base_txid() reflects the purge.
  /// Pass the *oldest retained* image's txid, not the newest, so falling
  /// back to an older image still finds its replay tail.
  Status PurgeSegmentsBefore(int64_t txid);

  /// When on, every flush is followed by fdatasync so records survive a
  /// host crash, not just a process crash (off by default: flushes reach
  /// the page cache only). This is where group commit pays off — a
  /// leader's single fdatasync covers every record in its batch, and
  /// because the syncing leader blocks in the kernel, concurrent
  /// mutators pile their records into the next batch. Segment
  /// finalization always fsyncs regardless of this setting. Only
  /// meaningful for segmented logs.
  void SetFsyncOnFlush(bool fsync_on_flush);

  /// Installs a hook consulted before every physical journal write; the
  /// fault-injection harness uses it to simulate ENOSPC and torn writes.
  /// Must be installed before concurrent use.
  void SetWriteFaultHook(std::function<WriteFault()> hook);

  /// The sticky error from the first failed write/flush, or OK.
  Status last_io_error() const;

  /// Number of physical flushes performed so far (one per group-commit
  /// batch).
  int64_t sync_count() const;
  /// End txid of the durable prefix: every record with txid below this
  /// has been written to the in-progress segment.
  int64_t durable_records() const;

  /// Only safe when no appender runs concurrently (see class comment),
  /// and only meaningful while base_txid() == 0. Prefer ReadEntries().
  const std::vector<std::string>& entries() const { return entries_; }

  /// Thread-safe copy of the records in [from, size()) — absolute txids.
  /// Returns the txid of the first copied record, i.e.
  /// max(from, base_txid()); a return value > `from` means records below
  /// it were purged and the caller needs an image at least that new.
  int64_t ReadEntries(int64_t from, std::vector<std::string>* out) const;

  /// End txid of the journal == total records ever logged (absolute).
  int64_t size() const;
  /// Txid of the first record still held in memory (> 0 only after a
  /// purged segmented log is reopened).
  int64_t base_txid() const;

  /// Txid up to which records are folded into the latest checkpoint;
  /// replay resumes from this txid.
  int64_t checkpointed() const;
  void MarkCheckpointed(int64_t up_to);

  /// Applies records [from, entries.size()) to `tree` with superuser
  /// rights. `from` indexes into `entries` (callers with a purged log
  /// pass the ReadEntries() copy and a rebased offset). Stops at the
  /// first malformed record in either mode; see ReplayMode for how
  /// apply failures are handled. When `info` is given it collects the
  /// max epoch/genstamp, open lease holders, and recovery skip counts.
  static Status Replay(const std::vector<std::string>& entries, int64_t from,
                       NamespaceTree* tree, EditReplayInfo* info = nullptr,
                       ReplayMode mode = ReplayMode::kStrict);

 private:
  struct Segment {
    int64_t first = 0;
    int64_t last = 0;  // inclusive
    std::string path;
  };

  // Appends scratch_ as one record; called with mu_ held.
  void AppendScratchLocked();

  // Segmented write helpers. They touch fd_/seg_bytes_ which are guarded
  // by "mu_ held, or being the active group-commit leader" — the leader
  // runs with mu_ released but sync_active_ keeps every other file
  // toucher out, and the mu_ hand-offs around the leader section order
  // the accesses.
  Status WriteFramesToSegment(const char* data, size_t n);
  Status SyncSegment();
  Status StartSegment(int64_t first);
  Status RecoverInProgressSegment(int64_t first, const std::string& path);
  Status LoadFinalizedSegment(const Segment& seg);

  mutable std::mutex mu_;
  std::condition_variable sync_cv_;
  std::vector<std::string> entries_;  // records [base_txid_, size())
  int64_t checkpointed_ = 0;
  int fd_ = -1;  // in-progress segment fd
  bool fsync_on_flush_ = false;
  bool sync_active_ = false;     // a group-commit leader is flushing
  size_t durable_records_ = 0;   // relative to base_txid_
  int64_t sync_count_ = 0;
  std::string scratch_;          // reused record-format buffer
  std::vector<std::string> batch_;  // reused leader batch buffer
  std::string leader_buf_;          // reused leader frame buffer

  // Segmented backend state.
  bool segmented_ = false;
  std::string dir_;
  int64_t base_txid_ = 0;
  std::vector<Segment> segments_;  // finalized, ascending
  int64_t seg_first_ = 0;          // first txid of the in-progress segment
  std::string seg_path_;
  int64_t seg_bytes_ = 0;  // valid frame bytes in the in-progress file
  std::string frame_buf_;  // reused frame buffer (under mu_)
  Status io_error_ = Status::OK();  // sticky first write failure
  std::function<WriteFault()> write_fault_hook_;
};

}  // namespace octo

#endif  // OCTOPUSFS_NAMESPACEFS_EDIT_LOG_H_
