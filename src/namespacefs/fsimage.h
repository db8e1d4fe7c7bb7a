#ifndef OCTOPUSFS_NAMESPACEFS_FSIMAGE_H_
#define OCTOPUSFS_NAMESPACEFS_FSIMAGE_H_

#include <string>

#include "common/clock.h"
#include "common/status.h"
#include "namespacefs/namespace_tree.h"

namespace octo {

/// Namespace checkpoint reader/writer (the HDFS "fsimage"). The Master's
/// fuzzy checkpoint and a Backup Master both serialize the NamespaceTree
/// so recovery only replays the edit log tail written after the
/// checkpoint.
///
/// Format: one inode per tab-separated text line, after an
/// `OCTO_FSIMAGE\t2` header; any other header is Status::Corruption.
/// Control bytes ('%XX' for bytes < 0x20, 0x7f, and '%' itself) are
/// percent-escaped in the path, owner, and group fields so hostile names
/// cannot forge line or field boundaries. A file's blocks are
/// `id:length:genstamp` fields. This class only (de)serializes strings;
/// ImageStore is the durable (atomic, CRC-trailed) image writer.
class FsImage {
 public:
  /// How Deserialize reacts to a line whose inode already exists.
  ///
  /// kStrict (the default) expects each path exactly once on a fresh
  /// tree — any apply failure is an error. kFuzzy accepts the output of
  /// a fuzzy checkpoint, where the post-walk rename patch re-emits
  /// subtrees the walk already serialized: a line for an existing path
  /// *replaces* the previous content (delete + re-apply), because later
  /// lines were captured later and the patch is authoritative.
  enum class Mode { kStrict, kFuzzy };

  /// Serializes `tree` to a string (used for in-memory checkpoints).
  static std::string Serialize(const NamespaceTree& tree);

  /// The image header line, including the trailing newline. The Master's
  /// chunked checkpoint writer starts from this and appends entries with
  /// AppendEntry under per-stripe read locks.
  static std::string Header();

  /// Appends the one-line serialization of `entry` (directory or file)
  /// to `out`. Field escaping per the class comment.
  static void AppendEntry(std::string* out,
                          const NamespaceTree::VisitEntry& entry);

  /// Reconstructs a namespace from a serialized image into `tree`, which
  /// must be freshly constructed (see Mode for duplicate handling).
  static Status Deserialize(const std::string& image, NamespaceTree* tree,
                            Mode mode = Mode::kStrict);
};

}  // namespace octo

#endif  // OCTOPUSFS_NAMESPACEFS_FSIMAGE_H_
