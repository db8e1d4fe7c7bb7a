#include "namespacefs/fsimage.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/strings.h"
#include "core/replication_vector.h"

namespace octo {

namespace {

const UserContext kSuperuser{"root", {}};

// The only image format this build reads or writes.
constexpr char kHeaderLine[] = "OCTO_FSIMAGE\t2";

int64_t ParseI64(const std::string& s) {
  return std::strtoll(s.c_str(), nullptr, 10);
}

template <typename Int>
void AppendInt(std::string* out, Int v) {
  char buf[24];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  (void)ec;
  out->append(buf, ptr - buf);
}

// Escapes bytes that could forge the line-oriented format: control bytes
// (tab, newline, ...), DEL, and '%' itself (so escaping round-trips).
void AppendEscaped(std::string* out, const std::string& field) {
  for (unsigned char c : field) {
    if (c < 0x20 || c == 0x7f || c == '%') {
      char buf[4];
      std::snprintf(buf, sizeof(buf), "%%%02X", c);
      out->append(buf, 3);
    } else {
      out->push_back(static_cast<char>(c));
    }
  }
}

int HexNibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

// Decodes %XX escapes written by AppendEscaped. A bare or malformed '%'
// is corruption: the serializer always escapes '%'.
bool Unescape(const std::string& field, std::string* out) {
  out->clear();
  for (size_t i = 0; i < field.size(); ++i) {
    if (field[i] != '%') {
      out->push_back(field[i]);
      continue;
    }
    if (i + 2 >= field.size()) return false;
    int hi = HexNibble(field[i + 1]);
    int lo = HexNibble(field[i + 2]);
    if (hi < 0 || lo < 0) return false;
    out->push_back(static_cast<char>((hi << 4) | lo));
    i += 2;
  }
  return true;
}

}  // namespace

std::string FsImage::Header() { return std::string(kHeaderLine) + "\n"; }

void FsImage::AppendEntry(std::string* out,
                          const NamespaceTree::VisitEntry& entry) {
  const FileStatus& st = entry.status;
  if (st.is_dir) {
    out->append("D\t");
    AppendEscaped(out, st.path);
    out->push_back('\t');
    AppendEscaped(out, st.owner);
    out->push_back('\t');
    AppendEscaped(out, st.group);
    out->push_back('\t');
    AppendInt(out, st.mode);
    out->push_back('\t');
    AppendInt(out, st.mtime_micros);
    for (int i = 0; i < 8; ++i) {
      out->push_back('\t');
      AppendInt(out, entry.quota[i]);
    }
    out->push_back('\n');
  } else {
    out->append("F\t");
    AppendEscaped(out, st.path);
    out->push_back('\t');
    AppendEscaped(out, st.owner);
    out->push_back('\t');
    AppendEscaped(out, st.group);
    out->push_back('\t');
    AppendInt(out, st.mode);
    out->push_back('\t');
    AppendInt(out, st.mtime_micros);
    out->push_back('\t');
    AppendInt(out, st.rep_vector.Encode());
    out->push_back('\t');
    AppendInt(out, st.block_size);
    out->push_back('\t');
    out->push_back(st.under_construction ? '1' : '0');
    out->push_back('\t');
    AppendInt(out, entry.blocks.size());
    for (const BlockInfo& b : entry.blocks) {
      out->push_back('\t');
      AppendInt(out, b.id);
      out->push_back(':');
      AppendInt(out, b.length);
      out->push_back(':');
      AppendInt(out, b.genstamp);
    }
    out->push_back('\n');
  }
}

std::string FsImage::Serialize(const NamespaceTree& tree) {
  std::string out = Header();
  tree.Visit([&out](const NamespaceTree::VisitEntry& e) {
    AppendEntry(&out, e);
  });
  return out;
}

Status FsImage::Deserialize(const std::string& image, NamespaceTree* tree,
                            Mode mode) {
  std::istringstream in(image);
  std::string line;
  if (!std::getline(in, line) || line != kHeaderLine) {
    return Status::Corruption("fsimage header is not " +
                              std::string(kHeaderLine) + ": " +
                              line.substr(0, 32));
  }
  const bool fuzzy = mode == Mode::kFuzzy;
  int line_no = 1;
  std::string path;
  std::string owner;
  std::string group;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::vector<std::string> f = Split(line, '\t');
    Status st;
    if (f.size() >= 4 && !(Unescape(f[1], &path) && Unescape(f[2], &owner) &&
                           Unescape(f[3], &group))) {
      return Status::Corruption("fsimage line " + std::to_string(line_no) +
                                ": malformed field escape");
    }
    if (f[0] == "D" && f.size() == 14) {
      if (fuzzy && path != "/" && tree->Exists(path)) {
        auto prev = tree->GetFileStatus(path, kSuperuser);
        if (prev.ok() && !prev->is_dir) {
          // The walk serialized a file here; this later line says the
          // path is now a directory. Later wins.
          auto del = tree->Delete(path, /*recursive=*/true, kSuperuser);
          if (!del.ok()) return del.status();
        }
      }
      if (path != "/") {
        st = tree->Mkdirs(path, kSuperuser);
        if (!st.ok()) return st;
      }
      for (int i = 0; i < 8; ++i) {
        int64_t q = ParseI64(f[6 + i]);
        // Fuzzy re-emission is authoritative: clear slots the earlier
        // copy of this line may have set.
        if (q >= 0 || fuzzy) {
          st = tree->SetQuota(path, i, q);
          if (!st.ok()) return st;
        }
      }
      st = tree->SetOwner(path, owner, group, kSuperuser);
      if (!st.ok()) return st;
      st = tree->SetMode(path, static_cast<uint16_t>(ParseI64(f[4])),
                         kSuperuser);
      if (!st.ok()) return st;
    } else if (f[0] == "F" && f.size() >= 10) {
      if (fuzzy && tree->Exists(path)) {
        auto del = tree->Delete(path, /*recursive=*/true, kSuperuser);
        if (!del.ok()) return del.status();
      }
      auto rv = ReplicationVector::FromEncoded(
          static_cast<uint64_t>(ParseI64(f[6])));
      st = tree->CreateFile(path, rv, ParseI64(f[7]), /*overwrite=*/false,
                            kSuperuser);
      if (!st.ok()) return st;
      size_t num_blocks = static_cast<size_t>(ParseI64(f[9]));
      if (f.size() != 10 + num_blocks) {
        return Status::Corruption("fsimage line " + std::to_string(line_no) +
                                  ": block count mismatch");
      }
      for (size_t i = 0; i < num_blocks; ++i) {
        // id:length:genstamp
        std::vector<std::string> parts = Split(f[10 + i], ':');
        if (parts.size() != 3) {
          return Status::Corruption("fsimage line " + std::to_string(line_no) +
                                    ": bad block entry " + f[10 + i]);
        }
        BlockInfo b{ParseI64(parts[0]), ParseI64(parts[1]),
                    static_cast<uint64_t>(ParseI64(parts[2]))};
        st = tree->AddBlock(path, b);
        if (!st.ok()) return st;
      }
      if (f[8] == "0") {
        st = tree->CompleteFile(path);
        if (!st.ok()) return st;
      }
      st = tree->SetOwner(path, owner, group, kSuperuser);
      if (!st.ok()) return st;
      st = tree->SetMode(path, static_cast<uint16_t>(ParseI64(f[4])),
                         kSuperuser);
      if (!st.ok()) return st;
    } else {
      return Status::Corruption("fsimage line " + std::to_string(line_no) +
                                " malformed: " + line);
    }
  }
  return Status::OK();
}

}  // namespace octo
