#include "delivery/archiver.h"

#include "common/strings.h"

namespace bistro {

ArchiverEndpoint::ArchiverEndpoint(FileSystem* fs, std::string root)
    : fs_(fs), root_(std::move(root)) {}

Status ArchiverEndpoint::HandleMessage(const Message& msg) {
  switch (msg.type) {
    case MessageType::kFileData: {
      BISTRO_RETURN_IF_ERROR(VerifyPayloadCrc(msg));
      std::string dest;
      if (msg.data_time != 0) {
        CivilTime c = ToCivil(msg.data_time);
        dest = path::Join(
            root_, StrFormat("%04d/%02d/%02d/%s", c.year, c.month, c.day,
                             msg.name.c_str()));
      } else {
        dest = path::Join(root_, msg.name);
      }
      BISTRO_RETURN_IF_ERROR(fs_->WriteFile(dest, msg.payload));
      ++files_archived_;
      bytes_archived_ += msg.payload.size();
      return Status::OK();
    }
    default:
      // Notifications / batch markers / heartbeats need no archival.
      return Status::OK();
  }
}

Status ArchiverEndpoint::StoreReceiptState(std::string_view snapshot_name,
                                           std::string_view bytes) {
  std::string dest =
      path::Join(path::Join(root_, "_receipt_state"), std::string(snapshot_name));
  BISTRO_RETURN_IF_ERROR(fs_->WriteFile(dest, bytes));
  ++receipt_snapshots_;
  return Status::OK();
}

namespace {
// Snapshot format: repeated (path-suffix, contents) pairs, length-prefixed.
void PutChunk(std::string* out, std::string_view s) {
  uint64_t v = s.size();
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
  out->append(s.data(), s.size());
}

bool GetChunk(std::string_view* in, std::string_view* s) {
  uint64_t len = 0;
  int shift = 0;
  while (!in->empty() && shift <= 63) {
    uint8_t byte = static_cast<uint8_t>(in->front());
    in->remove_prefix(1);
    len |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      if (in->size() < len) return false;
      *s = in->substr(0, len);
      in->remove_prefix(len);
      return true;
    }
    shift += 7;
  }
  return false;
}
}  // namespace

Result<uint64_t> ShipReceiptState(FileSystem* fs, const std::string& db_dir,
                                  ArchiverEndpoint* archiver,
                                  std::string_view snapshot_name) {
  BISTRO_ASSIGN_OR_RETURN(auto entries, fs->ListRecursive(db_dir));
  std::string snapshot;
  for (const FileInfo& info : entries) {
    BISTRO_ASSIGN_OR_RETURN(std::string contents, fs->ReadFile(info.path));
    std::string_view rel(info.path);
    rel.remove_prefix(db_dir.size());
    while (!rel.empty() && rel.front() == '/') rel.remove_prefix(1);
    PutChunk(&snapshot, rel);
    PutChunk(&snapshot, contents);
  }
  uint64_t size = snapshot.size();
  BISTRO_RETURN_IF_ERROR(
      archiver->StoreReceiptState(snapshot_name, snapshot));
  return size;
}

Status RestoreReceiptState(FileSystem* archive_fs,
                           const ArchiverEndpoint& archiver,
                           std::string_view snapshot_name, FileSystem* fs,
                           const std::string& db_dir) {
  std::string src = path::Join(path::Join(archiver.root(), "_receipt_state"),
                               std::string(snapshot_name));
  BISTRO_ASSIGN_OR_RETURN(std::string snapshot, archive_fs->ReadFile(src));
  std::string_view in(snapshot);
  while (!in.empty()) {
    std::string_view rel, contents;
    if (!GetChunk(&in, &rel) || !GetChunk(&in, &contents)) {
      return Status::Corruption("truncated receipt-state snapshot");
    }
    BISTRO_RETURN_IF_ERROR(
        fs->WriteFile(path::Join(db_dir, std::string(rel)), contents));
  }
  return Status::OK();
}

}  // namespace bistro
