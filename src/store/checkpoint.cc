#include "store/checkpoint.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "wire/wire.h"
#include "store/checksum.h"

namespace pulse {
namespace store {

namespace {

constexpr char kCkpMagic[8] = {'P', 'U', 'L', 'S', 'E', 'C', 'K', 'P'};
constexpr uint32_t kCkpVersion = 1;

Status Errno(const std::string& what, const std::string& path) {
  return Status::IoError(what + " '" + path + "': " + std::strerror(errno));
}

/// fsyncs the directory containing `path` so the rename itself is
/// durable (a crash after rename but before the directory sync could
/// otherwise resurrect the old checkpoint).
Status SyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  // Constructed once, never reassigned from a literal: GCC 12 at -O3
  // flags that reassignment with a spurious -Wrestrict.
  const std::string dir = slash == std::string::npos ? std::string(".")
                          : slash == 0               ? std::string("/")
                                                     : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Errno("open directory", dir);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Errno("fsync directory", dir);
  return Status::OK();
}

}  // namespace

std::string EncodeCheckpoint(const Checkpoint& checkpoint) {
  std::string payload;
  wire::PutU64(&payload, checkpoint.log_records);
  wire::PutU64(&payload, checkpoint.log_bytes);
  wire::PutU64(&payload, checkpoint.delivered_outputs);
  wire::PutU64(&payload, checkpoint.output_hash);
  wire::PutU8(&payload, checkpoint.finished ? 1 : 0);

  std::string out(kCkpMagic, sizeof(kCkpMagic));
  wire::PutU32(&out, kCkpVersion);
  wire::PutU32(&out, static_cast<uint32_t>(payload.size()));
  wire::PutU32(&out, Crc32c(payload));
  out.append(payload);
  return out;
}

Result<Checkpoint> DecodeCheckpoint(const char* data, size_t n) {
  constexpr size_t kPrefix = sizeof(kCkpMagic) + 12;
  if (n < kPrefix) {
    return Status::IoError("checkpoint shorter than its header");
  }
  if (std::memcmp(data, kCkpMagic, sizeof(kCkpMagic)) != 0) {
    return Status::IoError("checkpoint magic mismatch");
  }
  wire::Cursor head{data + sizeof(kCkpMagic), 12};
  const uint32_t version = *wire::GetU32(&head, "checkpoint version");
  if (version != kCkpVersion) {
    return Status::IoError("unsupported checkpoint version " +
                           std::to_string(version));
  }
  const uint32_t len = *wire::GetU32(&head, "checkpoint payload length");
  const uint32_t stored_crc = *wire::GetU32(&head, "checkpoint crc");
  if (n - kPrefix < len) {
    return Status::IoError("checkpoint payload truncated");
  }
  const char* payload = data + kPrefix;
  if (Crc32c(payload, len) != stored_crc) {
    return Status::IoError("checkpoint checksum mismatch");
  }
  wire::Cursor c{payload, len};
  Checkpoint ckp;
  PULSE_ASSIGN_OR_RETURN(ckp.log_records, wire::GetU64(&c, "log records"));
  PULSE_ASSIGN_OR_RETURN(ckp.log_bytes, wire::GetU64(&c, "log bytes"));
  PULSE_ASSIGN_OR_RETURN(ckp.delivered_outputs,
                         wire::GetU64(&c, "delivered outputs"));
  PULSE_ASSIGN_OR_RETURN(ckp.output_hash, wire::GetU64(&c, "output hash"));
  PULSE_ASSIGN_OR_RETURN(uint8_t finished, wire::GetU8(&c, "finished flag"));
  ckp.finished = finished != 0;
  if (c.pos != c.size) {
    return Status::IoError("checkpoint payload has trailing bytes");
  }
  return ckp;
}

Status WriteCheckpointFile(const std::string& path,
                           const Checkpoint& checkpoint) {
  const std::string image = EncodeCheckpoint(checkpoint);
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return Errno("create checkpoint temp", tmp);
  const bool wrote =
      std::fwrite(image.data(), 1, image.size(), f) == image.size();
  const bool flushed = wrote && std::fflush(f) == 0;
  const bool synced = flushed && ::fsync(::fileno(f)) == 0;
  std::fclose(f);
  if (!synced) {
    std::remove(tmp.c_str());
    return Errno("write checkpoint temp", tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Errno("rename checkpoint into place", path);
  }
  return SyncParentDir(path);
}

Result<Checkpoint> ReadCheckpointFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (errno == ENOENT) {
      return Status::NotFound("checkpoint '" + path + "' does not exist");
    }
    return Errno("open checkpoint", path);
  }
  std::string contents;
  char buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    contents.append(buf, got);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) return Errno("read checkpoint", path);
  return DecodeCheckpoint(contents.data(), contents.size());
}

}  // namespace store
}  // namespace pulse
