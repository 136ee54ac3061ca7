#include "src/store/record_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>

#include "src/util/fault.h"
#include "src/util/hash.h"

namespace concord {

namespace {

void PutU64Le(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

uint64_t GetU64Le(const char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

// POSIX read/write wrappers that retry on EINTR and throw on hard errors. All
// raw descriptors in the store subsystem live in this file (lint: store-io).
void WriteAll(int fd, const char* data, size_t size, const std::string& path) {
  while (size > 0) {
    ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw std::runtime_error("store: write failed: " + path + ": " +
                               std::strerror(errno));
    }
    data += n;
    size -= static_cast<size_t>(n);
  }
}

// fsyncs a directory, making the entries a rename just created or replaced
// durable: fsyncing the file alone leaves the rename itself in the page cache.
void SyncDirectory(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    throw std::runtime_error("store: cannot open directory: " + dir + ": " +
                             std::strerror(errno));
  }
  if (::fsync(fd) != 0) {
    int saved = errno;
    ::close(fd);
    throw std::runtime_error("store: fsync failed: " + dir + ": " +
                             std::strerror(saved));
  }
  ::close(fd);
}

std::string ReadAll(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    throw std::runtime_error("store: cannot open: " + path + ": " +
                             std::strerror(errno));
  }
  std::string out;
  char buf[1 << 16];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      int saved = errno;
      ::close(fd);
      throw std::runtime_error("store: read failed: " + path + ": " +
                               std::strerror(saved));
    }
    if (n == 0) {
      break;
    }
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return out;
}

}  // namespace

std::string FrameRecord(RecordType type, std::string_view payload) {
  std::string image;
  image.reserve(kRecordHeaderBytes + payload.size() + kRecordTrailerBytes);
  image.append(kRecordMagic, sizeof(kRecordMagic));
  image.push_back(static_cast<char>(type));
  image.append(3, '\0');
  PutU64Le(&image, payload.size());
  image.append(payload);
  PutU64Le(&image, Fnv1a64(payload));
  return image;
}

std::string UnframeRecord(std::string_view image, RecordType expected_type,
                          const std::string& path) {
  if (image.size() < kRecordHeaderBytes + kRecordTrailerBytes) {
    throw StoreCorruptError(path, "truncated record (" +
                                      std::to_string(image.size()) + " bytes)");
  }
  if (std::memcmp(image.data(), kRecordMagic, sizeof(kRecordMagic)) != 0) {
    throw StoreCorruptError(path, "bad magic");
  }
  auto type = static_cast<uint8_t>(image[4]);
  if (type != static_cast<uint8_t>(expected_type)) {
    throw StoreCorruptError(path, "record type " + std::to_string(type) +
                                      " where type " +
                                      std::to_string(static_cast<uint8_t>(
                                          expected_type)) +
                                      " was expected");
  }
  if (image[5] != 0 || image[6] != 0 || image[7] != 0) {
    throw StoreCorruptError(path, "nonzero reserved header bytes");
  }
  uint64_t length = GetU64Le(image.data() + 8);
  uint64_t body = image.size() - kRecordHeaderBytes - kRecordTrailerBytes;
  if (length != body) {
    throw StoreCorruptError(path, "payload length " + std::to_string(length) +
                                      " does not match file body " +
                                      std::to_string(body));
  }
  std::string_view payload = image.substr(kRecordHeaderBytes, length);
  uint64_t want = GetU64Le(image.data() + kRecordHeaderBytes + length);
  uint64_t got = Fnv1a64(payload);
  if (FaultPoint("store_corrupt")) {
    got = ~got;  // Injected bit rot: deterministic checksum mismatch.
  }
  if (want != got) {
    throw StoreCorruptError(path, "checksum mismatch");
  }
  return std::string(payload);
}

std::string ReadRecordFile(const std::string& path, RecordType expected_type) {
  if (FaultPoint("store_read")) {
    throw std::runtime_error(FaultMessage("store_read") + ": " + path);
  }
  return UnframeRecord(ReadAll(path), expected_type, path);
}

void WriteRecordFile(const std::string& path, RecordType type,
                     std::string_view payload) {
  if (FaultPoint("store_write")) {
    throw std::runtime_error(FaultMessage("store_write") + ": " + path);
  }
  std::filesystem::path p(path);
  std::string dir = p.has_parent_path() ? p.parent_path().string() : ".";
  if (p.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
  }
  // Same-directory temp so the final rename cannot cross filesystems. The name
  // is unique per call (pid plus a process-wide counter): two requests in one
  // server can write the same content-addressed object at once, and a shared
  // temp name would let one writer truncate the other's file before its rename.
  static std::atomic<uint64_t> temp_counter{0};
  std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                    std::to_string(temp_counter.fetch_add(1, std::memory_order_relaxed));
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    throw std::runtime_error("store: cannot open for writing: " + tmp + ": " +
                             std::strerror(errno));
  }
  try {
    std::string image = FrameRecord(type, payload);
    WriteAll(fd, image.data(), image.size(), tmp);
    if (::fsync(fd) != 0) {
      throw std::runtime_error("store: fsync failed: " + tmp + ": " +
                               std::strerror(errno));
    }
  } catch (...) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw;
  }
  ::close(fd);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    int saved = errno;
    ::unlink(tmp.c_str());
    throw std::runtime_error("store: rename failed: " + path + ": " +
                             std::strerror(saved));
  }
  SyncDirectory(dir);
}

bool ProbeRecordFile(const std::string& path, RecordType expected_type) {
  try {
    ReadRecordFile(path, expected_type);
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace concord
