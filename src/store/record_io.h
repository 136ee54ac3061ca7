// Framed record files — the only on-disk format the durable store speaks.
//
// Every file in a store directory (content-addressed objects and the manifest)
// is one framed record:
//
//   offset 0   magic "CRS1" (4 bytes)
//   offset 4   record type (1 byte, RecordType)
//   offset 5   reserved (3 zero bytes; keeps the payload 8-byte aligned for
//              mmap-friendly readers)
//   offset 8   payload length, u64 little-endian
//   offset 16  payload bytes
//   tail       FNV-1a 64 checksum of the payload, u64 little-endian
//
// Any deviation — short file, bad magic, wrong type, length overrunning the
// file, trailing garbage, checksum mismatch — raises StoreCorruptError, which
// upper layers translate into the closed-enum `store_corrupt` error code and a
// relearn fallback (DESIGN.md §10). Corruption is a *data* outcome, never a
// crash.
//
// Durability: WriteRecordFile writes to a same-directory temp file unique to
// the call, fsyncs it, renames it over the destination and fsyncs the
// directory, so readers only ever observe either the old complete record or
// the new complete record (atomic manifest swap relies on exactly this), and a
// completed write survives a power loss.
//
// Policy (enforced by tools/lint.py rule `store-io`): all file I/O under
// src/store/ goes through this module; no raw fopen/fstream/open elsewhere in
// the subsystem.
#ifndef SRC_STORE_RECORD_IO_H_
#define SRC_STORE_RECORD_IO_H_

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace concord {

// What a framed record file carries; a mismatch between the byte on disk and
// the reader's expectation is corruption (a blob where the manifest should be
// is as wrong as a flipped bit).
enum class RecordType : uint8_t {
  kBlob = 1,       // Raw configuration or metadata text (Parse-stage input).
  kContracts = 2,  // Serialized contract set (the Learn output).
  kManifest = 3,   // Store manifest (JSON payload; atomically swapped).
};

// A store file failed framing validation. `detail` says what and where; the
// caller maps this to ErrorCode::kStoreCorrupt and degrades, never terminates.
struct StoreCorruptError : std::runtime_error {
  StoreCorruptError(const std::string& file, const std::string& what)
      : std::runtime_error("store_corrupt: " + file + ": " + what), path(file) {}

  std::string path;
};

inline constexpr char kRecordMagic[4] = {'C', 'R', 'S', '1'};
inline constexpr size_t kRecordHeaderBytes = 16;
inline constexpr size_t kRecordTrailerBytes = 8;

// Frames `payload` into the in-memory record image (header + payload + checksum).
std::string FrameRecord(RecordType type, std::string_view payload);

// Unframes a record image, validating magic, type, length, and checksum.
// Throws StoreCorruptError (with `path` used only for the message) on any
// deviation.
std::string UnframeRecord(std::string_view image, RecordType expected_type,
                          const std::string& path);

// Reads and unframes one record file. Throws StoreCorruptError on framing
// damage and std::runtime_error on I/O failure (missing file, EIO). The fault
// point `store_read` fails the read; `store_corrupt` injects a checksum
// mismatch (for CONCORD_FAULTS-driven robustness tests).
std::string ReadRecordFile(const std::string& path, RecordType expected_type);

// Frames `payload` and writes it to `path` crash-safely: temp file in the same
// directory, fsync, rename over the destination, fsync of the directory.
// Creates parent directories. Safe to call concurrently for the same path.
// Throws std::runtime_error on I/O failure; fault point `store_write`.
void WriteRecordFile(const std::string& path, RecordType type,
                     std::string_view payload);

// True when `path` holds a well-formed record of `expected_type` (reads and
// validates; never throws).
bool ProbeRecordFile(const std::string& path, RecordType expected_type);

}  // namespace concord

#endif  // SRC_STORE_RECORD_IO_H_
