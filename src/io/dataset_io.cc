#include "io/dataset_io.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>

namespace touch {
namespace {

constexpr char kBoxMagic[4] = {'T', 'S', 'J', 'B'};
constexpr char kNeuroMagic[4] = {'T', 'S', 'J', 'C'};
constexpr uint32_t kFormatVersion = 1;

/// RAII wrapper over std::FILE.
struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

File OpenFile(const std::string& path, const char* mode) {
  return File(std::fopen(path.c_str(), mode));
}

/// Why `b` cannot be a stored box — a non-finite coordinate, or lo > hi on
/// some axis — or null when it is valid. Such records would otherwise flow
/// into the catalog's stats (one NaN turns the extent, the histogram and
/// every plan-time estimate into garbage).
const char* InvalidBoxReason(const Box& b) {
  for (const float v : {b.lo.x, b.lo.y, b.lo.z, b.hi.x, b.hi.y, b.hi.z}) {
    if (!std::isfinite(v)) return "non-finite coordinate";
  }
  return b.IsEmpty() ? "inverted box (lo > hi)" : nullptr;
}

IoStatus InvalidBoxError(const std::string& path, size_t index,
                         const std::string& reason) {
  return IoStatus::Error("'" + path + "' box " + std::to_string(index) +
                         ": " + reason);
}

IoStatus OpenError(const std::string& path, const char* action) {
  return IoStatus::Error(std::string("cannot open '") + path + "' for " +
                         action);
}

// An empty vector's data() may be null, which fwrite/fread must not get.
bool WriteRaw(std::FILE* f, const void* data, size_t bytes) {
  return bytes == 0 || std::fwrite(data, 1, bytes, f) == bytes;
}

bool ReadRaw(std::FILE* f, void* data, size_t bytes) {
  return bytes == 0 || std::fread(data, 1, bytes, f) == bytes;
}

/// Bytes from the read position to the end of the file, so that a declared
/// record count is checked before anything is allocated for it. A stream
/// that cannot seek (a pipe) reports no bound.
uint64_t BytesLeft(std::FILE* f) {
  const long here = std::ftell(f);
  if (here < 0 || std::fseek(f, 0, SEEK_END) != 0) {
    return std::numeric_limits<uint64_t>::max();
  }
  const long end = std::ftell(f);
  if (std::fseek(f, here, SEEK_SET) != 0 || end < here) {
    return std::numeric_limits<uint64_t>::max();
  }
  return static_cast<uint64_t>(end - here);
}

IoStatus WriteHeader(std::FILE* f, const char magic[4],
                     const std::string& path) {
  uint32_t version = kFormatVersion;
  if (!WriteRaw(f, magic, 4) || !WriteRaw(f, &version, sizeof(version))) {
    return IoStatus::Error("write failed on '" + path + "'");
  }
  return IoStatus::Ok();
}

IoStatus CheckHeader(std::FILE* f, const char magic[4],
                     const std::string& path) {
  char got[4];
  uint32_t version = 0;
  if (!ReadRaw(f, got, 4) || !ReadRaw(f, &version, sizeof(version))) {
    return IoStatus::Error("'" + path + "' is truncated (no header)");
  }
  if (std::memcmp(got, magic, 4) != 0) {
    return IoStatus::Error("'" + path + "' has the wrong magic (not a " +
                           std::string(magic, 4) + " file)");
  }
  if (version != kFormatVersion) {
    return IoStatus::Error("'" + path + "' has unsupported format version " +
                           std::to_string(version));
  }
  return IoStatus::Ok();
}

}  // namespace

IoStatus WriteBoxesBinary(const std::string& path,
                          const std::vector<Box>& boxes) {
  File f = OpenFile(path, "wb");
  if (!f) return OpenError(path, "writing");
  if (IoStatus s = WriteHeader(f.get(), kBoxMagic, path); !s) return s;
  const uint64_t count = boxes.size();
  if (!WriteRaw(f.get(), &count, sizeof(count)) ||
      !WriteRaw(f.get(), boxes.data(), boxes.size() * sizeof(Box))) {
    return IoStatus::Error("write failed on '" + path + "'");
  }
  return IoStatus::Ok();
}

IoStatus ReadBoxesBinary(const std::string& path, std::vector<Box>* boxes) {
  File f = OpenFile(path, "rb");
  if (!f) return OpenError(path, "reading");
  if (IoStatus s = CheckHeader(f.get(), kBoxMagic, path); !s) return s;
  uint64_t count = 0;
  if (!ReadRaw(f.get(), &count, sizeof(count))) {
    return IoStatus::Error("'" + path + "' is truncated (no count)");
  }
  if (count > BytesLeft(f.get()) / sizeof(Box)) {
    boxes->clear();
    return IoStatus::Error("'" + path + "' is truncated (payload shorter " +
                           "than its declared " + std::to_string(count) +
                           " boxes)");
  }
  boxes->assign(count, Box());
  if (!ReadRaw(f.get(), boxes->data(), count * sizeof(Box))) {
    boxes->clear();
    return IoStatus::Error("'" + path + "' is truncated (payload shorter " +
                           "than its declared " + std::to_string(count) +
                           " boxes)");
  }
  for (size_t i = 0; i < boxes->size(); ++i) {
    if (const char* reason = InvalidBoxReason((*boxes)[i])) {
      boxes->clear();
      return InvalidBoxError(path, i, reason);
    }
  }
  return IoStatus::Ok();
}

IoStatus WriteBoxesCsv(const std::string& path,
                       const std::vector<Box>& boxes) {
  File f = OpenFile(path, "w");
  if (!f) return OpenError(path, "writing");
  if (std::fputs("lo_x,lo_y,lo_z,hi_x,hi_y,hi_z\n", f.get()) < 0) {
    return IoStatus::Error("write failed on '" + path + "'");
  }
  for (const Box& b : boxes) {
    if (std::fprintf(f.get(), "%.9g,%.9g,%.9g,%.9g,%.9g,%.9g\n", b.lo.x,
                     b.lo.y, b.lo.z, b.hi.x, b.hi.y, b.hi.z) < 0) {
      return IoStatus::Error("write failed on '" + path + "'");
    }
  }
  return IoStatus::Ok();
}

IoStatus ReadBoxesCsv(const std::string& path, std::vector<Box>* boxes) {
  File f = OpenFile(path, "r");
  if (!f) return OpenError(path, "reading");
  boxes->clear();
  char line[512];
  int line_number = 0;
  while (std::fgets(line, sizeof(line), f.get()) != nullptr) {
    ++line_number;
    // Skip the header and blank lines.
    if (line_number == 1 && std::strncmp(line, "lo_x", 4) == 0) continue;
    if (line[0] == '\n' || line[0] == '\0') continue;
    Box b;
    const int fields =
        std::sscanf(line, "%f,%f,%f,%f,%f,%f", &b.lo.x, &b.lo.y, &b.lo.z,
                    &b.hi.x, &b.hi.y, &b.hi.z);
    if (fields != 6) {
      boxes->clear();
      return IoStatus::Error("'" + path + "' line " +
                             std::to_string(line_number) +
                             ": expected 6 comma-separated floats");
    }
    if (const char* reason = InvalidBoxReason(b)) {
      const size_t index = boxes->size();
      boxes->clear();
      return InvalidBoxError(path, index,
                             std::string(reason) + " on line " +
                                 std::to_string(line_number));
    }
    boxes->push_back(b);
  }
  return IoStatus::Ok();
}

IoStatus WriteNeuroModelBinary(const std::string& path,
                               const NeuroModel& model) {
  File f = OpenFile(path, "wb");
  if (!f) return OpenError(path, "writing");
  if (IoStatus s = WriteHeader(f.get(), kNeuroMagic, path); !s) return s;
  const uint64_t axons = model.axons.size();
  const uint64_t dendrites = model.dendrites.size();
  if (!WriteRaw(f.get(), &axons, sizeof(axons)) ||
      !WriteRaw(f.get(), &dendrites, sizeof(dendrites)) ||
      !WriteRaw(f.get(), model.axons.data(), axons * sizeof(Cylinder)) ||
      !WriteRaw(f.get(), model.dendrites.data(),
                dendrites * sizeof(Cylinder))) {
    return IoStatus::Error("write failed on '" + path + "'");
  }
  return IoStatus::Ok();
}

IoStatus ReadNeuroModelBinary(const std::string& path, NeuroModel* model) {
  File f = OpenFile(path, "rb");
  if (!f) return OpenError(path, "reading");
  if (IoStatus s = CheckHeader(f.get(), kNeuroMagic, path); !s) return s;
  uint64_t axons = 0;
  uint64_t dendrites = 0;
  if (!ReadRaw(f.get(), &axons, sizeof(axons)) ||
      !ReadRaw(f.get(), &dendrites, sizeof(dendrites))) {
    return IoStatus::Error("'" + path + "' is truncated (no counts)");
  }
  const uint64_t records = BytesLeft(f.get()) / sizeof(Cylinder);
  if (axons > records || dendrites > records - axons) {
    model->axons.clear();
    model->dendrites.clear();
    return IoStatus::Error("'" + path + "' is truncated (payload shorter " +
                           "than its declared " + std::to_string(axons) +
                           " axons and " + std::to_string(dendrites) +
                           " dendrites)");
  }
  model->axons.assign(axons, Cylinder());
  model->dendrites.assign(dendrites, Cylinder());
  if (!ReadRaw(f.get(), model->axons.data(), axons * sizeof(Cylinder)) ||
      !ReadRaw(f.get(), model->dendrites.data(),
               dendrites * sizeof(Cylinder))) {
    model->axons.clear();
    model->dendrites.clear();
    return IoStatus::Error("'" + path + "' is truncated (payload)");
  }
  return IoStatus::Ok();
}

}  // namespace touch
