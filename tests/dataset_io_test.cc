#include "io/dataset_io.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <string>
#include <utility>

#include "datagen/distributions.h"
#include "test_util.h"

namespace touch {
namespace {

/// Unique temp path per test; removed on destruction.
class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(std::string(::testing::TempDir()) + "/touch_io_" + name) {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(BoxBinaryIoTest, RoundTripsExactly) {
  const Dataset boxes = GenerateSynthetic(Distribution::kClustered, 2000, 7);
  TempFile file("boxes.bin");
  ASSERT_TRUE(WriteBoxesBinary(file.path(), boxes).ok);
  Dataset loaded;
  ASSERT_TRUE(ReadBoxesBinary(file.path(), &loaded).ok);
  ASSERT_EQ(loaded.size(), boxes.size());
  for (size_t i = 0; i < boxes.size(); ++i) {
    EXPECT_EQ(loaded[i], boxes[i]) << i;
  }
}

TEST(BoxBinaryIoTest, EmptyDatasetRoundTrips) {
  TempFile file("empty.bin");
  ASSERT_TRUE(WriteBoxesBinary(file.path(), {}).ok);
  Dataset loaded = {CenteredBox(1, 1, 1)};  // must be cleared by the read
  ASSERT_TRUE(ReadBoxesBinary(file.path(), &loaded).ok);
  EXPECT_TRUE(loaded.empty());
}

TEST(BoxBinaryIoTest, MissingFileFails) {
  Dataset loaded;
  const IoStatus status = ReadBoxesBinary("/nonexistent/nowhere.bin", &loaded);
  EXPECT_FALSE(status.ok);
  EXPECT_NE(status.message.find("cannot open"), std::string::npos);
}

TEST(BoxBinaryIoTest, WrongMagicFails) {
  TempFile file("notboxes.bin");
  std::ofstream(file.path()) << "definitely not a TSJB file at all";
  Dataset loaded;
  const IoStatus status = ReadBoxesBinary(file.path(), &loaded);
  EXPECT_FALSE(status.ok);
  EXPECT_NE(status.message.find("magic"), std::string::npos);
}

TEST(BoxBinaryIoTest, TruncatedPayloadFails) {
  const Dataset boxes = GenerateSynthetic(Distribution::kUniform, 100, 8);
  TempFile file("trunc.bin");
  ASSERT_TRUE(WriteBoxesBinary(file.path(), boxes).ok);
  // Chop the file to half its size.
  std::ifstream in(file.path(), std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  std::ofstream(file.path(), std::ios::binary)
      << contents.substr(0, contents.size() / 2);
  Dataset loaded;
  const IoStatus status = ReadBoxesBinary(file.path(), &loaded);
  EXPECT_FALSE(status.ok);
  EXPECT_NE(status.message.find("truncated"), std::string::npos);
  EXPECT_TRUE(loaded.empty());  // no partial results
}

// A header followed by the given 64-bit counts and a few stray bytes: a
// file far shorter than the records it declares.
void WriteDeclaredCounts(const std::string& path, const char magic[4],
                         std::initializer_list<uint64_t> counts) {
  std::ofstream out(path, std::ios::binary);
  const uint32_t version = 1;
  out.write(magic, 4);
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));
  for (const uint64_t count : counts) {
    out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  }
  out.write("abcd", 4);
}

TEST(BoxBinaryIoTest, HugeDeclaredCountFailsBeforeAllocating) {
  TempFile file("huge_count.bin");
  WriteDeclaredCounts(file.path(), "TSJB", {uint64_t{1} << 40});
  Dataset loaded = {CenteredBox(1, 1, 1)};
  IoStatus status;
  EXPECT_NO_THROW(status = ReadBoxesBinary(file.path(), &loaded));
  EXPECT_FALSE(status.ok);
  EXPECT_NE(status.message.find("truncated"), std::string::npos);
  EXPECT_TRUE(loaded.empty());
}

TEST(BoxCsvIoTest, RoundTripsWithFloatFidelity) {
  const Dataset boxes = GenerateSynthetic(Distribution::kGaussian, 500, 9);
  TempFile file("boxes.csv");
  ASSERT_TRUE(WriteBoxesCsv(file.path(), boxes).ok);
  Dataset loaded;
  ASSERT_TRUE(ReadBoxesCsv(file.path(), &loaded).ok);
  ASSERT_EQ(loaded.size(), boxes.size());
  // %.9g prints floats exactly; the round trip must be bit-faithful.
  for (size_t i = 0; i < boxes.size(); ++i) {
    EXPECT_EQ(loaded[i], boxes[i]) << i;
  }
}

TEST(BoxCsvIoTest, MalformedLineReportsLineNumber) {
  TempFile file("bad.csv");
  std::ofstream(file.path()) << "lo_x,lo_y,lo_z,hi_x,hi_y,hi_z\n"
                             << "1,2,3,4,5,6\n"
                             << "1,2,three,4,5,6\n";
  Dataset loaded;
  const IoStatus status = ReadBoxesCsv(file.path(), &loaded);
  EXPECT_FALSE(status.ok);
  EXPECT_NE(status.message.find("line 3"), std::string::npos);
}

TEST(BoxCsvIoTest, HeaderlessFileStillParses) {
  TempFile file("raw.csv");
  std::ofstream(file.path()) << "0,0,0,1,1,1\n2,2,2,3,3,3\n";
  Dataset loaded;
  ASSERT_TRUE(ReadBoxesCsv(file.path(), &loaded).ok);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[1], MakeBox(2, 2, 2, 3, 3, 3));
}

// --- Invalid records are rejected at the loader, naming the record ---------

/// Valid boxes with one bad record at index 2.
Dataset WithBadRecord(const Box& bad) {
  return {CenteredBox(1, 1, 1), CenteredBox(2, 2, 2), bad,
          CenteredBox(3, 3, 3)};
}

struct BadRecord {
  const char* name;
  Box box;
  const char* reason;
};

const BadRecord kBadRecords[] = {
    {"nan", MakeBox(0, std::numeric_limits<float>::quiet_NaN(), 0, 1, 1, 1),
     "non-finite"},
    {"inf", MakeBox(0, 0, 0, 1, 1, std::numeric_limits<float>::infinity()),
     "non-finite"},
    {"inverted", MakeBox(0, 5, 0, 1, 4, 1), "inverted"},
};

TEST(BoxBinaryIoTest, InvalidRecordsAreRejectedByIndex) {
  for (const BadRecord& bad : kBadRecords) {
    TempFile file(std::string("bad_") + bad.name + ".bin");
    ASSERT_TRUE(WriteBoxesBinary(file.path(), WithBadRecord(bad.box)).ok);
    Dataset loaded;
    const IoStatus status = ReadBoxesBinary(file.path(), &loaded);
    EXPECT_FALSE(status.ok) << bad.name;
    EXPECT_NE(status.message.find("box 2"), std::string::npos)
        << status.message;
    EXPECT_NE(status.message.find(bad.reason), std::string::npos)
        << status.message;
    EXPECT_TRUE(loaded.empty()) << bad.name;
  }
}

TEST(BoxCsvIoTest, InvalidRecordsAreRejectedByIndex) {
  for (const BadRecord& bad : kBadRecords) {
    TempFile file(std::string("bad_") + bad.name + ".csv");
    ASSERT_TRUE(WriteBoxesCsv(file.path(), WithBadRecord(bad.box)).ok);
    Dataset loaded;
    const IoStatus status = ReadBoxesCsv(file.path(), &loaded);
    EXPECT_FALSE(status.ok) << bad.name;
    EXPECT_NE(status.message.find("box 2"), std::string::npos)
        << status.message;
    EXPECT_NE(status.message.find("line 4"), std::string::npos)
        << status.message;
    EXPECT_NE(status.message.find(bad.reason), std::string::npos)
        << status.message;
    EXPECT_TRUE(loaded.empty()) << bad.name;
  }
}

TEST(BoxCsvIoTest, NanTextRowIsRejected) {
  // The reproduction: a hand-edited "nan" field parses as a float.
  TempFile file("nan_row.csv");
  std::ofstream(file.path()) << "lo_x,lo_y,lo_z,hi_x,hi_y,hi_z\n"
                             << "1,2,3,4,5,6\n"
                             << "nan,2,3,4,5,6\n";
  Dataset loaded;
  const IoStatus status = ReadBoxesCsv(file.path(), &loaded);
  EXPECT_FALSE(status.ok);
  EXPECT_NE(status.message.find("box 1"), std::string::npos)
      << status.message;
  EXPECT_TRUE(loaded.empty());
}

TEST(NeuroIoTest, RoundTripsModel) {
  NeuroModel model;
  for (int i = 0; i < 50; ++i) {
    const float f = static_cast<float>(i);
    model.axons.emplace_back(Vec3(f, 0, 0), Vec3(f + 1, 1, 0), 0.5f);
    model.dendrites.emplace_back(Vec3(0, f, 0), Vec3(1, f + 1, 0), 0.25f);
    model.dendrites.emplace_back(Vec3(0, f, 5), Vec3(1, f + 1, 5), 0.25f);
  }
  TempFile file("model.bin");
  ASSERT_TRUE(WriteNeuroModelBinary(file.path(), model).ok);
  NeuroModel loaded;
  ASSERT_TRUE(ReadNeuroModelBinary(file.path(), &loaded).ok);
  ASSERT_EQ(loaded.axons.size(), model.axons.size());
  ASSERT_EQ(loaded.dendrites.size(), model.dendrites.size());
  for (size_t i = 0; i < model.axons.size(); ++i) {
    EXPECT_EQ(loaded.axons[i].Mbr(), model.axons[i].Mbr());
    EXPECT_EQ(loaded.axons[i].radius, model.axons[i].radius);
  }
}

TEST(NeuroIoTest, HugeDeclaredCountsFailBeforeAllocating) {
  TempFile file("huge_model.bin");
  // One count past the file, and a pair whose sum wraps around 2^64.
  for (const auto& [axons, dendrites] :
       {std::pair<uint64_t, uint64_t>{uint64_t{1} << 40, 1},
        std::pair<uint64_t, uint64_t>{1, ~uint64_t{0}}}) {
    WriteDeclaredCounts(file.path(), "TSJC", {axons, dendrites});
    NeuroModel loaded;
    IoStatus status;
    EXPECT_NO_THROW(status = ReadNeuroModelBinary(file.path(), &loaded));
    EXPECT_FALSE(status.ok);
    EXPECT_NE(status.message.find("truncated"), std::string::npos);
    EXPECT_TRUE(loaded.axons.empty());
    EXPECT_TRUE(loaded.dendrites.empty());
  }
}

TEST(NeuroIoTest, BoxFileRejectedAsNeuroModel) {
  TempFile file("boxes_as_model.bin");
  ASSERT_TRUE(WriteBoxesBinary(file.path(), {CenteredBox(1, 2, 3)}).ok);
  NeuroModel loaded;
  const IoStatus status = ReadNeuroModelBinary(file.path(), &loaded);
  EXPECT_FALSE(status.ok);
  EXPECT_NE(status.message.find("magic"), std::string::npos);
}

}  // namespace
}  // namespace touch
