// Tests for the persistence layers and the flag parser: matrix I/O and
// the chunked reader under it, dataset directory I/O, and Flags.

#include <unistd.h>

#include <cctype>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>

#include <gtest/gtest.h>

#include "data/benchmarks.h"
#include "data/dataset_io.h"
#include "kg/kg_io.h"
#include "la/matrix_io.h"
#include "util/chunked_reader.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/tsv.h"

namespace exea {
namespace {

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("exea_io_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

// ---------------------------------------------------------------- matrix

TEST_F(IoTest, MatrixRoundTripExact) {
  Rng rng(4);
  la::Matrix m(7, 5);
  m.FillNormal(rng, 1.5f);
  std::string path = (dir_ / "m.txt").string();
  ASSERT_TRUE(la::SaveMatrix(m, path).ok());
  auto loaded = la::LoadMatrix(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->rows(), 7u);
  ASSERT_EQ(loaded->cols(), 5u);
  for (size_t i = 0; i < m.data().size(); ++i) {
    EXPECT_EQ(m.data()[i], loaded->data()[i]) << "lossy at " << i;
  }
}

TEST_F(IoTest, MatrixEmptyRoundTrip) {
  la::Matrix m(0, 0);
  std::string path = (dir_ / "empty.txt").string();
  ASSERT_TRUE(la::SaveMatrix(m, path).ok());
  auto loaded = la::LoadMatrix(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->rows(), 0u);
}

TEST_F(IoTest, MatrixLoadRejectsTruncation) {
  std::string path = (dir_ / "bad.txt").string();
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fputs("2 3\n1 2 3\n4 5\n", f);  // second row short
  std::fclose(f);
  auto loaded = la::LoadMatrix(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(IoTest, MatrixLoadRejectsGarbledHeader) {
  std::string path = (dir_ / "garbled.txt").string();
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fputs("banana split\n1 2 3\n", f);
  std::fclose(f);
  auto loaded = la::LoadMatrix(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(IoTest, MatrixLoadRejectsImplausibleDimensions) {
  // A corrupted header must fail cleanly, not attempt a huge allocation.
  std::string path = (dir_ / "huge.txt").string();
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fputs("999999999 999999999\n", f);
  std::fclose(f);
  auto loaded = la::LoadMatrix(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(IoTest, MatrixLoadRejectsNonNumericPayload) {
  std::string path = (dir_ / "junk.txt").string();
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fputs("2 2\n1 2\nx y\n", f);
  std::fclose(f);
  auto loaded = la::LoadMatrix(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(IoTest, MatrixLoadMissingFile) {
  auto loaded = la::LoadMatrix((dir_ / "absent.txt").string());
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

// The IEEE single values a text codec most easily gets wrong: signed
// zeros, the smallest subnormal and normal, the largest finite, and the
// neighbours one ulp either side of every power of ten in range.
std::vector<float> EdgeFloats() {
  std::vector<float> values = {0.0f,    -0.0f,    FLT_TRUE_MIN, -FLT_TRUE_MIN,
                               FLT_MIN, -FLT_MIN, FLT_MAX,      -FLT_MAX};
  for (int e = -45; e <= 38; ++e) {
    auto power = static_cast<float>(std::pow(10.0, e));
    for (float v : {power, std::nextafter(power, 0.0f),
                    std::nextafter(power, FLT_MAX)}) {
      values.push_back(v);
      values.push_back(-v);
    }
  }
  return values;
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary) << bytes;
}

la::Matrix RowOf(const std::vector<float>& values) {
  la::Matrix m(1, values.size());
  std::copy(values.begin(), values.end(), m.Row(0));
  return m;
}

void ExpectSameBits(const la::Matrix& expected, const la::Matrix& actual) {
  ASSERT_EQ(actual.rows(), expected.rows());
  ASSERT_EQ(actual.cols(), expected.cols());
  for (size_t i = 0; i < expected.data().size(); ++i) {
    float want = expected.data()[i];
    float got = actual.data()[i];
    EXPECT_EQ(std::memcmp(&want, &got, sizeof(float)), 0)
        << "value " << i << ": wrote " << want << ", read " << got;
  }
}

TEST_F(IoTest, SaveMatrixWritesPrintfDigits) {
  // The writer uses std::to_chars; the bytes must be exactly what
  // printf("%.9g") wrote before it, or every bundle checksum changes.
  Rng rng(11);
  la::Matrix normals(40, 7);
  normals.FillNormal(rng, 1.0f);
  for (const la::Matrix& m : {RowOf(EdgeFloats()), normals}) {
    std::string path = (dir_ / "digits.txt").string();
    ASSERT_TRUE(la::SaveMatrix(m, path).ok());
    std::string expected = StrFormat("%zu %zu\n", m.rows(), m.cols());
    for (size_t r = 0; r < m.rows(); ++r) {
      for (size_t c = 0; c < m.cols(); ++c) {
        expected += StrFormat("%s%.9g", c == 0 ? "" : " ",
                              static_cast<double>(m.Row(r)[c]));
      }
      expected += "\n";
    }
    EXPECT_EQ(ReadBytes(path), expected);
  }
}

TEST_F(IoTest, MatrixEdgeValuesRoundTripBitForBit) {
  la::Matrix m = RowOf(EdgeFloats());
  std::string path = (dir_ / "edges.txt").string();
  ASSERT_TRUE(la::SaveMatrix(m, path).ok());
  auto loaded = la::LoadMatrix(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameBits(m, *loaded);
}

TEST_F(IoTest, MatrixLargerThanOneChunkRoundTrips) {
  // Several buffer refills, with a token cut in two by the first one.
  Rng rng(5);
  la::Matrix m(600, 40);
  m.FillNormal(rng, 3.0f);
  std::string path = (dir_ / "big.txt").string();
  ASSERT_TRUE(la::SaveMatrix(m, path).ok());
  std::string bytes = ReadBytes(path);
  constexpr size_t kChunk = util::ChunkedReader::kChunkBytes;
  ASSERT_GT(bytes.size(), 3 * kChunk);
  ASSERT_FALSE(std::isspace(static_cast<unsigned char>(bytes[kChunk - 1])));
  ASSERT_FALSE(std::isspace(static_cast<unsigned char>(bytes[kChunk])));
  auto loaded = la::LoadMatrix(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameBits(m, *loaded);
}

TEST_F(IoTest, MatrixLoadAcceptsCrlfLineEnds) {
  std::string path = (dir_ / "crlf.txt").string();
  WriteBytes(path, "2 3\r\n1 -2.5 3\r\n4 5e-3 6\r\n");
  auto loaded = la::LoadMatrix(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->rows(), 2u);
  ASSERT_EQ(loaded->cols(), 3u);
  EXPECT_EQ(loaded->Row(0)[1], -2.5f);
  EXPECT_EQ(loaded->Row(1)[1], 5e-3f);
  EXPECT_EQ(loaded->Row(1)[2], 6.0f);
}

TEST_F(IoTest, MatrixLoadRejectsTokensThatDoNotParseInFull) {
  struct Case {
    const char* name;
    const char* text;
  } cases[] = {
      {"nan", "1 2\n1 nan\n"},
      {"inf", "1 2\n1 inf\n"},
      {"negative-inf", "1 2\n-inf 1\n"},
      {"leading-plus", "1 2\n+1 2\n"},
      {"trailing-junk", "1 2\n1.5x 2\n"},
      {"hex", "1 2\n0x10 2\n"},
      {"overflow", "1 2\n1e39 2\n"},
      {"underflow-to-zero", "1 2\n1e-50 2\n"},
      {"header-junk", "1x 2\n1 2\n"},
      {"truncated-last-row", "2 2\n1 2\n3\n"},
      {"extra-value", "1 2\n1 2 3\n"},
  };
  for (const Case& c : cases) {
    std::string path = (dir_ / (std::string(c.name) + ".txt")).string();
    WriteBytes(path, c.text);
    auto loaded = la::LoadMatrix(path);
    ASSERT_FALSE(loaded.ok()) << c.name << " was accepted";
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << c.name << ": " << loaded.status().ToString();
  }
}

// --------------------------------------------------------- chunked reader

TEST_F(IoTest, ReadTsvStripsCrlfAndKeepsAnUnterminatedLastLine) {
  std::string path = (dir_ / "crlf.tsv").string();
  WriteBytes(path, "a\tb\r\n# comment\r\n\r\nc\td");
  auto rows = ReadTsv(path, 2);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  std::vector<std::vector<std::string>> expected = {{"a", "b"}, {"c", "d"}};
  EXPECT_EQ(*rows, expected);
}

TEST_F(IoTest, ReadTsvReadsLinesLongerThanOneChunk) {
  std::string path = (dir_ / "long.tsv").string();
  std::string name(3 * util::ChunkedReader::kChunkBytes + 17, 'n');
  WriteBytes(path, "short\t1\n" + name + "\t2\nlast\t3\n");
  auto rows = ReadTsv(path, 2);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 3u);
  EXPECT_EQ((*rows)[1][0], name);
  EXPECT_EQ((*rows)[2][1], "3");
}

TEST_F(IoTest, ChunkedReaderRefusesARecordPastTheCap) {
  std::string path = (dir_ / "huge_token.txt").string();
  WriteBytes(path, std::string(util::ChunkedReader::kMaxRecordBytes + 1, 'x'));
  util::ChunkedReader reader(path);
  std::string_view token;
  EXPECT_FALSE(reader.NextToken(&token));
  EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(IoTest, ChunkedReaderMissingFileIsAnIoError) {
  util::ChunkedReader reader((dir_ / "absent.txt").string());
  std::string_view line;
  EXPECT_FALSE(reader.NextLine(&line));
  EXPECT_EQ(reader.status().code(), StatusCode::kIoError);
}

// --------------------------------------------------------------- dataset

TEST_F(IoTest, DatasetRoundTripPreservesEverything) {
  data::EaDataset original =
      data::MakeBenchmark(data::Benchmark::kZhEn, data::Scale::kTiny);
  ASSERT_TRUE(data::SaveDataset(original, dir_.string()).ok());
  auto loaded = data::LoadDataset(dir_.string(), "roundtrip");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->name, "roundtrip");
  EXPECT_EQ(loaded->kg1.num_triples(), original.kg1.num_triples());
  EXPECT_EQ(loaded->kg2.num_triples(), original.kg2.num_triples());
  EXPECT_EQ(loaded->train.size(), original.train.size());
  EXPECT_EQ(loaded->test.size(), original.test.size());
  // Name-level equivalence of the gold map (ids may be re-interned).
  for (const auto& [source, target] : original.gold) {
    kg::EntityId source2 =
        loaded->kg1.FindEntity(original.kg1.EntityName(source));
    ASSERT_NE(source2, kg::kInvalidEntity);
    EXPECT_EQ(loaded->kg2.EntityName(loaded->gold.at(source2)),
              original.kg2.EntityName(target));
  }
}

TEST_F(IoTest, DatasetLoadRejectsTrainTestOverlap) {
  data::EaDataset original =
      data::MakeBenchmark(data::Benchmark::kZhEn, data::Scale::kTiny);
  ASSERT_TRUE(data::SaveDataset(original, dir_.string()).ok());
  // Append a train pair into the test file.
  kg::AlignedPair train_pair = original.train.SortedPairs()[0];
  std::FILE* f =
      std::fopen((dir_ / "test_links.tsv").string().c_str(), "a");
  std::fprintf(f, "%s\t%s\n",
               original.kg1.EntityName(train_pair.source).c_str(),
               original.kg2.EntityName(train_pair.target).c_str());
  std::fclose(f);
  auto loaded = data::LoadDataset(dir_.string(), "bad");
  EXPECT_FALSE(loaded.ok());
}

TEST_F(IoTest, DatasetLoadMissingFileFails) {
  auto loaded = data::LoadDataset(dir_.string(), "missing");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST_F(IoTest, DatasetLoadRejectsGarbledTriples) {
  data::EaDataset original =
      data::MakeBenchmark(data::Benchmark::kZhEn, data::Scale::kTiny);
  ASSERT_TRUE(data::SaveDataset(original, dir_.string()).ok());
  std::FILE* f =
      std::fopen((dir_ / "kg1_triples.tsv").string().c_str(), "a");
  std::fputs("only_two\tfields\n", f);
  std::fclose(f);
  auto loaded = data::LoadDataset(dir_.string(), "garbled");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(IoTest, DatasetLoadRejectsUnknownLinkEntity) {
  data::EaDataset original =
      data::MakeBenchmark(data::Benchmark::kZhEn, data::Scale::kTiny);
  ASSERT_TRUE(data::SaveDataset(original, dir_.string()).ok());
  std::FILE* f =
      std::fopen((dir_ / "train_links.tsv").string().c_str(), "a");
  std::fputs("zh/Ghost\ten/Ghost\n", f);
  std::fclose(f);
  auto loaded = data::LoadDataset(dir_.string(), "ghost");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------- dictionary-pinned load

TEST_F(IoTest, DictionaryRoundTripPreservesIdOrder) {
  data::EaDataset original =
      data::MakeBenchmark(data::Benchmark::kZhEn, data::Scale::kTiny);
  std::string path = (dir_ / "entities.tsv").string();
  ASSERT_TRUE(
      kg::SaveDictionary(original.kg1.entity_dictionary(), path).ok());
  auto names = kg::LoadDictionaryNames(path);
  ASSERT_TRUE(names.ok());
  ASSERT_EQ(names->size(), original.kg1.num_entities());
  for (kg::EntityId e = 0; e < original.kg1.num_entities(); ++e) {
    EXPECT_EQ((*names)[e], original.kg1.EntityName(e));
  }
}

TEST_F(IoTest, DictionaryPinnedLoadReproducesIds) {
  data::EaDataset original =
      data::MakeBenchmark(data::Benchmark::kZhEn, data::Scale::kTiny);
  ASSERT_TRUE(data::SaveDataset(original, dir_.string()).ok());
  data::DatasetDictionaries dicts;
  for (kg::EntityId e = 0; e < original.kg1.num_entities(); ++e) {
    dicts.entities1.push_back(original.kg1.EntityName(e));
  }
  for (kg::RelationId r = 0; r < original.kg1.num_relations(); ++r) {
    dicts.relations1.push_back(original.kg1.RelationName(r));
  }
  for (kg::EntityId e = 0; e < original.kg2.num_entities(); ++e) {
    dicts.entities2.push_back(original.kg2.EntityName(e));
  }
  for (kg::RelationId r = 0; r < original.kg2.num_relations(); ++r) {
    dicts.relations2.push_back(original.kg2.RelationName(r));
  }
  auto loaded = data::LoadDataset(dir_.string(), "pinned", dicts);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  // Every id maps to the same name as in the generating dataset — the
  // property the snapshot bundle's embedding matrices depend on.
  for (kg::EntityId e = 0; e < original.kg1.num_entities(); ++e) {
    ASSERT_EQ(loaded->kg1.EntityName(e), original.kg1.EntityName(e));
  }
  for (kg::EntityId e = 0; e < original.kg2.num_entities(); ++e) {
    ASSERT_EQ(loaded->kg2.EntityName(e), original.kg2.EntityName(e));
  }
}

TEST_F(IoTest, DictionaryPinnedLoadRejectsOutOfDictionaryNames) {
  data::EaDataset original =
      data::MakeBenchmark(data::Benchmark::kZhEn, data::Scale::kTiny);
  ASSERT_TRUE(data::SaveDataset(original, dir_.string()).ok());
  data::DatasetDictionaries dicts;
  // Omit the last KG1 entity: the triple files now mention a name the
  // dictionary does not pin, which must fail rather than silently extend
  // the id space past the embedding rows.
  for (kg::EntityId e = 0; e + 1 < original.kg1.num_entities(); ++e) {
    dicts.entities1.push_back(original.kg1.EntityName(e));
  }
  for (kg::RelationId r = 0; r < original.kg1.num_relations(); ++r) {
    dicts.relations1.push_back(original.kg1.RelationName(r));
  }
  for (kg::EntityId e = 0; e < original.kg2.num_entities(); ++e) {
    dicts.entities2.push_back(original.kg2.EntityName(e));
  }
  for (kg::RelationId r = 0; r < original.kg2.num_relations(); ++r) {
    dicts.relations2.push_back(original.kg2.RelationName(r));
  }
  auto loaded = data::LoadDataset(dir_.string(), "short", dicts);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

// ----------------------------------------------------------------- flags

StatusOr<Flags> ParseArgs(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  return Flags::Parse(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagsTest, ParsesPairsAndPositionals) {
  auto flags = ParseArgs({"align", "--dir", "/tmp/x", "--epochs", "40"});
  ASSERT_TRUE(flags.ok());
  ASSERT_EQ(flags->positional().size(), 1u);
  EXPECT_EQ(flags->positional()[0], "align");
  EXPECT_EQ(flags->GetString("dir", ""), "/tmp/x");
  EXPECT_EQ(flags->GetInt("epochs", 0), 40);
  EXPECT_EQ(flags->GetInt("missing", 7), 7);
  EXPECT_TRUE(flags->Has("dir"));
  EXPECT_FALSE(flags->Has("nope"));
}

TEST(FlagsTest, EqualsSyntax) {
  auto flags = ParseArgs({"--alpha=0.25", "--name=x=y"});
  ASSERT_TRUE(flags.ok());
  EXPECT_DOUBLE_EQ(flags->GetDouble("alpha", 0), 0.25);
  EXPECT_EQ(flags->GetString("name", ""), "x=y");
}

TEST(FlagsTest, ValuelessFlagIsBooleanSwitch) {
  auto flags = ParseArgs({"--verbalize", "--limit", "5", "--no-cr1"});
  ASSERT_TRUE(flags.ok());
  EXPECT_TRUE(flags->Has("verbalize"));
  EXPECT_EQ(flags->GetString("verbalize", ""), "true");
  EXPECT_TRUE(flags->Has("no-cr1"));
  EXPECT_EQ(flags->GetInt("limit", 0), 5);
}

TEST(FlagsTest, StrayDoubleDashFails) {
  EXPECT_FALSE(ParseArgs({"--"}).ok());
}

TEST(FlagsTest, LaterValueWins) {
  auto flags = ParseArgs({"--k", "1", "--k", "2"});
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(flags->GetInt("k", 0), 2);
}

}  // namespace
}  // namespace exea
