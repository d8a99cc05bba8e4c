// Binary serialisation (the §IV import/export arrays as an on-disk format)
// and plain-text edge-list I/O.
#include <gtest/gtest.h>

#include <sstream>

#include "lagraph/util/check.hpp"
#include "lagraph/util/edgelist.hpp"
#include "lagraph/util/generator.hpp"
#include "lagraph/util/serialize.hpp"

using gb::Index;

TEST(Serialize, RoundTripRandomMatrix) {
  auto a = lagraph::randomize_weights(lagraph::rmat(7, 6, 3), 0.1, 9.0, 4);
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  lagraph::save_matrix(a, buf);
  auto b = lagraph::load_matrix(buf);
  EXPECT_TRUE(lagraph::isequal(a, b));
}

TEST(Serialize, RoundTripEmptyAndRectangular) {
  gb::Matrix<double> empty(5, 9);
  std::stringstream buf1(std::ios::in | std::ios::out | std::ios::binary);
  lagraph::save_matrix(empty, buf1);
  auto e2 = lagraph::load_matrix(buf1);
  EXPECT_EQ(e2.nrows(), 5u);
  EXPECT_EQ(e2.ncols(), 9u);
  EXPECT_EQ(e2.nvals(), 0u);

  auto rect = lagraph::random_matrix(3, 17, 20, 5);
  std::stringstream buf2(std::ios::in | std::ios::out | std::ios::binary);
  lagraph::save_matrix(rect, buf2);
  EXPECT_TRUE(lagraph::isequal(rect, lagraph::load_matrix(buf2)));
}

TEST(Serialize, FileRoundTripAndSourceUnchanged) {
  auto a = lagraph::grid2d(6, 6, 2, 5.0);
  Index before = a.nvals();
  lagraph::save_matrix(a, "/tmp/lagraph_serialize_test.bin");
  EXPECT_EQ(a.nvals(), before);  // save must not destroy the source
  auto b = lagraph::load_matrix("/tmp/lagraph_serialize_test.bin");
  EXPECT_TRUE(lagraph::isequal(a, b));
}

TEST(Serialize, RejectsCorruptInput) {
  auto reject = [](const std::string& bytes) {
    std::stringstream buf(bytes,
                          std::ios::in | std::ios::out | std::ios::binary);
    EXPECT_THROW(lagraph::load_matrix(buf), gb::Error);
  };
  reject("");                      // no magic
  reject("XXXX????????????????");  // wrong magic
  // Valid magic but truncated header.
  reject(std::string("LAGR\x01\x00\x00", 7));

  // Valid header, poisoned pointer array.
  auto a = lagraph::path_graph(4);
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  lagraph::save_matrix(a, buf);
  auto s = buf.str();
  s[4 + 4 + 24 + 8] ^= 0x7F;  // flip a byte inside p[1]
  std::stringstream bad(s, std::ios::in | std::ios::out | std::ios::binary);
  EXPECT_THROW(lagraph::load_matrix(bad), gb::Error);
  EXPECT_THROW(lagraph::load_matrix("/nonexistent/file.bin"), gb::Error);
}

namespace {

std::string serialized_bytes(const gb::Matrix<double>& a) {
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  lagraph::save_matrix(a, buf);
  return buf.str();
}

void expect_rejected(const std::string& bytes) {
  std::stringstream buf(bytes, std::ios::in | std::ios::out | std::ios::binary);
  EXPECT_THROW(lagraph::load_matrix(buf), gb::Error);
}

}  // namespace

TEST(Serialize, ChecksumCatchesEveryBitFlip) {
  auto a = lagraph::randomize_weights(lagraph::path_graph(5), 0.5, 4.0, 11);
  const std::string good = serialized_bytes(a);
  // Flip one bit in every byte after the magic (the magic has its own
  // check); each corruption must be rejected, none may load quietly.
  for (std::size_t off = 4; off < good.size(); ++off) {
    std::string bad = good;
    bad[off] = static_cast<char>(bad[off] ^ 0x10);
    expect_rejected(bad);
  }
}

TEST(Serialize, RejectsTruncationAtEveryLength) {
  auto a = lagraph::path_graph(4);
  const std::string good = serialized_bytes(a);
  for (std::size_t len = 0; len < good.size(); ++len) {
    expect_rejected(good.substr(0, len));
  }
}

TEST(Serialize, RejectsTrailingGarbage) {
  auto a = lagraph::path_graph(4);
  expect_rejected(serialized_bytes(a) + "junk");
  expect_rejected(serialized_bytes(a) + std::string(1, '\0'));
}

TEST(Serialize, RejectsBadMagicAndVersion) {
  auto a = lagraph::path_graph(4);
  std::string bad_magic = serialized_bytes(a);
  bad_magic[0] = 'X';
  expect_rejected(bad_magic);

  std::string bad_version = serialized_bytes(a);
  bad_version[4] = 99;  // unsupported version
  expect_rejected(bad_version);
}

TEST(Serialize, ReadsVersion1FilesWithoutChecksum) {
  auto a = lagraph::randomize_weights(lagraph::grid2d(3, 4, 2, 1.0), 0.1, 9.0,
                                      7);
  // v1 predates dense payloads, so pin the sparse form: a forced bitmap or
  // full store would serialize a dense image that no v1 file can hold.
  a.set_format(gb::FormatMode::sparse);
  // A v1 file is the v2 layout minus the 4-byte CRC footer, with the
  // version field rewritten; the reader must still accept it.
  std::string v1 = serialized_bytes(a);
  v1[4] = 1;
  v1.resize(v1.size() - 4);
  std::stringstream buf(v1, std::ios::in | std::ios::out | std::ios::binary);
  auto b = lagraph::load_matrix(buf);
  EXPECT_TRUE(lagraph::isequal(a, b));

  // ...but v1 + trailing bytes is still rejected.
  expect_rejected(v1 + "x");
}

TEST(EdgeList, ReadBasicAndWeighted) {
  std::istringstream in(
      "# comment\n"
      "% another comment\n"
      "0 1\n"
      "1 2 2.5\n"
      "\n"
      "3 0 7\n");
  auto a = lagraph::read_edge_list(in);
  EXPECT_EQ(a.nrows(), 4u);
  EXPECT_EQ(a.nvals(), 3u);
  EXPECT_EQ(a.extract_element(0, 1).value(), 1.0);  // default weight
  EXPECT_EQ(a.extract_element(1, 2).value(), 2.5);
  EXPECT_EQ(a.extract_element(3, 0).value(), 7.0);
}

TEST(EdgeList, SymmetricAndExplicitSize) {
  std::istringstream in("0 1\n2 2\n");
  lagraph::EdgeListOptions opt;
  opt.symmetric = true;
  opt.nvertices = 5;
  auto a = lagraph::read_edge_list(in, opt);
  EXPECT_EQ(a.nrows(), 5u);
  EXPECT_EQ(a.nvals(), 3u);  // 0-1 mirrored + self-loop once
  EXPECT_TRUE(a.extract_element(1, 0).has_value());
}

TEST(EdgeList, Rejections) {
  std::istringstream bad("0 not_a_number\n");
  EXPECT_THROW(lagraph::read_edge_list(bad), gb::Error);

  std::istringstream over("0 9\n");
  lagraph::EdgeListOptions opt;
  opt.nvertices = 5;
  EXPECT_THROW(lagraph::read_edge_list(over, opt), gb::Error);
  EXPECT_THROW(lagraph::read_edge_list("/nonexistent/file.el"), gb::Error);
}

TEST(EdgeList, WriteReadRoundTrip) {
  auto a = lagraph::randomize_weights(lagraph::erdos_renyi(20, 60, 9), 1.0,
                                      3.0, 10);
  std::stringstream buf;
  lagraph::write_edge_list(a, buf);
  lagraph::EdgeListOptions opt;
  opt.nvertices = 20;
  auto b = lagraph::read_edge_list(buf, opt);
  EXPECT_TRUE(lagraph::isequal(a, b));
}
