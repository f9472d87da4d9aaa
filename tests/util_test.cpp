#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "util/arena.h"
#include "util/cli.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/strings.h"
#include "util/timer.h"

namespace atlas::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.next_below(17), 17u);
}

TEST(Rng, NextBelowThrowsOnZero) {
  Rng r(7);
  EXPECT_THROW(r.next_below(0), std::invalid_argument);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, GaussianMomentsRoughlyStandard) {
  Rng r(13);
  double sum = 0, sum2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = r.next_gaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(Rng, WeightedRespectsZeroWeights) {
  Rng r(17);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(r.next_weighted({0.0, 1.0, 0.0}), 1u);
  }
}

TEST(Rng, WeightedThrowsOnAllZero) {
  Rng r(17);
  EXPECT_THROW(r.next_weighted({0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(r.next_weighted({-1.0, 2.0}), std::invalid_argument);
}

TEST(Rng, WeightedApproximatesDistribution) {
  Rng r(19);
  int counts[2] = {0, 0};
  for (int i = 0; i < 10000; ++i) ++counts[r.next_weighted({1.0, 3.0})];
  EXPECT_NEAR(static_cast<double>(counts[1]) / 10000.0, 0.75, 0.03);
}

TEST(Rng, ShufflePreservesElements) {
  Rng r(29);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  r.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  abc  "), "abc");
  EXPECT_EQ(trim("abc"), "abc");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("\t x\n"), "x");
}

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitWsDropsEmpty) {
  const auto parts = split_ws("  a \t b\nc  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(starts_with("hello", "he"));
  EXPECT_FALSE(starts_with("he", "hello"));
}

TEST(Strings, NextLineSplitsLikeGetline) {
  const auto lines = [](std::string_view text) {
    std::vector<std::string> out;
    std::string_view line;
    while (next_line(text, line)) out.emplace_back(line);
    return out;
  };
  EXPECT_TRUE(lines("").empty());
  EXPECT_EQ(lines("a\nb"), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(lines("a\nb\n"), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(lines("\n\nx\r\n"), (std::vector<std::string>{"", "", "x\r"}));
}

TEST(Strings, Format) {
  EXPECT_EQ(format("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(format("%.2f", 3.14159), "3.14");
}

TEST(Strings, WithCommas) {
  EXPECT_EQ(with_commas(0), "0");
  EXPECT_EQ(with_commas(999), "999");
  EXPECT_EQ(with_commas(1000), "1,000");
  EXPECT_EQ(with_commas(289384), "289,384");
  EXPECT_EQ(with_commas(-1234567), "-1,234,567");
}

TEST(Cli, ParsesFlagsAndDefaults) {
  Cli cli;
  cli.flag("cycles", "300", "number of cycles")
      .flag("scale", "0.01", "design scale")
      .flag("verbose", "false", "chatty output");
  const char* argv[] = {"prog", "--cycles", "500", "--verbose"};
  cli.parse(4, argv);
  EXPECT_EQ(cli.integer("cycles"), 500);
  EXPECT_DOUBLE_EQ(cli.real("scale"), 0.01);
  EXPECT_TRUE(cli.boolean("verbose"));
}

TEST(Cli, EqualsSyntax) {
  Cli cli;
  cli.flag("name", "C1", "design");
  const char* argv[] = {"prog", "--name=C4"};
  cli.parse(2, argv);
  EXPECT_EQ(cli.str("name"), "C4");
}

TEST(Cli, UnknownFlagThrows) {
  Cli cli;
  cli.flag("a", "1", "");
  const char* argv[] = {"prog", "--nope", "3"};
  EXPECT_THROW(cli.parse(3, argv), std::runtime_error);
}

TEST(Cli, MissingValueThrows) {
  Cli cli;
  cli.flag("a", "1", "");
  const char* argv[] = {"prog", "--a"};
  EXPECT_THROW(cli.parse(2, argv), std::runtime_error);
}

TEST(Serialize, RoundTripScalars) {
  std::string bytes;
  ByteWriter out(bytes);
  out.u32(42);
  out.u64(1ULL << 60);
  out.i64(-7);
  out.f32(0.75f);
  out.f64(2.5);
  out.string("hello world");
  ByteReader in(bytes);
  EXPECT_EQ(in.u32(), 42u);
  EXPECT_EQ(in.u64(), 1ULL << 60);
  EXPECT_EQ(in.i64(), -7);
  EXPECT_EQ(in.f32(), 0.75f);
  EXPECT_DOUBLE_EQ(in.f64(), 2.5);
  EXPECT_EQ(in.string(), "hello world");
  EXPECT_TRUE(in.done());
}

TEST(Serialize, TruncatedReadThrows) {
  std::string bytes;
  ByteWriter(bytes).u32(1);
  ByteReader in(bytes);
  EXPECT_EQ(in.u32(), 1u);
  EXPECT_THROW(in.u64(), SerializeError);
}

TEST(Serialize, HeaderMismatchThrows) {
  std::string bytes;
  ByteWriter(bytes).header("ATLS", 3);
  ByteReader in(bytes);
  EXPECT_THROW(in.header("XXXX"), SerializeError);
}

TEST(Serialize, HeaderRoundTrip) {
  std::string bytes;
  ByteWriter(bytes).header("ATLS", 3);
  ByteReader in(bytes);
  EXPECT_EQ(in.header("ATLS"), 3u);
  EXPECT_TRUE(in.done());
}

TEST(Serialize, VectorRoundTrip) {
  const std::vector<double> v{1.0, 2.5, -3.0};
  std::string bytes;
  ByteWriter out(bytes);
  out.u64(v.size());
  for (const double d : v) out.f64(d);
  ByteReader in(bytes);
  EXPECT_EQ(in.vector<double>(8, [](ByteReader& r) { return r.f64(); }), v);
  EXPECT_TRUE(in.done());
}

// Hostile inputs must fail with SerializeError before anything is
// allocated for them: a declared length or count is checked against the
// bytes left, so a corrupt or truncated prefix can't become a multi-GiB
// allocation (std::bad_alloc / OOM kill).
TEST(Serialize, ImplausibleVectorLengthThrows) {
  std::string bytes;
  ByteWriter(bytes).u64(~0ULL);  // length word only, no payload
  ByteReader in(bytes);
  EXPECT_THROW(in.vector<double>(8, [](ByteReader& r) { return r.f64(); }),
               SerializeError);
}

TEST(Serialize, HugeDeclaredVectorOnShortStreamThrows) {
  std::string bytes;
  ByteWriter out(bytes);
  out.u64(1ULL << 30);  // plausible count, absent payload
  out.f64(1.0);         // ... one element instead of a billion
  ByteReader in(bytes);
  EXPECT_THROW(in.vector<double>(8, [](ByteReader& r) { return r.f64(); }),
               SerializeError);
}

TEST(Serialize, CountChecksTheMinimumBytesPerElement) {
  std::string bytes;
  ByteWriter out(bytes);
  out.u64(3);
  out.f64(0.0);
  out.f64(0.0);
  out.f64(0.0);
  EXPECT_EQ(ByteReader(bytes).count(8), 3u);
  // Three elements of at least 9 bytes cannot fit in 24.
  EXPECT_THROW(ByteReader(bytes).count(9), SerializeError);
}

TEST(Serialize, ImplausibleStringLengthThrows) {
  std::string bytes;
  ByteWriter(bytes).u64(~0ULL);
  ByteReader in(bytes);
  EXPECT_THROW(in.string(), SerializeError);
}

TEST(Serialize, HugeDeclaredStringOnShortStreamThrows) {
  std::string bytes;
  ByteWriter(bytes).u64(1ULL << 30);
  bytes += "short";
  ByteReader in(bytes);
  EXPECT_THROW(in.string(), SerializeError);
}

TEST(Serialize, F32SpanLengthMismatchThrows) {
  float buf[4] = {};
  std::string bytes;
  ByteWriter(bytes).u64(~0ULL);
  EXPECT_THROW(ByteReader(bytes).f32_span(buf, 4), SerializeError);
  // The right count over too few floats is a truncation.
  bytes.clear();
  ByteWriter out(bytes);
  out.u64(4);
  out.f32(1.0f);
  EXPECT_THROW(ByteReader(bytes).f32_span(buf, 4), SerializeError);
}

TEST(ReadFile, ReturnsTheBytesAndThrowsOnAMissingFile) {
  const std::string path = ::testing::TempDir() + "/util_read_file.bin";
  const std::string bytes("a\0b\nlast", 8);
  {
    std::ofstream(path, std::ios::binary) << bytes;
  }
  EXPECT_EQ(read_file(path), bytes);
  EXPECT_THROW(read_file(path + ".missing"), std::runtime_error);
}

TEST(Hash, Fnv1a64KnownValuesAndStability) {
  // Standard FNV-1a test vectors.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  // Deterministic across calls, sensitive to every byte.
  const std::string verilog = "module top(); endmodule";
  EXPECT_EQ(fnv1a64(verilog), fnv1a64(verilog));
  EXPECT_NE(fnv1a64(verilog), fnv1a64("module top();  endmodule"));
}

TEST(Hash, Siphash13MatchesReferenceValues) {
  // SipHash-1-3 under the zero key of bytes 0, 1, ..., n-1. The reference
  // is CPython 3.11, whose bytes hash is SipHash-1-3 and whose key is zero
  // under PYTHONHASHSEED=0:
  //   PYTHONHASHSEED=0 python3 -c 'print(hex(hash(bytes(range(15))) & (2**64-1)))'
  // CPython maps b"" to 0, so length 0 is pinned from this implementation.
  const std::pair<std::size_t, std::uint64_t> cases[] = {
      {0, 0xd1fba762150c532cULL},  {1, 0x68a914128e01e473ULL},
      {7, 0x2f098ab0c751325aULL},  {8, 0xead411e67ebe2eeaULL},
      {9, 0x75927f9d95124362ULL},  {15, 0xf30eb725bb91c9eaULL},
      {16, 0x8972188433a5c5b7ULL}, {31, 0x169739443111d49bULL},
      {32, 0x31ef8061c910629bULL}, {33, 0x7fb71d24dfa4c9f6ULL},
      {64, 0x75e05fd5bbc870c6ULL}};
  std::vector<unsigned char> bytes(64);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<unsigned char>(i);
  }
  for (const auto& [n, expected] : cases) {
    EXPECT_EQ(siphash13(bytes.data(), n, 0, 0), expected) << "length " << n;
  }
  // The key matters.
  EXPECT_NE(siphash13(bytes.data(), 15, 1, 0), siphash13(bytes.data(), 15, 0, 0));
  EXPECT_NE(siphash13(bytes.data(), 15, 0, 1), siphash13(bytes.data(), 15, 0, 0));
}

TEST(Hash, Siphash13OfAnUnalignedViewMatchesAnAlignedCopy) {
  std::vector<unsigned char> buf(128);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<unsigned char>(i * 37 + 11);
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (const std::size_t n : {std::size_t{0}, std::size_t{5}, std::size_t{8},
                                std::size_t{23}, std::size_t{64},
                                std::size_t{119}}) {
      std::vector<std::uint64_t> aligned((n + 7) / 8 + 1);
      std::memcpy(aligned.data(), buf.data() + offset, n);
      EXPECT_EQ(siphash13(buf.data() + offset, n, 0x0123456789abcdefULL,
                          0xfedcba9876543210ULL),
                siphash13(aligned.data(), n, 0x0123456789abcdefULL,
                          0xfedcba9876543210ULL))
          << "offset " << offset << " length " << n;
    }
  }
}

TEST(Hash, NetlistHashMemoAnswersFnv1aThroughEviction) {
  // More distinct texts than the memo holds, including texts that differ
  // only in their last byte or only in their length; every answer, first
  // sight, repeat or after eviction, is FNV-1a of the text.
  std::vector<std::string> texts;
  const std::string body = "module m (a, y);\n  input a;\n  output y;\n";
  for (std::size_t i = 0; texts.size() < NetlistHashMemo::kCapacity + 300;
       ++i) {
    const std::string base = body + "// " + std::to_string(i) + "\n";
    texts.push_back(base + "a");
    texts.push_back(base + "b");     // last byte differs
    texts.push_back(base);           // shorter
    texts.push_back(base + std::string("a\0", 2));  // longer
  }
  texts.push_back("");
  NetlistHashMemo memo;
  for (int pass = 0; pass < 2; ++pass) {
    for (const std::string& t : texts) {
      EXPECT_EQ(memo.fnv1a64(t), fnv1a64(t)) << "pass " << pass;
      EXPECT_EQ(memo.fnv1a64(t), fnv1a64(t)) << "repeat, pass " << pass;
    }
  }
  // A view into a larger buffer is keyed by its own bytes only.
  const std::string padded = "x" + texts[0] + "y";
  EXPECT_EQ(memo.fnv1a64(std::string_view(padded).substr(1, texts[0].size())),
            fnv1a64(texts[0]));
}

TEST(Hash, MixAndHexFormat) {
  const std::uint64_t a = hash_mix(fnv1a64("model"), 300);
  const std::uint64_t b = hash_mix(fnv1a64("model"), 301);
  EXPECT_NE(a, b);
  EXPECT_EQ(hash_hex(0).size(), 16u);
  EXPECT_EQ(hash_hex(0xabcULL), "0000000000000abc");
}

TEST(PhaseTimersTest, AccumulatesAndOrders) {
  PhaseTimers t;
  t.add("a", 1.0);
  t.add("b", 2.0);
  t.add("a", 0.5);
  EXPECT_DOUBLE_EQ(t.get("a"), 1.5);
  EXPECT_DOUBLE_EQ(t.get("b"), 2.0);
  EXPECT_DOUBLE_EQ(t.get("missing"), 0.0);
  ASSERT_EQ(t.phases().size(), 2u);
  EXPECT_EQ(t.phases()[0], "a");
}

TEST(TimerTest, MeasuresNonNegative) {
  Timer t;
  EXPECT_GE(t.seconds(), 0.0);
}

// ---- Arena -----------------------------------------------------------------

TEST(Arena, BumpAllocationIsAlignedAndDisjoint) {
  Arena arena(/*block_bytes=*/256);
  float* a = arena.alloc_array<float>(10);
  double* b = arena.alloc_array<double>(5);
  std::uint8_t* c = static_cast<std::uint8_t*>(arena.allocate(3, 1));
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % alignof(float), 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % alignof(double), 0u);
  // Writes to one allocation never alias another.
  std::memset(a, 0xAA, 10 * sizeof(float));
  std::memset(b, 0xBB, 5 * sizeof(double));
  std::memset(c, 0xCC, 3);
  for (int i = 0; i < 10; ++i) {
    float expect;
    std::memset(&expect, 0xAA, sizeof expect);
    EXPECT_EQ(std::memcmp(&a[i], &expect, sizeof expect), 0);
  }
  EXPECT_GE(arena.bytes_allocated(), 10 * sizeof(float) + 5 * sizeof(double) + 3);
}

TEST(Arena, GrowsPastBlockSizeAndOversizedRequests) {
  Arena arena(/*block_bytes=*/128);
  // Many small allocations spill into additional blocks.
  for (int i = 0; i < 100; ++i) {
    auto* p = arena.alloc_array<std::uint64_t>(4);
    p[0] = static_cast<std::uint64_t>(i);  // must be writable
  }
  // One request far beyond the block size gets a dedicated block.
  auto* big = arena.alloc_array<std::uint8_t>(4096);
  big[0] = 1;
  big[4095] = 2;
  EXPECT_GE(arena.bytes_reserved(), 4096u);
}

TEST(Arena, ResetRecyclesBlocksWithoutFreeing) {
  Arena arena(/*block_bytes=*/256);
  for (int i = 0; i < 64; ++i) arena.alloc_array<double>(8);
  const std::size_t reserved = arena.bytes_reserved();
  EXPECT_GT(reserved, 0u);
  arena.reset();
  EXPECT_EQ(arena.bytes_allocated(), 0u);
  // Blocks survive the reset: a same-shape second pass reserves nothing new.
  for (int i = 0; i < 64; ++i) arena.alloc_array<double>(8);
  EXPECT_EQ(arena.bytes_reserved(), reserved);
}

TEST(Arena, MarkRewindReusesScratchWithoutTouchingEarlierAllocations) {
  // The encode_batch pattern: long-lived allocations up front, then many
  // row blocks that each mark, allocate scratch, and rewind — peak memory
  // stays bounded by one block's scratch, and the early allocations keep
  // their bytes.
  Arena arena(/*block_bytes=*/1024);
  std::uint32_t* persistent = arena.alloc_array<std::uint32_t>(16);
  for (std::uint32_t i = 0; i < 16; ++i) persistent[i] = 0xFEEDF00Du + i;

  std::size_t reserved_after_first_block = 0;
  for (int block = 0; block < 50; ++block) {
    const Arena::Marker m = arena.mark();
    float* scratch = arena.alloc_array<float>(200);
    scratch[0] = 1.0f;
    scratch[199] = 2.0f;
    arena.rewind(m);
    if (block == 0) reserved_after_first_block = arena.bytes_reserved();
  }
  // Rewind really recycles: 50 blocks of scratch fit in what one needed.
  EXPECT_EQ(arena.bytes_reserved(), reserved_after_first_block);
  for (std::uint32_t i = 0; i < 16; ++i) {
    EXPECT_EQ(persistent[i], 0xFEEDF00Du + i);
  }
}

}  // namespace
}  // namespace atlas::util
