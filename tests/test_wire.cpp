/// Wire-codec layer hardening (runtime/wire.hpp): round-trips for every
/// message class under every precision, on support shapes whose smallest
/// index section is each of its encodings, corrupt-message rejection
/// (truncation, trailing garbage, unsorted supports, tampered headers
/// and index sections), quantization error bounds, the
/// idempotence the multi-hop rings rely on, and the single support
/// layout the row- and col-support messages share. These tests also pin
/// the encode/decode/words triples for dsk_lint's P1 protocol account.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "runtime/wire.hpp"

namespace dsk {
namespace {

constexpr WirePrecision kPrecisions[] = {
    WirePrecision::Full, WirePrecision::F32, WirePrecision::BF16};

/// Per-value relative error ceiling of one quantization (round to
/// nearest even): 2^-25 for f32's 24-bit mantissa, 2^-9 for bf16's
/// 8-bit mantissa — with slack for the double round-trip.
double precision_bound(WirePrecision precision) {
  switch (precision) {
    case WirePrecision::Full: return 0.0;
    case WirePrecision::F32: return 1e-7;
    case WirePrecision::BF16: return 1.0 / 256.0;
  }
  return 0.0;
}

std::vector<Scalar> gaussian_values(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Scalar> values(count);
  for (auto& v : values) v = rng.next_gaussian();
  return values;
}

void expect_within_bound(const std::vector<Scalar>& got,
                         const std::vector<Scalar>& want,
                         WirePrecision precision) {
  ASSERT_EQ(got.size(), want.size());
  const double bound = precision_bound(precision);
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (precision == WirePrecision::Full) {
      EXPECT_EQ(got[i], want[i]) << "value " << i;
    } else {
      EXPECT_LE(std::abs(got[i] - want[i]), bound * std::abs(want[i]))
          << "value " << i << " at " << to_string(precision);
    }
  }
}

TEST(WireValues, RoundTripAllPrecisions) {
  for (const std::size_t count : {std::size_t{0}, std::size_t{1},
                                  std::size_t{3}, std::size_t{4},
                                  std::size_t{17}}) {
    const auto values = gaussian_values(count, 11 + count);
    for (const WirePrecision precision : kPrecisions) {
      const WireCodec codec{precision};
      const auto words = encode_values(values, codec);
      EXPECT_EQ(words.size(),
                encoded_values_words(static_cast<std::int64_t>(count),
                                     codec));
      const auto back = decode_values(
          words, static_cast<std::int64_t>(count), codec);
      expect_within_bound(back, values, precision);
    }
  }
}

TEST(WireValues, DefaultCodecIsOneWordPerValueBitExact) {
  const auto values = gaussian_values(9, 21);
  const auto words = encode_values(values, WireCodec{});
  ASSERT_EQ(words.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::uint64_t bits;
    std::memcpy(&bits, &values[i], sizeof bits);
    EXPECT_EQ(words[i], bits);
  }
}

/// Re-encoding an already-quantized payload must be bit-identical —
/// the property that lets a ring hop re-encode a forwarded block
/// without compounding error.
TEST(WireValues, QuantizationIsIdempotent) {
  const auto values = gaussian_values(13, 31);
  for (const WirePrecision precision :
       {WirePrecision::F32, WirePrecision::BF16}) {
    const WireCodec codec{precision};
    const auto once = encode_values(values, codec);
    const auto decoded = decode_values(once, 13, codec);
    const auto twice = encode_values(decoded, codec);
    EXPECT_EQ(once, twice) << to_string(precision);
  }
}

TEST(WireValues, RejectsWrongLength) {
  const auto values = gaussian_values(5, 41);
  for (const WirePrecision precision : kPrecisions) {
    const WireCodec codec{precision};
    auto words = encode_values(values, codec);
    words.push_back(0); // trailing garbage
    EXPECT_THROW(decode_values(words, 5, codec), Error);
    words.pop_back();
    if (!words.empty()) {
      words.pop_back(); // truncated
      EXPECT_THROW(decode_values(words, 5, codec), Error);
    }
  }
}

TEST(WireDense, RoundTripAllPrecisions) {
  const Index rows = 5;
  const Index width = 3;
  const auto values =
      gaussian_values(static_cast<std::size_t>(rows * width), 51);
  const DenseMatrix block(rows, width, values);
  for (const WirePrecision precision : kPrecisions) {
    const WireCodec codec{precision};
    const auto wire = encode_dense(block, codec);
    EXPECT_EQ(wire.size(), encoded_dense_words(rows, width, codec));
    DenseMatrix back = DenseMatrix::uninitialized(rows, width);
    decode_dense(wire, back, codec);
    expect_within_bound({back.data().begin(), back.data().end()}, values,
                        precision);
  }
  // The default codec's wire image is the block's raw bits.
  const auto image = encode_dense(block, WireCodec{});
  ASSERT_EQ(image.size(), values.size());
  EXPECT_EQ(std::memcmp(image.data(), values.data(),
                        values.size() * sizeof(Scalar)),
            0);
}

TEST(WireDense, RejectsWrongSizes) {
  const WireCodec bf16{WirePrecision::BF16};
  const DenseMatrix block(2, 3);
  auto wire = encode_dense(block, bf16);
  DenseMatrix back(2, 3);
  wire.push_back(0);
  EXPECT_THROW(decode_dense(wire, back, bf16), Error);
  wire.pop_back();
  wire.pop_back();
  EXPECT_THROW(decode_dense(wire, back, bf16), Error);
  // A block image of another shape than the receiving block.
  DenseMatrix wider(2, 5);
  EXPECT_THROW(decode_dense(encode_dense(block, bf16), wider, bf16), Error);
}

TEST(WireTripletsCodec, RoundTripAllPrecisions) {
  const std::vector<Index> rows = {0, 2, 2, 7};
  const std::vector<Index> cols = {5, 1, 3, 0};
  const auto values = gaussian_values(4, 61);
  for (const WirePrecision precision : kPrecisions) {
    const WireCodec codec{precision};
    const auto words = encode_triplets(rows, cols, values, codec);
    EXPECT_EQ(words.size(), encoded_triplets_words(4, codec));
    const auto back = decode_triplets(words, codec);
    EXPECT_EQ(back.rows, rows);
    EXPECT_EQ(back.cols, cols);
    expect_within_bound(back.values, values, precision);
  }
  // Empty triplets are one header word under every precision.
  for (const WirePrecision precision : kPrecisions) {
    const WireCodec codec{precision};
    const auto words = encode_triplets({}, {}, {}, codec);
    EXPECT_EQ(words.size(), 1u);
    EXPECT_EQ(decode_triplets(words, codec).rows.size(), 0u);
  }
}

TEST(WireTripletsCodec, RejectsCorruptMessages) {
  const std::vector<Index> rows = {1, 3};
  const std::vector<Index> cols = {0, 2};
  const auto values = gaussian_values(2, 71);
  for (const WirePrecision precision : kPrecisions) {
    const WireCodec codec{precision};
    auto words = encode_triplets(rows, cols, values, codec);
    words.push_back(0); // trailing garbage
    EXPECT_THROW(decode_triplets(words, codec), Error);
    words.pop_back();
    words.pop_back(); // truncated payload
    EXPECT_THROW(decode_triplets(words, codec), Error);
    EXPECT_THROW(decode_triplets(MessageWords{}, codec), Error);
  }
}

/// A count header whose expected length wraps modulo 2^64 must not pass
/// the size check (and then reach an unvalidated reserve): at Full
/// precision 1 + 3n wraps to the message size for these counts, at F32
/// 1 + 2n + ceil(n/2) does, and a count near 2^63 would overflow the
/// signed value-word arithmetic.
TEST(WireTripletsCodec, RejectsCountsWhoseLengthWraps) {
  const WireCodec full{};
  EXPECT_THROW(decode_triplets({0xAAAAAAAAAAAAAAABull, 0}, full), Error);
  EXPECT_THROW(decode_triplets({0x5555555555555556ull, 0, 0}, full), Error);
  const WireCodec f32{WirePrecision::F32};
  EXPECT_THROW(decode_triplets({0x6666666666666667ull, 0, 0}, f32), Error);
  EXPECT_THROW(decode_triplets({0x7FFFFFFFFFFFFFFFull, 0, 0}, f32), Error);
  const WireCodec bf16{WirePrecision::BF16};
  EXPECT_THROW(decode_triplets({0x7FFFFFFFFFFFFFFFull, 0, 0}, bf16), Error);
}

/// Support shapes chosen so the smallest index section is each of its
/// encodings: a lone row (raw), a tight cluster (LEB128 gaps), a dense
/// support over a small block (bitmap), and the adversarial two-endpoint
/// support whose single huge gap costs the gap encoding most.
/// `section_words` is the smallest section's size, worked out by hand:
/// raw is one word per row, LEB128 one byte per gap below 128 (two below
/// 2^14, three below 2^21) rounded up to words, the bitmap
/// ceil(block_rows / 64) words.
struct SupportCase {
  const char* name;
  Index block_rows;
  std::vector<Index> rows;
  std::uint64_t section_words;
};

std::vector<SupportCase> support_cases() {
  std::vector<SupportCase> cases;
  // raw 1 = LEB128 1 (one byte) < bitmap 4: raw by the tie order.
  cases.push_back({"single-first", 256, {0}, 1});
  // raw 1 = LEB128 1 (two bytes) < bitmap 4: raw.
  cases.push_back({"single-last", 256, {255}, 1});
  // raw 2 > LEB128 1 (1 + 3 bytes) < bitmap 16384: LEB128.
  cases.push_back({"endpoints", 1 << 20, {0, (1 << 20) - 1}, 1});
  // raw 80 > LEB128 10 (80 one-byte gaps) < bitmap 64: LEB128.
  SupportCase cluster{"cluster", 4096, {}, 10};
  for (Index i = 100; i < 180; ++i) cluster.rows.push_back(i);
  cases.push_back(std::move(cluster));
  // raw 192 > LEB128 24 > bitmap 3: bitmap.
  SupportCase full{"full", 192, {}, 3};
  for (Index i = 0; i < 192; ++i) full.rows.push_back(i);
  cases.push_back(std::move(full));
  // raw 342 > LEB128 43 (342 bytes) > bitmap 16: bitmap.
  SupportCase strided{"strided", 1024, {}, 16};
  for (Index i = 0; i < 1024; i += 3) strided.rows.push_back(i);
  cases.push_back(std::move(strided));
  return cases;
}

TEST(WireIndexSections, AutoPicksTheSmallestAndNeverExceedsRaw) {
  for (const auto& sc : support_cases()) {
    const std::uint64_t chosen =
        encoded_index_words(sc.rows, sc.block_rows);
    EXPECT_EQ(chosen, sc.section_words) << sc.name;
    EXPECT_LE(chosen, sc.rows.size()) << sc.name;
  }
  // Ties resolve raw < LEB128 < bitmap, which shows in the section word
  // itself. Row 255 of 256 is one word either raw or as the LEB128
  // bytes {0xFF, 0x01}: the raw index travels.
  const std::vector<Scalar> one = {1.0};
  EXPECT_EQ(encode_rows(std::vector<Index>{255}, 256, 1, one, WireCodec{})[1],
            255u);
  // Rows {0, 5, 9, 30} of 32 are one word as LEB128 gap bytes
  // {0, 5, 4, 21} and one as the bitmap: the gap bytes travel.
  const std::vector<Scalar> four = {1.0, 2.0, 3.0, 4.0};
  EXPECT_EQ(encode_rows(std::vector<Index>{0, 5, 9, 30}, 32, 1, four,
                        WireCodec{})[1],
            0x15040500u);
}

TEST(WireColsBlock, RoundTripEveryCodecAndSupportShape) {
  for (const auto& sc : support_cases()) {
    if (sc.block_rows > 4096) continue; // keep the dense image small
    const Index width = 3;
    const auto values = gaussian_values(
        static_cast<std::size_t>(sc.block_rows * width), 81);
    MessageWords image(values.size());
    std::memcpy(image.data(), values.data(),
                values.size() * sizeof(Scalar));
    for (const WirePrecision precision : kPrecisions) {
      const WireCodec codec{precision};
      const auto words =
          encode_cols_block(image, sc.block_rows, width, sc.rows, codec);
      EXPECT_EQ(words.size(),
                encoded_cols_words(sc.rows, sc.block_rows, width, codec))
          << sc.name;
      const auto dense = decode_cols_block(words, sc.block_rows, width,
                                           sc.rows, codec);
      ASSERT_EQ(dense.size(), image.size()) << sc.name;
      // Supported rows round-trip within the precision bound;
      // unsupported rows are exactly zero.
      std::size_t k = 0;
      for (Index row = 0; row < sc.block_rows; ++row) {
        const bool supported =
            k < sc.rows.size() && sc.rows[k] == row;
        for (Index j = 0; j < width; ++j) {
          const auto at = static_cast<std::size_t>(row * width + j);
          Scalar got;
          std::memcpy(&got, &dense[at], sizeof got);
          if (!supported) {
            EXPECT_EQ(got, 0.0) << sc.name;
          } else if (precision == WirePrecision::Full) {
            EXPECT_EQ(got, values[at]) << sc.name;
          } else {
            EXPECT_LE(std::abs(got - values[at]),
                      precision_bound(precision) * std::abs(values[at]))
                << sc.name;
          }
        }
        if (supported) ++k;
      }
    }
  }
}

TEST(WireColsBlock, EmptySupportSendsNothing) {
  for (const WirePrecision precision : kPrecisions) {
    EXPECT_EQ(encoded_cols_words({}, 64, 8,
                                 WireCodec{precision}),
              0u);
  }
}

TEST(WireColsBlock, RejectsCorruptMessages) {
  const Index block_rows = 128;
  const Index width = 2;
  const std::vector<Index> cols = {3, 64, 100};
  const auto values = gaussian_values(
      static_cast<std::size_t>(block_rows * width), 91);
  MessageWords image(values.size());
  std::memcpy(image.data(), values.data(), values.size() * sizeof(Scalar));
  const WireCodec codec{WirePrecision::BF16};
  const auto good = encode_cols_block(image, block_rows, width, cols,
                                      codec);
  ASSERT_NO_THROW(decode_cols_block(good, block_rows, width, cols,
                                    codec));
  auto tampered = good;
  tampered.push_back(0); // trailing garbage
  EXPECT_THROW(decode_cols_block(tampered, block_rows, width, cols,
                                 codec),
               Error);
  tampered = good;
  tampered.pop_back(); // truncated payload
  EXPECT_THROW(decode_cols_block(tampered, block_rows, width, cols,
                                 codec),
               Error);
  tampered = good;
  tampered[0] += 1; // count disagrees with the support table
  EXPECT_THROW(decode_cols_block(tampered, block_rows, width, cols,
                                 codec),
               Error);
  tampered = good;
  tampered[1] ^= 1; // index section disagrees with the support table
  EXPECT_THROW(decode_cols_block(tampered, block_rows, width, cols,
                                 codec),
               Error);
  EXPECT_THROW(decode_cols_block(MessageWords{}, block_rows, width,
                                 cols, codec),
               Error);
}

TEST(WireRows, RoundTripEveryCodecAndSupportShape) {
  for (const auto& sc : support_cases()) {
    const Index width = 3;
    const auto values = gaussian_values(
        sc.rows.size() * static_cast<std::size_t>(width), 101);
    for (const WirePrecision precision : kPrecisions) {
      const WireCodec codec{precision};
      const auto words =
          encode_rows(sc.rows, sc.block_rows, width, values, codec);
      EXPECT_EQ(words.size(),
                encoded_rows_words(sc.rows, sc.block_rows, width, codec))
          << sc.name;
      expect_within_bound(
          decode_rows(words, sc.rows, sc.block_rows, width, codec),
          values, precision);
    }
  }
}

/// A row-support message is byte-for-byte the col-support message of
/// the same rows — one layout, one price — so the replication and
/// propagation paths cannot drift apart on the wire.
TEST(WireRows, WireImageMatchesColsBlock) {
  const Index block_rows = 96;
  const Index width = 5;
  std::vector<Index> rows;
  for (Index i = 0; i < 90; i += 2) rows.push_back(i);
  const auto image_values = gaussian_values(
      static_cast<std::size_t>(block_rows * width), 103);
  MessageWords image(image_values.size());
  std::memcpy(image.data(), image_values.data(),
              image_values.size() * sizeof(Scalar));
  std::vector<Scalar> values;
  for (const Index row : rows) {
    values.insert(values.end(),
                  image_values.begin() + row * width,
                  image_values.begin() + (row + 1) * width);
  }
  for (const WirePrecision precision : kPrecisions) {
    const WireCodec codec{precision};
    EXPECT_EQ(encode_rows(rows, block_rows, width, values, codec),
              encode_cols_block(image, block_rows, width, rows, codec))
        << to_string(precision);
    EXPECT_EQ(encoded_rows_words(rows, block_rows, width, codec),
              encoded_cols_words(rows, block_rows, width, codec));
  }
  EXPECT_EQ(encoded_rows_words({}, block_rows, width, WireCodec{}), 0u);
}

TEST(WireRows, RejectsCorruptMessages) {
  const Index block_rows = 32;
  const Index width = 2;
  const std::vector<Index> rows = {0, 5, 9, 30};
  const auto values = gaussian_values(
      rows.size() * static_cast<std::size_t>(width), 111);
  const WireCodec codec{WirePrecision::F32};
  const auto good = encode_rows(rows, block_rows, width, values, codec);
  ASSERT_NO_THROW(decode_rows(good, rows, block_rows, width, codec));
  auto tampered = good;
  tampered[0] += 1; // count header disagrees with the support
  EXPECT_THROW(decode_rows(tampered, rows, block_rows, width, codec),
               Error);
  tampered = good;
  tampered[1] ^= 2; // index section disagrees with the support table
  EXPECT_THROW(decode_rows(tampered, rows, block_rows, width, codec),
               Error);
  tampered = good;
  tampered.push_back(7); // trailing garbage
  EXPECT_THROW(decode_rows(tampered, rows, block_rows, width, codec),
               Error);
  tampered = good;
  tampered.pop_back(); // truncated values
  EXPECT_THROW(decode_rows(tampered, rows, block_rows, width, codec),
               Error);
  EXPECT_THROW(decode_rows(MessageWords{}, rows, block_rows, width,
                           codec),
               Error);
  // A support must be sorted and distinct even where its section needs
  // no gap scan: every row of the block, descending, would be a bitmap.
  std::vector<Index> descending;
  for (Index row = block_rows - 1; row >= 0; --row) descending.push_back(row);
  const auto all_values = gaussian_values(
      descending.size() * static_cast<std::size_t>(width), 113);
  EXPECT_THROW(
      encode_rows(descending, block_rows, width, all_values, codec), Error);
}

/// Decoding `words` as a width-1 row message over `rows` must throw an
/// Error whose message names the check that fired.
void expect_rejected(const MessageWords& words, const std::vector<Index>& rows,
                     Index block_rows, const std::string& check_text) {
  const WireCodec codec{};
  try {
    decode_rows(words, rows, block_rows, 1, codec);
    ADD_FAILURE() << "accepted a message that should fail: " << check_text;
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(check_text), std::string::npos)
        << "expected '" << check_text << "', got: " << e.what();
  }
}

/// A width-1 row message over `rows` at full precision; its
/// index section starts at word 1.
MessageWords rows_message(const std::vector<Index>& rows,
                          Index block_rows) {
  const std::vector<Scalar> values(rows.size(), 1.0);
  return encode_rows(rows, block_rows, 1, values, WireCodec{});
}

/// Sets byte `b` of the byte-packed index section that starts at word 1.
void set_section_byte(MessageWords& words, std::size_t b,
                      std::uint8_t value) {
  auto& word = words[1 + b / 8];
  const unsigned shift = 8 * static_cast<unsigned>(b % 8);
  word = (word & ~(std::uint64_t{0xFF} << shift)) |
         (std::uint64_t{value} << shift);
}

/// Every malformed-LEB128 check of the index-section decoder, reached
/// through supports whose smallest section is LEB128 gaps.
TEST(WireIndexSections, Leb128DecoderRejectsMalformedSections) {
  // Rows {3, 64, 100} of 128: three gap bytes in one word, five bytes
  // of padding after them.
  const std::vector<Index> sparse = {3, 64, 100};
  ASSERT_EQ(encoded_index_words(sparse, 128), 1u);
  auto words = rows_message(sparse, 128);
  ASSERT_NO_THROW(decode_rows(words, sparse, 128, 1, WireCodec{}));
  set_section_byte(words, 7, 0x01);
  expect_rejected(words, sparse, 128, "nonzero varint padding");

  // Rows 100..179 of 4096: 80 one-byte gaps fill ten words exactly.
  std::vector<Index> cluster;
  for (Index i = 100; i < 180; ++i) cluster.push_back(i);
  ASSERT_EQ(encoded_index_words(cluster, 4096), 10u);
  const auto good = rows_message(cluster, 4096);
  // The last gap's continuation bit runs the varint past the section.
  words = good;
  set_section_byte(words, 79, 0x81);
  expect_rejected(words, cluster, 4096, "truncated varint index stream");
  // An 11-byte varint (ten continuation bytes) overflows 64 bits.
  words = good;
  for (std::size_t b = 0; b < 10; ++b) set_section_byte(words, b, 0x80);
  set_section_byte(words, 10, 0x01);
  expect_rejected(words, cluster, 4096, "varint index overflows 64 bits");
}

/// Every malformed-bitmap check of the index-section decoder, reached
/// through a support whose smallest section is a bitmap.
TEST(WireIndexSections, BitmapDecoderRejectsMalformedSections) {
  // 99 of 100 rows (row 50 missing): a two-word bitmap, whose bits 36..63
  // of the second word lie outside the block.
  std::vector<Index> rows;
  for (Index i = 0; i < 100; ++i) {
    if (i != 50) rows.push_back(i);
  }
  ASSERT_EQ(encoded_index_words(rows, 100), 2u);
  const auto good = rows_message(rows, 100);
  ASSERT_NO_THROW(decode_rows(good, rows, 100, 1, WireCodec{}));
  auto words = good;
  words[2] |= std::uint64_t{1} << 40; // row 104
  expect_rejected(words, rows, 100, "bitmap sets rows outside the block");
  words = good;
  words[1] |= std::uint64_t{1} << 50; // row 50 added
  expect_rejected(words, rows, 100, "row mismatch against the support table");
  words = good;
  words[2] &= ~(std::uint64_t{1} << 35); // row 99 dropped
  expect_rejected(words, rows, 100, "bitmap omits expected support rows");
  words = good;
  words[1] |= std::uint64_t{1} << 50;    // row 50 added and
  words[2] &= ~(std::uint64_t{1} << 35); // row 99 dropped: same count
  expect_rejected(words, rows, 100, "row mismatch against the support table");
}

} // namespace
} // namespace dsk
