/// Wire-codec layer hardening (runtime/wire.hpp): round-trips for every
/// message class under every precision x index-codec combination,
/// adversarial support shapes, corrupt-message rejection (truncation,
/// trailing garbage, tampered headers), quantization error bounds, the
/// idempotence the multi-hop rings rely on, and the single support
/// layout the row- and col-support messages share. These tests also pin
/// the encode/decode/words triples for dsk_lint's P1 protocol account.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "runtime/wire.hpp"

namespace dsk {
namespace {

constexpr WirePrecision kPrecisions[] = {
    WirePrecision::Full, WirePrecision::F32, WirePrecision::BF16};
constexpr IndexCodec kIndexCodecs[] = {
    IndexCodec::Raw, IndexCodec::DeltaVarint, IndexCodec::Bitmap,
    IndexCodec::Auto};

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
      const WireCodec codec{precision, IndexCodec::Raw};
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
    const WireCodec codec{precision, IndexCodec::Raw};
    const auto once = encode_values(values, codec);
    const auto decoded = decode_values(once, 13, codec);
    const auto twice = encode_values(decoded, codec);
    EXPECT_EQ(once, twice) << to_string(precision);
  }
}

TEST(WireValues, RejectsWrongLength) {
  const auto values = gaussian_values(5, 41);
  for (const WirePrecision precision : kPrecisions) {
    const WireCodec codec{precision, IndexCodec::Raw};
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
  MessageWords image(values.size());
  std::memcpy(image.data(), values.data(),
              values.size() * sizeof(Scalar));
  for (const WirePrecision precision : kPrecisions) {
    const WireCodec codec{precision, IndexCodec::Raw};
    const auto wire = encode_dense(image, rows, width, codec);
    EXPECT_EQ(wire.size(), encoded_dense_words(rows, width, codec));
    const auto back = decode_dense(wire, rows, width, codec);
    ASSERT_EQ(back.size(), image.size());
    std::vector<Scalar> decoded(values.size());
    std::memcpy(decoded.data(), back.data(),
                decoded.size() * sizeof(Scalar));
    expect_within_bound(decoded, values, precision);
  }
  // The default codec is the identity on the raw image.
  EXPECT_EQ(encode_dense(image, rows, width, WireCodec{}), image);
}

TEST(WireDense, RejectsWrongSizes) {
  const WireCodec bf16{WirePrecision::BF16, IndexCodec::Raw};
  MessageWords image(6, 0);
  EXPECT_THROW(encode_dense(image, 2, 4, bf16), Error); // 6 != 2x4
  auto wire = encode_dense(std::move(image), 2, 3, bf16);
  wire.push_back(0);
  EXPECT_THROW(decode_dense(wire, 2, 3, bf16), Error);
  wire.pop_back();
  wire.pop_back();
  EXPECT_THROW(decode_dense(wire, 2, 3, bf16), Error);
}

TEST(WireTripletsCodec, RoundTripAllPrecisions) {
  const std::vector<Index> rows = {0, 2, 2, 7};
  const std::vector<Index> cols = {5, 1, 3, 0};
  const auto values = gaussian_values(4, 61);
  for (const WirePrecision precision : kPrecisions) {
    const WireCodec codec{precision, IndexCodec::Raw};
    const auto words = encode_triplets(rows, cols, values, codec);
    EXPECT_EQ(words.size(), encoded_triplets_words(4, codec));
    const auto back = decode_triplets(words, codec);
    EXPECT_EQ(back.rows, rows);
    EXPECT_EQ(back.cols, cols);
    expect_within_bound(back.values, values, precision);
  }
  // Empty triplets are one header word under every precision.
  for (const WirePrecision precision : kPrecisions) {
    const WireCodec codec{precision, IndexCodec::Raw};
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
    const WireCodec codec{precision, IndexCodec::Raw};
    auto words = encode_triplets(rows, cols, values, codec);
    words.push_back(0); // trailing garbage
    EXPECT_THROW(decode_triplets(words, codec), Error);
    words.pop_back();
    words.pop_back(); // truncated payload
    EXPECT_THROW(decode_triplets(words, codec), Error);
    EXPECT_THROW(decode_triplets(MessageWords{}, codec), Error);
  }
}

/// Support shapes chosen to favor each codec: a lone row (Raw), a tight
/// cluster (DeltaVarint), a dense support over a small block (Bitmap),
/// and the adversarial two-endpoint support whose single huge gap costs
/// the varint codec most.
struct SupportCase {
  const char* name;
  Index block_rows;
  std::vector<Index> rows;
};

std::vector<SupportCase> support_cases() {
  std::vector<SupportCase> cases;
  cases.push_back({"single-first", 256, {0}});
  cases.push_back({"single-last", 256, {255}});
  cases.push_back({"endpoints", 1 << 20, {0, (1 << 20) - 1}});
  SupportCase cluster{"cluster", 4096, {}};
  for (Index i = 100; i < 180; ++i) cluster.rows.push_back(i);
  cases.push_back(std::move(cluster));
  SupportCase full{"full", 192, {}};
  for (Index i = 0; i < 192; ++i) full.rows.push_back(i);
  cases.push_back(std::move(full));
  SupportCase strided{"strided", 1024, {}};
  for (Index i = 0; i < 1024; i += 3) strided.rows.push_back(i);
  cases.push_back(std::move(strided));
  return cases;
}

TEST(WireIndexSections, AutoPicksTheSmallestAndNeverExceedsRaw) {
  for (const auto& sc : support_cases()) {
    const std::uint64_t raw = encoded_index_words(
        sc.rows, sc.block_rows, IndexCodec::Raw);
    const std::uint64_t dv = encoded_index_words(
        sc.rows, sc.block_rows, IndexCodec::DeltaVarint);
    const std::uint64_t bm = encoded_index_words(
        sc.rows, sc.block_rows, IndexCodec::Bitmap);
    const std::uint64_t chosen = encoded_index_words(
        sc.rows, sc.block_rows, IndexCodec::Auto);
    EXPECT_EQ(chosen, std::min({raw, dv, bm})) << sc.name;
    EXPECT_LE(chosen, raw) << sc.name;
    EXPECT_EQ(raw, sc.rows.size()) << sc.name;
    // Tie order: Raw beats both byte codecs, DeltaVarint beats Bitmap.
    const IndexCodec pick =
        choose_index_codec(sc.rows, sc.block_rows, IndexCodec::Auto);
    if (raw <= dv && raw <= bm) {
      EXPECT_EQ(pick, IndexCodec::Raw) << sc.name;
    } else if (dv <= bm) {
      EXPECT_EQ(pick, IndexCodec::DeltaVarint) << sc.name;
    } else {
      EXPECT_EQ(pick, IndexCodec::Bitmap) << sc.name;
    }
  }
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
      for (const IndexCodec index_codec : kIndexCodecs) {
        const WireCodec codec{precision, index_codec};
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
}

TEST(WireColsBlock, EmptySupportSendsNothing) {
  for (const WirePrecision precision : kPrecisions) {
    for (const IndexCodec index_codec : kIndexCodecs) {
      EXPECT_EQ(encoded_cols_words({}, 64, 8,
                                   WireCodec{precision, index_codec}),
                0u);
    }
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
  for (const IndexCodec index_codec : kIndexCodecs) {
    const WireCodec codec{WirePrecision::BF16, index_codec};
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
}

TEST(WireRows, RoundTripEveryCodecAndSupportShape) {
  for (const auto& sc : support_cases()) {
    const Index width = 3;
    const auto values = gaussian_values(
        sc.rows.size() * static_cast<std::size_t>(width), 101);
    for (const WirePrecision precision : kPrecisions) {
      for (const IndexCodec index_codec : kIndexCodecs) {
        const WireCodec codec{precision, index_codec};
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
    for (const IndexCodec index_codec : kIndexCodecs) {
      const WireCodec codec{precision, index_codec};
      EXPECT_EQ(encode_rows(rows, block_rows, width, values, codec),
                encode_cols_block(image, block_rows, width, rows, codec))
          << to_string(precision) << " " << to_string(index_codec);
      EXPECT_EQ(encoded_rows_words(rows, block_rows, width, codec),
                encoded_cols_words(rows, block_rows, width, codec));
    }
  }
  EXPECT_EQ(encoded_rows_words({}, block_rows, width, WireCodec{}), 0u);
}

TEST(WireRows, RejectsCorruptMessages) {
  const Index block_rows = 32;
  const Index width = 2;
  const std::vector<Index> rows = {0, 5, 9, 30};
  const auto values = gaussian_values(
      rows.size() * static_cast<std::size_t>(width), 111);
  for (const IndexCodec index_codec : kIndexCodecs) {
    const WireCodec codec{WirePrecision::F32, index_codec};
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
  }
}

} // namespace
} // namespace dsk
