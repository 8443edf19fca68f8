#include "runtime/wire.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/error.hpp"

namespace dsk {

namespace {

std::uint64_t scalar_bits(Scalar v) {
  std::uint64_t out;
  std::memcpy(&out, &v, sizeof out);
  return out;
}

Scalar bits_scalar(std::uint64_t w) {
  Scalar out;
  std::memcpy(&out, &w, sizeof out);
  return out;
}

std::uint32_t f32_bits(Scalar v) {
  const float f = static_cast<float>(v);
  std::uint32_t out;
  std::memcpy(&out, &f, sizeof out);
  return out;
}

Scalar f32_value(std::uint32_t bits) {
  float f;
  std::memcpy(&f, &bits, sizeof f);
  return static_cast<Scalar>(f);
}

/// bfloat16 with round-to-nearest-even on the dropped mantissa half.
/// A value already representable in bf16 converts to a float whose low
/// 16 bits are zero, so re-encoding is exact (the idempotence the
/// multi-hop rings rely on).
std::uint16_t bf16_bits(Scalar v) {
  const std::uint32_t x = f32_bits(v);
  return static_cast<std::uint16_t>((x + 0x7FFF + ((x >> 16) & 1)) >> 16);
}

Scalar bf16_value(std::uint16_t bits) {
  return f32_value(static_cast<std::uint32_t>(bits) << 16);
}

/// Append one logical row of `count` values, packed per `precision`;
/// the row's last word is zero-padded so rows are independent.
void put_row(MessageWords& out, const Scalar* row, Index count,
             WirePrecision precision) {
  switch (precision) {
    case WirePrecision::Full:
      for (Index j = 0; j < count; ++j) out.push_back(scalar_bits(row[j]));
      return;
    case WirePrecision::F32:
      for (Index j = 0; j < count; j += 2) {
        std::uint64_t w = f32_bits(row[j]);
        if (j + 1 < count) {
          w |= static_cast<std::uint64_t>(f32_bits(row[j + 1])) << 32;
        }
        out.push_back(w);
      }
      return;
    case WirePrecision::BF16:
      for (Index j = 0; j < count; j += 4) {
        std::uint64_t w = 0;
        for (Index k = 0; k < 4 && j + k < count; ++k) {
          w |= static_cast<std::uint64_t>(bf16_bits(row[j + k])) << (16 * k);
        }
        out.push_back(w);
      }
      return;
  }
}

/// Bits-image variant (dense payloads are stored as raw Scalar words).
void put_row_bits(MessageWords& out, const std::uint64_t* row, Index count,
                  WirePrecision precision) {
  if (precision == WirePrecision::Full) {
    out.insert(out.end(), row, row + count);
    return;
  }
  for (Index j = 0; j < count; ) {
    Scalar buf[4];
    const Index n = std::min<Index>(
        count - j, wire_values_per_word(precision));
    for (Index k = 0; k < n; ++k) buf[k] = bits_scalar(row[j + k]);
    put_row(out, buf, n, precision);
    j += n;
  }
}

/// Read one logical row of `count` values from `words` at `cursor`,
/// widened back to Scalar.
void take_row(const MessageWords& words, std::size_t& cursor, Scalar* dst,
              Index count, WirePrecision precision) {
  const auto need =
      static_cast<std::size_t>(wire_value_words(count, precision));
  check(cursor + need <= words.size(), "wire: truncated value payload (",
        words.size() - cursor, " words left, row needs ", need, ")");
  switch (precision) {
    case WirePrecision::Full:
      for (Index j = 0; j < count; ++j) {
        dst[j] = bits_scalar(words[cursor + static_cast<std::size_t>(j)]);
      }
      break;
    case WirePrecision::F32:
      for (Index j = 0; j < count; ++j) {
        const std::uint64_t w =
            words[cursor + static_cast<std::size_t>(j / 2)];
        dst[j] = f32_value(
            static_cast<std::uint32_t>(w >> (32 * (j % 2))));
      }
      break;
    case WirePrecision::BF16:
      for (Index j = 0; j < count; ++j) {
        const std::uint64_t w =
            words[cursor + static_cast<std::size_t>(j / 4)];
        dst[j] = bf16_value(
            static_cast<std::uint16_t>(w >> (16 * (j % 4))));
      }
      break;
  }
  cursor += need;
}

std::uint64_t bitmap_words(Index block_rows) {
  return static_cast<std::uint64_t>((block_rows + 63) / 64);
}

std::uint64_t leb128_len(std::uint64_t v) {
  std::uint64_t len = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++len;
  }
  return len;
}

/// Words of the LEB128 gap stream of a sorted, distinct list: the first
/// index absolute, then the strictly positive gaps, byte-packed.
std::uint64_t varint_words(std::span<const Index> indices) {
  std::uint64_t bytes = 0;
  std::uint64_t prev = 0;
  for (const Index c : indices) {
    bytes += leb128_len(static_cast<std::uint64_t>(c) - prev);
    prev = static_cast<std::uint64_t>(c);
  }
  return (bytes + 7) / 8;
}

/// The index-section encodings a message can carry — one word per
/// index, LEB128-coded gaps byte-packed into words, or a membership
/// bitmap over the block's rows — with the section's size in words.
struct Section {
  enum Kind { Raw, Leb128, Bitmap } kind;
  std::uint64_t words;
};

/// The section one message carries: the smallest encoding of `indices`
/// against a `block_rows`-row block, ties resolved raw < LEB128 <
/// bitmap. A pure function of (indices, block_rows), so sender and
/// receiver always agree. Every LEB128 gap takes at least one byte, so
/// a bitmap below ceil(k/8) words beats both others without a scan.
Section choose_section(std::span<const Index> indices, Index block_rows) {
  const std::uint64_t raw = indices.size();
  const std::uint64_t bm = bitmap_words(block_rows);
  if (bm < (raw + 7) / 8) return {Section::Bitmap, bm};
  const std::uint64_t leb = varint_words(indices);
  if (raw <= leb && raw <= bm) return {Section::Raw, raw};
  if (leb <= bm) return {Section::Leb128, leb};
  return {Section::Bitmap, bm};
}

/// A support list must be sorted, distinct and inside the block.
void check_support(std::span<const Index> indices, Index block_rows) {
  Index prev = -1;
  for (const Index c : indices) {
    check(0 <= c && c < block_rows, "wire: support row ", c,
          " outside [0, ", block_rows, ")");
    check(c > prev, "wire: index list is not sorted and distinct");
    prev = c;
  }
}

void put_index_section(MessageWords& out, std::span<const Index> indices,
                       Section section) {
  switch (section.kind) {
    case Section::Raw:
      for (const Index c : indices) {
        out.push_back(static_cast<std::uint64_t>(c));
      }
      return;
    case Section::Leb128: {
      std::vector<std::uint8_t> bytes;
      bytes.reserve(static_cast<std::size_t>(section.words) * 8);
      std::uint64_t prev = 0;
      for (const Index c : indices) {
        std::uint64_t v = static_cast<std::uint64_t>(c) - prev;
        prev = static_cast<std::uint64_t>(c);
        while (v >= 0x80) {
          bytes.push_back(static_cast<std::uint8_t>(v) | 0x80);
          v >>= 7;
        }
        bytes.push_back(static_cast<std::uint8_t>(v));
      }
      bytes.resize(static_cast<std::size_t>(section.words) * 8, 0);
      for (std::size_t b = 0; b < bytes.size(); b += 8) {
        std::uint64_t w;
        std::memcpy(&w, bytes.data() + b, 8);
        out.push_back(w);
      }
      return;
    }
    case Section::Bitmap: {
      const std::size_t old = out.size();
      out.resize(old + static_cast<std::size_t>(section.words), 0);
      for (const Index c : indices) {
        out[old + static_cast<std::size_t>(c / 64)] |=
            std::uint64_t{1} << (c % 64);
      }
      return;
    }
  }
}

/// Validate that the section at `cursor` encodes exactly `expected`
/// as `section`; advances the cursor past it. Every index,
/// the stream length, and (for the byte codecs) the padding are checked,
/// so a truncated or tampered section is a structured error.
void take_index_section(const MessageWords& words, std::size_t& cursor,
                        std::span<const Index> expected, Index block_rows,
                        Section section) {
  const auto need = static_cast<std::size_t>(section.words);
  check(cursor + need <= words.size(),
        "wire: truncated index section (", words.size() - cursor,
        " words left, section needs ", need, ")");
  switch (section.kind) {
    case Section::Raw:
      for (std::size_t k = 0; k < expected.size(); ++k) {
        check(static_cast<Index>(words[cursor + k]) == expected[k],
              "wire: row mismatch against the support table");
      }
      break;
    case Section::Leb128: {
      const std::uint8_t* bytes =
          reinterpret_cast<const std::uint8_t*>(words.data() + cursor);
      const std::size_t nbytes = need * 8;
      std::size_t b = 0;
      std::uint64_t prev = 0;
      for (std::size_t k = 0; k < expected.size(); ++k) {
        std::uint64_t v = 0;
        int shift = 0;
        while (true) {
          check(b < nbytes, "wire: truncated varint index stream");
          const std::uint8_t byte = bytes[b++];
          v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
          if ((byte & 0x80) == 0) break;
          shift += 7;
          check(shift < 64, "wire: varint index overflows 64 bits");
        }
        const std::uint64_t value = k == 0 ? v : prev + v;
        check(static_cast<Index>(value) == expected[k],
              "wire: row mismatch against the support table");
        prev = value;
      }
      for (; b < nbytes; ++b) {
        check(bytes[b] == 0, "wire: nonzero varint padding");
      }
      break;
    }
    case Section::Bitmap: {
      // Bits at and above block_rows must be clear.
      if (block_rows % 64 != 0) {
        const std::uint64_t tail =
            words[cursor + need - 1] >> (block_rows % 64);
        check(tail == 0, "wire: bitmap sets rows outside the block");
      }
      // As many bits as expected rows, and each expected row's bit set,
      // is the same set.
      std::size_t set = 0;
      for (std::size_t w = 0; w < need; ++w) {
        set += static_cast<std::size_t>(std::popcount(words[cursor + w]));
      }
      check(set <= expected.size(),
            "wire: row mismatch against the support table");
      check(set == expected.size(),
            "wire: bitmap omits expected support rows");
      for (const Index c : expected) {
        check(((words[cursor + static_cast<std::size_t>(c / 64)] >>
                (c % 64)) & 1) != 0,
              "wire: row mismatch against the support table");
      }
      break;
    }
  }
  cursor += need;
}

std::uint64_t row_values_words(std::int64_t rows, Index width,
                               WirePrecision precision) {
  return static_cast<std::uint64_t>(rows) *
         static_cast<std::uint64_t>(wire_value_words(width, precision));
}

} // namespace

std::uint64_t encoded_index_words(std::span<const Index> indices,
                                  Index block_rows) {
  return choose_section(indices, block_rows).words;
}

std::uint64_t encoded_values_words(std::int64_t count,
                                   const WireCodec& codec) {
  return static_cast<std::uint64_t>(
      wire_value_words(count, codec.precision));
}

MessageWords encode_values(std::span<const Scalar> values,
                           const WireCodec& codec) {
  MessageWords out;
  out.reserve(static_cast<std::size_t>(encoded_values_words(
      static_cast<std::int64_t>(values.size()), codec)));
  put_row(out, values.data(), static_cast<Index>(values.size()),
          codec.precision);
  return out;
}

std::vector<Scalar> decode_values(const MessageWords& words,
                                  std::int64_t count,
                                  const WireCodec& codec) {
  check(words.size() == encoded_values_words(count, codec),
        "decode_values: ", words.size(), " words do not hold ", count,
        " values at ", to_string(codec.precision));
  std::vector<Scalar> values(static_cast<std::size_t>(count));
  std::size_t cursor = 0;
  take_row(words, cursor, values.data(), static_cast<Index>(count),
           codec.precision);
  return values;
}

std::uint64_t encoded_dense_words(Index rows, Index width,
                                  const WireCodec& codec) {
  return row_values_words(rows, width, codec.precision);
}

MessageWords encode_dense(const DenseMatrix& block, const WireCodec& codec) {
  MessageWords out;
  out.reserve(static_cast<std::size_t>(
      encoded_dense_words(block.rows(), block.cols(), codec)));
  for (Index i = 0; i < block.rows(); ++i) {
    put_row(out, block.row(i).data(), block.cols(), codec.precision);
  }
  return out;
}

void decode_dense(const MessageWords& wire, DenseMatrix& block,
                  const WireCodec& codec) {
  check(wire.size() ==
            encoded_dense_words(block.rows(), block.cols(), codec),
        "decode_dense: ", wire.size(), " words do not form a ",
        block.rows(), " x ", block.cols(), " block at ",
        to_string(codec.precision));
  std::size_t cursor = 0;
  for (Index i = 0; i < block.rows(); ++i) {
    take_row(wire, cursor, block.row(i).data(), block.cols(),
             codec.precision);
  }
}

std::uint64_t encoded_triplets_words(std::int64_t count,
                                     const WireCodec& codec) {
  return 1 + 2 * static_cast<std::uint64_t>(count) +
         static_cast<std::uint64_t>(
             wire_value_words(count, codec.precision));
}

MessageWords encode_triplets(std::span<const Index> rows,
                             std::span<const Index> cols,
                             std::span<const Scalar> values,
                             const WireCodec& codec) {
  check(rows.size() == cols.size() && cols.size() == values.size(),
        "encode_triplets: mismatched array lengths (", rows.size(), ", ",
        cols.size(), ", ", values.size(), ")");
  const auto n = static_cast<std::int64_t>(rows.size());
  MessageWords words;
  words.reserve(static_cast<std::size_t>(encoded_triplets_words(n, codec)));
  words.push_back(static_cast<std::uint64_t>(n));
  for (const Index r : rows) words.push_back(static_cast<std::uint64_t>(r));
  for (const Index c : cols) words.push_back(static_cast<std::uint64_t>(c));
  put_row(words, values.data(), static_cast<Index>(n), codec.precision);
  return words;
}

WireTriplets decode_triplets(const MessageWords& words,
                             const WireCodec& codec) {
  check(!words.empty(), "decode_triplets: empty message");
  // Bound the count by the message before any arithmetic on it: each
  // triplet needs at least its two index words, and a larger header
  // would wrap the expected length (or overflow the value-word count).
  check(words[0] <= (words.size() - 1) / 2, "decode_triplets: count ",
        words[0], " does not fit a ", words.size(), "-word message");
  const auto n = static_cast<std::size_t>(words[0]);
  check(words.size() ==
            encoded_triplets_words(static_cast<std::int64_t>(n), codec),
        "decode_triplets: message has ", words.size(), " words, expected ",
        encoded_triplets_words(static_cast<std::int64_t>(n), codec),
        " for ", n, " triplets");
  WireTriplets t;
  t.rows.reserve(n);
  t.cols.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    t.rows.push_back(static_cast<Index>(words[1 + k]));
  }
  for (std::size_t k = 0; k < n; ++k) {
    t.cols.push_back(static_cast<Index>(words[1 + n + k]));
  }
  t.values.resize(n);
  std::size_t cursor = 1 + 2 * n;
  take_row(words, cursor, t.values.data(), static_cast<Index>(n),
           codec.precision);
  check(cursor == words.size(), "decode_triplets: oversized message");
  return t;
}

std::uint64_t encoded_cols_words(std::span<const Index> cols,
                                 Index block_rows, Index width,
                                 const WireCodec& codec) {
  if (cols.empty()) return 0;
  return 1 + encoded_index_words(cols, block_rows) +
         row_values_words(static_cast<std::int64_t>(cols.size()), width,
                          codec.precision);
}

namespace {

/// One support message, [count, index section, values...] — the layout
/// of every col-support and row-support message: `put(out, k)` appends
/// the k-th support row's values.
template <typename PutRow>
MessageWords write_support(std::span<const Index> support, Index block_rows,
                           Index width, const WireCodec& codec, PutRow put) {
  check_support(support, block_rows);
  const Section section = choose_section(support, block_rows);
  MessageWords out;
  out.reserve(static_cast<std::size_t>(
      1 + section.words +
      row_values_words(static_cast<std::int64_t>(support.size()), width,
                       codec.precision)));
  out.push_back(static_cast<std::uint64_t>(support.size()));
  put_index_section(out, support, section);
  for (std::size_t k = 0; k < support.size(); ++k) put(out, k);
  return out;
}

/// Inverse: validates the count header, every index, and the exact
/// length against the expected `support`; `take(words, cursor, k)`
/// consumes the k-th support row's values.
template <typename TakeRow>
void read_support(const MessageWords& words, std::span<const Index> support,
                  Index block_rows, const char* what, TakeRow take) {
  check(!words.empty(), what, ": empty message");
  std::size_t cursor = 0;
  const auto count = words[cursor++];
  check(count == support.size(), what, ": message carries ", count,
        " rows, support expects ", support.size());
  check_support(support, block_rows);
  take_index_section(words, cursor, support, block_rows,
                     choose_section(support, block_rows));
  for (std::size_t k = 0; k < support.size(); ++k) take(words, cursor, k);
  check(cursor == words.size(), what, ": oversized message");
}

std::size_t row_offset(Index row, Index width) {
  return static_cast<std::size_t>(row) * static_cast<std::size_t>(width);
}

} // namespace

MessageWords encode_cols_block(const MessageWords& image, Index block_rows,
                               Index width, std::span<const Index> cols,
                               const WireCodec& codec) {
  check(image.size() == row_offset(block_rows, width),
        "encode_cols_block: payload has ", image.size(),
        " words, expected ", block_rows, " x ", width);
  return write_support(
      cols, block_rows, width, codec, [&](MessageWords& out, std::size_t k) {
        put_row_bits(out, image.data() + row_offset(cols[k], width), width,
                     codec.precision);
      });
}

MessageWords decode_cols_block(const MessageWords& words, Index block_rows,
                               Index width, std::span<const Index> cols,
                               const WireCodec& codec) {
  // A zero word is the bit pattern of Scalar{0}, so unsupported rows are
  // exactly the zeros a dense accumulator (or a never-read input row)
  // would hold.
  MessageWords dense(row_offset(block_rows, width), 0);
  std::vector<Scalar> row(static_cast<std::size_t>(width));
  read_support(words, cols, block_rows, "decode_cols_block",
               [&](const MessageWords& w, std::size_t& cursor,
                   std::size_t k) {
                 take_row(w, cursor, row.data(), width, codec.precision);
                 const std::size_t base = row_offset(cols[k], width);
                 for (std::size_t j = 0; j < row.size(); ++j) {
                   dense[base + j] = scalar_bits(row[j]);
                 }
               });
  return dense;
}

MessageWords encode_cols_block(const DenseMatrix& block,
                               std::span<const Index> cols,
                               const WireCodec& codec) {
  return write_support(
      cols, block.rows(), block.cols(), codec,
      [&](MessageWords& out, std::size_t k) {
        put_row(out, block.row(cols[k]).data(), block.cols(),
                codec.precision);
      });
}

void decode_cols_block(const MessageWords& words,
                       std::span<const Index> cols, DenseMatrix& block,
                       const WireCodec& codec) {
  read_support(words, cols, block.rows(), "decode_cols_block",
               [&](const MessageWords& w, std::size_t& cursor,
                   std::size_t k) {
                 take_row(w, cursor, block.row(cols[k]).data(),
                          block.cols(), codec.precision);
               });
}

std::uint64_t encoded_rows_words(std::span<const Index> rows,
                                 Index block_rows, Index width,
                                 const WireCodec& codec) {
  // A rows message is laid out exactly like a col-support message.
  return encoded_cols_words(rows, block_rows, width, codec);
}

MessageWords encode_rows(std::span<const Index> rows, Index block_rows,
                         Index width, std::span<const Scalar> values,
                         const WireCodec& codec) {
  check(values.size() == rows.size() * static_cast<std::size_t>(width),
        "encode_rows: ", values.size(), " values do not fill ",
        rows.size(), " rows of width ", width);
  return write_support(
      rows, block_rows, width, codec, [&](MessageWords& out, std::size_t k) {
        put_row(out, values.data() + row_offset(static_cast<Index>(k), width),
                width, codec.precision);
      });
}

std::vector<Scalar> decode_rows(const MessageWords& words,
                                std::span<const Index> rows,
                                Index block_rows, Index width,
                                const WireCodec& codec) {
  std::vector<Scalar> values(rows.size() * static_cast<std::size_t>(width));
  read_support(words, rows, block_rows, "decode_rows",
               [&](const MessageWords& w, std::size_t& cursor,
                   std::size_t k) {
                 take_row(w, cursor,
                          values.data() +
                              row_offset(static_cast<Index>(k), width),
                          width, codec.precision);
               });
  return values;
}

} // namespace dsk
