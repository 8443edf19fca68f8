#include "runtime/wire.hpp"

#include <algorithm>
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

/// Byte length of the LEB128 gap stream: the first index absolute, then
/// the strictly positive gaps between consecutive indices.
std::uint64_t varint_bytes(std::span<const Index> indices) {
  std::uint64_t bytes = 0;
  for (std::size_t k = 0; k < indices.size(); ++k) {
    const Index prev = k == 0 ? 0 : indices[k - 1];
    const Index gap = k == 0 ? indices[0] : indices[k] - prev;
    check(gap >= 0 && (k == 0 || gap > 0),
          "wire: index list is not sorted and distinct");
    bytes += leb128_len(static_cast<std::uint64_t>(gap));
  }
  return bytes;
}

std::uint64_t varint_words(std::span<const Index> indices) {
  return (varint_bytes(indices) + 7) / 8;
}

/// Section words under a CONCRETE codec (Auto already resolved).
std::uint64_t index_section_words(std::span<const Index> indices,
                                 Index block_rows, IndexCodec codec) {
  switch (codec) {
    case IndexCodec::Raw: return indices.size();
    case IndexCodec::DeltaVarint: return varint_words(indices);
    case IndexCodec::Bitmap: return bitmap_words(block_rows);
    case IndexCodec::Auto: break;
  }
  check(false, "wire: index_section_words on unresolved Auto");
  return 0;
}

void check_index_range(std::span<const Index> indices, Index block_rows) {
  for (const Index c : indices) {
    check(0 <= c && c < block_rows, "wire: support row ", c,
          " outside [0, ", block_rows, ")");
  }
}

void put_index_section(MessageWords& out, std::span<const Index> indices,
                       Index block_rows, IndexCodec codec) {
  check_index_range(indices, block_rows);
  switch (codec) {
    case IndexCodec::Raw:
      for (const Index c : indices) {
        out.push_back(static_cast<std::uint64_t>(c));
      }
      return;
    case IndexCodec::DeltaVarint: {
      std::vector<std::uint8_t> bytes;
      bytes.reserve(static_cast<std::size_t>(varint_bytes(indices)));
      for (std::size_t k = 0; k < indices.size(); ++k) {
        std::uint64_t v = static_cast<std::uint64_t>(
            k == 0 ? indices[0] : indices[k] - indices[k - 1]);
        while (v >= 0x80) {
          bytes.push_back(static_cast<std::uint8_t>(v) | 0x80);
          v >>= 7;
        }
        bytes.push_back(static_cast<std::uint8_t>(v));
      }
      bytes.resize((bytes.size() + 7) / 8 * 8, 0);
      for (std::size_t b = 0; b < bytes.size(); b += 8) {
        std::uint64_t w;
        std::memcpy(&w, bytes.data() + b, 8);
        out.push_back(w);
      }
      return;
    }
    case IndexCodec::Bitmap: {
      const std::size_t old = out.size();
      out.resize(old + static_cast<std::size_t>(bitmap_words(block_rows)),
                 0);
      for (const Index c : indices) {
        out[old + static_cast<std::size_t>(c / 64)] |=
            std::uint64_t{1} << (c % 64);
      }
      return;
    }
    case IndexCodec::Auto: break;
  }
  check(false, "wire: put_index_section on unresolved Auto");
}

/// Validate that the section at `cursor` encodes exactly `expected`
/// under the concrete `codec`; advances the cursor past it. Every index,
/// the stream length, and (for the byte codecs) the padding are checked,
/// so a truncated or tampered section is a structured error.
void take_index_section(const MessageWords& words, std::size_t& cursor,
                        std::span<const Index> expected, Index block_rows,
                        IndexCodec codec) {
  const auto need = static_cast<std::size_t>(
      index_section_words(expected, block_rows, codec));
  check(cursor + need <= words.size(),
        "wire: truncated index section (", words.size() - cursor,
        " words left, section needs ", need, ")");
  switch (codec) {
    case IndexCodec::Raw:
      for (std::size_t k = 0; k < expected.size(); ++k) {
        check(static_cast<Index>(words[cursor + k]) == expected[k],
              "wire: row mismatch against the support table");
      }
      break;
    case IndexCodec::DeltaVarint: {
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
    case IndexCodec::Bitmap: {
      std::size_t k = 0;
      for (Index c = 0; c < block_rows; ++c) {
        const bool set =
            (words[cursor + static_cast<std::size_t>(c / 64)] >>
             (c % 64)) & 1;
        if (set) {
          check(k < expected.size() && expected[k] == c,
                "wire: row mismatch against the support table");
          ++k;
        }
      }
      check(k == expected.size(),
            "wire: bitmap omits expected support rows");
      // Bits at and above block_rows must be clear.
      if (block_rows % 64 != 0) {
        const std::uint64_t tail =
            words[cursor + need - 1] >> (block_rows % 64);
        check(tail == 0, "wire: bitmap sets rows outside the block");
      }
      break;
    }
    case IndexCodec::Auto:
      check(false, "wire: take_index_section on unresolved Auto");
  }
  cursor += need;
}

std::uint64_t row_values_words(std::int64_t rows, Index width,
                               WirePrecision precision) {
  return static_cast<std::uint64_t>(rows) *
         static_cast<std::uint64_t>(wire_value_words(width, precision));
}

} // namespace

IndexCodec choose_index_codec(std::span<const Index> indices,
                              Index block_rows, IndexCodec requested) {
  if (requested != IndexCodec::Auto) return requested;
  const std::uint64_t raw = indices.size();
  const std::uint64_t dv = varint_words(indices);
  const std::uint64_t bm = bitmap_words(block_rows);
  if (raw <= dv && raw <= bm) return IndexCodec::Raw;
  if (dv <= bm) return IndexCodec::DeltaVarint;
  return IndexCodec::Bitmap;
}

std::uint64_t encoded_index_words(std::span<const Index> indices,
                                  Index block_rows, IndexCodec codec) {
  return index_section_words(
      indices, block_rows, choose_index_codec(indices, block_rows, codec));
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

MessageWords encode_dense(MessageWords image, Index rows, Index width,
                          const WireCodec& codec) {
  check(image.size() == static_cast<std::size_t>(rows) *
                            static_cast<std::size_t>(width),
        "encode_dense: payload has ", image.size(), " words, expected ",
        rows, " x ", width);
  if (codec.precision == WirePrecision::Full) return image;
  MessageWords out;
  out.reserve(static_cast<std::size_t>(
      encoded_dense_words(rows, width, codec)));
  for (Index i = 0; i < rows; ++i) {
    put_row_bits(out,
                 image.data() + static_cast<std::size_t>(i) *
                                    static_cast<std::size_t>(width),
                 width, codec.precision);
  }
  return out;
}

MessageWords decode_dense(MessageWords wire, Index rows, Index width,
                          const WireCodec& codec) {
  check(wire.size() == encoded_dense_words(rows, width, codec),
        "decode_dense: ", wire.size(), " words do not form a ", rows,
        " x ", width, " block at ", to_string(codec.precision));
  if (codec.precision == WirePrecision::Full) return wire;
  MessageWords image(static_cast<std::size_t>(rows) *
                     static_cast<std::size_t>(width));
  std::size_t cursor = 0;
  std::vector<Scalar> row(static_cast<std::size_t>(width));
  for (Index i = 0; i < rows; ++i) {
    take_row(wire, cursor, row.data(), width, codec.precision);
    for (Index j = 0; j < width; ++j) {
      image[static_cast<std::size_t>(i) * static_cast<std::size_t>(width) +
            static_cast<std::size_t>(j)] =
          scalar_bits(row[static_cast<std::size_t>(j)]);
    }
  }
  check(cursor == wire.size(), "decode_dense: oversized message");
  return image;
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
  return 1 + encoded_index_words(cols, block_rows, codec.index_codec) +
         row_values_words(static_cast<std::int64_t>(cols.size()), width,
                          codec.precision);
}

MessageWords encode_cols_block(const MessageWords& image, Index block_rows,
                               Index width, std::span<const Index> cols,
                               const WireCodec& codec) {
  check(image.size() == static_cast<std::size_t>(block_rows) *
                            static_cast<std::size_t>(width),
        "encode_cols_block: payload has ", image.size(),
        " words, expected ", block_rows, " x ", width);
  const IndexCodec section =
      choose_index_codec(cols, block_rows, codec.index_codec);
  MessageWords out;
  out.reserve(static_cast<std::size_t>(
      std::max<std::uint64_t>(
          encoded_cols_words(cols, block_rows, width, codec), 1)));
  out.push_back(static_cast<std::uint64_t>(cols.size()));
  put_index_section(out, cols, block_rows, section);
  for (const Index c : cols) {
    put_row_bits(out,
                 image.data() + static_cast<std::size_t>(c) *
                                    static_cast<std::size_t>(width),
                 width, codec.precision);
  }
  return out;
}

MessageWords decode_cols_block(const MessageWords& words, Index block_rows,
                               Index width, std::span<const Index> cols,
                               const WireCodec& codec) {
  MessageWords dense(static_cast<std::size_t>(block_rows) *
                         static_cast<std::size_t>(width),
                     0);
  // A zero word is the bit pattern of Scalar{0}, so unsupported rows are
  // exactly the zeros a dense accumulator (or a never-read input row)
  // would hold.
  check(!words.empty(), "decode_cols_block: empty message");
  std::size_t cursor = 0;
  const auto count = words[cursor++];
  check(count == cols.size(), "decode_cols_block: message carries ", count,
        " rows, support expects ", cols.size());
  take_index_section(words, cursor, cols, block_rows,
                     choose_index_codec(cols, block_rows,
                                        codec.index_codec));
  std::vector<Scalar> row(static_cast<std::size_t>(width));
  for (const Index c : cols) {
    take_row(words, cursor, row.data(), width, codec.precision);
    for (Index j = 0; j < width; ++j) {
      dense[static_cast<std::size_t>(c) * static_cast<std::size_t>(width) +
            static_cast<std::size_t>(j)] =
          scalar_bits(row[static_cast<std::size_t>(j)]);
    }
  }
  check(cursor == words.size(), "decode_cols_block: oversized message");
  return dense;
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
  const IndexCodec section =
      choose_index_codec(rows, block_rows, codec.index_codec);
  MessageWords out;
  out.reserve(static_cast<std::size_t>(std::max<std::uint64_t>(
      encoded_rows_words(rows, block_rows, width, codec), 1)));
  out.push_back(static_cast<std::uint64_t>(rows.size()));
  put_index_section(out, rows, block_rows, section);
  for (std::size_t k = 0; k < rows.size(); ++k) {
    put_row(out, values.data() + k * static_cast<std::size_t>(width),
            width, codec.precision);
  }
  return out;
}

std::vector<Scalar> decode_rows(const MessageWords& words,
                                std::span<const Index> rows,
                                Index block_rows, Index width,
                                const WireCodec& codec) {
  check(!words.empty(), "decode_rows: empty message");
  std::size_t cursor = 0;
  const auto count = words[cursor++];
  check(count == rows.size(), "decode_rows: peer sent ", count,
        " rows, support expects ", rows.size());
  take_index_section(words, cursor, rows, block_rows,
                     choose_index_codec(rows, block_rows,
                                        codec.index_codec));
  std::vector<Scalar> values(rows.size() * static_cast<std::size_t>(width));
  for (std::size_t k = 0; k < rows.size(); ++k) {
    take_row(words, cursor,
             values.data() + k * static_cast<std::size_t>(width), width,
             codec.precision);
  }
  check(cursor == words.size(), "decode_rows: oversized message");
  return values;
}

} // namespace dsk
