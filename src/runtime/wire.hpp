#pragma once
/// \file wire.hpp
/// The wire-codec layer: every message class the runtime and the drivers
/// put on the simulated wire — dense blocks, COO triplets, flat value
/// vectors, row-support messages `[count, rows..., values...]`, and
/// col-support blocks `[count, cols..., values...]` — is encoded and
/// decoded here, and only here. The legacy `pack_*`/`unpack_*` helpers
/// in dist/shards and runtime/collectives are thin delegates into this
/// file, so word counts and byte layouts cannot drift between the
/// packers, the accounting (`encoded_*_words`), and the Auto crossovers.
///
/// A default-constructed `WireCodec` (Full precision, Raw indices)
/// reproduces the historical byte layout exactly — one 64-bit word per
/// value and per index — which keeps the paper's Table III accounting
/// and every bit-identity test untouched. Non-default codecs change the
/// wire image only:
///
///  - `WirePrecision::F32` / `BF16` truncate each value to 32/16 bits
///    and pack 2/4 per word. Values are packed **per logical row** (the
///    last word of each row is padded), so rows stay independent.
///    Decoding widens back to `Scalar`; all downstream accumulation is
///    in full precision. Quantization is idempotent — re-encoding an
///    already-quantized value is exact — so forwarding an unmodified
///    block along a multi-hop ring does not compound the error.
///  - `IndexCodec::DeltaVarint` / `Bitmap` re-encode the sorted support
///    index section; `Auto` picks the smallest per message (ties
///    resolved Raw < DeltaVarint < Bitmap), so Auto never exceeds Raw.
///    Both endpoints resolve the choice from the shared support tables —
///    no descriptor word travels.
///
/// Decoders validate everything against the expected support: count
/// headers, every index, exact payload length (truncated or
/// trailing-garbage messages are structured errors, never silent).

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "runtime/mailbox.hpp"

namespace dsk {

/// Decoded COO triplet arrays (the dist-layer `Triplets` mirrors this;
/// the runtime layer cannot depend on dist, so the codec speaks spans).
struct WireTriplets {
  std::vector<Index> rows;
  std::vector<Index> cols;
  std::vector<Scalar> values;
};

// --- index sections (sorted, distinct, block-local support lists) ------

/// Resolve `Auto` to a concrete index codec for one message: the
/// smallest encoding of `indices` against a `block_rows`-row block,
/// ties resolved Raw < DeltaVarint < Bitmap. Non-Auto requests pass
/// through. Pure function of (indices, block_rows), so sender and
/// receiver always agree.
IndexCodec choose_index_codec(std::span<const Index> indices,
                              Index block_rows, IndexCodec requested);

/// Words of the index section alone under a concrete (or Auto) codec.
std::uint64_t encoded_index_words(std::span<const Index> indices,
                                  Index block_rows, IndexCodec codec);

// --- flat value vectors (no header; count known out of band) -----------

std::uint64_t encoded_values_words(std::int64_t count,
                                   const WireCodec& codec);
MessageWords encode_values(std::span<const Scalar> values,
                           const WireCodec& codec);
std::vector<Scalar> decode_values(const MessageWords& words,
                                  std::int64_t count,
                                  const WireCodec& codec);

// --- dense blocks (row-major raw word image, values only, no header) ---

std::uint64_t encoded_dense_words(Index rows, Index width,
                                  const WireCodec& codec);
/// `image` is the historical raw layout (rows*width Scalar words); the
/// default codec returns it unchanged (moved, no copy).
MessageWords encode_dense(MessageWords image, Index rows, Index width,
                          const WireCodec& codec);
/// Inverse: wire image back to the raw rows*width-word layout.
MessageWords decode_dense(MessageWords wire, Index rows, Index width,
                          const WireCodec& codec);

// --- COO triplets [count, rows..., cols..., values...] -----------------

/// Triplet index arrays ride Raw in every codec — COO columns are
/// unsorted, so the gap/bitmap codecs do not apply; only the value
/// payload honors `codec.precision`.
std::uint64_t encoded_triplets_words(std::int64_t count,
                                     const WireCodec& codec);
MessageWords encode_triplets(std::span<const Index> rows,
                             std::span<const Index> cols,
                             std::span<const Scalar> values,
                             const WireCodec& codec);
WireTriplets decode_triplets(const MessageWords& words,
                             const WireCodec& codec);

// --- col-support blocks [count, cols-section, values...] ---------------

/// Words of one col-support message carrying `cols` (sorted block-local
/// rows of a block_rows x width dense payload) — or 0 when the support
/// is empty (the hop is skipped entirely, as ever).
std::uint64_t encoded_cols_words(std::span<const Index> cols,
                                 Index block_rows, Index width,
                                 const WireCodec& codec);
/// Pack rows `cols` of a dense raw image into a col-support message.
/// `cols` must be non-empty (empty supports send nothing).
MessageWords encode_cols_block(const MessageWords& image, Index block_rows,
                               Index width, std::span<const Index> cols,
                               const WireCodec& codec);
/// Inverse: expand back into the full raw dense image, zeros outside
/// the support. `cols` is the expected support; the count, every index,
/// and the exact payload length are validated against it.
MessageWords decode_cols_block(const MessageWords& words, Index block_rows,
                               Index width, std::span<const Index> cols,
                               const WireCodec& codec);

// --- row-support messages [count, rows-section, values...] -------------
// One (sender, receiver) pair's whole support `rows` in one message; the
// layout (and so the word count) is that of a col-support message.

std::uint64_t encoded_rows_words(std::span<const Index> rows,
                                 Index block_rows, Index width,
                                 const WireCodec& codec);
/// `values` holds rows.size()*width scalars, row-major in support order.
MessageWords encode_rows(std::span<const Index> rows, Index block_rows,
                         Index width, std::span<const Scalar> values,
                         const WireCodec& codec);
/// Inverse: validates the count header, every index, and the exact
/// length against the expected support, then returns the rows.size()*width
/// scalars in support order.
std::vector<Scalar> decode_rows(const MessageWords& words,
                                std::span<const Index> rows,
                                Index block_rows, Index width,
                                const WireCodec& codec);

} // namespace dsk
