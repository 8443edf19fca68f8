#include "runtime/collectives.hpp"

#include <algorithm>
#include <cstring>

#include "common/error.hpp"

namespace dsk {

namespace {

MessageWords to_words(std::span<const Scalar> data) {
  MessageWords words(data.size());
  std::memcpy(words.data(), data.data(), data.size() * sizeof(Scalar));
  return words;
}

void add_scalars(std::span<Scalar> acc, const MessageWords& words) {
  check(acc.size() == words.size(),
        "collectives: reduction chunk size mismatch (", acc.size(), " vs ",
        words.size(), ")");
  for (std::size_t i = 0; i < acc.size(); ++i) {
    Scalar v;
    std::memcpy(&v, &words[i], sizeof(Scalar));
    acc[i] += v;
  }
}

} // namespace

// Thin delegates into the wire-codec layer (wire.hpp) — the byte
// layout, validation, and accounting live there, in one place.

MessageWords pack_cols_block(const MessageWords& dense, Index block_rows,
                             Index width, std::span<const Index> cols,
                             const WireCodec& codec) {
  return encode_cols_block(dense, block_rows, width, cols, codec);
}

MessageWords unpack_cols_block(const MessageWords& words, Index block_rows,
                               Index width, std::span<const Index> cols,
                               const WireCodec& codec) {
  return decode_cols_block(words, block_rows, width, cols, codec);
}

bool propagation_hop_is_sparse(PropagationMode mode,
                               std::span<const Index> cols,
                               Index block_rows, Index width,
                               const WireCodec& codec) {
  switch (mode) {
    case PropagationMode::Dense: return false;
    case PropagationMode::SparseCols: return true;
    case PropagationMode::Auto:
      return encoded_cols_words(cols, block_rows, width, codec) <
             encoded_dense_words(block_rows, width, codec);
  }
  return false;
}

Group::Group(Comm& comm, std::vector<int> members)
    : comm_(comm), members_(std::move(members)) {
  check(!members_.empty(), "Group: empty member list");
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (members_[i] == comm_.rank()) {
      check(pos_ == -1, "Group: rank ", comm_.rank(), " listed twice");
      pos_ = static_cast<int>(i);
    }
  }
  check(pos_ >= 0, "Group: rank ", comm_.rank(),
        " is not in the member list");
}

std::vector<Scalar> Group::allgather(std::span<const Scalar> local) {
  std::vector<std::size_t> offsets;
  const MessageWords local_words = to_words(local);
  const auto words = allgather_words(local_words, &offsets);
  for (std::size_t b = 1; b < offsets.size(); ++b) {
    check(offsets[b] - offsets[b - 1] == local.size(),
          "Group::allgather: unequal block sizes; use allgather_words");
  }
  std::vector<Scalar> out(words.size());
  std::memcpy(out.data(), words.data(), words.size() * sizeof(Scalar));
  return out;
}

std::vector<std::uint64_t> Group::allgather_words(
    std::span<const std::uint64_t> local,
    std::vector<std::size_t>* block_offsets) {
  const int g = size();
  std::vector<MessageWords> blocks(static_cast<std::size_t>(g));
  blocks[static_cast<std::size_t>(pos_)] =
      MessageWords(local.begin(), local.end());

  // Ring: at step s, forward the block that originated at (pos - s) and
  // receive the block that originated at (pos - s - 1).
  for (int s = 0; s < g - 1; ++s) {
    const int send_origin = (pos_ - s + g) % g;
    const int recv_origin = (pos_ - s - 1 + g) % g;
    comm_.send_words(right(), kTagAllgather,
                     blocks[static_cast<std::size_t>(send_origin)]);
    blocks[static_cast<std::size_t>(recv_origin)] =
        comm_.recv_words(left(), kTagAllgather);
  }

  std::vector<std::uint64_t> out;
  std::size_t total = 0;
  for (const auto& b : blocks) total += b.size();
  out.reserve(total);
  if (block_offsets != nullptr) {
    block_offsets->assign(1, 0);
  }
  for (const auto& b : blocks) {
    out.insert(out.end(), b.begin(), b.end());
    if (block_offsets != nullptr) {
      block_offsets->push_back(out.size());
    }
  }
  return out;
}

std::vector<Scalar> Group::reduce_scatter(std::span<const Scalar> local) {
  const int g = size();
  check(local.size() % static_cast<std::size_t>(g) == 0,
        "Group::reduce_scatter: input length ", local.size(),
        " is not divisible by group size ", g);
  const std::size_t chunk = local.size() / static_cast<std::size_t>(g);

  std::vector<Scalar> work(local.begin(), local.end());
  auto chunk_span = [&](int idx) {
    return std::span<Scalar>(work.data() +
                                 static_cast<std::size_t>(idx) * chunk,
                             chunk);
  };

  // Ring reduce-scatter, offset so that this rank finishes owning chunk
  // `pos`: at step s it sends partial chunk (pos-1-s) and accumulates into
  // chunk (pos-2-s); the last chunk accumulated is its own.
  for (int s = 0; s < g - 1; ++s) {
    const int send_idx = (pos_ - 1 - s + 2 * g) % g;
    const int recv_idx = (pos_ - 2 - s + 2 * g) % g;
    comm_.send_words(right(), kTagReduceScatter,
                     to_words(chunk_span(send_idx)));
    const MessageWords incoming = comm_.recv_words(left(), kTagReduceScatter);
    add_scalars(chunk_span(recv_idx), incoming);
  }

  const auto mine = chunk_span(pos_);
  return std::vector<Scalar>(mine.begin(), mine.end());
}

namespace {

/// The slice of a sorted support list falling in [row0, row0 + rows).
std::span<const Index> support_in_range(const std::vector<Index>& support,
                                        Index row0, Index rows) {
  const auto lo = std::lower_bound(support.begin(), support.end(), row0);
  const auto hi = std::lower_bound(lo, support.end(), row0 + rows);
  return {support.data() + (lo - support.begin()),
          static_cast<std::size_t>(hi - lo)};
}

/// The codec layer speaks block-local indices (its index sections are
/// sized and validated over [0, block_rows)); supports from the shared
/// table are global working-block rows, so every encode / decode /
/// pricing site rebases its slice by the block origin first. Sender and
/// receiver derive the same base from the shared plan, so the rebased
/// lists always agree.
/// Rows `base + rows[k]` of `m`, concatenated in list order — the value
/// payload of one row-support message.
std::vector<Scalar> gather_rows(const DenseMatrix& m,
                                std::span<const Index> rows, Index base) {
  std::vector<Scalar> values;
  values.reserve(rows.size() * static_cast<std::size_t>(m.cols()));
  for (const Index row : rows) {
    const auto src = m.row(base + row);
    values.insert(values.end(), src.begin(), src.end());
  }
  return values;
}

std::vector<Index> rebase_rows(std::span<const Index> rows, Index base) {
  std::vector<Index> local(rows.begin(), rows.end());
  for (Index& r : local) r -= base;
  return local;
}

/// Table shape is checked in every mode; the per-list invariants only
/// when the table will actually drive a plan (explicit Dense never
/// reads it, and the drivers leave the lists empty in that mode).
void validate_support_table(std::span<const std::vector<Index>> wants,
                            int g, Index total_rows, ReplicationMode mode) {
  check(static_cast<int>(wants.size()) == g,
        "sparse collective: support table has ", wants.size(),
        " entries for a group of ", g);
  if (mode == ReplicationMode::Dense) return;
  for (const auto& w : wants) {
    check(std::adjacent_find(w.begin(), w.end(),
                             [](Index a, Index b) { return a >= b; }) ==
              w.end(),
          "sparse collective: support list is not sorted and distinct");
    check(w.empty() || (w.front() >= 0 && w.back() < total_rows),
          "sparse collective: support row out of range [0, ", total_rows,
          ")");
  }
}

} // namespace

namespace {

/// One walk over the (receiver t, sender q) plan matrix: group-total
/// words and the worst member's sent/received words. Both the public
/// total and Auto's per-rank crossover derive from this single pass, so
/// a wire-format change cannot drift them apart.
struct PlanTraffic {
  std::uint64_t total = 0;
  std::uint64_t worst_rank = 0;
};

PlanTraffic plan_traffic(std::span<const std::vector<Index>> wants,
                         Index block_rows, Index width,
                         const WireCodec& codec) {
  const auto g = wants.size();
  std::vector<std::uint64_t> sent(g, 0), received(g, 0);
  PlanTraffic plan;
  for (std::size_t t = 0; t < g; ++t) {
    for (std::size_t q = 0; q < g; ++q) {
      if (q == t) continue;
      const auto rows = support_in_range(
          wants[t], static_cast<Index>(q) * block_rows, block_rows);
      if (rows.empty()) continue;
      // The wire layout of one row message — count header, index
      // section, per-row values — priced by the codec layer (default:
      // 1 + k*(1 + width), the historical charge).
      const std::uint64_t message = encoded_rows_words(
          rebase_rows(rows, static_cast<Index>(q) * block_rows), block_rows,
          width, codec);
      plan.total += message;
      sent[q] += message;
      received[t] += message;
    }
  }
  for (std::size_t q = 0; q < g; ++q) {
    plan.worst_rank = std::max({plan.worst_rank, sent[q], received[q]});
  }
  return plan;
}

} // namespace

std::uint64_t Group::sparse_plan_words(
    std::span<const std::vector<Index>> wants, Index block_rows,
    Index width, const WireCodec& codec) {
  return plan_traffic(wants, block_rows, width, codec).total;
}

namespace {

/// Resolve Auto into the plan the whole group agrees on: the inputs are
/// identical on every member, so so is the choice. Shared by both
/// collectives so the two directions of a fiber exchange can never
/// disagree on the crossover rule. The comparison is per-rank, not
/// group-total: the sparse plan is taken only when its WORST member
/// (max of sent and received words — the reduce-scatter direction is
/// the transpose, covered by taking both axes) moves fewer words than
/// the uniform dense ring cost, so the max-over-ranks replication words
/// under Auto can never exceed Dense — even for skewed supports
/// concentrated in one member's row slice.
ReplicationMode resolve_mode(ReplicationMode mode,
                             std::span<const std::vector<Index>> wants,
                             Index block_rows, Index width, int g,
                             const WireCodec& codec) {
  if (mode != ReplicationMode::Auto) return mode;
  // Both sides of the crossover are ENCODED sizes, so a codec that
  // shrinks the index headers moves the crossover toward higher support
  // densities while Auto stays no worse than Dense per rank.
  const std::uint64_t dense_rank_words =
      static_cast<std::uint64_t>(g - 1) *
      encoded_dense_words(block_rows, width, codec);
  return plan_traffic(wants, block_rows, width, codec).worst_rank <
                 dense_rank_words
             ? ReplicationMode::SparseRows
             : ReplicationMode::Dense;
}

} // namespace

DenseMatrix Group::allgatherv_rows(const DenseMatrix& src, Index row0,
                                   Index block_rows,
                                   std::span<const std::vector<Index>> wants,
                                   ReplicationMode mode,
                                   const WireCodec& codec) {
  const int g = size();
  const Index width = src.cols();
  check(0 <= row0 && 0 <= block_rows && row0 + block_rows <= src.rows(),
        "allgatherv_rows: rows [", row0, ", ", row0 + block_rows,
        ") outside a ", src.rows(), "-row input");
  validate_support_table(wants, g, static_cast<Index>(g) * block_rows,
                         mode);
  mode = resolve_mode(mode, wants, block_rows, width, g, codec);
  const auto block_words = static_cast<std::size_t>(block_rows) *
                           static_cast<std::size_t>(width);
  const auto own = src.data().subspan(
      static_cast<std::size_t>(row0) * static_cast<std::size_t>(width),
      block_words);
  const auto place = [&](DenseMatrix& out, int origin,
                         std::span<const Scalar> rows) {
    std::copy(rows.begin(), rows.end(),
              out.data().begin() +
                  static_cast<std::ptrdiff_t>(
                      static_cast<std::size_t>(origin) * block_words));
  };
  if (mode == ReplicationMode::Dense) {
    // Every row of the result gets written (this member's rows, then
    // each peer's block as it lands), so it starts unwritten. The ring
    // of allgather_words: at step s, forward the block that originated
    // at (pos - s) — a copy of this member's rows at s = 0, after that
    // the block that landed at step s - 1 — and land the block from
    // (pos - s - 1) with one copy. Quantization is idempotent, so at a
    // lossy precision a forwarded block re-encodes bit-identically at
    // every hop. Empty blocks send nothing.
    DenseMatrix out =
        DenseMatrix::uninitialized(static_cast<Index>(g) * block_rows, width);
    place(out, pos_, own);
    if (g > 1 && block_rows > 0) {
      DenseMatrix travelling = DenseMatrix::uninitialized(block_rows, width);
      std::copy(own.begin(), own.end(), travelling.data().begin());
      for (int s = 0; s < g - 1; ++s) {
        comm_.send_block(right(), kTagAllgather, std::move(travelling),
                         codec);
        travelling = comm_.recv_block(left(), kTagAllgather, block_rows,
                                      width, codec);
        place(out, (pos_ - s - 1 + g) % g, travelling.data());
      }
    }
    return out;
  }
  // Unsupported remote rows stay zero.
  DenseMatrix out(static_cast<Index>(g) * block_rows, width);
  place(out, pos_, own);
  // Buffered sends first (deadlock-free), then blocking receives.
  const Index own0 = static_cast<Index>(pos_) * block_rows;
  for (int t = 0; t < g; ++t) {
    if (t == pos_) continue;
    const auto rows = support_in_range(wants[static_cast<std::size_t>(t)],
                                       own0, block_rows);
    if (rows.empty()) continue;
    const auto wire_rows = rebase_rows(rows, own0);
    comm_.send_words(member(t), kTagSparseGather,
                     encode_rows(wire_rows, block_rows, width,
                                 gather_rows(src, wire_rows, row0), codec));
  }
  const auto& mine = wants[static_cast<std::size_t>(pos_)];
  for (int q = 0; q < g; ++q) {
    if (q == pos_) continue;
    const Index q0 = static_cast<Index>(q) * block_rows;
    const auto expected = support_in_range(mine, q0, block_rows);
    if (expected.empty()) continue;
    // The codec layer validates the count header, every index, and the
    // exact payload length against the shared support table.
    const auto values =
        decode_rows(comm_.recv_words(member(q), kTagSparseGather),
                    rebase_rows(expected, q0), block_rows, width, codec);
    for (std::size_t k = 0; k < expected.size(); ++k) {
      const auto* row = values.data() + k * static_cast<std::size_t>(width);
      std::copy(row, row + width, out.row(expected[k]).begin());
    }
  }
  return out;
}

DenseMatrix Group::reduce_scatter_rows(
    const DenseMatrix& partial, std::span<const std::vector<Index>> wants,
    ReplicationMode mode, const WireCodec& codec) {
  const int g = size();
  check(partial.rows() % g == 0, "reduce_scatter_rows: ", partial.rows(),
        " rows do not split into ", g, " chunks");
  const Index block_rows = partial.rows() / g;
  const Index width = partial.cols();
  validate_support_table(wants, g, partial.rows(), mode);
  mode = resolve_mode(mode, wants, block_rows, width, g, codec);
  const Index chunk0 = static_cast<Index>(pos_) * block_rows;
  if (mode == ReplicationMode::Dense) {
    if (g == 1 || block_rows == 0) {
      return partial.row_block(chunk0, chunk0 + block_rows);
    }
    // The ring of reduce_scatter, reading the partial in place: at step
    // s this member forwards chunk (pos-1-s) — a copy of its partial
    // rows at s = 0, after that the sum that landed at step s-1 — and
    // folds the incoming chunk (pos-2-s) once, as partial + incoming.
    // That is the same a + b per element, in the same ring order, as a
    // running `work += incoming`, so every row's sum is grouped and
    // rounded exactly as in reduce_scatter. The last chunk folded is
    // this member's own. At a lossy precision the running sums
    // re-quantize per hop — the one wire path whose rounding depends on
    // the replication mode. Empty chunks send nothing.
    const auto block_words = static_cast<std::size_t>(block_rows) *
                             static_cast<std::size_t>(width);
    const auto chunk = [&](int idx) {
      return partial.data().subspan(
          static_cast<std::size_t>((idx + 2 * g) % g) * block_words,
          block_words);
    };
    DenseMatrix acc = DenseMatrix::uninitialized(block_rows, width);
    const auto first = chunk(pos_ - 1);
    std::copy(first.begin(), first.end(), acc.data().begin());
    for (int s = 0; s < g - 1; ++s) {
      comm_.send_block(right(), kTagReduceScatter, std::move(acc), codec);
      acc = comm_.recv_block(left(), kTagReduceScatter, block_rows, width,
                             codec);
      const auto mine = chunk(pos_ - 2 - s);
      const auto sum = acc.data();
      for (std::size_t k = 0; k < block_words; ++k) {
        sum[k] = mine[k] + sum[k];
      }
    }
    return acc;
  }
  const auto& mine = wants[static_cast<std::size_t>(pos_)];
  // Buffered sends first (deadlock-free), in the dense ring's send order
  // (pos-1, pos-2, ..., pos+1); peers whose chunk holds none of this
  // member's support get no message.
  for (int s = 1; s < g; ++s) {
    const int t = (pos_ - s + g) % g;
    const Index t0 = static_cast<Index>(t) * block_rows;
    const auto rows = support_in_range(mine, t0, block_rows);
    if (rows.empty()) continue;
    comm_.send_words(member(t), kTagSparseReduce,
                     encode_rows(rebase_rows(rows, t0), block_rows, width,
                                 gather_rows(partial, rows, 0), codec));
  }
  // Fold contributions in the ring reduce-scatter's order — members
  // pos+1, pos+2, ..., pos+g-1, then this member's own block last — so
  // every row's sum is grouped exactly as in the dense path.
  DenseMatrix acc(block_rows, width);
  for (int s = 1; s < g; ++s) {
    const int q = (pos_ + s) % g;
    const auto expected = support_in_range(
        wants[static_cast<std::size_t>(q)], chunk0, block_rows);
    if (expected.empty()) continue;
    // The codec layer validates the count header, every index, and the
    // exact payload length against the shared support table.
    const auto values =
        decode_rows(comm_.recv_words(member(q), kTagSparseReduce),
                    rebase_rows(expected, chunk0), block_rows, width, codec);
    for (std::size_t k = 0; k < expected.size(); ++k) {
      auto dst = acc.row(expected[k] - chunk0);
      const auto* src = values.data() + k * static_cast<std::size_t>(width);
      for (std::size_t j = 0; j < dst.size(); ++j) dst[j] += src[j];
    }
  }
  for (Index i = 0; i < block_rows; ++i) {
    auto dst = acc.row(i);
    const auto own = partial.row(chunk0 + i);
    for (std::size_t j = 0; j < dst.size(); ++j) dst[j] += own[j];
  }
  return acc;
}

DenseMatrix Group::sendrecv_cols(int to_pos, int from_pos,
                                 const DenseMatrix& block,
                                 std::span<const Index> send_cols,
                                 std::span<const Index> recv_cols,
                                 PropagationMode mode, int tag,
                                 const WireCodec& codec) {
  const Index block_rows = block.rows();
  const Index width = block.cols();
  check(0 <= to_pos && to_pos < size() && 0 <= from_pos &&
            from_pos < size(),
        "sendrecv_cols: positions (", to_pos, ", ", from_pos,
        ") outside group of ", size());
  const auto hop_sparse = [&](std::span<const Index> cols) {
    return propagation_hop_is_sparse(mode, cols, block_rows, width, codec);
  };
  // Buffered send first (deadlock-free for any exchange pattern), then
  // the blocking receive.
  if (!hop_sparse(send_cols)) {
    comm_.send_block(member(to_pos), tag, block, codec);
  } else if (!send_cols.empty()) {
    comm_.send_words(member(to_pos), tag,
                     encode_cols_block(block, send_cols, codec));
  }
  if (!hop_sparse(recv_cols)) {
    return comm_.recv_block(member(from_pos), tag, block_rows, width, codec);
  }
  DenseMatrix landed(block_rows, width); // zeros outside the support
  if (!recv_cols.empty()) {
    decode_cols_block(comm_.recv_words(member(from_pos), tag), recv_cols,
                      landed, codec);
  }
  return landed;
}

std::vector<Scalar> Group::allreduce(std::vector<Scalar> local) {
  const int g = size();
  if (g == 1) return local;
  // Pad to a multiple of g so reduce-scatter chunks are equal.
  const std::size_t length = local.size();
  const std::size_t padded =
      (length + static_cast<std::size_t>(g) - 1) /
      static_cast<std::size_t>(g) * static_cast<std::size_t>(g);
  local.resize(padded, Scalar{0});
  const auto chunk = reduce_scatter(local);
  auto full = allgather(chunk);
  full.resize(length);
  return full;
}

void Group::broadcast(std::vector<Scalar>& data, int root_pos) {
  const int g = size();
  if (g == 1) return;
  check(0 <= root_pos && root_pos < g, "Group::broadcast: bad root ",
        root_pos);
  // Scatter from the root, then ring all-gather: ~2N/g words per rank.
  const std::size_t total = data.size();
  const std::size_t chunk = (total + static_cast<std::size_t>(g) - 1) /
                            static_cast<std::size_t>(g);
  std::vector<Scalar> padded(data);
  padded.resize(chunk * static_cast<std::size_t>(g), Scalar{0});

  std::vector<Scalar> mine(chunk);
  if (pos_ == root_pos) {
    for (int q = 0; q < g; ++q) {
      std::span<const Scalar> piece(padded.data() +
                                        static_cast<std::size_t>(q) * chunk,
                                    chunk);
      if (q == pos_) {
        mine.assign(piece.begin(), piece.end());
      } else {
        comm_.send_words(member(q), kTagBroadcast, to_words(piece));
      }
    }
  } else {
    const MessageWords words =
        comm_.recv_words(member(root_pos), kTagBroadcast);
    mine.resize(words.size());
    std::memcpy(mine.data(), words.data(), words.size() * sizeof(Scalar));
  }
  auto full = allgather(mine);
  full.resize(total);
  data = std::move(full);
}

std::vector<MessageWords> Group::gather_words(
    std::span<const std::uint64_t> local, int root_pos) {
  const int g = size();
  check(0 <= root_pos && root_pos < g, "Group::gather_words: bad root ",
        root_pos);
  if (pos_ != root_pos) {
    comm_.send_words(member(root_pos), kTagGather,
                     MessageWords(local.begin(), local.end()));
    return {};
  }
  std::vector<MessageWords> out(static_cast<std::size_t>(g));
  out[static_cast<std::size_t>(pos_)] =
      MessageWords(local.begin(), local.end());
  for (int q = 0; q < g; ++q) {
    if (q == root_pos) continue;
    out[static_cast<std::size_t>(q)] =
        comm_.recv_words(member(q), kTagGather);
  }
  return out;
}

} // namespace dsk
