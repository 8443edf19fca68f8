#pragma once
/// \file collectives.hpp
/// Blocking collectives over processor subgroups, implemented with
/// bandwidth-optimal ring algorithms on top of point-to-point messages.
/// A ring all-gather or reduce-scatter over g ranks moves exactly
/// ((g-1)/g) * total_words per rank — the cost the paper assumes from
/// Chan et al. [17] — so measured words match the theory identically,
/// not just asymptotically.
///
/// A Group is constructed locally from an explicit member list (every
/// member passes the same list, the way the grid classes enumerate layer /
/// fiber / row / column peers), so no registration round is needed.

#include <span>
#include <vector>

#include "common/types.hpp"
#include "dense/dense_matrix.hpp"
#include "runtime/comm.hpp"
#include "runtime/wire.hpp"

namespace dsk {

/// Words of one column-support compressed dense-block message carrying
/// `count` supported rows of `width` values each: a count header plus
/// per row the index word and the values — or nothing at all when the
/// support is empty (the hop is skipped entirely). Shared by the wire
/// packers, the per-hop Auto crossover, and the tests, so the format
/// and its accounting cannot drift apart.
inline std::uint64_t sparse_cols_words(std::size_t count, Index width) {
  if (count == 0) return 0;
  return 1 + static_cast<std::uint64_t>(count) *
                 (1 + static_cast<std::uint64_t>(width));
}

/// True when the column-support message for `count` rows undercuts the
/// dense block — the per-hop Auto crossover (PR 3's r/(r+1) rule applied
/// per link): with one extra index word per row, sparse wins below a
/// support density of about width/(width+1) of the block rows.
inline bool sparse_cols_hop_wins(std::size_t count, Index block_rows,
                                 Index width) {
  return sparse_cols_words(count, width) <
         static_cast<std::uint64_t>(block_rows) *
             static_cast<std::uint64_t>(width);
}

/// The per-hop wire-format decision, resolved identically by every
/// compressed-hop code path (the shift loop's split exchange and
/// Group::sendrecv_cols): Dense never compresses, SparseCols always
/// does, Auto when the sparse message wins. Sender and receiver
/// evaluate it on the same support list, so the formats always agree —
/// and keeping the rule in one place means they cannot drift apart.
inline bool propagation_hop_is_sparse(PropagationMode mode,
                                      std::size_t count, Index block_rows,
                                      Index width) {
  switch (mode) {
    case PropagationMode::Dense: return false;
    case PropagationMode::SparseCols: return true;
    case PropagationMode::Auto:
      return sparse_cols_hop_wins(count, block_rows, width);
  }
  return false;
}

/// Codec-aware sibling: the crossover compares the ENCODED message
/// sizes (wire.hpp's encoded_cols_words vs encoded_dense_words), so an
/// index codec that shrinks the header keeps the sparse hop winning at
/// higher support densities. Reduces exactly to the count-based rule
/// above under the default codec; both endpoints evaluate it on the
/// shared support list, so the formats always agree.
bool propagation_hop_is_sparse(PropagationMode mode,
                               std::span<const Index> cols,
                               Index block_rows, Index width,
                               const WireCodec& codec);

/// Pack rows `cols` (sorted block-local indices — the consumers' column
/// support) of a dense block_rows x width payload stored as raw words
/// (pack_dense layout) into a [count, cols..., values...] message. A
/// thin delegate into the wire-codec layer (wire.hpp encode_cols_block),
/// kept so the byte layout lives in exactly one place.
MessageWords pack_cols_block(const MessageWords& dense, Index block_rows,
                             Index width, std::span<const Index> cols,
                             const WireCodec& codec = {});

/// Inverse: expand a [count, cols..., values...] message back into the
/// full dense payload, zeros outside the support. `cols` is the expected
/// support (both ends derive it from the shared shard tables); count and
/// indices are validated against it, and trailing words are rejected.
MessageWords unpack_cols_block(const MessageWords& words, Index block_rows,
                               Index width, std::span<const Index> cols,
                               const WireCodec& codec = {});

class Group {
 public:
  /// members are world ranks, identical on every participating rank, and
  /// must contain comm.rank() exactly once.
  Group(Comm& comm, std::vector<int> members);

  int size() const { return static_cast<int>(members_.size()); }
  int pos() const { return pos_; }
  int member(int position) const {
    return members_[static_cast<std::size_t>(position)];
  }

  /// Ring all-gather: local block (equal words on every rank) -> all
  /// blocks concatenated in group-position order.
  std::vector<Scalar> allgather(std::span<const Scalar> local);

  /// Ring all-gather with per-rank variable lengths; block_offsets (size
  /// g+1) receives the boundaries of each contribution in the result.
  std::vector<std::uint64_t> allgather_words(
      std::span<const std::uint64_t> local,
      std::vector<std::size_t>* block_offsets = nullptr);

  /// Ring reduce-scatter: local has size()*chunk_words entries laid out as
  /// g chunks in group-position order; returns this rank's chunk summed
  /// over all ranks.
  std::vector<Scalar> reduce_scatter(std::span<const Scalar> local);

  /// SpComm3D-style row-sparse all-gather of dense row blocks. Every
  /// member contributes a block_rows x width block; member q's rows are
  /// rows [q*block_rows, (q+1)*block_rows) of the concatenated
  /// size()*block_rows x width result. wants[t] lists, sorted and
  /// distinct, the result rows member t's local kernels ever read (its
  /// sparse block's row support); the table is identical on every member
  /// (setup state, like the grids and shard maps).
  ///
  /// SparseRows mails each peer exactly its supported rows from this
  /// member's block — [count, rows..., values...] = 1 + k*(1 + width)
  /// words per non-empty pair — and leaves unsupported remote rows zero.
  /// Dense is the ring all-gather of the full blocks. Auto compares the
  /// sparse plan's WORST-member traffic against the uniform dense ring
  /// cost (identically on every member, so the choice agrees) and takes
  /// the sparse plan only when it wins, so the max-over-ranks words
  /// under Auto never exceed Dense — even for skewed supports.
  /// Supported rows are bit-identical across all modes.
  /// All row-sparse collectives and the dense rings accept a WireCodec:
  /// the default reproduces the historical byte layout, a non-default
  /// codec re-encodes every hop's payload (and Auto's crossover compares
  /// the ENCODED sizes). Decoded values accumulate in full precision.
  DenseMatrix allgatherv_rows(const DenseMatrix& local,
                              std::span<const std::vector<Index>> wants,
                              ReplicationMode mode,
                              const WireCodec& codec = {}) {
    return allgatherv_rows(local, 0, local.rows(), wants, mode, codec);
  }

  /// The same collective with this member's block read in place as rows
  /// [row0, row0 + block_rows) of `src` — no copy of it on the way in.
  DenseMatrix allgatherv_rows(const DenseMatrix& src, Index row0,
                              Index block_rows,
                              std::span<const std::vector<Index>> wants,
                              ReplicationMode mode,
                              const WireCodec& codec = {});

  /// Row-sparse reduce-scatter, the inverse: partial is a
  /// size()*block_rows x width accumulator whose nonzero rows are
  /// confined to wants[pos()] (this member's own support — its kernels
  /// wrote nothing else); returns this member's block_rows x width block
  /// summed over all members. The sparse path folds contributions in the
  /// same ring order as the dense reduce-scatter (members pos+1, pos+2,
  /// ..., own block last), so the result is bit-identical in every mode.
  DenseMatrix reduce_scatter_rows(const DenseMatrix& partial,
                                  std::span<const std::vector<Index>> wants,
                                  ReplicationMode mode,
                                  const WireCodec& codec = {});

  /// One hop of a column-support compressed cyclic shift, as a paired
  /// Group call (the shift loop performs the same exchange with its
  /// sends and receives split around the local kernel): send `block`'s
  /// rows `send_cols` to member to_pos and receive rows `recv_cols`
  /// from member from_pos into a fresh block_rows x width block, zeros
  /// outside the received support. Dense forwards the whole block;
  /// SparseCols always compresses ([count, cols..., values...], and an
  /// empty support sends nothing at all); Auto takes the smaller of the
  /// two per direction — both ends evaluate sparse_cols_hop_wins on the
  /// shared support lists, so the formats always agree.
  DenseMatrix sendrecv_cols(int to_pos, int from_pos,
                            const DenseMatrix& block,
                            std::span<const Index> send_cols,
                            std::span<const Index> recv_cols,
                            PropagationMode mode, int tag = kTagShift,
                            const WireCodec& codec = {});

  /// Total words the whole group would move for one row-sparse plan
  /// (either direction — the ordered-pair sums coincide): per non-empty
  /// (sender, receiver) intersection, 1 header + k*(1 + width) words.
  /// The dense ring moves g*(g-1)*block_rows*width; Auto compares the
  /// two. Exposed for the cost accounting and tests.
  static std::uint64_t sparse_plan_words(
      std::span<const std::vector<Index>> wants, Index block_rows,
      Index width, const WireCodec& codec = {});

  /// reduce-scatter followed by all-gather (both ring): every rank gets
  /// the full elementwise sum. local must have the same length
  /// everywhere. A one-member group returns local itself.
  std::vector<Scalar> allreduce(std::vector<Scalar> local);

  /// Scatter+all-gather broadcast from group position root_pos
  /// (bandwidth ~2*words/g per rank instead of a root hot-spot).
  /// data must be sized identically on all ranks; root's content wins.
  void broadcast(std::vector<Scalar>& data, int root_pos);

  /// Gather variable-length word vectors at group position root_pos;
  /// non-roots return an empty vector. Intended for result verification
  /// (tag it Phase::Other so it stays out of algorithm cost).
  std::vector<MessageWords> gather_words(std::span<const std::uint64_t> local,
                                         int root_pos);

 private:
  int right() const { return members_[(static_cast<std::size_t>(pos_) + 1) %
                                      members_.size()]; }
  int left() const {
    const auto g = members_.size();
    return members_[(static_cast<std::size_t>(pos_) + g - 1) % g];
  }

  Comm& comm_;
  std::vector<int> members_;
  int pos_ = -1;
};

} // namespace dsk
