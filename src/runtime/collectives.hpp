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

/// The per-hop wire-format decision, resolved identically by every
/// compressed-hop code path (the shift loop's split exchange and
/// Group::sendrecv_cols): Dense never compresses; Auto does when the
/// ENCODED col-support message (wire.hpp's encoded_cols_words) is
/// smaller than the encoded dense block, so the compressed header keeps
/// the sparse hop winning at higher support densities.
/// Sender and receiver evaluate it on the same support list, so the
/// formats always agree — and keeping the rule in one place means they
/// cannot drift apart.
bool propagation_hop_is_sparse(PropagationMode mode,
                               std::span<const Index> cols,
                               Index block_rows, Index width,
                               const WireCodec& codec);

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
  /// Dense is the ring all-gather of the full blocks. Auto weighs the
  /// row-sparse plan — mail each peer exactly its supported rows from
  /// this member's block, [count, rows..., values...] = 1 + k*(1 + width)
  /// words per non-empty pair under the default codec, unsupported
  /// remote rows left zero — by its WORST member's traffic against the
  /// uniform dense ring cost (identically on every member, so the choice
  /// agrees) and takes it only when it wins, so the max-over-ranks words
  /// under Auto never exceed Dense — even for skewed supports.
  /// Supported rows are bit-identical in both modes.
  /// All row-sparse collectives and the dense rings accept a WireCodec:
  /// the default reproduces the historical value layout, a lossy
  /// precision re-encodes every hop's payload (and Auto's crossover
  /// compares the ENCODED sizes). Decoded values accumulate in full precision.
  DenseMatrix allgatherv_rows(const DenseMatrix& local,
                              std::span<const std::vector<Index>> wants,
                              ReplicationMode mode,
                              const WireCodec& codec = {}) {
    return allgatherv_rows(local, 0, local.rows(), wants, mode, codec);
  }

  /// The same collective with this member's block read in place as rows
  /// [row0, row0 + block_rows) of `src` — no copy of it on the way in.
  /// With a row map `from` (src.rows() entries), block row i is src row
  /// from[row0 + i] instead, gathered straight into the result.
  DenseMatrix allgatherv_rows(const DenseMatrix& src, Index row0,
                              Index block_rows,
                              std::span<const std::vector<Index>> wants,
                              ReplicationMode mode,
                              const WireCodec& codec = {},
                              std::span<const Index> from = {});

  /// Row-sparse reduce-scatter, the inverse: partial is a
  /// size()*block_rows x width accumulator whose nonzero rows are
  /// confined to wants[pos()] (this member's own support — its kernels
  /// wrote nothing else); returns this member's block_rows x width block
  /// summed over all members. The sparse path folds contributions in the
  /// same ring order as the dense reduce-scatter (members pos+1, pos+2,
  /// ..., own block last), so the result is bit-identical in both modes.
  DenseMatrix reduce_scatter_rows(const DenseMatrix& partial,
                                  std::span<const std::vector<Index>> wants,
                                  ReplicationMode mode,
                                  const WireCodec& codec = {});

  /// One hop of a column-support compressed cyclic shift, as a paired
  /// Group call (the shift loop performs the same exchange with its
  /// sends and receives split around the local kernel): send `block`'s
  /// rows `send_cols` to member to_pos and receive rows `recv_cols`
  /// from member from_pos into a fresh block_rows x width block, zeros
  /// outside the received support. Dense forwards the whole block; Auto
  /// takes, per direction, the smaller of the whole block and the
  /// compressed [count, cols..., values...] message (an empty support
  /// sends nothing at all) — both ends evaluate
  /// propagation_hop_is_sparse on the shared support lists, so the
  /// formats always agree.
  DenseMatrix sendrecv_cols(int to_pos, int from_pos,
                            const DenseMatrix& block,
                            std::span<const Index> send_cols,
                            std::span<const Index> recv_cols,
                            PropagationMode mode, int tag = kTagShift,
                            const WireCodec& codec = {});

  /// reduce-scatter followed by all-gather (both ring): every rank gets
  /// the full elementwise sum. local must have the same length
  /// everywhere. A one-member group returns local itself.
  std::vector<Scalar> allreduce(std::vector<Scalar> local);

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
