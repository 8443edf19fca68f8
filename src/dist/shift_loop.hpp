#pragma once
/// \file shift_loop.hpp
/// The cyclic-shift propagation engine shared by every distributed
/// algorithm, with a selectable schedule:
///
///   BulkSynchronous — the BSP structure the paper measures: compute on
///     the resident block, exchange, barrier. Every rank advances in
///     lockstep; a receive waits until its peer has finished computing.
///
///   DoubleBuffered — comm/compute overlap (the paper's future-work
///     direction): for read-only payloads the block is forwarded BEFORE
///     the local kernel runs (the simulated analogue of MPI_Isend +
///     posting the receive for shift k+1 early), so the transfer for
///     step k+1 is in flight while step k computes and the trailing
///     receive finds its message already delivered. Payloads the kernel
///     mutates (circulating SDDMM dot accumulators) are forwarded right
///     after their compute instead, and no barrier closes the step.
///
/// Both schedules execute the identical compute sequence on identical
/// data and send the same messages over the same ring, so their outputs
/// are bit-identical and the exact word and message accounting is
/// schedule-independent; only waiting time moves.
///
/// A ring of one rank (the degenerate c = p or q = 1 grids, and p = 1)
/// is a self-shift: the block stays put and nothing is charged, matching
/// the cost model's "self-shifts are free".

#include <functional>
#include <span>

#include "runtime/collectives.hpp"
#include "runtime/comm.hpp"

namespace dsk {

/// How the propagation loop schedules its sends and receives relative to
/// the local kernels.
enum class ShiftSchedule {
  BulkSynchronous,
  DoubleBuffered,
};

/// The wire description of one circulating dense payload: its shape and
/// codec, plus — under PropagationMode::Auto — its column-support
/// compression: per hop, only the block rows the rest of the ring trip
/// still needs travel, as [count, cols..., values...] messages
/// (shards.hpp's col_support is where the lists come from — the rows of
/// a circulating B-side block a piece's kernels touch are exactly its
/// sparse columns).
///
/// The schedules are per-rank slices of a shared per-(block, hop) plan:
/// `send_rows[t]` lists, sorted, the payload rows this rank ships on
/// the hop it SENDS during step t, and `recv_rows[t]` the rows on the
/// hop it RECEIVES during step t (its ring successor's send_rows[t] —
/// both sides derive the same lists from the replicated setup, so the
/// per-hop Auto decision always agrees). For read-only payloads each
/// hop carries the union of every REMAINING consumer's support — the
/// homeward hop carries nothing — and for accumulators the union of
/// every support written SO FAR, so the home block lands with all its
/// partial sums. Rows outside the shipped set are exactly zero on
/// arrival, which is what the consumers' kernels (which never read
/// them) and the final home placement (whose untouched rows are zero in
/// the true output) expect; outputs are therefore bit-identical to
/// Dense. Build with make_ring_compression.
struct ShiftCompression {
  PropagationMode mode = PropagationMode::Dense;
  Index block_rows = 0;
  Index width = 0;
  /// Wire codec every hop of this channel is encoded with. The resident
  /// block always stays a full-precision matrix — encoding happens at
  /// the hop boundary (a full-block hop at a lossy precision travels
  /// precision-encoded; at Full precision it travels as the block).
  WireCodec codec;
  std::vector<std::vector<Index>> send_rows;
  std::vector<std::vector<Index>> recv_rows;
};

/// One circulating payload stream. The loop replaces the resident
/// payload with the incoming one after each step. A word channel
/// (COO triplets) circulates `block`; a dense channel — one built with a
/// ShiftCompression — keeps its payload resident as `dense`, its own
/// storage, which the kernels read or update in place. A full-block hop
/// moves that storage to the peer (Comm::send_block): an accumulator, or
/// a read-only block forwarded after the kernel, goes without a copy; a
/// read-only block forwarded before the kernel (DoubleBuffered) costs
/// the sender one copy.
struct ShiftChannel {
  int send_to = -1;
  int recv_from = -1;
  int tag = kTagShift;
  /// True when compute(step) rewrites the resident block (accumulating
  /// payloads); such blocks can only be forwarded after the kernel.
  bool mutates = false;
  MessageWords block;
  DenseMatrix dense;
  /// Shape, codec and support schedules of a dense channel; null for a
  /// word channel. Must outlive the loop (the drivers keep it next to
  /// the channel).
  const ShiftCompression* compression = nullptr;
};

/// Run `steps` propagation rounds. compute(step) reads (and for mutating
/// channels rewrites) the resident blocks; communication is charged to
/// Phase::Propagation and compute to Phase::Computation, so the
/// per-phase counters and measured spans line up with the paper's
/// breakdown. With steps equal to the ring length every block ends up
/// back home.
void run_shift_loop(Comm& comm, ShiftSchedule schedule, int steps,
                    std::span<ShiftChannel> channels,
                    const std::function<void(int)>& compute);

/// Channel over a ring given in member order: receive from the next
/// member, send to the previous, so the resident block index advances by
/// one each step and a ring of `members.size()` steps brings every block
/// home.
ShiftChannel ring_channel(std::span<const int> members, int pos, int tag,
                          bool mutates, MessageWords block);

/// Dense channel over the same ring: `block` (compression.block_rows x
/// compression.width) circulates as its own storage.
ShiftChannel ring_channel(std::span<const int> members, int pos, int tag,
                          bool mutates, DenseMatrix block,
                          const ShiftCompression& compression);

/// Build the wire-support schedules of one compressed ring channel for
/// the rank holding block origin `origin0` at step 0 (ring_channel's
/// direction: origin advances by one per step, so the block resident at
/// step t is (origin0 + t) mod ring, and a loop of `ring` steps brings
/// every block home). touch(origin, step) returns the sorted rows of
/// block `origin` that its consumer at `step` — the rank resident with
/// it then — reads (read-only payloads) or writes (accumulators); it is
/// evaluated on the shared setup tables, so every rank derives the same
/// per-(block, hop) plan and sender/receiver schedules always agree.
/// Dense mode returns no schedules: every hop ships the full block.
ShiftCompression make_ring_compression(
    PropagationMode mode, Index block_rows, Index width, int ring,
    int origin0, bool mutates,
    const std::function<std::span<const Index>(int origin, int step)>&
        touch,
    const WireCodec& codec = {});

} // namespace dsk
