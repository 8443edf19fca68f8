#include "dist/shift_loop.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "runtime/stats.hpp"

namespace dsk {

namespace {

bool is_self(const Comm& comm, const ShiftChannel& ch) {
  return ch.send_to == comm.rank() && ch.recv_from == comm.rank();
}

/// The per-hop plan choice — the shared propagation_hop_is_sparse rule
/// on this channel's shape; sender and receiver evaluate it on the same
/// support list (their schedules are slices of one shared plan), so the
/// wire format always agrees. Dense mode has no schedules: every hop is
/// a full block.
bool hop_is_sparse(const ShiftCompression& comp,
                   const std::vector<std::vector<Index>>& schedule,
                   int step) {
  return comp.mode != PropagationMode::Dense &&
         propagation_hop_is_sparse(
             comp.mode, schedule[static_cast<std::size_t>(step)],
             comp.block_rows, comp.width, comp.codec);
}

/// Forward the channel's resident payload for the hop of `step`. A dense
/// payload goes support-compressed, straight from the block's rows, when
/// the plan says so (an empty support sends nothing at all — the
/// receiver reconstructs a zero block); otherwise the block itself
/// crosses. `may_move` lets the trailing sends hand the resident storage
/// over without a copy.
void send_hop(Comm& comm, ShiftChannel& ch, int step, bool may_move) {
  const ShiftCompression* comp = ch.compression;
  if (comp == nullptr) {
    comm.send_words(ch.send_to, ch.tag,
                    may_move ? std::move(ch.block) : MessageWords(ch.block));
    return;
  }
  if (hop_is_sparse(*comp, comp->send_rows, step)) {
    const auto& rows = comp->send_rows[static_cast<std::size_t>(step)];
    if (!rows.empty()) {
      comm.send_words(ch.send_to, ch.tag,
                      encode_cols_block(ch.dense, rows, comp->codec));
    }
    return;
  }
  comm.send_block(ch.send_to, ch.tag,
                  may_move ? std::move(ch.dense) : DenseMatrix(ch.dense),
                  comp->codec);
}

/// Receive the hop of `step` into the channel: a compressed hop is
/// decoded into a zeroed block (indices validated against the shared
/// plan; the resident storage is reused when it is still there), and a
/// skipped hop — an empty support — lands as an all-zero block without
/// any message.
void recv_hop(Comm& comm, ShiftChannel& ch, int step) {
  const ShiftCompression* comp = ch.compression;
  if (comp == nullptr) {
    ch.block = comm.recv_words(ch.recv_from, ch.tag);
    return;
  }
  if (hop_is_sparse(*comp, comp->recv_rows, step)) {
    if (ch.dense.rows() == comp->block_rows && ch.dense.cols() == comp->width) {
      ch.dense.fill(Scalar{0});
    } else {
      ch.dense = DenseMatrix(comp->block_rows, comp->width);
    }
    const auto& rows = comp->recv_rows[static_cast<std::size_t>(step)];
    if (!rows.empty()) {
      decode_cols_block(comm.recv_words(ch.recv_from, ch.tag), rows,
                        ch.dense, comp->codec);
    }
    return;
  }
  ch.dense = comm.recv_block(ch.recv_from, ch.tag, comp->block_rows,
                             comp->width, comp->codec);
}

} // namespace

void run_shift_loop(Comm& comm, ShiftSchedule schedule, int steps,
                    std::span<ShiftChannel> channels,
                    const std::function<void(int)>& compute) {
  for (const auto& ch : channels) {
    check(is_self(comm, ch) || (ch.send_to != comm.rank() &&
                                ch.recv_from != comm.rank()),
          "run_shift_loop: channel is half-self (send_to ", ch.send_to,
          ", recv_from ", ch.recv_from, " on rank ", comm.rank(), ")");
    if (const ShiftCompression* comp = ch.compression) {
      check(ch.dense.rows() == comp->block_rows &&
                ch.dense.cols() == comp->width,
            "run_shift_loop: resident block is ", ch.dense.rows(), " x ",
            ch.dense.cols(), ", channel carries ", comp->block_rows, " x ",
            comp->width);
      check(comp->mode == PropagationMode::Dense ||
                (static_cast<int>(comp->send_rows.size()) == steps &&
                 static_cast<int>(comp->recv_rows.size()) == steps),
            "run_shift_loop: compression schedules cover ",
            comp->send_rows.size(), " steps, loop runs ", steps);
    }
  }
  const bool overlap = schedule == ShiftSchedule::DoubleBuffered;
  for (int step = 0; step < steps; ++step) {
    comm.on_shift_step(step);
    if (overlap) {
      // Forward read-only blocks before computing: the copy in flight is
      // what the receiver's post-compute receive will find waiting.
      PhaseScope scope(comm.stats(), Phase::Propagation);
      for (auto& ch : channels) {
        if (!ch.mutates && !is_self(comm, ch)) {
          send_hop(comm, ch, step, /*may_move=*/false);
        }
      }
    }
    {
      PhaseScope scope(comm.stats(), Phase::Computation);
      compute(step);
    }
    {
      PhaseScope scope(comm.stats(), Phase::Propagation);
      for (auto& ch : channels) {
        if (is_self(comm, ch)) continue;
        const bool sent_early = overlap && !ch.mutates;
        if (!sent_early) {
          send_hop(comm, ch, step, /*may_move=*/true);
        }
        recv_hop(comm, ch, step);
      }
    }
    if (!overlap) {
      PhaseScope scope(comm.stats(), Phase::Propagation);
      comm.barrier();
    }
  }
}

ShiftChannel ring_channel(std::span<const int> members, int pos, int tag,
                          bool mutates, MessageWords block) {
  const auto g = static_cast<int>(members.size());
  check(g >= 1 && 0 <= pos && pos < g, "ring_channel: position ", pos,
        " outside ring of ", g);
  ShiftChannel ch;
  ch.send_to = members[static_cast<std::size_t>((pos - 1 + g) % g)];
  ch.recv_from = members[static_cast<std::size_t>((pos + 1) % g)];
  ch.tag = tag;
  ch.mutates = mutates;
  ch.block = std::move(block);
  return ch;
}

ShiftChannel ring_channel(std::span<const int> members, int pos, int tag,
                          bool mutates, DenseMatrix block,
                          const ShiftCompression& compression) {
  check(block.rows() == compression.block_rows &&
            block.cols() == compression.width,
        "ring_channel: ", block.rows(), " x ", block.cols(),
        " block on a ", compression.block_rows, " x ", compression.width,
        " channel");
  ShiftChannel ch = ring_channel(members, pos, tag, mutates, MessageWords{});
  ch.dense = std::move(block);
  ch.compression = &compression;
  return ch;
}

ShiftCompression make_ring_compression(
    PropagationMode mode, Index block_rows, Index width, int ring,
    int origin0, bool mutates,
    const std::function<std::span<const Index>(int origin, int step)>&
        touch,
    const WireCodec& codec) {
  check(ring >= 1 && 0 <= origin0 && origin0 < ring,
        "make_ring_compression: origin ", origin0, " outside ring of ",
        ring);
  ShiftCompression comp;
  comp.mode = mode;
  comp.block_rows = block_rows;
  comp.width = width;
  comp.codec = codec;
  if (mode == PropagationMode::Dense) return comp;
  comp.send_rows.assign(static_cast<std::size_t>(ring), {});
  comp.recv_rows.assign(static_cast<std::size_t>(ring), {});
  // Union of block `origin`'s consumer supports over steps [lo, hi).
  std::vector<char> mark(static_cast<std::size_t>(block_rows), 0);
  const auto union_steps = [&](int origin, int lo, int hi) {
    std::fill(mark.begin(), mark.end(), 0);
    for (int t = lo; t < hi; ++t) {
      for (const Index row : touch(origin, t)) {
        check(0 <= row && row < block_rows,
              "make_ring_compression: support row ", row,
              " outside [0, ", block_rows, ")");
        mark[static_cast<std::size_t>(row)] = 1;
      }
    }
    std::vector<Index> rows;
    for (Index i = 0; i < block_rows; ++i) {
      if (mark[static_cast<std::size_t>(i)] != 0) rows.push_back(i);
    }
    return rows;
  };
  // Each block origin is sent exactly once by this rank (while resident,
  // at t_send = origin - origin0) and received exactly once (just before
  // becoming resident, at t_recv = t_send - 1 mod ring). Read-only hops
  // carry what the REST of the trip still reads; accumulator hops carry
  // what has been written SO FAR (the hop during step t follows step t's
  // compute, hence the [0, t] prefix).
  for (int origin = 0; origin < ring; ++origin) {
    const int t_send = (origin - origin0 + ring) % ring;
    const int t_recv = (origin - origin0 - 1 + 2 * ring) % ring;
    if (mutates) {
      comp.send_rows[static_cast<std::size_t>(t_send)] =
          union_steps(origin, 0, t_send + 1);
      comp.recv_rows[static_cast<std::size_t>(t_recv)] =
          union_steps(origin, 0, t_recv + 1);
    } else {
      comp.send_rows[static_cast<std::size_t>(t_send)] =
          union_steps(origin, t_send + 1, ring);
      comp.recv_rows[static_cast<std::size_t>(t_recv)] =
          union_steps(origin, t_recv + 1, ring);
    }
  }
  return comp;
}

} // namespace dsk
