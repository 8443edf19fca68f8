#include "sparse/partition.hpp"

#include "common/error.hpp"

namespace dsk {

std::vector<Index> partition_uniform(Index count, int num_parts) {
  check(num_parts >= 1, "partition_uniform: need at least one part, got ",
        num_parts);
  check(count >= 0, "partition_uniform: negative count ", count);
  std::vector<Index> bounds(static_cast<std::size_t>(num_parts) + 1);
  for (int p = 0; p <= num_parts; ++p) {
    bounds[static_cast<std::size_t>(p)] =
        (count * static_cast<Index>(p)) / static_cast<Index>(num_parts);
  }
  return bounds;
}

} // namespace dsk
