#pragma once
/// \file partition.hpp
/// Uniform 1D interval partitions, used to split the Table II data
/// distributions' value slices.

#include <vector>

#include "common/types.hpp"

namespace dsk {

/// Split [0, count) into num_parts contiguous near-equal ranges (sizes
/// differ by at most one; count need not divide evenly). Returns
/// num_parts + 1 monotone boundaries with front() == 0 and
/// back() == count; part p is [bounds[p], bounds[p+1]).
std::vector<Index> partition_uniform(Index count, int num_parts);

} // namespace dsk
