#include "common/types.hpp"

namespace dsk {

std::string to_string(Mode mode) {
  switch (mode) {
    case Mode::SDDMM: return "SDDMM";
    case Mode::SpMMA: return "SpMMA";
    case Mode::SpMMB: return "SpMMB";
  }
  return "?";
}

std::string to_string(Elision elision) {
  switch (elision) {
    case Elision::None: return "NoElision";
    case Elision::ReplicationReuse: return "ReplicationReuse";
    case Elision::LocalKernelFusion: return "LocalKernelFusion";
  }
  return "?";
}

std::string to_string(AlgorithmKind kind) {
  switch (kind) {
    case AlgorithmKind::DenseShift15D: return "1.5D-DenseShift";
    case AlgorithmKind::SparseShift15D: return "1.5D-SparseShift";
    case AlgorithmKind::DenseRepl25D: return "2.5D-DenseRepl";
    case AlgorithmKind::SparseRepl25D: return "2.5D-SparseRepl";
    case AlgorithmKind::Baseline1D: return "1D-Baseline";
  }
  return "?";
}

std::string to_string(Phase phase) {
  switch (phase) {
    case Phase::Replication: return "Replication";
    case Phase::Propagation: return "Propagation";
    case Phase::Computation: return "Computation";
    case Phase::Application: return "Application";
    case Phase::Other: return "Other";
  }
  return "?";
}

std::string to_string(FusedOrientation o) {
  return o == FusedOrientation::A ? "FusedMMA" : "FusedMMB";
}

std::string to_string(ReplicationMode mode) {
  switch (mode) {
    case ReplicationMode::Dense: return "Dense";
    case ReplicationMode::Auto: return "Auto";
  }
  return "?";
}

std::string to_string(PropagationMode mode) {
  switch (mode) {
    case PropagationMode::Dense: return "Dense";
    case PropagationMode::Auto: return "Auto";
  }
  return "?";
}

std::string to_string(WirePrecision precision) {
  switch (precision) {
    case WirePrecision::Full: return "Full";
    case WirePrecision::F32: return "F32";
    case WirePrecision::BF16: return "BF16";
  }
  return "?";
}

} // namespace dsk
