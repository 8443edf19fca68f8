#include "sparse/matrix_market.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/error.hpp"

namespace dsk {

namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

/// Reject trailing tokens after the expected fields of a size or entry
/// line: "1 2 3.0 junk" used to parse as a valid entry, silently
/// accepting corrupt files.
void reject_trailing(std::istringstream& line, const std::string& raw,
                     const char* what) {
  std::string junk;
  check(!(line >> junk), "matrix market: trailing garbage '", junk,
        "' on ", what, " line '", raw, "'");
}

} // namespace

CooMatrix read_matrix_market(std::istream& in) {
  std::string line;
  check(static_cast<bool>(std::getline(in, line)),
        "matrix market: empty stream");
  std::istringstream header(line);
  std::string banner, object, format, field, symmetry;
  header >> banner >> object >> format >> field >> symmetry;
  check(banner == "%%MatrixMarket", "matrix market: bad banner '", banner,
        "'");
  check(lower(object) == "matrix", "matrix market: unsupported object '",
        object, "'");
  check(lower(format) == "coordinate",
        "matrix market: only coordinate format is supported");
  field = lower(field);
  symmetry = lower(symmetry);
  check(field == "real" || field == "integer" || field == "pattern",
        "matrix market: unsupported field '", field, "'");
  check(symmetry == "general" || symmetry == "symmetric",
        "matrix market: unsupported symmetry '", symmetry, "'");

  // Skip comments.
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '%') break;
  }
  std::istringstream dims(line);
  Index rows = 0, cols = 0, count = 0;
  dims >> rows >> cols >> count;
  check(!dims.fail() && rows > 0 && cols > 0 && count >= 0,
        "matrix market: bad size line '", line, "'");
  reject_trailing(dims, line, "size");
  // A coordinate file lists each position at most once, so count is at
  // most rows * cols — checked as ceil(count / rows) <= cols, which
  // cannot overflow.
  check(count / rows + (count % rows != 0 ? 1 : 0) <= cols,
        "matrix market: size line '", line, "' declares ", count,
        " entries for a ", rows, " x ", cols, " matrix");

  // The header is still only a claim: reserve at most kReserveCap
  // entries up front and let a genuinely large file grow the arrays.
  constexpr Index kReserveCap = Index{1} << 20;
  CooMatrix out(rows, cols);
  out.reserve(std::min(count, kReserveCap) *
              (symmetry == "symmetric" ? 2 : 1));
  for (Index k = 0; k < count; ++k) {
    check(static_cast<bool>(std::getline(in, line)),
          "matrix market: expected ", count, " entries, got ", k);
    std::istringstream entry(line);
    Index i = 0, j = 0;
    Scalar v = 1.0;
    entry >> i >> j;
    if (field != "pattern") entry >> v;
    check(!entry.fail(), "matrix market: malformed entry '", line, "'");
    reject_trailing(entry, line, "entry");
    // 1-based on disk; out-of-range indices would flow negative or
    // overflowing 0-based indices into CooMatrix (UB downstream).
    check(1 <= i && i <= rows, "matrix market: row index ", i,
          " outside [1, ", rows, "] in entry '", line, "'");
    check(1 <= j && j <= cols, "matrix market: column index ", j,
          " outside [1, ", cols, "] in entry '", line, "'");
    out.push_back(i - 1, j - 1, v);
    if (symmetry == "symmetric" && i != j) {
      out.push_back(j - 1, i - 1, v);
    }
  }
  out.sort_and_combine();
  return out;
}

CooMatrix read_matrix_market_file(const std::string& path) {
  std::ifstream in(path);
  check(in.good(), "matrix market: cannot open '", path, "'");
  return read_matrix_market(in);
}

void write_matrix_market(std::ostream& out, const CooMatrix& matrix) {
  out << "%%MatrixMarket matrix coordinate real general\n";
  out << matrix.rows() << ' ' << matrix.cols() << ' ' << matrix.nnz()
      << '\n';
  const auto rows = matrix.row_idx();
  const auto cols = matrix.col_idx();
  const auto vals = matrix.values();
  // max_digits10 (17 for double) guarantees a write/read round-trip
  // reproduces every value bit for bit; the stream default of 6
  // significant digits would silently perturb them.
  out.precision(std::numeric_limits<Scalar>::max_digits10);
  for (std::size_t k = 0; k < vals.size(); ++k) {
    out << rows[k] + 1 << ' ' << cols[k] + 1 << ' ' << vals[k] << '\n';
  }
}

void write_matrix_market_file(const std::string& path,
                              const CooMatrix& matrix) {
  std::ofstream out(path);
  check(out.good(), "matrix market: cannot open '", path, "' for writing");
  write_matrix_market(out, matrix);
}

} // namespace dsk
