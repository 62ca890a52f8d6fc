#pragma once

// Dense tile kernels — the repository's MKL stand-in.
//
// Every kernel except getrf and ldlt_lower runs on one Goto/BLIS-style
// packed gemm core (Goto & van de Geijn, "Anatomy of High-Performance
// Matrix Multiplication", ACM TOMS 34(3), 2008):
//
//   * op(A) is packed into MR-row micro-panels and op(B) into NR-column
//     micro-panels, zero-padded at the edges, one KC-deep block at a time
//     (MR x NR = 8 x 4, KC = 256). The pack buffers are per thread and
//     bounded by the block sizes (MC x KC and KC x NC, MC = NC = 128), not
//     by the operands.
//   * An MR x NR register-blocked micro-kernel in plain C++ does the
//     flops; GCC vectorises it at the default x86-64 target. No
//     intrinsics, no -march, no threads inside a kernel: streams and
//     teams stay the unit of parallelism.
//   * A lower-triangle mode skips micro-tiles above the diagonal and
//     masks the write-back; syrk_lower and the potrf update use it.
//   * The triangular solves and potrf are blocked left-looking over
//     32-wide diagonal blocks: one core update per block, then a small
//     unblocked solve or factorization of the block.
//
// Kernels are deterministic per call: the same inputs give the same bytes
// on any thread, whatever the leading dimensions. In this reproduction,
// *relative* device performance comes from the calibrated simulator
// models (src/sim); these kernels are the real work on the threaded
// executor, and tests validate them against the naive references in
// reference.hpp.
//
// Conventions follow LAPACK: column-major, lower-triangular factors.

#include <cstddef>

#include "hsblas/matrix.hpp"

namespace hs::blas {

/// Transposition selector for gemm operands.
enum class Op { none, transpose };

/// C = alpha * op(A) * op(B) + beta * C on the packed core.
void gemm(Op op_a, Op op_b, double alpha, ConstMatrixView a, ConstMatrixView b,
          double beta, MatrixView c);

/// C = alpha * A * A^T + beta * C, lower triangle of C only (DSYRK,
/// trans='N', uplo='L').
void syrk_lower(double alpha, ConstMatrixView a, double beta, MatrixView c);

/// B = B * inv(L)^T where L is lower-triangular with non-unit diagonal
/// (DTRSM side='R', uplo='L', trans='T', diag='N') — the update applied to
/// panel tiles below a Cholesky diagonal block.
void trsm_right_lower_trans(ConstMatrixView l, MatrixView b);

/// In-place lower Cholesky factorization of a (DPOTRF, uplo='L').
/// Returns the 1-based index of the first non-positive pivot, or 0 on
/// success (LAPACK info convention).
int potrf_lower(MatrixView a);

/// In-place blocked LU with partial pivoting (DGETRF). `pivots[k]` holds
/// the row swapped into position k (0-based). Returns 0 on success or the
/// 1-based index of the first zero pivot.
int getrf(MatrixView a, std::size_t* pivots);

/// B = inv(L) * B where L is *unit* lower-triangular (DTRSM side='L',
/// uplo='L', trans='N', diag='U') — the U-block update of blocked LU.
void trsm_left_lower_unit(ConstMatrixView l, MatrixView b);

/// In-place lower LDL^T factorization without pivoting (the Abaqus
/// symmetric solver factors supernodes with LDL^T rather than LL^T; §V).
/// On return, the strictly-lower part of `a` holds L (unit diagonal
/// implicit) and the diagonal holds D. Returns 0 on success or the
/// 1-based index of the first zero pivot.
int ldlt_lower(MatrixView a);

/// Tiled-LDL^T panel solve: B := B * L^-T * D^-1 where `f` is a packed
/// LDL^T factor tile (unit-lower L below the diagonal, D on it).
void ldlt_trsm_right(ConstMatrixView f, MatrixView b);

/// Tiled-LDL^T trailing update: C -= A * D * B^T where D = diag(f) comes
/// from the packed factor tile of the current column.
void ldlt_update(ConstMatrixView a, ConstMatrixView f, ConstMatrixView b,
                 MatrixView c);

/// Flop counts used for GF/s reporting and the simulator's cost model.
[[nodiscard]] constexpr double gemm_flops(std::size_t m, std::size_t n,
                                          std::size_t k) noexcept {
  return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
         static_cast<double>(k);
}
[[nodiscard]] constexpr double syrk_flops(std::size_t n, std::size_t k) noexcept {
  return static_cast<double>(n) * static_cast<double>(n + 1) *
         static_cast<double>(k);
}
[[nodiscard]] constexpr double trsm_flops(std::size_t m, std::size_t n) noexcept {
  // side='R': B (m x n) solved against n x n triangle.
  return static_cast<double>(m) * static_cast<double>(n) *
         static_cast<double>(n);
}
[[nodiscard]] constexpr double potrf_flops(std::size_t n) noexcept {
  return static_cast<double>(n) * static_cast<double>(n) *
         static_cast<double>(n) / 3.0;
}
[[nodiscard]] constexpr double getrf_flops(std::size_t m, std::size_t n) noexcept {
  // Square case: 2n^3/3.
  const double mm = static_cast<double>(m);
  const double nn = static_cast<double>(n);
  return mm * nn * nn - nn * nn * nn / 3.0;
}
[[nodiscard]] constexpr double ldlt_flops(std::size_t n) noexcept {
  return potrf_flops(n);  // same leading term as Cholesky
}

}  // namespace hs::blas
