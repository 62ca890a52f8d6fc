#include "hsblas/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

namespace hs::blas {
namespace {

// Goto/BLIS blocking (see kernels.hpp). kMC and kNC are multiples of kMR
// and kNR so a packed block never outgrows its buffer.
constexpr std::size_t kMR = 8;    // micro-tile rows
constexpr std::size_t kNR = 4;    // micro-tile columns
constexpr std::size_t kKC = 256;  // depth of one packed block
constexpr std::size_t kMC = 128;  // rows of op(A) packed at once
constexpr std::size_t kNC = 128;  // columns of op(B) packed at once
constexpr std::size_t kPanel = 32;  // diagonal block of the blocked solves

// Scales C (its lower triangle only when `lower`) by beta; beta == 0
// writes zeros without reading C.
void scale(MatrixView c, double beta, bool lower) {
  if (beta == 1.0) {
    return;
  }
  for (std::size_t j = 0; j < c.cols; ++j) {
    for (std::size_t i = lower ? j : 0; i < c.rows; ++i) {
      c(i, j) = beta == 0.0 ? 0.0 : beta * c(i, j);
    }
  }
}

// Packs rows [r0, r0 + rows) x depth [p0, p0 + kc) of M into R-row
// micro-panels, each stored depth-major: M(r0 + q + r, p0 + p) lands at
// dst[q * kc + p * R + r] for the panel starting at row q, and rows past
// the last are zero. M is `src`, or its transpose when `trans`.
template <std::size_t R>
void pack(ConstMatrixView src, bool trans, std::size_t r0, std::size_t rows,
          std::size_t p0, std::size_t kc, double* dst) {
  const std::size_t rs = trans ? src.ld : 1;  // stride between rows of M
  const std::size_t ps = trans ? 1 : src.ld;  // stride along the depth
  const double* base = src.data + r0 * rs + p0 * ps;
  for (std::size_t q = 0; q < rows; q += R, dst += R * kc) {
    const std::size_t live = std::min(R, rows - q);
    for (std::size_t p = 0; p < kc; ++p) {
      for (std::size_t r = 0; r < R; ++r) {
        dst[p * R + r] = r < live ? base[(q + r) * rs + p * ps] : 0.0;
      }
    }
  }
}

// acc = A-panel * B-panel over kc: the register-blocked inner loop. The
// fixed-size loops vectorise at the default x86-64 target (SSE2).
void micro_kernel(std::size_t kc, const double* __restrict a,
                  const double* __restrict b, double* __restrict acc) {
  double t[kNR][kMR] = {};
  for (std::size_t p = 0; p < kc; ++p, a += kMR, b += kNR) {
    for (std::size_t j = 0; j < kNR; ++j) {
      for (std::size_t i = 0; i < kMR; ++i) {
        t[j][i] += a[i] * b[j];
      }
    }
  }
  std::copy(&t[0][0], &t[0][0] + kMR * kNR, acc);
}

// C = beta * C + alpha * op(A) * op(B): the one packed core under every
// kernel. With `lower`, only C(i, j) with i >= j is read or written, and
// micro-tiles wholly above the diagonal are skipped.
void core(Op op_a, Op op_b, double alpha, ConstMatrixView a,
          ConstMatrixView b, double beta, MatrixView c, bool lower) {
  const std::size_t m = c.rows;
  const std::size_t n = c.cols;
  const std::size_t k = op_a == Op::none ? a.cols : a.rows;
  scale(c, beta, lower);
  if (alpha == 0.0 || k == 0) {
    return;
  }
  thread_local const std::unique_ptr<double[]> a_pack(new double[kMC * kKC]);
  thread_local const std::unique_ptr<double[]> b_pack(new double[kKC * kNC]);
  double acc[kMR * kNR];
  for (std::size_t jc = 0; jc < n; jc += kNC) {
    const std::size_t nc = std::min(kNC, n - jc);
    for (std::size_t pc = 0; pc < k; pc += kKC) {
      const std::size_t kc = std::min(kKC, k - pc);
      pack<kNR>(b, op_b == Op::none, jc, nc, pc, kc, b_pack.get());
      for (std::size_t ic = lower ? jc : 0; ic < m; ic += kMC) {
        const std::size_t mc = std::min(kMC, m - ic);
        pack<kMR>(a, op_a == Op::transpose, ic, mc, pc, kc, a_pack.get());
        for (std::size_t jr = 0; jr < nc; jr += kNR) {
          for (std::size_t ir = 0; ir < mc; ir += kMR) {
            const std::size_t i0 = ic + ir;
            const std::size_t j0 = jc + jr;
            if (lower && i0 + kMR <= j0) {
              continue;  // every row of the micro-tile is above the diagonal
            }
            micro_kernel(kc, &a_pack[ir * kc], &b_pack[jr * kc], acc);
            const std::size_t mr = std::min(kMR, mc - ir);
            const std::size_t nr = std::min(kNR, nc - jr);
            for (std::size_t j = 0; j < nr; ++j) {
              for (std::size_t i = lower && j0 + j > i0 ? j0 + j - i0 : 0;
                   i < mr; ++i) {
                c(i0 + i, j0 + j) += alpha * acc[j * kMR + i];
              }
            }
          }
        }
      }
    }
  }
}

// Unblocked X * L^T = B, a column sweep; `unit` takes L's diagonal as 1.
void trsm_right_unblocked(ConstMatrixView l, MatrixView b, bool unit) {
  for (std::size_t j = 0; j < l.rows; ++j) {
    if (!unit) {
      const double inv = 1.0 / l(j, j);
      for (std::size_t i = 0; i < b.rows; ++i) {
        b(i, j) *= inv;
      }
    }
    for (std::size_t p = j + 1; p < l.rows; ++p) {
      const double lpj = l(p, j);
      for (std::size_t i = 0; lpj != 0.0 && i < b.rows; ++i) {
        b(i, p) -= b(i, j) * lpj;
      }
    }
  }
}

// Unblocked L * X = B with unit-diagonal L: forward substitution.
void trsm_left_unit_unblocked(ConstMatrixView l, MatrixView b) {
  for (std::size_t j = 0; j < b.cols; ++j) {
    for (std::size_t k = 0; k < l.rows; ++k) {
      const double bkj = b(k, j);
      for (std::size_t i = k + 1; bkj != 0.0 && i < l.rows; ++i) {
        b(i, j) -= l(i, k) * bkj;
      }
    }
  }
}

// The blocked solve shared by every triangular solve: left-looking over
// kPanel-wide diagonal blocks of the lower triangle `l`. Each block first
// subtracts the already-solved blocks in one core call, then runs the
// unblocked solve. Right side: X * L^T = B; left side: L * X = B (unit).
void trsm_lower(bool right, bool unit, ConstMatrixView l, MatrixView b) {
  for (std::size_t j0 = 0; j0 < l.rows; j0 += kPanel) {
    const std::size_t jb = std::min(kPanel, l.rows - j0);
    const ConstMatrixView diag = l.tile(j0, j0, jb, jb);
    if (right) {
      const MatrixView bj = b.tile(0, j0, b.rows, jb);
      core(Op::none, Op::transpose, -1.0, b.tile(0, 0, b.rows, j0),
           l.tile(j0, 0, jb, j0), 1.0, bj, false);
      trsm_right_unblocked(diag, bj, unit);
    } else {
      const MatrixView bj = b.tile(j0, 0, jb, b.cols);
      core(Op::none, Op::none, -1.0, l.tile(j0, 0, jb, j0),
           b.tile(0, 0, j0, b.cols), 1.0, bj, false);
      trsm_left_unit_unblocked(diag, bj);
    }
  }
}

// Unblocked lower Cholesky of one diagonal block (dot-product form).
int potrf_unblocked(MatrixView a) {
  for (std::size_t j = 0; j < a.rows; ++j) {
    double d = a(j, j);
    for (std::size_t p = 0; p < j; ++p) {
      d -= a(j, p) * a(j, p);
    }
    if (d <= 0.0) {
      return static_cast<int>(j) + 1;
    }
    const double ljj = std::sqrt(d);
    a(j, j) = ljj;
    const double inv = 1.0 / ljj;
    for (std::size_t i = j + 1; i < a.rows; ++i) {
      double acc = a(i, j);
      for (std::size_t p = 0; p < j; ++p) {
        acc -= a(i, p) * a(j, p);
      }
      a(i, j) = acc * inv;
    }
  }
  return 0;
}

}  // namespace

void gemm(Op op_a, Op op_b, double alpha, ConstMatrixView a, ConstMatrixView b,
          double beta, MatrixView c) {
  const std::size_t k = (op_a == Op::none) ? a.cols : a.rows;
  require(((op_a == Op::none) ? a.rows : a.cols) == c.rows, "gemm: A shape");
  require(((op_b == Op::none) ? b.rows : b.cols) == k, "gemm: B shape");
  require(((op_b == Op::none) ? b.cols : b.rows) == c.cols, "gemm: B shape");
  core(op_a, op_b, alpha, a, b, beta, c, false);
}

void syrk_lower(double alpha, ConstMatrixView a, double beta, MatrixView c) {
  require(c.cols == c.rows && a.rows == c.rows, "syrk: shape");
  core(Op::none, Op::transpose, alpha, a, a, beta, c, true);
}

void trsm_right_lower_trans(ConstMatrixView l, MatrixView b) {
  require(l.cols == l.rows && b.cols == l.rows, "trsm: shape");
  trsm_lower(/*right=*/true, /*unit=*/false, l, b);
}

int potrf_lower(MatrixView a) {
  const std::size_t n = a.rows;
  require(a.cols == n, "potrf: square matrix required");
  // Left-looking: fold the factored columns into this block column (lower
  // mode keeps the diagonal block's upper part untouched), factor its
  // diagonal block, then solve the panel below it. Callers treat the
  // upper triangle as undefined, matching LAPACK.
  for (std::size_t j0 = 0; j0 < n; j0 += kPanel) {
    const std::size_t jb = std::min(kPanel, n - j0);
    core(Op::none, Op::transpose, -1.0, a.tile(j0, 0, n - j0, j0),
         a.tile(j0, 0, jb, j0), 1.0, a.tile(j0, j0, n - j0, jb), true);
    const MatrixView diag = a.tile(j0, j0, jb, jb);
    if (const int info = potrf_unblocked(diag); info != 0) {
      return static_cast<int>(j0) + info;
    }
    trsm_right_unblocked(diag, a.tile(j0 + jb, j0, n - j0 - jb, jb), false);
  }
  return 0;
}

void trsm_left_lower_unit(ConstMatrixView l, MatrixView b) {
  require(l.cols == l.rows && b.rows == l.rows, "trsm_left: shape");
  trsm_lower(/*right=*/false, /*unit=*/true, l, b);
}

int getrf(MatrixView a, std::size_t* pivots) {
  const std::size_t m = a.rows;
  const std::size_t n = a.cols;
  const std::size_t mn = std::min(m, n);

  for (std::size_t k = 0; k < mn; ++k) {
    // Partial pivoting: find the largest magnitude in column k at/below k.
    std::size_t piv = k;
    double best = std::abs(a(k, k));
    for (std::size_t i = k + 1; i < m; ++i) {
      const double v = std::abs(a(i, k));
      if (v > best) {
        best = v;
        piv = i;
      }
    }
    pivots[k] = piv;
    if (best == 0.0) {
      return static_cast<int>(k) + 1;
    }
    if (piv != k) {
      for (std::size_t j = 0; j < n; ++j) {
        std::swap(a(k, j), a(piv, j));
      }
    }
    const double inv = 1.0 / a(k, k);
    for (std::size_t i = k + 1; i < m; ++i) {
      a(i, k) *= inv;
    }
    for (std::size_t j = k + 1; j < n; ++j) {
      const double akj = a(k, j);
      if (akj == 0.0) {
        continue;
      }
      for (std::size_t i = k + 1; i < m; ++i) {
        a(i, j) -= a(i, k) * akj;
      }
    }
  }
  return 0;
}

void ldlt_trsm_right(ConstMatrixView f, MatrixView b) {
  const std::size_t n = f.rows;
  require(f.cols == n && b.cols == n, "ldlt_trsm: shape");
  // Solve X * L^T = B with unit-diagonal L, then scale each column by
  // 1/d_j.
  trsm_lower(/*right=*/true, /*unit=*/true, f, b);
  for (std::size_t j = 0; j < n; ++j) {
    const double inv = 1.0 / f(j, j);
    for (std::size_t i = 0; i < b.rows; ++i) {
      b(i, j) *= inv;
    }
  }
}

void ldlt_update(ConstMatrixView a, ConstMatrixView f, ConstMatrixView b,
                 MatrixView c) {
  const std::size_t n = c.cols;
  const std::size_t k = a.cols;
  require(a.rows == c.rows && b.rows == n && b.cols == k && f.rows == k,
          "ldlt_update: shape");
  // C -= A * (B * D)^T: scale B's columns by d in a per-call temporary.
  Matrix bd(n, k);
  for (std::size_t p = 0; p < k; ++p) {
    for (std::size_t j = 0; j < n; ++j) {
      bd(j, p) = b(j, p) * f(p, p);
    }
  }
  core(Op::none, Op::transpose, -1.0, a, bd.view(), 1.0, c, false);
}

int ldlt_lower(MatrixView a) {
  const std::size_t n = a.rows;
  require(a.cols == n, "ldlt: square matrix required");
  std::vector<double> work(n);  // row of L scaled by D

  for (std::size_t j = 0; j < n; ++j) {
    // work[p] = l(j,p) * d(p) for p < j
    for (std::size_t p = 0; p < j; ++p) {
      work[p] = a(j, p) * a(p, p);
    }
    double d = a(j, j);
    for (std::size_t p = 0; p < j; ++p) {
      d -= a(j, p) * work[p];
    }
    if (d == 0.0) {
      return static_cast<int>(j) + 1;
    }
    a(j, j) = d;
    const double inv = 1.0 / d;
    for (std::size_t i = j + 1; i < n; ++i) {
      double acc = a(i, j);
      for (std::size_t p = 0; p < j; ++p) {
        acc -= a(i, p) * work[p];
      }
      a(i, j) = acc * inv;
    }
  }
  return 0;
}

}  // namespace hs::blas
