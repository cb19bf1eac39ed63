// The numeric kernels under Tensor's products, the dense layer forward and
// the Adam update (DESIGN.md §12).
//
// One register-tiled micro-kernel computes C += A·B. Every element of C
// adds its k-products in ascending k onto its current value, and no FMA is
// ever emitted, so the result does not depend on the vector width, on the
// tiling, or on how many rows share a call. That is the bit-identity
// contract batched inference, replay and checkpoint parity rely on.
//
// The same kernel source is compiled three times: at 2 doubles per vector
// (the baseline x86-64 / SSE2 build every CPU runs), at 4 under
// __attribute__((target("avx2"))) and at 8 under
// __attribute__((target("avx512f"))). Each call picks the widest width the
// CPU supports (BestWidth); tests and benches may force any of them.
#pragma once

#include <cstddef>

namespace jarvis::neural::kernels {

enum class Width {
  kBaseline,  // 2 doubles per vector: every x86-64 CPU, and non-x86 builds
  kAvx2,      // 4 doubles per vector: CPUs with AVX2
  kAvx512,    // 8 doubles per vector: CPUs with AVX-512F
};

const char* WidthName(Width width);
// True when this CPU (and this build) can run `width`.
bool WidthSupported(Width width);
// The widest supported width. Asked per call: no cached state.
Width BestWidth();

// A read-only m x k operand: element (i, p) is
// data[i * row_stride + p * k_stride]. Row-major A has (k, 1); the
// transpose of a row-major k x m matrix is (1, m) — no copy needed.
struct StridedOperand {
  const double* data;
  std::size_t row_stride;
  std::size_t k_stride;
};

// c (m x n, row stride ldc) += a (m x k) · b (k x n, row stride ldb).
// Element (i, j) becomes c(i, j) + a(i,0)·b(0,j) + a(i,1)·b(1,j) + ...,
// each product rounded, then added in ascending k. 0 × Inf and 0 × NaN
// give NaN (no zero-operand shortcut). c must not overlap a or b.
void GemmAccumulate(Width width, std::size_t m, std::size_t n, std::size_t k,
                    StridedOperand a, const double* b, std::size_t ldb,
                    double* c, std::size_t ldc);

// What GemmBias does to each element once its bias is added.
enum class Epilogue {
  kIdentity,  // keep x
  kRelu,      // x > 0.0 ? x : 0.0 (NaN and -0.0 give +0.0)
};

// The dense layer forward in one pass: c (m x n, row stride ldc) =
// epilogue(a · b + bias), bias a row of n. Element (i, j) starts at +0.0
// in a register, adds its rounded products in ascending k as
// GemmAccumulate does, then adds bias[j] and applies the epilogue. c is
// only written, so the result is bit for bit a zeroed c, GemmAccumulate,
// a row-broadcast bias add and the activation pass. c must not overlap a,
// b or bias.
void GemmBias(Width width, Epilogue epilogue, std::size_t m, std::size_t n,
              std::size_t k, StridedOperand a, const double* b,
              std::size_t ldb, const double* bias, double* c,
              std::size_t ldc);

// One Adam update over n parameters, lane by lane:
//   m = beta1·m + (1 − beta1)·g
//   v = beta2·v + ((1 − beta2)·g)·g
//   p −= (lr · (m / bias_correction1)) / (sqrt(v / bias_correction2) + eps)
// Packed div and sqrt round correctly, as the scalar ones do, so every
// width gives the scalar loop's doubles.
struct AdamCoefficients {
  double learning_rate;
  double beta1;
  double beta2;
  double epsilon;
  double bias_correction1;
  double bias_correction2;
};
void AdamUpdate(Width width, std::size_t n, double* params,
                const double* grads, double* m, double* v,
                const AdamCoefficients& coefficients);

}  // namespace jarvis::neural::kernels
