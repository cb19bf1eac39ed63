#include "neural/kernels.h"

#include <cmath>
#include <cstring>

#include "util/check.h"

#if defined(__x86_64__) || defined(__i386__)
#define JARVIS_KERNELS_X86 1
#else
#define JARVIS_KERNELS_X86 0
#endif

namespace jarvis::neural::kernels {

namespace {

// GCC/Clang vector extensions: element-wise +, * and scalar broadcast,
// lowered to whatever the enclosing function's target provides. A 32- or
// 64-byte type must only ever be used inside a target("avx2") or
// target("avx512f") function — compiled without that target it is split
// into spilled halves and runs several times slower — so every helper
// below is always_inline and gets its code from the width-specific entry
// point it is inlined into.
using V2 = double __attribute__((vector_size(16)));
using V4 = double __attribute__((vector_size(32)));
using V8 = double __attribute__((vector_size(64)));

template <class V>
constexpr std::size_t kLanes = sizeof(V) / sizeof(double);

constexpr std::size_t kTileRows = 4;
constexpr std::size_t kTileVectors = 2;

// Where a tile's accumulators start and what its store does: continue
// C's chain (GemmAccumulate), or start from +0.0 and store
// epilogue(acc + bias) (GemmBias).
enum class Mode { kAccumulate, kBias, kBiasRelu };

StridedOperand RowsFrom(StridedOperand a, std::size_t first_row) {
  return {a.data + first_row * a.row_stride, a.row_stride, a.k_stride};
}

// The bias row from column j on; GemmAccumulate has none (and offsetting
// its null pointer would be undefined).
template <Mode M>
const double* BiasFrom(const double* bias, std::size_t j) {
  if constexpr (M == Mode::kAccumulate) {
    return nullptr;
  } else {
    return bias + j;
  }
}

// The micro-kernel: an R-row x NV-vector block of C stays in registers
// while the k loop streams one row of B and one column of A per step. Each
// accumulator starts from C's current value (kAccumulate) or from +0.0
// and adds its rounded products in ascending k. The bias modes then add
// the bias (acc + bias, AddRowBroadcast's operand order) and, for ReLU,
// keep acc > 0.0 ? acc : 0.0 — ApplyInPlace's expression — before the one
// store. V = double gives the scalar column tail.
template <class V, std::size_t R, std::size_t NV, Mode M>
[[gnu::always_inline]] inline void Tile(std::size_t k, StridedOperand a,
                                        const double* b, std::size_t ldb,
                                        const double* bias, double* c,
                                        std::size_t ldc) {
  constexpr std::size_t kW = kLanes<V>;
  V acc[R][NV];
#pragma GCC unroll 4
  for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (std::size_t v = 0; v < NV; ++v) {
      if constexpr (M == Mode::kAccumulate) {
        std::memcpy(&acc[r][v], c + r * ldc + v * kW, sizeof(V));
      } else {
        acc[r][v] = V{};
      }
    }
  }
  for (std::size_t p = 0; p < k; ++p) {
    const double* b_row = b + p * ldb;
    const double* a_col = a.data + p * a.k_stride;
    V bv[NV];
#pragma GCC unroll 2
    for (std::size_t v = 0; v < NV; ++v) {
      std::memcpy(&bv[v], b_row + v * kW, sizeof(V));
    }
#pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) {
      const double x = a_col[r * a.row_stride];
#pragma GCC unroll 2
      for (std::size_t v = 0; v < NV; ++v) acc[r][v] += x * bv[v];
    }
  }
  if constexpr (M != Mode::kAccumulate) {
    V bias_v[NV];
#pragma GCC unroll 2
    for (std::size_t v = 0; v < NV; ++v) {
      std::memcpy(&bias_v[v], bias + v * kW, sizeof(V));
    }
    const V zero{};
#pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 2
      for (std::size_t v = 0; v < NV; ++v) {
        acc[r][v] += bias_v[v];
        if constexpr (M == Mode::kBiasRelu) {
          acc[r][v] = acc[r][v] > zero ? acc[r][v] : zero;
        }
      }
    }
  }
#pragma GCC unroll 4
  for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (std::size_t v = 0; v < NV; ++v) {
      std::memcpy(c + r * ldc + v * kW, &acc[r][v], sizeof(V));
    }
  }
}

// One column panel (NV vectors wide) over all m rows: full 4-row tiles,
// then a 1-3 row tail.
template <class V, std::size_t NV, Mode M>
[[gnu::always_inline]] inline void Panel(std::size_t m, std::size_t k,
                                         StridedOperand a, const double* b,
                                         std::size_t ldb, const double* bias,
                                         double* c, std::size_t ldc) {
  std::size_t i = 0;
  for (; i + kTileRows <= m; i += kTileRows) {
    Tile<V, kTileRows, NV, M>(k, RowsFrom(a, i), b, ldb, bias, c + i * ldc,
                              ldc);
  }
  const StridedOperand tail = RowsFrom(a, i);
  double* c_tail = c + i * ldc;
  switch (m - i) {
    case 3:
      Tile<V, 3, NV, M>(k, tail, b, ldb, bias, c_tail, ldc);
      break;
    case 2:
      Tile<V, 2, NV, M>(k, tail, b, ldb, bias, c_tail, ldc);
      break;
    case 1:
      Tile<V, 1, NV, M>(k, tail, b, ldb, bias, c_tail, ldc);
      break;
    default:
      break;
  }
}

// The whole product at vector type V. Columns go in panels of
// kTileVectors vectors (the B panel stays in L1 across every row of A),
// then one V, then the narrower vectors in turn (8 -> 4 -> 2 lanes), then
// scalars.
template <class V, Mode M>
[[gnu::always_inline]] inline void Gemm(std::size_t m, std::size_t n,
                                        std::size_t k, StridedOperand a,
                                        const double* b, std::size_t ldb,
                                        const double* bias, double* c,
                                        std::size_t ldc) {
  constexpr std::size_t kW = kLanes<V>;
  std::size_t j = 0;
  for (; j + kTileVectors * kW <= n; j += kTileVectors * kW) {
    Panel<V, kTileVectors, M>(m, k, a, b + j, ldb, BiasFrom<M>(bias, j),
                              c + j, ldc);
  }
  if (j + kW <= n) {
    Panel<V, 1, M>(m, k, a, b + j, ldb, BiasFrom<M>(bias, j), c + j, ldc);
    j += kW;
  }
  if constexpr (kW > kLanes<V4>) {
    if (j + kLanes<V4> <= n) {
      Panel<V4, 1, M>(m, k, a, b + j, ldb, BiasFrom<M>(bias, j), c + j, ldc);
      j += kLanes<V4>;
    }
  }
  if constexpr (kW > kLanes<V2>) {
    if (j + kLanes<V2> <= n) {
      Panel<V2, 1, M>(m, k, a, b + j, ldb, BiasFrom<M>(bias, j), c + j, ldc);
      j += kLanes<V2>;
    }
  }
  for (; j < n; ++j) {
    Panel<double, 1, M>(m, k, a, b + j, ldb, BiasFrom<M>(bias, j), c + j,
                        ldc);
  }
}

// Every mode at vector type V, for the width-specific entry points.
template <class V>
[[gnu::always_inline]] inline void GemmAt(Mode mode, std::size_t m,
                                          std::size_t n, std::size_t k,
                                          StridedOperand a, const double* b,
                                          std::size_t ldb, const double* bias,
                                          double* c, std::size_t ldc) {
  switch (mode) {
    case Mode::kAccumulate:
      Gemm<V, Mode::kAccumulate>(m, n, k, a, b, ldb, bias, c, ldc);
      return;
    case Mode::kBias:
      Gemm<V, Mode::kBias>(m, n, k, a, b, ldb, bias, c, ldc);
      return;
    case Mode::kBiasRelu:
      Gemm<V, Mode::kBiasRelu>(m, n, k, a, b, ldb, bias, c, ldc);
      return;
  }
}

// Lane-wise Adam. The restrict-qualified streams and hoisted coefficients
// let the vectorizer run it at the enclosing target's width; -fno-math-errno
// lets std::sqrt become a packed sqrt.
[[gnu::always_inline]] inline void Adam(std::size_t n,
                                        double* __restrict params,
                                        const double* __restrict grads,
                                        double* __restrict m,
                                        double* __restrict v,
                                        const AdamCoefficients& co) {
  const double lr = co.learning_rate;
  const double beta1 = co.beta1;
  const double beta2 = co.beta2;
  const double one_minus_beta1 = 1.0 - co.beta1;
  const double one_minus_beta2 = 1.0 - co.beta2;
  const double epsilon = co.epsilon;
  const double bc1 = co.bias_correction1;
  const double bc2 = co.bias_correction2;
  for (std::size_t i = 0; i < n; ++i) {
    const double g = grads[i];
    const double m_i = beta1 * m[i] + one_minus_beta1 * g;
    const double v_i = beta2 * v[i] + one_minus_beta2 * g * g;
    m[i] = m_i;
    v[i] = v_i;
    const double m_hat = m_i / bc1;
    const double v_hat = v_i / bc2;
    params[i] -= lr * m_hat / (std::sqrt(v_hat) + epsilon);
  }
}

// The width-specific entry points: the only functions the helpers above
// are compiled into.
void GemmBaseline(Mode mode, std::size_t m, std::size_t n, std::size_t k,
                  StridedOperand a, const double* b, std::size_t ldb,
                  const double* bias, double* c, std::size_t ldc) {
  GemmAt<V2>(mode, m, n, k, a, b, ldb, bias, c, ldc);
}

void AdamBaseline(std::size_t n, double* params, const double* grads,
                  double* m, double* v, const AdamCoefficients& co) {
  Adam(n, params, grads, m, v, co);
}

#if JARVIS_KERNELS_X86
// target("avx2") adds AVX and AVX2 only — not FMA — so with
// -ffp-contract=off every product is rounded before its add.
__attribute__((target("avx2"))) void GemmAvx2(
    Mode mode, std::size_t m, std::size_t n, std::size_t k, StridedOperand a,
    const double* b, std::size_t ldb, const double* bias, double* c,
    std::size_t ldc) {
  GemmAt<V4>(mode, m, n, k, a, b, ldb, bias, c, ldc);
}

// AVX-512F does carry FMA instructions; -ffp-contract=off is what keeps
// the compiler from fusing a product into its add here.
__attribute__((target("avx512f"))) void GemmAvx512(
    Mode mode, std::size_t m, std::size_t n, std::size_t k, StridedOperand a,
    const double* b, std::size_t ldb, const double* bias, double* c,
    std::size_t ldc) {
  GemmAt<V8>(mode, m, n, k, a, b, ldb, bias, c, ldc);
}

__attribute__((target("avx2"))) void AdamAvx2(std::size_t n, double* params,
                                              const double* grads, double* m,
                                              double* v,
                                              const AdamCoefficients& co) {
  Adam(n, params, grads, m, v, co);
}
#endif

void RunGemm(Width width, Mode mode, std::size_t m, std::size_t n,
             std::size_t k, StridedOperand a, const double* b,
             std::size_t ldb, const double* bias, double* c,
             std::size_t ldc) {
  JARVIS_DCHECK(WidthSupported(width), "kernels: this CPU cannot run ",
                WidthName(width));
#if JARVIS_KERNELS_X86
  switch (width) {
    case Width::kAvx512:
      GemmAvx512(mode, m, n, k, a, b, ldb, bias, c, ldc);
      return;
    case Width::kAvx2:
      GemmAvx2(mode, m, n, k, a, b, ldb, bias, c, ldc);
      return;
    case Width::kBaseline:
      break;
  }
#endif
  JARVIS_CHECK(width == Width::kBaseline, "kernels: width ", WidthName(width),
               " not built");
  GemmBaseline(mode, m, n, k, a, b, ldb, bias, c, ldc);
}

}  // namespace

const char* WidthName(Width width) {
  switch (width) {
    case Width::kAvx512:
      return "avx512";
    case Width::kAvx2:
      return "avx2";
    case Width::kBaseline:
      break;
  }
  return "baseline";
}

bool WidthSupported(Width width) {
#if JARVIS_KERNELS_X86
  switch (width) {
    case Width::kAvx512:
      return __builtin_cpu_supports("avx512f") != 0;
    case Width::kAvx2:
      return __builtin_cpu_supports("avx2") != 0;
    case Width::kBaseline:
      break;
  }
#endif
  return width == Width::kBaseline;
}

Width BestWidth() {
  for (const Width width : {Width::kAvx512, Width::kAvx2}) {
    if (WidthSupported(width)) return width;
  }
  return Width::kBaseline;
}

void GemmAccumulate(Width width, std::size_t m, std::size_t n, std::size_t k,
                    StridedOperand a, const double* b, std::size_t ldb,
                    double* c, std::size_t ldc) {
  // Nothing to add; an empty operand's data pointer may be null, and
  // offsetting null is undefined.
  if (m == 0 || n == 0 || k == 0) return;
  RunGemm(width, Mode::kAccumulate, m, n, k, a, b, ldb, nullptr, c, ldc);
}

void GemmBias(Width width, Epilogue epilogue, std::size_t m, std::size_t n,
              std::size_t k, StridedOperand a, const double* b,
              std::size_t ldb, const double* bias, double* c,
              std::size_t ldc) {
  if (m == 0 || n == 0) return;
  // An empty product's operands may have null data, which the column
  // offsets would then offset.
  JARVIS_CHECK(k > 0, "GemmBias: empty inner dimension");
  RunGemm(width, epilogue == Epilogue::kRelu ? Mode::kBiasRelu : Mode::kBias,
          m, n, k, a, b, ldb, bias, c, ldc);
}

void AdamUpdate(Width width, std::size_t n, double* params,
                const double* grads, double* m, double* v,
                const AdamCoefficients& coefficients) {
  JARVIS_DCHECK(WidthSupported(width), "AdamUpdate: this CPU cannot run ",
                WidthName(width));
#if JARVIS_KERNELS_X86
  // The update is bound by div and sqrt throughput, and 8 lanes measured
  // no faster than 4 (DESIGN.md §12), so AVX-512 runs the AVX2 loop.
  if (width == Width::kAvx512 || width == Width::kAvx2) {
    AdamAvx2(n, params, grads, m, v, coefficients);
    return;
  }
#endif
  JARVIS_CHECK(width == Width::kBaseline, "AdamUpdate: width ",
               WidthName(width), " not built");
  AdamBaseline(n, params, grads, m, v, coefficients);
}

}  // namespace jarvis::neural::kernels
