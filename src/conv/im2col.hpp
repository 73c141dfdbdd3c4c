// im2col + GEMM convolution baseline: lowers the convolution to one matrix
// multiply per image, the classic approach used by GPU/CPU BLAS backends
// the paper contrasts fast algorithms with. The matrix multiply runs on
// the shared cache-blocked SIMD core in runtime/gemm.hpp (no BLAS
// dependency).
#pragma once

#include <span>

#include "conv/spatial.hpp"
#include "tensor/tensor.hpp"

namespace wino::conv {

/// C = A (rows x inner) * B (inner x cols), row-major, overwriting c.
/// Thin span-checked wrapper over runtime::sgemm.
void gemm(std::span<const float> a, std::span<const float> b,
          std::span<float> c, std::size_t rows, std::size_t inner,
          std::size_t cols);

/// Lower one image of the NCHW input into the (C*r*r) x (outH*outW) patch
/// matrix. Exposed for tests.
void im2col(const tensor::Tensor4f& input, std::size_t image, std::size_t r,
            int pad, int stride, std::span<float> out_patches);

/// im2col with per-dimension (possibly asymmetric) padding.
void im2col(const tensor::Tensor4f& input, std::size_t image, std::size_t r,
            int pad_h, int pad_w, int stride, std::span<float> out_patches);

/// As above over a non-owning NCHW view — the core implementation; the
/// Tensor4f overloads delegate here. Lets the workspace executor lower
/// slab-backed activations without materialising an owning tensor.
void im2col(const tensor::Tensor4fView& input, std::size_t image,
            std::size_t r, int pad_h, int pad_w, int stride,
            std::span<float> out_patches);

/// Convolution via im2col lowering; numerically equivalent to
/// conv2d_spatial up to float accumulation order.
tensor::Tensor4f conv2d_im2col(const tensor::Tensor4f& input,
                               const tensor::Tensor4f& kernels,
                               const SpatialConvOptions& opt = {});

}  // namespace wino::conv
