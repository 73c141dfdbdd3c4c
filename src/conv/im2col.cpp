#include "conv/im2col.hpp"

#include <stdexcept>
#include <vector>

#include "runtime/gemm.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/layout.hpp"

namespace wino::conv {

using tensor::Tensor4f;

void gemm(std::span<const float> a, std::span<const float> b,
          std::span<float> c, std::size_t rows, std::size_t inner,
          std::size_t cols) {
  if (a.size() != rows * inner || b.size() != inner * cols ||
      c.size() != rows * cols) {
    throw std::invalid_argument("gemm: size mismatch");
  }
  runtime::sgemm(rows, cols, inner, 1.0F, a.data(), inner, b.data(), cols,
                 0.0F, c.data(), cols);
}

void im2col(const Tensor4f& input, std::size_t image, std::size_t r, int pad,
            int stride, std::span<float> out_patches) {
  im2col(input, image, r, pad, pad, stride, out_patches);
}

void im2col(const Tensor4f& input, std::size_t image, std::size_t r,
            int pad_h, int pad_w, int stride, std::span<float> out_patches) {
  im2col(tensor::Tensor4fView(input.shape(), input.flat()), image, r, pad_h,
         pad_w, stride, out_patches);
}

void im2col(const tensor::Tensor4fView& input, std::size_t image,
            std::size_t r, int pad_h, int pad_w, int stride,
            std::span<float> out_patches) {
  const auto& is = input.shape();
  const std::size_t out_h = conv_out_extent(is.h, r, pad_h, stride);
  const std::size_t out_w = conv_out_extent(is.w, r, pad_w, stride);
  const std::size_t patch_rows = is.c * r * r;
  const std::size_t patch_cols = out_h * out_w;
  if (out_patches.size() != patch_rows * patch_cols) {
    throw std::invalid_argument("im2col: output span size mismatch");
  }
  // One patch row per (c, u, v); chunks of rows write disjoint slices of
  // the output. The lowering itself lives in tensor::im2col_lower_rows,
  // shared with tensor::pack so the panel layout has exactly one
  // definition.
  runtime::parallel_for(patch_rows, [&](std::size_t begin, std::size_t end) {
    tensor::im2col_lower_rows(
        input, image, r, pad_h, pad_w, stride, begin, end, out_h, out_w,
        out_patches.subspan(begin * patch_cols, (end - begin) * patch_cols));
  });
}

Tensor4f conv2d_im2col(const Tensor4f& input, const Tensor4f& kernels,
                       const SpatialConvOptions& opt) {
  const auto& is = input.shape();
  const auto& ks = kernels.shape();
  if (ks.c != is.c) {
    throw std::invalid_argument("conv2d_im2col: channel mismatch");
  }
  if (ks.h != ks.w) {
    throw std::invalid_argument("conv2d_im2col: non-square kernel");
  }
  const std::size_t r = ks.h;
  const int pad_h = opt.eff_pad_h();
  const int pad_w = opt.eff_pad_w();
  const std::size_t out_h = conv_out_extent(is.h, r, pad_h, opt.stride);
  const std::size_t out_w = conv_out_extent(is.w, r, pad_w, opt.stride);
  const std::size_t inner = is.c * r * r;
  const std::size_t cols = out_h * out_w;

  // Kernel bank flattened as K x (C*r*r); kernels are stored KCrr
  // contiguously, so the flat view is already the GEMM A matrix.
  std::span<const float> a = kernels.flat();

  // One image at a time, so one patch panel serves the whole batch: the
  // per-image im2col and sgemm each fan out over the pool, and each
  // image's GEMM writes its K x out_h*out_w slice of the NCHW output in
  // place (sgemm with beta = 0 never reads C). The values are the
  // thread-invariant per-image results.
  Tensor4f out(is.n, ks.n, out_h, out_w);
  std::vector<float> patches(inner * cols);
  const std::span<float> o = out.flat();
  for (std::size_t img = 0; img < is.n; ++img) {
    im2col(input, img, r, pad_h, pad_w, opt.stride, patches);
    gemm(a, patches, o.subspan(img * ks.n * cols, ks.n * cols), ks.n, inner,
         cols);
  }
  return out;
}

}  // namespace wino::conv
