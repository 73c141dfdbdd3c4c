// The transform-domain channel reduction of one Winograd tile, used by
// the fp32 and int8 reducers of the shared tile walk
// (winograd/tile_walk.hpp; instantiated in winograd/kernels.cpp and
// quant/int8.cpp): acc[i] = sum over ascending c of u_c[i] * v_c[i], each
// chain starting at 0 — the per-element order of the reference walk
// conv2d_winograd.
//
// The fp32 instantiation must only be made in winograd/kernels.cpp,
// which is built with -ffp-contract=off so its multiply-adds round like
// the reference walk's.
#pragma once

#include <algorithm>
#include <cstddef>

namespace wino::winograd {

/// `u` and `v` hold C consecutive n*n tiles. With N = nsq known at compile
/// time the n*n accumulators stay in registers for the whole channel loop;
/// N = 0 is the runtime-n fallback, accumulating in `acc` itself.
template <std::size_t N, typename T, typename Acc>
void accumulate_tile(const T* u, const T* v, std::size_t channels,
                     std::size_t nsq, Acc* acc) {
  if constexpr (N == 0) {
    std::fill(acc, acc + nsq, Acc{0});
    for (std::size_t c = 0; c < channels; ++c, u += nsq, v += nsq) {
      for (std::size_t i = 0; i < nsq; ++i) {
        acc[i] += static_cast<Acc>(u[i]) * static_cast<Acc>(v[i]);
      }
    }
  } else {
    Acc a[N] = {};
    for (std::size_t c = 0; c < channels; ++c, u += N, v += N) {
      for (std::size_t i = 0; i < N; ++i) {
        a[i] += static_cast<Acc>(u[i]) * static_cast<Acc>(v[i]);
      }
    }
    std::copy(a, a + N, acc);
  }
}

template <typename T, typename Acc>
using AccumulateFn = void (*)(const T*, const T*, std::size_t, std::size_t,
                              Acc*);

/// The reduction for tiles of `nsq` values: a register-resident one for
/// n*n in {16, 25, 36} — F(2,3), F(3,3), F(4,3) and F(2,5) — else the
/// runtime-n loop.
template <typename T, typename Acc>
AccumulateFn<T, Acc> accumulate_for(std::size_t nsq) {
  switch (nsq) {
    case 16:
      return accumulate_tile<16, T, Acc>;
    case 25:
      return accumulate_tile<25, T, Acc>;
    case 36:
      return accumulate_tile<36, T, Acc>;
    default:
      return accumulate_tile<0, T, Acc>;
  }
}

}  // namespace wino::winograd
