/**
 * @file
 * The host engine of every lowering (Sec. III: implicit im2col
 * only changes the address generation in front of an unchanged GEMM).
 * gatherGemm() runs the pointer-table micro-kernel (tensor::indirectTile)
 * over a PassPlan's taps; a lowering contributes only a producer that
 * points each (GEMM row, tap) at its operand values. All five
 * conv::Algorithm lowerings (explicit im2col's M x K workspace is one
 * more producer), grouped and sparse execution run here, so each is
 * value-identical to the others wherever their plans and gathered
 * values agree. The functional models stage the same producers pass by
 * pass (gatherPass(), passWeights()).
 */

#ifndef CFCONV_IM2COL_IMPLICIT_CONV_H
#define CFCONV_IM2COL_IMPLICIT_CONV_H

#include <functional>
#include <vector>

#include "im2col/pass_plan.h"
#include "tensor/conv_ref.h"
#include "tensor/im2col_explicit.h"

namespace cfconv::im2col {

/**
 * Points the micro-kernel at the operand of GEMM rows [m0, m1): entry
 * rows[t * ld + (m - m0)] gets the address of the tapDepth contiguous
 * values row m reads at @p taps[t], for exactly the taps asked, whether
 * all of a plan's or one pass's. A producer that addresses the input
 * points into it; one that computes values (a lowering) writes them to
 * @p panel, scratch its caller owns until the pointers are spent, and
 * points there. Producers are called from several workers at once.
 */
using TapPointers = std::function<void(const std::vector<FilterTile> &taps,
                                       Index m0, Index m1,
                                       const float **rows, Index ld,
                                       std::vector<float> &panel)>;

/**
 * out = A * B folded to the (N, C_O, H_O, W_O) OFMap, where B is the
 * filter flattened in tap order (tap t owns rows [t * tapDepth,
 * (t + 1) * tapDepth)), given as @p strips packed by packFilter() or
 * tensor::packColumnStrips(), and row m of A is @p plan's taps side by
 * side as @p point addresses them. Work units of 32 GEMM rows run under
 * parallelFor, each pointing its rows once and writing its 8x8 tiles
 * straight into the OFMap. Every output element accumulates tap by tap,
 * then channel by channel (tensor::indirectTile), so the bytes do not
 * depend on the thread count. Validates @p params and @p input before
 * pointing at anything.
 */
tensor::Tensor gatherGemm(const ConvParams &params,
                          const tensor::Tensor &input,
                          const PassPlan &plan,
                          const std::vector<float> &strips,
                          const TapPointers &point);

/**
 * B for the engine packed straight from @p filter, without a K x C_O
 * matrix: row k is filter(:, cols[k].ci, cols[k].r, cols[k].s). Checks
 * @p filter first (tensor::checkFilter).
 */
std::vector<float> packFilter(const ConvParams &params,
                              const tensor::Tensor &filter,
                              const std::vector<tensor::ColCoord> &cols);

/** The filter column of each depth row of C_I-deep @p taps: row
 *  t * C_I + ci reads (r_t, s_t, ci). */
std::vector<tensor::ColCoord> tapColumns(const ConvParams &params,
                                         const std::vector<FilterTile> &taps);

/** packFilter() in tapColumns() order. */
std::vector<float> tapStrips(const ConvParams &params,
                             const tensor::Tensor &filter,
                             const std::vector<FilterTile> &taps);

/**
 * The pixel producer every per-tap lowering shares: tap t of row m
 * points at the C_I channels of the input pixel the address function
 * names, in one HWC copy of @p input made here (the paper's on-chip
 * layout, each pixel stored once), or at a shared zero pixel in the
 * padding halo. Holds @p params by reference.
 */
TapPointers pixelGather(const ConvParams &params,
                        const tensor::Tensor &input);

/**
 * Copy pass @p pass of @p plan for GEMM rows [m0, m1) into @p panel
 * ((m1 - m0) x pass.depth(), row-major) through @p point: the pass's
 * taps side by side, each the depth slice [offset, offset + slice) of
 * the values @p point addresses. The A operand of the functional
 * models, which stage one pass at a time.
 */
void gatherPass(const TapPointers &point, const PassPlan &plan,
                const PlanPass &pass, Index m0, Index m1, float *panel);

/**
 * B of pass @p pass of @p plan (pass.depth() x C_O): row k is
 * filter(:, cols[first + k]), where @p cols names the filter column of
 * each depth row of the plan (conv::Algorithm::columns()) and first is
 * the pass's first depth row. A pass merges whole taps or slices one,
 * so its rows are contiguous. Checks @p filter (tensor::checkFilter).
 */
tensor::Matrix passWeights(const ConvParams &params,
                           const tensor::Tensor &filter,
                           const std::vector<tensor::ColCoord> &cols,
                           const PassPlan &plan, const PlanPass &pass);

} // namespace cfconv::im2col

#endif // CFCONV_IM2COL_IMPLICIT_CONV_H
