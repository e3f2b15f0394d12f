/**
 * @file
 * The host engine of every lowering (Sec. III: implicit im2col
 * only changes the address generation in front of an unchanged GEMM).
 * gatherGemm() runs the pointer-table micro-kernel (tensor::indirectTile)
 * over a PassPlan's taps; a lowering contributes only a producer that
 * points each (GEMM row, tap) at its operand values. All five
 * conv::Algorithm lowerings (explicit im2col's M x K workspace is one
 * more producer), multi-tile, sparse and deformable execution run here,
 * so each is value-identical to the others wherever their plans and
 * gathered values agree.
 */

#ifndef CFCONV_IM2COL_IMPLICIT_CONV_H
#define CFCONV_IM2COL_IMPLICIT_CONV_H

#include <functional>
#include <vector>

#include "im2col/pass_plan.h"
#include "im2col/reorder.h"
#include "tensor/conv_ref.h"
#include "tensor/im2col_explicit.h"

namespace cfconv::im2col {

/**
 * Points the micro-kernel at the operand of GEMM rows [m0, m1): entry
 * rows[t * ld + (m - m0)] gets the address of the tapDepth contiguous
 * values row m reads at tap t. A producer that addresses the input
 * points into it; one that computes values (a lowering, an
 * interpolation) writes them to @p panel, scratch its caller owns until
 * the pointers are spent, and points there. Producers are called from
 * several workers at once.
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

/** Validate @p params and check that @p input is (N, C_I, H_I, W_I);
 *  the error names the first dimension that does not match. */
void checkInput(const ConvParams &params, const tensor::Tensor &input);

/**
 * B for the engine packed straight from @p filter, without a K x C_O
 * matrix: row k is filter(:, cols[k].ci, cols[k].r, cols[k].s). Checks
 * @p filter first (tensor::checkFilter).
 */
std::vector<float> packFilter(const ConvParams &params,
                              const tensor::Tensor &filter,
                              const std::vector<tensor::ColCoord> &cols);

/** packFilter() for C_I-deep @p taps, rows laid out as tapWeights()
 *  lays them out. */
std::vector<float> tapStrips(const ConvParams &params,
                             const tensor::Tensor &filter,
                             const std::vector<FilterTile> &taps);

/** B for C_I-deep @p taps: row t * C_I + ci of tap t is
 *  filter(:, ci, r_t, s_t). Checks @p filter (tensor::checkFilter). */
tensor::Matrix tapWeights(const ConvParams &params,
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
 * Copy @p taps' operand for GEMM rows [m0, m1) side by side into
 * @p panel (row m at panel + (m - m0) * ld, tap t at column t * depth)
 * through @p point's pointers: the value panel of the functional models
 * that need one.
 */
void gatherPanel(const TapPointers &point,
                 const std::vector<FilterTile> &taps, Index depth,
                 Index m0, Index m1, float *panel, Index ld);

/** Execution statistics of convImplicit(), read off its passes. */
struct ImplicitConvStats
{
    Index tileGemms = 0;        ///< number of (merged) GEMM passes
    Index fillElems = 0;        ///< input elements brought "on chip"
    Index peakWorkspace = 0;    ///< peak merged-operand elements
    Flops macFlops = 0;         ///< multiply-accumulate FLOPs executed
};

/** Knobs of convImplicit(). */
struct ImplicitConvOptions
{
    Index tilesPerGroup = 1;            ///< multi-tile parameter T
    TileOrder order = TileOrder::Naive; ///< tile execution order
};

/**
 * Channel-first implicit convolution: the channel-first plan over
 * orderTiles(options.order). Functionally equivalent to
 * tensor::convDirect for every legal ConvParams (incl. stride, padding,
 * dilation). @p stats, when non-null, receives the statistics of the
 * plan's passes with tilesPerGroup taps merged per pass; the host
 * engine keeps every tap's sum in registers, so the output bytes do not
 * depend on tilesPerGroup.
 */
tensor::Tensor convImplicit(const ConvParams &params,
                            const tensor::Tensor &input,
                            const tensor::Tensor &filter,
                            const ImplicitConvOptions &options = {},
                            ImplicitConvStats *stats = nullptr);

/**
 * Convenience: implicit convolution with the TPU's inferred multi-tile
 * strategy for a given systolic-array height.
 */
tensor::Tensor convImplicitTpuStrategy(const ConvParams &params,
                                       const tensor::Tensor &input,
                                       const tensor::Tensor &filter,
                                       Index array_rows,
                                       ImplicitConvStats *stats = nullptr);

} // namespace cfconv::im2col

#endif // CFCONV_IM2COL_IMPLICIT_CONV_H
