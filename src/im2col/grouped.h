/**
 * @file
 * Grouped and depthwise convolution via the channel-first algorithm.
 * A grouped convolution is G independent convolutions over channel
 * slices; each slice reuses the whole existing machinery. Depthwise
 * convolution (G = C_I) is the stress case for the paper's design:
 * each decomposed 1x1 "conv" occupies a single systolic row, which the
 * multi-tile optimization can only partially recover — an honest
 * limitation this module characterizes.
 */

#ifndef CFCONV_IM2COL_GROUPED_H
#define CFCONV_IM2COL_GROUPED_H

#include "im2col/pass_plan.h"
#include "tensor/tensor.h"

namespace cfconv::im2col {

/** Geometry of one grouped convolution. */
struct GroupedConvParams
{
    ConvParams base; ///< full-layer geometry (C_I, C_O of all groups)
    Index groups = 1;

    /** Per-group geometry: C_I/G in, C_O/G out. */
    ConvParams groupParams() const;

    /** base.validate(groups): fatal unless tensor::checkLayer()
     *  accepts the layer with this group count. */
    void validate() const;

    /** Total MAC FLOPs: 2 * M * (K/G) * N. */
    Flops flops() const;
};

/** Direct grouped convolution reference. */
tensor::Tensor convGroupedDirect(const GroupedConvParams &params,
                                 const tensor::Tensor &input,
                                 const tensor::Tensor &filter);

/**
 * Grouped convolution via the channel-first plan on the host engine
 * (gatherGemm), one group slice at a time: each slice's bytes are
 * channel-first execute()'s. @p filter has dims (C_O, C_I/G, H_F, W_F).
 */
tensor::Tensor convGroupedImplicit(const GroupedConvParams &params,
                                   const tensor::Tensor &input,
                                   const tensor::Tensor &filter);

/**
 * Systolic-row occupancy of one grouped pass under the TPU strategy:
 * min(1, T * (C_I/G) / rows). Depthwise layers expose the
 * under-utilization the multi-tile optimization fights.
 */
double groupedRowOccupancy(const GroupedConvParams &params,
                           Index array_rows);

} // namespace cfconv::im2col

#endif // CFCONV_IM2COL_GROUPED_H
