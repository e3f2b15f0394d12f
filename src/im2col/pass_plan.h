/**
 * @file
 * The backend-neutral pass plan: which lowered columns feed the GEMM,
 * in what order, grouped how, and from which memory footprint. Every
 * conv::Algorithm describes itself as one; TpuSim and GpuSim schedule
 * it, and the host engine (im2col/implicit_conv.h) executes it. Multi-
 * tile merging (Sec. IV-B) is PassPlan::passes()'s grouping and exists
 * nowhere else.
 */

#ifndef CFCONV_IM2COL_PASS_PLAN_H
#define CFCONV_IM2COL_PASS_PLAN_H

#include <vector>

#include "im2col/filter_decomp.h"

namespace cfconv::im2col {

/**
 * Where a pass's lowered operand comes from, which decides how each
 * backend prices its fills.
 */
enum class FeedLocality {
    TileGather,    ///< each tap's strided input footprint (channel-first)
    UnionGather,   ///< the union of all receptive fields, stride-blind
    PointerGather, ///< C_I-deep pixel rows through a pointer table
    Contiguous,    ///< shifted input blocks read as sequential runs
    Workspace,     ///< a lowered matrix materialized in DRAM first
};

/**
 * One array pass of a plan: @p taps consecutive taps side by side
 * (multi-tile merging), each contributing the depth slice
 * [offset, offset + slice) of its tapDepth.
 */
struct PlanPass
{
    Index firstTap = 0; ///< index into PassPlan::taps
    Index taps = 1;     ///< taps merged into this pass
    Index offset = 0;   ///< first depth index of the slice in each tap
    Index slice = 0;    ///< depth each tap contributes to this pass

    /** Rows (TPU) or k-step depth (GPU) the pass occupies. */
    Index depth() const { return taps * slice; }
};

/**
 * Backend-neutral pass structure of one lowering on one layer. The
 * simulators schedule plans; they never branch on the algorithm itself.
 */
struct PassPlan
{
    /** Ordered filter taps; a scheme that walks all of gemmK as one
     *  column block (channel-last, explicit) has a single tap. */
    std::vector<FilterTile> taps;
    Index tapDepth = 0;     ///< GEMM depth each tap contributes
    bool mergeable = false; ///< taps may share a pass (multi-tile)
    FeedLocality feed = FeedLocality::TileGather;
    /** Side-table bytes streamed per (GEMM row, tap). */
    Bytes metadataBytesPerRowTap = 0;
    /** DRAM bytes the lowering moves before the GEMM can start (IFMap
     *  read + workspace write); zero for the implicit schemes. */
    Bytes transformBytes = 0;

    /**
     * Split the plan into passes no deeper than @p max_depth: whole
     * taps when one fits, grouped @p merge at a time in tap order;
     * otherwise each tap chunked by depth. Merging needs a mergeable
     * plan with merge * tapDepth <= max_depth.
     */
    std::vector<PlanPass> passes(Index max_depth, Index merge = 1) const;

    /** Side-table bytes streamed for a GEMM of @p rows rows. */
    Bytes
    metadataBytes(Index rows) const
    {
        return static_cast<Bytes>(rows) *
               static_cast<Bytes>(taps.size()) * metadataBytesPerRowTap;
    }
};

/**
 * The channel-first plan (Sec. III-B) over @p taps: one C_I-deep
 * decomposed 1x1 convolution per tap, mergeable into multi-tile passes.
 */
PassPlan channelFirstPlan(const ConvParams &params,
                          std::vector<FilterTile> taps);

/**
 * The multi-tile parameter the paper infers the TPU uses:
 * T = MIN(array_rows / C_I, W_F), floored at 1 (Sec. VII-A, Fig 14b).
 */
Index tpuMultiTileParam(Index array_rows, const ConvParams &params);

/**
 * Systolic-row occupancy of one group's pass under the TPU strategy,
 * for @p params run @p groups-way grouped: min(1, T * (C_I/G) / rows),
 * T the tpuMultiTileParam() of the group's slice. It describes the
 * unpacked schedule, one group per pass; tpusim::TpuSim packs slices
 * block-diagonally. Depthwise layers expose the under-utilization the
 * multi-tile optimization fights. Fatal unless tensor::checkLayer()
 * accepts the layer with @p groups.
 */
double groupedRowOccupancy(const ConvParams &params, Index groups,
                           Index array_rows);

} // namespace cfconv::im2col

#endif // CFCONV_IM2COL_PASS_PLAN_H
