/**
 * @file
 * TPUSim: the configurable tile-level TPU performance simulator
 * (Sec. VI). Schedules any conv::Algorithm pass plan onto the systolic
 * array with one loop: depth chunked by array rows, taps merged by the
 * multi-tile rule (Sec. IV-B), fills priced by the plan's feed locality
 * (banked DRAM model for gathers, HWCN vector-memory layout) and timed
 * on conv::OverlapSchedule, the overlap rule GpuSim shares (a memo-cache
 * hit draws no timeline). The paper's channel-first algorithm, the
 * channel-last and explicit-im2col baselines (Figs 2b, 4b, 8b) and the
 * IndirectConv/SMM-Conv zoo additions all run through it.
 */

#ifndef CFCONV_TPUSIM_TPU_SIM_H
#define CFCONV_TPUSIM_TPU_SIM_H

#include <vector>

#include "conv/algorithm.h"
#include "conv/schedule.h"
#include "tensor/conv_params.h"
#include "tensor/layout.h"
#include "tpusim/tpu_config.h"

namespace cfconv::tpusim {

using tensor::ConvParams;

/** Per-run knobs. */
struct TpuRunOptions
{
    /** The lowering scheme whose pass plan the core schedules. The id
     *  is serialized into layer memo-cache keys. */
    conv::AlgorithmId algorithm = conv::AlgorithmId::ChannelFirst;
    /** 0 = use the inferred TPU strategy MIN(rows/C_I, W_F). */
    Index multiTileOverride = 0;
    /** DRAM layout of the IFMap. */
    tensor::Layout dramLayout = tensor::Layout::HWCN;
    /**
     * Seconds spent on the explicit transformation (Explicit algorithm
     * only); the paper estimates this from GPU measurements for Fig 2b.
     */
    double explicitTransformSeconds = 0.0;
    /**
     * Rewrite shallow stride-2k first layers with space-to-depth
     * before mapping (what production TPU stacks do for C_I = 3
     * stems); quadruples systolic-row occupancy per pass.
     */
    bool spaceToDepthFirstLayer = false;
};

/** Result of simulating one layer (or one GEMM). */
struct TpuLayerResult
{
    Cycles cycles = 0;
    double seconds = 0.0;
    /** Useful TFLOPS; over TpuConfig::peakTflops(), which counts
     *  every MXU, it is the layer's utilization. */
    double tflops = 0.0;
    Bytes dramBytes = 0;           ///< total off-chip traffic
    Index multiTile = 1;           ///< multi-tile parameter used
    double portUtilization = 0.0;  ///< vector-memory port busy fraction
    Bytes peakOnChipBytes = 0;     ///< peak IFMap workspace on chip
    Index vecMemOps = 0;           ///< vector-memory word accesses
    conv::TimeBreakdown breakdown; ///< where the `cycles` went
};

/** The TPU performance simulator. */
class TpuSim
{
  public:
    explicit TpuSim(const TpuConfig &config);

    const TpuConfig &config() const { return config_; }

    /** Simulate one convolution layer. */
    TpuLayerResult runConv(const ConvParams &params,
                           const TpuRunOptions &options = {}) const;

    /**
     * Simulate a grouped convolution mapped block-diagonally: each
     * weight-stationary pass packs as many group slices as fit in the
     * array (rows and columns), so depthwise layers cost
     * ~H_F*W_F * ceil(C_I/rows) passes instead of one GEMM per
     * channel. Wasted MACs (the off-diagonal zeros) show up as low
     * utilization, which is the honest depthwise penalty. A layer that
     * fails base.validate(groups) is fatal.
     */
    TpuLayerResult runGroupedConv(const ConvParams &base, Index groups,
                                  const TpuRunOptions &options =
                                      {}) const;

    /** Simulate a plain GEMM (validation microbenchmarks, Fig 13a). */
    TpuLayerResult runGemm(Index m, Index k, Index n,
                           DataType dtype = DataType::Bf16) const;

  private:
    /** One schedulable unit: a DRAM fill followed by compute passes. */
    struct Unit
    {
        Cycles compute = 0;
        Cycles fill = 0;
        Index portOps = 0; ///< vector-memory reads+writes in this unit
    };

    /** runConv body, bypassing the layer memo cache. */
    TpuLayerResult runConvUncached(const ConvParams &params,
                                   const TpuRunOptions &options) const;

    /** Time @p units on the overlap schedule; @p label() names its
     *  timeline. */
    template <typename LabelFn>
    TpuLayerResult scheduleUnits(const std::vector<Unit> &units,
                                 Flops total_flops, LabelFn &&label) const;

    Cycles dramCycles(Bytes bytes, double efficiency) const;

    /** Core cycles to fill one decomposed tile's footprint from DRAM,
     *  through the banked DRAM model. */
    Cycles tileFillCoreCycles(const ConvParams &params,
                              const im2col::FilterTile &tile,
                              tensor::Layout layout) const;

    /** GEMM rows per M tile: what one vector-memory lane holds,
     *  double buffered, in whole words. */
    Index mTile(Index m) const;

    /** Add the weight-stationary passes of an @p m x @p depth x @p n
     *  GEMM slice (depth chunked by array rows) to @p unit. */
    void addCompute(Unit &unit, Index m, Index depth, Index n) const;

    /** Schedule an implicit plan: fills priced by feed locality, one
     *  unit per (pass, M tile), writeback and side tables spread. */
    TpuLayerResult schedulePlan(const ConvParams &params,
                                const im2col::PassPlan &plan,
                                const TpuRunOptions &options) const;

    /** A materialized-workspace plan: the transform, then a GEMM over
     *  the lowered matrix streamed from DRAM. */
    TpuLayerResult runMaterialized(const ConvParams &params,
                                   const im2col::PassPlan &plan,
                                   const TpuRunOptions &options) const;

    TpuConfig config_;
};

} // namespace cfconv::tpusim

#endif // CFCONV_TPUSIM_TPU_SIM_H
