/**
 * @file
 * Functional block-level kernel (Fig 12): executes a conv::Algorithm's
 * pass plan exactly as the GPU implementation schedules it — the output
 * matrix partitioned into thread-block tiles, each TB walking the
 * plan's chunkK-deep passes (the k-steps GpuSim prices) and staging
 * each pass's operands through a bounded shared-memory buffer — and
 * proves two claims of Sec. V for every algorithm:
 *  1. thread blocks own disjoint output tiles, so no atomic updates
 *     are ever needed, and
 *  2. the staging buffer respects the configured shared-memory
 *     capacity on every step.
 */

#ifndef CFCONV_GPUSIM_BLOCK_KERNEL_H
#define CFCONV_GPUSIM_BLOCK_KERNEL_H

#include "conv/algorithm.h"
#include "tensor/conv_params.h"
#include "tensor/tensor.h"

namespace cfconv::gpusim {

using tensor::ConvParams;
using tensor::Tensor;

/** Configuration of the functional block-level kernel. */
struct BlockKernelConfig
{
    Index tileM = 64;          ///< output rows per thread block
    Index tileN = 64;          ///< output channels per thread block
    Index chunkK = 32;         ///< staged operand depth per step
    Bytes sharedMemBytes = 96 * 1024; ///< per-TB staging capacity
    Bytes elemBytes = 2;       ///< staged element width (fp16)
};

/** Execution statistics the functional kernel collects. */
struct BlockKernelStats
{
    Index threadBlocks = 0;    ///< TB grid size
    Index stagingSteps = 0;    ///< shared-memory fills across all TBs
    Bytes peakStagingBytes = 0;///< largest single staging buffer
    Index outputWrites = 0;    ///< OFMap element writes (for the
                               ///< no-atomics check: must equal the
                               ///< OFMap size exactly)
};

/**
 * Execute @p plan, @p algorithm's plan with its taps in any order (the
 * tile order of Sec. V), on the block-level schedule: every TB stages
 * each of plan.passes(chunkK) through @p algorithm's producer and
 * column order, then writes its own output tile. Throws (fatal) if any
 * staging step would exceed the shared-memory capacity. @p stats, when
 * non-null, receives execution statistics.
 */
Tensor convBlock(const conv::Algorithm &algorithm,
                 const im2col::PassPlan &plan, const ConvParams &params,
                 const Tensor &input, const Tensor &filter,
                 const BlockKernelConfig &config = {},
                 BlockKernelStats *stats = nullptr);

} // namespace cfconv::gpusim

#endif // CFCONV_GPUSIM_BLOCK_KERNEL_H
