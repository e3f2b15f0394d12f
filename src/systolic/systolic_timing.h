/**
 * @file
 * Closed-form timing for weight-stationary GEMM passes. Full-size
 * (128x128) simulations use these per-tile cycle counts; the functional
 * array cross-validates them on small configurations.
 */

#ifndef CFCONV_SYSTOLIC_SYSTOLIC_TIMING_H
#define CFCONV_SYSTOLIC_SYSTOLIC_TIMING_H

#include "common/types.h"

namespace cfconv::systolic {

/** Timing parameters of the systolic GEMM engine. Weight loading for
 *  pass i+1 always overlaps pass i's compute (the TPU's weight FIFO). */
struct SystolicConfig
{
    Index rows = 128;
    Index cols = 128;
};

/** Cycle/work accounting for one or more weight-stationary passes. */
struct PassTiming
{
    Cycles cycles = 0;     ///< total engine-busy cycles
    Flops macs = 0;        ///< useful multiply-accumulates
    double utilization = 0.0; ///< macs / (cycles * rows * cols)
};

/**
 * Cycles for a single pass streaming @p m rows through a loaded
 * (k x n) weight block: m + k + n - 1 (stream + pipeline fill/drain).
 */
Cycles passCycles(const SystolicConfig &config, Index m, Index k,
                  Index n);

/**
 * Full GEMM (M x K x N): tiles K over rows and N over cols, one pass per
 * (K-tile, N-tile) pair, each streaming all M rows.
 */
PassTiming gemmTiming(const SystolicConfig &config, Index m, Index k,
                      Index n);

} // namespace cfconv::systolic

#endif // CFCONV_SYSTOLIC_SYSTOLIC_TIMING_H
