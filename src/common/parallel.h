/**
 * @file
 * Deterministic host-side parallel execution: a lazily-started
 * fixed-size thread pool and a chunked parallelFor primitive. Every
 * user hands each worker a disjoint output range, so results are
 * bit-exact regardless of the thread count; CFCONV_THREADS=1 (or
 * setThreads(1)) reproduces the fully serial execution path.
 */

#ifndef CFCONV_COMMON_PARALLEL_H
#define CFCONV_COMMON_PARALLEL_H

#include <functional>

#include "common/types.h"

namespace cfconv::parallel {

/**
 * Number of execution lanes parallelFor uses (>= 1). Initialized on
 * first use from the CFCONV_THREADS environment variable when set,
 * otherwise from std::thread::hardware_concurrency().
 */
Index threads();

/**
 * Override the lane count. @p n = 1 forces fully serial execution;
 * @p n = 0 restores the default (CFCONV_THREADS env or hardware
 * concurrency). Restarts the pool, so call it between parallel
 * regions, not from inside one.
 */
void setThreads(Index n);

/**
 * Run @p body over [begin, end) split into contiguous chunks of at
 * least @p grain indices, distributed over the pool. @p body receives
 * half-open sub-ranges [chunk_begin, chunk_end) that together cover
 * [begin, end) exactly once; it must only write state owned by its
 * range. The calling thread participates. Exceptions thrown by @p body
 * are captured and the first one is rethrown here after all chunks
 * retire. Nested calls (from inside a worker) run inline on the
 * calling worker, so kernels that use parallelFor can be freely
 * composed without oversubscription or deadlock.
 */
void parallelFor(Index begin, Index end, Index grain,
                 const std::function<void(Index, Index)> &body);

} // namespace cfconv::parallel

#endif // CFCONV_COMMON_PARALLEL_H
