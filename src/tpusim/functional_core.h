/**
 * @file
 * Functional TPU core: wires per-row vector memories, serializers, the
 * skewed address generation, and the cycle-level systolic array into an
 * executable model of Fig 10. It runs any conv::Algorithm's pass plan
 * through that algorithm's producer and filter columns, so small
 * configurations prove that each mapping produces exact convolution
 * results, that IFMap reads and OFMap writes interleave on the single
 * SRAM port without conflicts, and that its port operations are the
 * ones TpuSim counts for the same plan.
 */

#ifndef CFCONV_TPUSIM_FUNCTIONAL_CORE_H
#define CFCONV_TPUSIM_FUNCTIONAL_CORE_H

#include <memory>
#include <vector>

#include "conv/algorithm.h"
#include "sram/vector_memory.h"
#include "systolic/systolic_array.h"
#include "tensor/conv_ref.h"

namespace cfconv::tpusim {

using tensor::ConvParams;
using tensor::Matrix;
using tensor::Tensor;

/** Result of a functional run. */
struct FunctionalRunResult
{
    Tensor output;          ///< the OFMap (N, C_O, H_O, W_O)
    bool portConflict;      ///< any same-cycle double use of an SRAM port
    Index vecMemReads;      ///< total word reads across vector memories
    Index vecMemWrites;     ///< total word writes across vector memories
    Cycles cycles;          ///< systolic cycles summed over tile passes
};

/**
 * Functional TPU core with @p array_rows x @p array_cols PEs and one
 * vector memory (word size @p word_elems) per PE row. The word size
 * plays the serializer/de-serializer role of Fig 9: each SRAM word read
 * feeds word_elems consecutive GEMM rows, and OFMap writes land on the
 * complementary port cycles.
 */
class FunctionalTpuCore
{
  public:
    FunctionalTpuCore(Index array_rows, Index array_cols,
                      Index word_elems);

    /**
     * Execute a full convolution: one array pass per
     * @p plan.passes(array rows, @p tiles_per_group), its vector
     * memories filled through @p algorithm's producer and its weights
     * read in @p algorithm's column order, each pass's output added
     * straight into the NCHW OFMap. @p plan is @p algorithm's plan,
     * its taps in any order. C_O must fit in the array cols, and
     * merging needs a mergeable plan with tiles_per_group * tapDepth
     * within the array rows (use the tile-level TpuSim for larger
     * shapes).
     */
    FunctionalRunResult runConv(const conv::Algorithm &algorithm,
                                const im2col::PassPlan &plan,
                                const ConvParams &params,
                                const Tensor &input,
                                const Tensor &filter,
                                Index tiles_per_group);

  private:
    Index arrayRows_, arrayCols_, wordElems_;
};

} // namespace cfconv::tpusim

#endif // CFCONV_TPUSIM_FUNCTIONAL_CORE_H
