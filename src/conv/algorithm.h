/**
 * @file
 * The conv::Algorithm interface: one common contract every convolution
 * lowering scheme implements so that all algorithms can be compared on
 * equal footing across both simulators (ROADMAP "Algorithm zoo").
 *
 * An Algorithm bundles five things:
 *   - identity (stable id + canonical name),
 *   - an applicability predicate (stride/dilation/groups restrictions),
 *   - a DRAM traffic model (unique bytes each operand class moves,
 *     the lowered workspace and the pointer table included), read
 *     off the pass plan by the base class,
 *   - a pass plan (im2col::PassPlan: tap order, depth, feed locality,
 *     metadata) that the TPU and GPU simulators each schedule with one
 *     generic loop,
 *   - a pointer producer (im2col::TapPointers) that points each GEMM
 *     row at its operand: the pixel gather (channel-first, SMM-Conv),
 *     a pointer table (IndirectConv), a per-unit lowered panel
 *     (channel-last) or one lowered M x K workspace written before the
 *     GEMM (explicit im2col, so explicit minus channel-last is exactly
 *     the workspace of Sec. II-B), plus the filter column each depth
 *     row of the plan multiplies.
 *
 * The base class owns the one host execute(): it runs the plan and the
 * producer on im2col::gatherGemm(), and every algorithm is proven
 * against tensor::convDirect through it. The functional models,
 * tpusim::FunctionalTpuCore and gpusim::convBlock(), run the same plan,
 * producer and columns pass by pass.
 *
 * The registry is append-only: ids are serialized into memo-cache and
 *  tuned-config-DB keys, so new algorithms append at the end and
 * existing ids never renumber.
 */

#ifndef CFCONV_CONV_ALGORITHM_H
#define CFCONV_CONV_ALGORITHM_H

#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "im2col/implicit_conv.h"
#include "im2col/pass_plan.h"
#include "tensor/conv_params.h"
#include "tensor/im2col_explicit.h"
#include "tensor/tensor.h"

namespace cfconv::conv {

using tensor::ConvParams;
using tensor::Tensor;

/**
 * Stable identity of a registered algorithm. Serialized (as its name)
 * into RunRecords and tuned-config-DB entries — append new entries at
 * the end, never reorder.
 */
enum class AlgorithmId {
    ChannelFirst,   ///< implicit im2col, H_F->W_F->C_I column order
    ChannelLast,    ///< implicit im2col, C_I->H_F->W_F column order
    ExplicitIm2col, ///< materialized lowered matrix + GEMM
    Indirect,       ///< indirection-buffer pointer GEMM (Dukhan)
    Smm,            ///< scalar-matrix-multiply, zero packing (SMM-Conv)
};

/** Number of registered algorithm ids. */
inline constexpr int kAlgorithmCount = 5;

/**
 * Unique DRAM bytes each operand class moves for one layer, before any
 * backend-specific efficiency or caching effects. The simulators price
 * the pass plan for cycle counts; this is the backend-neutral summary
 * used by reports and tests.
 */
struct Traffic
{
    Bytes inputBytes = 0;    ///< unique IFMap bytes read
    Bytes filterBytes = 0;   ///< filter bytes read
    Bytes outputBytes = 0;   ///< OFMap bytes written
    Bytes workspaceBytes = 0;///< lowered-workspace write + read bytes
    Bytes metadataBytes = 0; ///< indirection-buffer bytes read

    Bytes
    totalBytes() const
    {
        return inputBytes + filterBytes + outputBytes + workspaceBytes +
               metadataBytes;
    }
};

/**
 * One convolution lowering scheme. Implementations are stateless
 * singletons owned by the registry; callers hold `const Algorithm *`
 * and never delete.
 */
class Algorithm
{
  public:
    virtual ~Algorithm() = default;

    /** Stable registry id. */
    virtual AlgorithmId id() const = 0;

    /** Canonical lowercase name, e.g. "channel-first". This is the
     *  spelling used by `algo=` on bench CLIs, variant descriptions,
     *  and tuned-config-DB entries. */
    virtual const char *name() const = 0;

    /**
     * Applicability predicate: OK when this algorithm can run @p params
     * with @p groups, INVALID_ARGUMENT naming the offending field
     * otherwise. The default is tensor::checkLayer(); an algorithm with
     * a narrower domain (SMM-Conv's unit stride and dilation) adds its
     * own rule after it.
     */
    virtual Status supports(const ConvParams &params, Index groups) const;

    /**
     * Backend-neutral unique DRAM traffic on @p params, read off the
     * plan: the input union (the whole IFMap and the lowered matrix
     * written and read back for a Workspace feed), the filter, the
     * output and the plan's side table. Answers layers supports()
     * refuses too, such as a strided layer for SMM-Conv.
     */
    Traffic traffic(const ConvParams &params) const;

    /**
     * The pass plan both simulators schedule for @p params, or the
     * supports() Status when the layer is invalid or outside this
     * algorithm's domain; it never throws on a bad layer.
     */
    StatusOr<im2col::PassPlan> plan(const ConvParams &params) const;

    /**
     * The producer that runs @p plan on @p input: for whichever of the
     * plan's taps it is asked, it points each GEMM row at the tapDepth
     * values the row reads there (the im2col::TapPointers contract).
     * Holds @p params and @p input by reference.
     */
    virtual im2col::TapPointers pointers(const ConvParams &params,
                                         const Tensor &input,
                                         const im2col::PassPlan &plan)
        const = 0;

    /**
     * The filter coordinate each GEMM depth row of @p plan multiplies,
     * in the order pointers() lays out a row's values: tap t owns rows
     * [t * tapDepth, (t + 1) * tapDepth). C_I-deep taps read
     * (r_t, s_t, ci); a plan that walks all of gemmK as one tap reads
     * the channel-last column order. B of every run of @p plan is the
     * filter read in this order.
     */
    std::vector<tensor::ColCoord> columns(const ConvParams &params,
                                          const im2col::PassPlan &plan)
        const;

    /**
     * Functional execution, run @p groups-way grouped: @p input is
     * (N, C_I, H_I, W_I), @p filter is (C_O, C_I/G, H_F, W_F); returns
     * the (N, C_O, H_O, W_O) OFMap in NCHW layout, bit-identical at any
     * parallel::threads() count and within accumulation-order float
     * tolerance of tensor::convDirect(params, input, filter, groups).
     * One body for every algorithm: check the operands, take the plan,
     * pack B in columns() order, and run the plan with pointers() on
     * the one host engine, im2col::gatherGemm(). A grouped layer runs
     * each group's channel slice (tensor::groupSlice()) that way, on
     * copies of its input channels and filter rows; @p groups = 1 runs
     * the layer itself, with no copy. Callers must check
     * supports(params, groups) first: executing a layer it refuses, or
     * an operand whose dims do not match @p params, is a fatal() user
     * error.
     */
    Tensor execute(const ConvParams &params, const Tensor &input,
                   const Tensor &filter, Index groups = 1) const;

  private:
    /** plan() body for a layer supports() accepted. */
    virtual im2col::PassPlan buildPlan(const ConvParams &params) const = 0;
};

/** The registered algorithm with @p id (never null). */
const Algorithm *findAlgorithm(AlgorithmId id);

/** The registered algorithm named @p name, or nullptr when unknown. */
const Algorithm *findAlgorithm(const std::string &name);

/** All registered algorithms in id order. */
const std::vector<const Algorithm *> &allAlgorithms();

/** Canonical name of @p id (same as findAlgorithm(id)->name()). */
const char *algorithmName(AlgorithmId id);

/** Parse a canonical name; INVALID_ARGUMENT names the offender and
 *  lists the known algorithms when @p name is unknown. */
StatusOr<AlgorithmId> parseAlgorithmName(const std::string &name);

} // namespace cfconv::conv

#endif // CFCONV_CONV_ALGORITHM_H
