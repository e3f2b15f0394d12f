#include "sim/accelerator.h"

#include <cstdio>

#include "common/fault.h"
#include "common/logging.h"
#include "common/rng.h"
#include "conv/algorithm.h"

namespace cfconv::sim {

namespace {

/** Input-side description of a possibly nonsense layer. Unlike
 *  ConvParams::toString(), never computes the output shape — that
 *  divides by the stride, which is exactly what may be zero here. */
std::string
describeUnvalidated(const ConvParams &p)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "N%lld C%lld %lldx%lld k%lldx%lld s%lldx%lld "
                  "p%lldx%lld d%lldx%lld -> C%lld",
                  static_cast<long long>(p.batch),
                  static_cast<long long>(p.inChannels),
                  static_cast<long long>(p.inH),
                  static_cast<long long>(p.inW),
                  static_cast<long long>(p.kernelH),
                  static_cast<long long>(p.kernelW),
                  static_cast<long long>(p.strideH),
                  static_cast<long long>(p.strideW),
                  static_cast<long long>(p.padH),
                  static_cast<long long>(p.padW),
                  static_cast<long long>(p.dilationH),
                  static_cast<long long>(p.dilationW),
                  static_cast<long long>(p.outChannels));
    return buf;
}

} // namespace

Status
validateLayerParams(const ConvParams &params, const RunOptions &options)
{
    const auto bad = [&](const char *field, Index value,
                         const char *what) {
        return invalidArgumentError(
            "layer %s: %s = %lld %s",
            describeUnvalidated(params).c_str(), field,
            static_cast<long long>(value), what);
    };
    if (params.batch < 1)
        return bad("batch", params.batch, "must be >= 1");
    if (params.inChannels < 1)
        return bad("inChannels", params.inChannels, "must be >= 1");
    if (params.outChannels < 1)
        return bad("outChannels", params.outChannels, "must be >= 1");
    if (params.inH < 1)
        return bad("inH", params.inH, "must be >= 1");
    if (params.inW < 1)
        return bad("inW", params.inW, "must be >= 1");
    if (params.kernelH < 1)
        return bad("kernelH", params.kernelH, "must be >= 1");
    if (params.kernelW < 1)
        return bad("kernelW", params.kernelW, "must be >= 1");
    if (params.strideH < 1)
        return bad("strideH", params.strideH, "must be >= 1");
    if (params.strideW < 1)
        return bad("strideW", params.strideW, "must be >= 1");
    if (params.dilationH < 1)
        return bad("dilationH", params.dilationH, "must be >= 1");
    if (params.dilationW < 1)
        return bad("dilationW", params.dilationW, "must be >= 1");
    if (params.padH < 0)
        return bad("padH", params.padH, "must be >= 0");
    if (params.padW < 0)
        return bad("padW", params.padW, "must be >= 0");
    if (params.effKernelH() > params.inH + 2 * params.padH)
        return invalidArgumentError(
            "layer %s: dilated kernel height %lld exceeds padded input "
            "height %lld",
            params.toString().c_str(),
            static_cast<long long>(params.effKernelH()),
            static_cast<long long>(params.inH + 2 * params.padH));
    if (params.effKernelW() > params.inW + 2 * params.padW)
        return invalidArgumentError(
            "layer %s: dilated kernel width %lld exceeds padded input "
            "width %lld",
            params.toString().c_str(),
            static_cast<long long>(params.effKernelW()),
            static_cast<long long>(params.inW + 2 * params.padW));
    if (params.outH() < 1 || params.outW() < 1)
        return invalidArgumentError(
            "layer %s: degenerate output %lldx%lld",
            params.toString().c_str(),
            static_cast<long long>(params.outH()),
            static_cast<long long>(params.outW()));
    if (options.groups < 1)
        return bad("groups", options.groups, "must be >= 1");
    if (params.inChannels % options.groups != 0)
        return invalidArgumentError(
            "layer %s: inChannels %lld not divisible by groups %lld",
            params.toString().c_str(),
            static_cast<long long>(params.inChannels),
            static_cast<long long>(options.groups));
    if (params.outChannels % options.groups != 0)
        return invalidArgumentError(
            "layer %s: outChannels %lld not divisible by groups %lld",
            params.toString().c_str(),
            static_cast<long long>(params.outChannels),
            static_cast<long long>(options.groups));
    if (options.attempt < 0)
        return bad("attempt", options.attempt, "must be >= 0");
    return okStatus();
}

StatusOr<LayerRecord>
Accelerator::tryRunLayer(const ConvParams &params,
                         const RunOptions &options) const
{
    CFCONV_RETURN_IF_ERROR(
        validateLayerParams(params, options)
            .withContext("accelerator " + name()));
    // Algorithm applicability is a property of the layer, not a
    // simulator bug: reject unsupported shapes (SMM-Conv on strided
    // layers) here so the resilient runner sees INVALID_ARGUMENT.
    CFCONV_RETURN_IF_ERROR(
        algorithm()
            ->supports(params, options.groups)
            .withContext("accelerator " + name()));
    // The step-timeout die is keyed on (backend, geometry, groups,
    // attempt): a retried layer rolls a fresh die, a different backend
    // rolls an independent one, and neither depends on thread schedule.
    const std::string geometry = params.toString();
    std::uint64_t key = hashBytes(geometry.data(), geometry.size());
    key = hashCombine(key, static_cast<std::uint64_t>(options.groups));
    key = hashCombine(key, static_cast<std::uint64_t>(options.attempt));
    if (fault::FaultInjector::instance().inject(fault::kAccelStepTimeout,
                                                name(), key)) {
        return deadlineExceededError(
            "accelerator %s: simulated step timeout on layer %s "
            "(attempt %lld)",
            name().c_str(), geometry.c_str(),
            static_cast<long long>(options.attempt));
    }
    try {
        return runLayer(params, options);
    } catch (const PanicError &e) {
        return internalError("accelerator %s: %s", name().c_str(),
                             e.what());
    } catch (const FatalError &e) {
        return invalidArgumentError("accelerator %s: %s", name().c_str(),
                                    e.what());
    }
}

} // namespace cfconv::sim
