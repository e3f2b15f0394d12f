#include "sim/accelerator.h"

#include "common/fault.h"
#include "common/logging.h"
#include "common/rng.h"
#include "conv/algorithm.h"

namespace cfconv::sim {

StatusOr<LayerRecord>
Accelerator::tryRunLayer(const ConvParams &params,
                         const RunOptions &options) const
{
    // Layer validity and algorithm applicability are properties of the
    // layer, not simulator bugs: reject invalid layers and unsupported
    // shapes (SMM-Conv on strided layers) here so the resilient runner
    // sees INVALID_ARGUMENT.
    Status refused = algorithm()->supports(params, options.groups);
    if (refused.ok() && options.attempt < 0)
        refused = invalidArgumentError(
            "attempt = %lld must be >= 0",
            static_cast<long long>(options.attempt));
    if (!refused.ok())
        return refused.withContext("accelerator " + name());
    // The step-timeout die is keyed on (backend, geometry, groups,
    // attempt): a retried layer rolls a fresh die, a different backend
    // rolls an independent one, and neither depends on thread schedule.
    // A disarmed injector never fires, so the key is only built armed.
    fault::FaultInjector &faults = fault::FaultInjector::instance();
    if (faults.armed()) {
        const std::string geometry = params.toString();
        std::uint64_t key = hashBytes(geometry.data(), geometry.size());
        key = hashCombine(key, static_cast<std::uint64_t>(options.groups));
        key = hashCombine(key, static_cast<std::uint64_t>(options.attempt));
        if (faults.inject(fault::kAccelStepTimeout, name(), key))
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
