/**
 * @file
 * The named accelerator-variant zoo: one constant table of
 * declarative records next to the factory it backs. Each variant is
 * one VariantSpec — a backend tag plus the fully resolved simulator
 * config and run options — so a design point (array-size sweep,
 * buffer/word variant, algorithm baseline) is one row, not a factory
 * branch. makeAccelerator / tryMakeAccelerator (declared in
 * sim/accelerator.h) are defined over this table, so the dispatch and
 * the name list cannot drift, and the tuner and the tuned-config
 * database (src/tune) validate names against the same table the
 * benches instantiate.
 */

#ifndef CFCONV_SIM_VARIANTS_H
#define CFCONV_SIM_VARIANTS_H

#include <memory>
#include <string>
#include <vector>

#include "gpusim/gpu_config.h"
#include "gpusim/gpu_sim.h"
#include "sim/accelerator.h"
#include "tpusim/tpu_config.h"
#include "tpusim/tpu_sim.h"

namespace cfconv::sim {

/** Which simulator family a variant instantiates. */
enum class Backend { Tpu, Gpu };

/** Stable lowercase family name: "tpu" or "gpu". The tuned-config
 *  database keys entries on it. */
const char *backendFamilyName(Backend backend);

/**
 * Declarative record for one named accelerator instance. Only the
 * fields of the tagged backend are meaningful; the other family's
 * config rides along at its default so the record stays a plain
 * value type.
 */
struct VariantSpec
{
    std::string name;
    Backend backend = Backend::Tpu;

    tpusim::TpuConfig tpuConfig = tpusim::TpuConfig::tpuV2();
    tpusim::TpuRunOptions tpuOptions{};

    gpusim::GpuConfig gpuConfig = gpusim::GpuConfig::v100();
    gpusim::GpuRunOptions gpuOptions{};
};

/**
 * Every named variant, in table order: the four stock configurations
 * ("tpu-v2", "tpu-v3ish", "gpu-v100", "gpu-v100-cudnn") first, then
 * the TPU design-space sweeps, the algorithm/layout baselines and the
 * autotuner grid points of both families. Built on first use and
 * never destroyed.
 */
const std::vector<VariantSpec> &variantSpecs();

/** The spec named @p name; nullptr when the table has none. */
const VariantSpec *findVariant(const std::string &name);

/** Instantiate the accelerator a spec describes (adapter construction
 *  only; never fails). */
std::unique_ptr<Accelerator> makeFromSpec(const VariantSpec &spec);

} // namespace cfconv::sim

#endif // CFCONV_SIM_VARIANTS_H
