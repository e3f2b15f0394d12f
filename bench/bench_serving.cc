/**
 * @file
 * Request-level serving benchmark on the serve:: stack: synthetic
 * traffic over a mixed model zoo through the dynamic batcher,
 * multi-chip work-stealing scheduler, and admission controller. Four
 * scenario families, each emitting one RunRecord into
 * BENCH_serving.json (override with json=FILE):
 *
 *   pareto_b<N>   — throughput-versus-p99 Pareto sweep over maxBatch
 *                   (the batching-delay / batch-efficiency frontier)
 *   scale_n<N>    — multi-chip scaling at saturating offered load
 *   stream_<kind> — the three arrival families at one mean rate
 *   overload_*    — sustained overload with the admission door open
 *                   versus bounded (goodput under load shedding)
 *   slo_classes_* — a three-tier priority/SLO mix under overload,
 *                   plain versus with the degradation ladder armed
 *                   (brownout sheds the batch tier first)
 *   resilient_*   — a heterogeneous board under the same traffic,
 *                   shed-only versus the full resilience layer
 *                   (breakers + degradation + hedging + fallback);
 *                   pair with faults=SPEC for the chaos headline
 *
 * Accepts the workload keys: seed=N reseeds every traffic stream,
 * stream=NAME picks the Pareto sweep's arrival family, classes=SPEC
 * overrides the slo_classes mix ("name[:weight[:priority[:sloMs]]]",
 * comma-separated; malformed specs exit 2), and faults=SPEC (e.g.
 * "seed=7; serve.chip_down=0.05") turns the whole run into
 * chaos-under-load, which each record's resilience block reports.
 * All simulated metrics are deterministic per seed at any thread
 * count; only the WALL lines move.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/table.h"
#include "models/model_zoo.h"
#include "serve/serving_sim.h"
#include "sim/report.h"

using namespace cfconv;
using namespace cfconv::serve;

namespace {

/** Small, distinct classes keep per-point cost evaluations cheap
 *  while still exercising the mixed-zoo paths. */
ModelMix
servingMix()
{
    return {{"alexnet", &models::alexnet, 3.0},
            {"zfnet", &models::zfnet, 1.0}};
}

TrafficSpec
baseTraffic(std::uint64_t seed, ArrivalKind kind, double rate,
            double horizon)
{
    TrafficSpec spec;
    spec.kind = kind;
    spec.ratePerSecond = rate;
    spec.horizonSeconds = horizon;
    spec.seed = seed;
    return spec;
}

void
addRow(Table &t, const std::string &name, const ServingResult &r)
{
    t.addRow({name, cell("%lld", static_cast<long long>(r.offered)),
              cell("%lld", static_cast<long long>(r.completed)),
              cell("%lld", static_cast<long long>(r.shed)),
              cell("%.0f", r.throughputRps),
              cell("%.0f", r.goodputRps), cell("%.2f", r.meanBatch),
              cell("%.2f", r.p50 * 1e3), cell("%.2f", r.p99 * 1e3),
              cell("%.2f", r.p999 * 1e3)});
}

constexpr const char *kTableHeader[] = {
    "scenario", "offered", "done",   "shed",    "thru rps",
    "good rps", "batch",   "p50 ms", "p99 ms",  "p999 ms"};

std::vector<std::string>
tableHeader()
{
    return {kTableHeader, kTableHeader + 10};
}

} // namespace

int
main(int argc, char **argv)
{
    const Config args = bench::readArgs(argc, argv);
    const std::string jsonPath =
        bench::valueOrExit(args.getString("json", "BENCH_serving.json"));
    const std::uint64_t seed =
        bench::valueOrExit(bench::positiveInt(args, "seed", 42));
    const ArrivalKind paretoKind = bench::valueOrExit(parseArrivalKind(
        bench::valueOrExit(args.getString("stream", "poisson"))));
    const std::string classes = bench::valueOrExit(args.getString(
        "classes", "alexnet:2:0:50,zfnet:1:1:100,mobilenetv1:1:2:250"));
    bench::startBench(args);
    const bench::WallTimer wall;
    std::vector<sim::RunRecord> records;

    bench::experimentHeader(
        "serving",
        "Request-level serving: dynamic batching, multi-chip "
        "scheduling, admission control");

    // --- Pareto sweep: throughput versus p99 over maxBatch. One
    // simulator, policies swapped between points, so every cost
    // evaluation after the first point is a memo hit.
    {
        Table t("Batching Pareto frontier (2 chips, rate 6000/s, " +
                std::string(arrivalKindName(paretoKind)) + ")");
        t.setHeader(tableHeader());
        ServingConfig config;
        config.chips.assign(2, ChipSpec{"tpu-v2"});
        ServingSimulator sim(config, servingMix());
        const TrafficSpec traffic =
            baseTraffic(seed, paretoKind, 6000, 0.25);
        double batch1Goodput = 0.0;
        double bestGoodput = 0.0;
        for (Index maxBatch : {1, 4, 8, 16, 32, 64}) {
            BatchPolicy policy;
            policy.maxBatch = maxBatch;
            policy.maxWaitSeconds = 2e-3;
            sim.setPolicy(policy, {});
            sim.setScenario("pareto_b" + std::to_string(maxBatch));
            const ServingResult r = sim.run(traffic);
            records.push_back(r.record);
            addRow(t, r.record.model, r);
            if (maxBatch == 1)
                batch1Goodput = r.goodputRps;
            bestGoodput = std::max(bestGoodput, r.goodputRps);
        }
        t.print();
        // The headline batching win: goodput (completed within the
        // 50 ms SLO) at the best sweep point versus no batching.
        bench::summaryLine("serving", "batching goodput gain (x)",
                           1.0, bestGoodput / batch1Goodput);
    }

    // --- Multi-chip scaling at saturating load: every board runs
    // flat out, so throughput is pure drain rate.
    {
        Table t("Multi-chip scaling (maxBatch 8, saturating load)");
        t.setHeader(tableHeader());
        double oneChip = 0.0;
        double fourChip = 0.0;
        for (Index chips : {1, 2, 4, 8}) {
            ServingConfig config;
            config.chips.assign(static_cast<size_t>(chips),
                                ChipSpec{"tpu-v2"});
            config.scenario = "scale_n" + std::to_string(chips);
            ServingSimulator sim(config, servingMix());
            const ServingResult r = sim.run(baseTraffic(
                seed, ArrivalKind::Poisson, 60000, 0.05));
            records.push_back(r.record);
            addRow(t, r.record.model, r);
            if (chips == 1)
                oneChip = r.throughputRps;
            if (chips == 4)
                fourChip = r.throughputRps;
        }
        t.print();
        bench::summaryLine("serving", "4-chip scaling (x)", 4.0,
                           fourChip / oneChip);
    }

    // --- Arrival families at one mean rate: how the same policies
    // hold up under memoryless, flash-crowd, and diurnal load.
    {
        Table t("Arrival streams (2 chips, rate 3000/s, maxBatch 16)");
        t.setHeader(tableHeader());
        ServingConfig config;
        config.chips.assign(2, ChipSpec{"tpu-v2"});
        config.batch.maxBatch = 16;
        ServingSimulator sim(config, servingMix());
        for (ArrivalKind kind :
             {ArrivalKind::Poisson, ArrivalKind::Bursty,
              ArrivalKind::Diurnal}) {
            sim.setScenario(std::string("stream_") +
                            arrivalKindName(kind));
            const ServingResult r =
                sim.run(baseTraffic(seed, kind, 3000, 0.25));
            records.push_back(r.record);
            addRow(t, r.record.model, r);
        }
        t.print();
    }

    // --- Sustained overload, admission door open versus bounded:
    // shedding early keeps the served tail inside the SLO.
    {
        Table t("Overload at 1.5x capacity (2 chips, maxBatch 8)");
        t.setHeader(tableHeader());
        ServingConfig config;
        config.chips.assign(2, ChipSpec{"tpu-v2"});
        ServingSimulator sim(config, servingMix());
        const TrafficSpec traffic =
            baseTraffic(seed, ArrivalKind::Poisson, 16000, 0.3);

        sim.setScenario("overload_open");
        const ServingResult open = sim.run(traffic);
        records.push_back(open.record);
        addRow(t, open.record.model, open);

        AdmissionPolicy admission;
        admission.maxQueuePerClass = 32;
        sim.setPolicy(BatchPolicy{}, admission);
        sim.setScenario("overload_shed");
        const ServingResult shed = sim.run(traffic);
        records.push_back(shed.record);
        addRow(t, shed.record.model, shed);
        t.print();

        bench::summaryLine("serving", "shedding goodput gain (x)",
                           1.0, shed.goodputRps /
                                    std::max(1.0, open.goodputRps));
        bench::summaryLine("serving", "overload shed fraction", 0.0,
                           shed.shedFraction);
    }

    // --- Priority/SLO classes under the same overload: three tiers
    // (interactive alexnet, standard zfnet, batch mobilenetv1), each
    // with its own deadline. The degraded point arms the ladder:
    // sustained pressure first halves the batch cap, then browns out
    // the batch tier at arrival — so the interactive tier's goodput
    // survives the overload.
    {
        StatusOr<ModelMix> mixOr = parseClassSpecs(classes);
        if (!mixOr.ok()) {
            std::fprintf(stderr, "classes=: %s\n",
                         mixOr.status().toString().c_str());
            return 2;
        }
        const ModelMix classMix = std::move(mixOr).value();

        Table t("Priority/SLO classes at 1.5x capacity (2 chips, "
                "maxBatch 8)");
        t.setHeader(tableHeader());
        ServingConfig config;
        config.chips.assign(2, ChipSpec{"tpu-v2"});
        const TrafficSpec traffic =
            baseTraffic(seed, ArrivalKind::Poisson, 16000, 0.3);

        config.scenario = "slo_classes_open";
        ServingSimulator open(config, classMix);
        const ServingResult ro = open.run(traffic);
        records.push_back(ro.record);
        addRow(t, ro.record.model, ro);

        config.scenario = "slo_classes_degrade";
        config.degradation.enabled = true;
        config.degradation.stepUpPressure = 2.0;
        config.degradation.stepUpAfterSeconds = 5e-3;
        config.degradation.stepDownPressure = 0.5;
        config.degradation.stepDownAfterSeconds = 20e-3;
        ServingSimulator degraded(config, classMix);
        const ServingResult rd = degraded.run(traffic);
        records.push_back(rd.record);
        addRow(t, rd.record.model, rd);
        t.print();

        bench::summaryLine("serving", "degraded brownout shed",
                           0.0,
                           static_cast<double>(rd.brownoutShed));
        bench::summaryLine("serving", "degrade max step", 0.0,
                           static_cast<double>(rd.degradeStepMax));
    }

    // --- The resilience layer on a heterogeneous board: shed-only
    // baseline versus breakers + degradation + hedging + algorithm
    // fallback, same traffic and the same admission door. Fault-free
    // the pair is a plain A/B (byte-stable records); under a
    // chaos spec that singles out the flaky variant (e.g.
    // "serve.chip_down@tpu-v2=0.6; serve.chip_down=0.02") the
    // breakers route around it and the goodput gap at the 50 ms SLO
    // is the PR's headline.
    {
        Table t("Resilience layer under chaos (1x gpu-v100 + 2x "
                "tpu-v2, maxBatch 8)");
        t.setHeader(tableHeader());
        ServingConfig config;
        // The fastest chip leads the dispatch preference order — so
        // when the chaos spec makes *it* the flaky one
        // (serve.chip_down@gpu-v100), the shed-only baseline walks
        // into the outage on nearly every batch, while the breaker
        // sits the repeat offender out and serves cleanly on the two
        // healthy (slower) chips.
        config.chips = {ChipSpec{"gpu-v100"}, ChipSpec{"tpu-v2"},
                        ChipSpec{"tpu-v2"}};
        config.admission.maxQueuePerClass = 32;
        // A realistic dispatcher timeout: every batch that lands on a
        // failing chip stalls this long before the failure is noticed
        // and the batch requeues — against a 50 ms SLO, one bounce
        // nearly consumes the whole budget. This is the cost the
        // breakers avoid by routing around a repeat offender. The
        // rate is picked so the two healthy chips can carry the load:
        // the breaker's capacity trade (sit the repeat offender out)
        // is then pure goodput win.
        config.chipOutageDetectionSeconds = 30e-3;
        const TrafficSpec traffic =
            baseTraffic(seed, ArrivalKind::Poisson, 8000, 0.3);

        config.scenario = "resilient_off";
        ServingSimulator off(config, servingMix());
        const ServingResult roff = off.run(traffic);
        records.push_back(roff.record);
        addRow(t, roff.record.model, roff);

        config.scenario = "resilient_on";
        config.breaker.enabled = true;
        // Two consecutive faults discriminate the persistent offender
        // (0.6 fault rate trips within a few touches) from healthy
        // chips' rare blips; a half-open chip must then serve two
        // canaries before full traffic returns.
        config.breaker.failureThreshold = 2;
        config.breaker.halfOpenSuccesses = 2;
        config.breaker.openSeconds = 150e-3;
        config.degradation.enabled = true;
        // Deep-collapse guard rails: a pressure the bounded queues
        // only reach when most of the board is breaker-open, with a
        // recovery band wide enough to step back up as soon as the
        // breakers restore capacity.
        config.degradation.stepUpPressure = 6.0;
        config.degradation.stepUpAfterSeconds = 20e-3;
        config.degradation.stepDownPressure = 3.0;
        config.degradation.stepDownAfterSeconds = 10e-3;
        config.hedge.enabled = true;
        config.hedge.minSamples = 16;
        config.fallbackVariants = {"tpu-v3ish"};
        ServingSimulator on(config, servingMix());
        const ServingResult ron = on.run(traffic);
        records.push_back(ron.record);
        addRow(t, ron.record.model, ron);
        t.print();

        bench::summaryLine("serving", "resilient goodput gain (x)",
                           1.0,
                           ron.goodputRps /
                               std::max(1.0, roff.goodputRps));
        bench::summaryLine("serving", "breaker trips", 0.0,
                           static_cast<double>(ron.breakerTrips));
        bench::summaryLine("serving", "hedge wins", 0.0,
                           static_cast<double>(ron.hedgeWins));
    }

    if (sim::writeRunRecords(jsonPath, records))
        std::printf("wrote %s (%zu records)\n", jsonPath.c_str(),
                    records.size());
    bench::printLatencyStats();
    bench::printWallClock("bench_serving", wall);
    return 0;
}
