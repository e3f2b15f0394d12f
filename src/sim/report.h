/**
 * @file
 * JSON emission of sim::RunRecord documents — the BENCH_gemm.json
 * pattern generalized to whole-model runs. Every document has one
 * shape, whatever its records hold (validated by
 * RunRecordSchema.* in tests/sim/test_report.cc):
 *
 *   {
 *     "schema": "cfconv.run_record",
 *     "version": 6,                      // RunRecord::kSchemaVersion
 *     "trace_file": "",                  // the Chrome trace, "" if none
 *     "metrics": {
 *       "counters": { "runner.layers": 53, ... },
 *       "histograms": {
 *         "runner.layer_sim_seconds": { "count": .., "mean": ...,
 *           "min": ..., "max": ..., "p50": ..., "p95": ...,
 *           "p99": ..., "p999": ... }, ...
 *       }
 *     },
 *     "records": [
 *       {
 *         "accelerator": "tpu-v2", "model": "ResNet", "batch": 8,
 *         "peak_tflops": 22.9, "seconds": ..., "tflops": ...,
 *         "dram_bytes": ...,
 *         "resilience": {                // active: false when fault-free
 *           "active": false, "faults_seen": 0, "retries": 0,
 *           "failovers": 0, "layers_failed_over": 0,
 *           "layers_resumed": 0, "backoff_seconds": 0,
 *           "final_backend": "",
 *           "serving": {                 // active: false off the
 *             "active": false,           // serving simulator
 *             "breaker_trips": 0, "breaker_probes": 0,
 *             "breaker_closes": 0, "hedged_batches": 0,
 *             "hedge_wins": 0, "hedge_losses": 0,
 *             "degrade_step_max": 0, "degrade_transitions": 0,
 *             "brownout_shed": 0, "fallback_batches": 0 } },
 *         "layers": [
 *           { "name": ..., "geometry": ..., "count": ..,
 *             "groups": .., "seconds": ..., "tflops": ...,
 *             "utilization": ..., "dram_bytes": ..., "flops": ...,
 *             "algorithm": "channel-first",   // "" on serving rows
 *             "extras": { "multiTile": 3, ... } },
 *           ...
 *         ]
 *       }, ...
 *     ]
 *   }
 *
 * Only `extras` varies in its keys, by backend. Non-finite metric
 * values are emitted as null (common/report), which those tests
 * reject — a model run that produced NaN cannot silently ship a green
 * report.
 */

#ifndef CFCONV_SIM_REPORT_H
#define CFCONV_SIM_REPORT_H

#include <string>
#include <vector>

#include "sim/accelerator.h"

namespace cfconv::sim {

/** Document-level metadata. */
struct ReportMeta
{
    /** Chrome-trace file this run wrote; empty = untraced. */
    std::string traceFile;
    /** Metrics snapshot: counters and sampled distributions. */
    StatGroup metrics;
};

/** Meta describing the live process: the MetricsRegistry snapshot
 *  plus the armed trace path. What the benches pass. */
ReportMeta currentReportMeta();

/** Render @p records as the RunRecord JSON document. The one-argument
 *  form stamps currentReportMeta(). */
std::string runRecordsJson(const std::vector<RunRecord> &records);
std::string runRecordsJson(const std::vector<RunRecord> &records,
                           const ReportMeta &meta);

/** Write runRecordsJson() to @p path; @return false on I/O failure. */
bool writeRunRecords(const std::string &path,
                     const std::vector<RunRecord> &records);
bool writeRunRecords(const std::string &path,
                     const std::vector<RunRecord> &records,
                     const ReportMeta &meta);

} // namespace cfconv::sim

#endif // CFCONV_SIM_REPORT_H
