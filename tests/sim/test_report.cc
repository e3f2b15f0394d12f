/** @file Tests for the JSON report layer: the common/report writer
 *  primitives and the sim::RunRecord document emitter, whose one
 *  schema every record shape shares and whose every written document
 *  holds whole counts, finite throughput and named algorithms. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/json.h"
#include "common/report.h"
#include "common/trace.h"
#include "models/model_zoo.h"
#include "serve/serving_sim.h"
#include "sim/model_runner.h"
#include "sim/report.h"

namespace cfconv::sim {
namespace {

TEST(JsonEscape, EscapesQuotesBackslashesAndControls)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("a\nb"), "a\\nb");
    EXPECT_EQ(jsonEscape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(JsonWriter, BuildsNestedDocumentWithCommas)
{
    JsonWriter w;
    w.beginObject();
    w.field("version", 1LL);
    w.field("name", "x\"y");
    w.key("items");
    w.beginArray();
    w.value(1.5);
    w.value(true);
    w.valueNull();
    w.endArray();
    w.endObject();
    const std::string doc = w.str();
    EXPECT_NE(doc.find("\"version\": 1"), std::string::npos);
    EXPECT_NE(doc.find("\"name\": \"x\\\"y\""), std::string::npos);
    EXPECT_NE(doc.find("1.5,"), std::string::npos);
    EXPECT_NE(doc.find("null"), std::string::npos);
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull)
{
    JsonWriter w;
    w.beginObject();
    w.field("nan", std::numeric_limits<double>::quiet_NaN());
    w.field("inf", std::numeric_limits<double>::infinity());
    w.endObject();
    const std::string doc = w.str();
    EXPECT_NE(doc.find("\"nan\": null"), std::string::npos);
    EXPECT_NE(doc.find("\"inf\": null"), std::string::npos);
    EXPECT_EQ(doc.find("nan,"), std::string::npos);
}

TEST(RunRecordJson, EmitsVersionedSchemaWithLayersAndExtras)
{
    const auto accelerator = makeAccelerator("tpu-v2");
    const RunRecord record = ModelRunner(*accelerator)
                                 .runModel(models::alexnet(8));
    const std::string doc = runRecordsJson({record});

    EXPECT_NE(doc.find("\"schema\": \"cfconv.run_record\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"version\": 6"), std::string::npos);
    EXPECT_NE(doc.find("\"accelerator\": \"tpu-v2\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"model\": \"AlexNet\""), std::string::npos);
    EXPECT_NE(doc.find("\"layers\""), std::string::npos);
    EXPECT_NE(doc.find("\"geometry\""), std::string::npos);
    // Backend extras ride along per layer.
    EXPECT_NE(doc.find("\"multiTile\""), std::string::npos);
    // The document-level metrics object, with percentile histograms
    // fed by the model run above.
    EXPECT_NE(doc.find("\"metrics\""), std::string::npos);
    EXPECT_NE(doc.find("\"counters\""), std::string::npos);
    EXPECT_NE(doc.find("\"histograms\""), std::string::npos);
    EXPECT_NE(doc.find("\"p99\""), std::string::npos);
    // Untraced run: the trace_file key is empty, not null.
    EXPECT_NE(doc.find("\"trace_file\": \"\""), std::string::npos);
    // A healthy record has no nulls (every metric finite).
    EXPECT_EQ(doc.find("null"), std::string::npos);
}

TEST(RunRecordJson, TracedRunReferencesItsTraceFile)
{
    const std::string trace_path =
        ::testing::TempDir() + "cfconv_report_trace.json";
    trace::start(trace_path);
    const std::string doc = runRecordsJson({});
    trace::resetForTest(); // disarm without writing the trace
    EXPECT_NE(doc.find("\"trace_file\": \"" + jsonEscape(trace_path) +
                       "\""),
              std::string::npos);
}

TEST(RunRecordJson, NonFiniteMetricsSurfaceAsNullForValidators)
{
    RunRecord record;
    record.accelerator = "tpu-v2";
    record.model = "broken";
    record.tflops = std::numeric_limits<double>::quiet_NaN();
    const std::string doc = runRecordsJson({record});
    EXPECT_NE(doc.find("\"tflops\": null"), std::string::npos);
}

TEST(RunRecordJson, WriteRunRecordsRoundTripsThroughTheFile)
{
    const auto accelerator = makeAccelerator("gpu-v100");
    const RunRecord record = ModelRunner(*accelerator)
                                 .runModel(models::zfnet(8));
    const std::string path =
        ::testing::TempDir() + "cfconv_report_test.json";
    // Snapshot the expected document before the write: the atomic
    // writer bumps persist.atomic_writes, which would otherwise show
    // up in a post-write metrics snapshot but not in the file.
    const std::string expected = runRecordsJson({record});
    ASSERT_TRUE(writeRunRecords(path, {record}));

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(buf.str(), expected);
    std::remove(path.c_str());
}

TEST(RunRecordJson, WriteToUnwritablePathFailsWithoutAborting)
{
    EXPECT_FALSE(writeRunRecords("/nonexistent-dir/x/y.json", {}));
}

/** Key names of a parsed JSON object (none when @p object is null). */
std::set<std::string>
keysOf(const JsonValue *object)
{
    std::set<std::string> keys;
    if (object != nullptr)
        for (const auto &[key, value] : object->members())
            keys.insert(key);
    return keys;
}

/** The four record shapes the repo writes: a fault-free zoo run, a
 *  chaos run with retries and failover, a zoo-algorithm variant and a
 *  serving board. */
void
appendRecordShapes(std::vector<RunRecord> &records)
{
    const auto model = models::alexnet(1);
    records.push_back(ModelRunner(*makeAccelerator("tpu-v2")).runModel(model));

    auto &injector = fault::FaultInjector::instance();
    ASSERT_TRUE(injector
                    .configure("seed=5; accel.step_timeout@tpu-v2=1; "
                               "max_attempts=2; failover=gpu-v100")
                    .ok());
    records.push_back(ModelRunner(*makeAccelerator("tpu-v2")).runModel(model));
    injector.disarm();
    ASSERT_TRUE(records.back().resilience.active);
    ASSERT_GT(records.back().resilience.faultsSeen, 0);

    records.push_back(
        ModelRunner(*makeAccelerator("tpu-v2-indirect")).runModel(model));

    serve::TrafficSpec traffic;
    traffic.ratePerSecond = 200;
    traffic.horizonSeconds = 0.05;
    serve::ServingSimulator board(serve::ServingConfig{},
                                  {{"alexnet", &models::alexnet, 1.0}});
    records.push_back(board.run(traffic).record);
}

/** Every document the repo writes, parsed: one per record shape, then
 *  the zoo at batch 8 on tpu-v2 and on gpu-v100, the documents
 *  bench_fig15_models and bench_fig17_gpu_models write. */
void
writtenDocuments(std::vector<JsonValue> &docs)
{
    std::vector<RunRecord> shapes;
    ASSERT_NO_FATAL_FAILURE(appendRecordShapes(shapes));
    std::vector<std::string> texts;
    for (const RunRecord &record : shapes)
        texts.push_back(runRecordsJson({record}, ReportMeta{}));
    for (const char *backend : {"tpu-v2", "gpu-v100"}) {
        const auto accelerator = makeAccelerator(backend);
        std::vector<RunRecord> zoo;
        for (const auto &model : models::allModels(8))
            zoo.push_back(ModelRunner(*accelerator).runModel(model));
        texts.push_back(runRecordsJson(zoo));
    }
    for (const std::string &text : texts) {
        auto doc = parseJson(text);
        ASSERT_TRUE(doc.ok()) << doc.status().toString();
        docs.push_back(std::move(doc).value());
    }
}

/** One record of a written document, named for failure messages. */
struct WrittenRecord
{
    std::string where;
    const JsonValue *record;
};

std::vector<WrittenRecord>
recordsOf(const std::vector<JsonValue> &docs)
{
    std::vector<WrittenRecord> records;
    for (size_t i = 0; i < docs.size(); ++i)
        if (const JsonValue *list = docs[i].get("records"))
            for (const JsonValue &record : list->items())
                records.push_back({"document " + std::to_string(i) +
                                       " record " +
                                       record.stringOr("model", ""),
                                   &record});
    return records;
}

/** Expect @p block's @p keys to be whole numbers of at least 0. */
void
expectCounts(const JsonValue &block,
             std::initializer_list<const char *> keys,
             const std::string &where)
{
    for (const char *key : keys) {
        const JsonValue *value = block.get(key);
        ASSERT_NE(value, nullptr) << where << " has no " << key;
        EXPECT_TRUE(value->isNumber()) << where << " " << key;
        EXPECT_EQ(value->asNumber(), std::floor(value->asNumber()))
            << where << " " << key << " is not whole";
        EXPECT_GE(value->asNumber(), 0.0) << where << " " << key;
    }
}

TEST(RunRecordSchema, EveryDocumentHasTheSameKeys)
{
    // One schema means one version and one key set at every level
    // (only the backend extras differ).
    std::vector<RunRecord> records;
    ASSERT_NO_FATAL_FAILURE(appendRecordShapes(records));

    std::set<std::string> document, record, resilience, serving, layer;
    for (size_t i = 0; i < records.size(); ++i) {
        const auto doc =
            parseJson(runRecordsJson({records[i]}, ReportMeta{}));
        ASSERT_TRUE(doc.ok()) << doc.status().toString();
        EXPECT_EQ(doc->numberOr("version", 0.0),
                  static_cast<double>(RunRecord::kSchemaVersion))
            << "document " << i;
        const JsonValue *rec = &doc->get("records")->items().at(0);
        const JsonValue *res = rec->get("resilience");
        const JsonValue *srv = res ? res->get("serving") : nullptr;
        const auto &layers = rec->get("layers")->items();
        ASSERT_FALSE(layers.empty()) << "document " << i;
        if (i == 0) {
            document = keysOf(&*doc);
            record = keysOf(rec);
            resilience = keysOf(res);
            serving = keysOf(srv);
            layer = keysOf(&layers.front());
        }
        EXPECT_EQ(keysOf(&*doc), document) << "document " << i;
        EXPECT_EQ(keysOf(rec), record) << "document " << i;
        EXPECT_EQ(keysOf(res), resilience) << "document " << i;
        EXPECT_EQ(keysOf(srv), serving) << "document " << i;
        for (const JsonValue &l : layers)
            EXPECT_EQ(keysOf(&l), layer) << "document " << i;
    }
    EXPECT_EQ(document.count("trace_file"), 1u);
    EXPECT_EQ(record.count("resilience"), 1u);
    EXPECT_EQ(serving.count("brownout_shed"), 1u);
    EXPECT_EQ(layer.count("algorithm"), 1u);
}

TEST(RunRecordSchema, EveryDocumentCarriesItsTraceFileAndMetrics)
{
    std::vector<JsonValue> docs;
    ASSERT_NO_FATAL_FAILURE(writtenDocuments(docs));
    for (size_t i = 0; i < docs.size(); ++i) {
        const JsonValue *trace_file = docs[i].get("trace_file");
        EXPECT_TRUE(trace_file && trace_file->isString()) << "document " << i;
        const JsonValue *metrics = docs[i].get("metrics");
        ASSERT_TRUE(metrics && metrics->isObject()) << "document " << i;
        for (const char *key : {"counters", "histograms"}) {
            const JsonValue *group = metrics->get(key);
            EXPECT_TRUE(group && group->isObject())
                << "document " << i << " metrics has no " << key;
        }
    }
}

TEST(RunRecordSchema, EveryRecordHasLayersAndAFinitePositiveTflops)
{
    // The writer emits a non-finite double as null, so a NaN anywhere
    // in a model run fails here as a tflops that is not a number.
    std::vector<JsonValue> docs;
    ASSERT_NO_FATAL_FAILURE(writtenDocuments(docs));
    for (const JsonValue &doc : docs) {
        const JsonValue *records = doc.get("records");
        ASSERT_TRUE(records && records->isArray());
        EXPECT_FALSE(records->items().empty());
    }
    for (const auto &[where, record] : recordsOf(docs)) {
        const JsonValue *layers = record->get("layers");
        EXPECT_TRUE(layers && !layers->items().empty()) << where;
        const JsonValue *tflops = record->get("tflops");
        ASSERT_TRUE(tflops && tflops->isNumber()) << where;
        EXPECT_TRUE(std::isfinite(tflops->asNumber())) << where;
        EXPECT_GT(tflops->asNumber(), 0.0) << where;
    }
}

TEST(RunRecordSchema, ResilienceCountsAreWholeAndNonNegative)
{
    std::vector<JsonValue> docs;
    ASSERT_NO_FATAL_FAILURE(writtenDocuments(docs));
    Index active = 0;
    for (const auto &[where, record] : recordsOf(docs)) {
        const JsonValue *resilience = record->get("resilience");
        ASSERT_TRUE(resilience && resilience->isObject()) << where;
        const JsonValue *on = resilience->get("active");
        ASSERT_TRUE(on && on->isBool()) << where;
        active += on->asBool();
        expectCounts(*resilience,
                     {"faults_seen", "retries", "failovers",
                      "layers_failed_over", "layers_resumed"},
                     where + " resilience");
        const JsonValue *backoff = resilience->get("backoff_seconds");
        ASSERT_TRUE(backoff && backoff->isNumber()) << where;
        EXPECT_GE(backoff->asNumber(), 0.0) << where;
        const JsonValue *final_backend = resilience->get("final_backend");
        EXPECT_TRUE(final_backend && final_backend->isString()) << where;
    }
    EXPECT_EQ(active, 1) << "only the chaos run is resilient";
}

TEST(RunRecordSchema, ServingCountsAreWholeAndNonNegative)
{
    std::vector<JsonValue> docs;
    ASSERT_NO_FATAL_FAILURE(writtenDocuments(docs));
    for (const auto &[where, record] : recordsOf(docs)) {
        const JsonValue *resilience = record->get("resilience");
        ASSERT_NE(resilience, nullptr) << where;
        const JsonValue *serving = resilience->get("serving");
        ASSERT_TRUE(serving && serving->isObject()) << where;
        const JsonValue *on = serving->get("active");
        EXPECT_TRUE(on && on->isBool()) << where;
        expectCounts(*serving,
                     {"breaker_trips", "breaker_probes", "breaker_closes",
                      "hedged_batches", "hedge_wins", "hedge_losses",
                      "degrade_step_max", "degrade_transitions",
                      "brownout_shed", "fallback_batches"},
                     where + " serving");
    }
}

TEST(RunRecordSchema, ModelLayersNameTheirAlgorithmBoardRowsLeaveItEmpty)
{
    // A model run names the lowering every layer ran; a serving class
    // row aggregates a whole board and leaves it empty.
    std::vector<JsonValue> docs;
    ASSERT_NO_FATAL_FAILURE(writtenDocuments(docs));
    Index board_rows = 0;
    for (const auto &[where, record] : recordsOf(docs)) {
        const bool board =
            record->stringOr("accelerator", "").starts_with("serve:");
        const JsonValue *layers = record->get("layers");
        ASSERT_NE(layers, nullptr) << where;
        for (const JsonValue &layer : layers->items()) {
            const std::string row =
                where + " layer " + layer.stringOr("name", "");
            const JsonValue *algorithm = layer.get("algorithm");
            ASSERT_TRUE(algorithm && algorithm->isString()) << row;
            EXPECT_EQ(algorithm->asString().empty(), board)
                << row << " algorithm '" << algorithm->asString() << "'";
            board_rows += board;
        }
    }
    EXPECT_GT(board_rows, 0);
}

} // namespace
} // namespace cfconv::sim
