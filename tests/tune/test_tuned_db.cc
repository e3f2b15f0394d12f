/** @file Tests for the persistent tuned-config database
 *  (tune/tuned_db): deterministic persistence, round-trips, and the
 *  loader's schema and staleness validation against the variant
 *  table. */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "common/atomic_file.h"
#include "tune/tuned_db.h"

namespace cfconv::tune {
namespace {

/** A temp-file path unique to this test binary run. */
std::string
tempPath(const std::string &stem)
{
    return testing::TempDir() + "cfconv_tuned_db_" + stem + ".json";
}

TunedEntry
sampleEntry(const std::string &geometry = "n8_ci64_hw56_co64_k3_s1_p1",
            Index groups = 1)
{
    TunedEntry entry;
    entry.family = "tpu";
    entry.algorithm = "channel-first";
    entry.geometry = geometry;
    entry.groups = groups;
    entry.variant = "tpu-v2-a256-w4";
    entry.baseline = "tpu-v2";
    entry.tunedSeconds = 1.25e-4;
    entry.baselineSeconds = 2.5e-4;
    entry.evaluations = 9;
    return entry;
}

TEST(TunedConfigDb, UpsertFindAndReplace)
{
    TunedConfigDb db;
    EXPECT_EQ(db.find("tpu", "channel-first", "g", 1), nullptr);

    db.upsert(sampleEntry("g"));
    ASSERT_EQ(db.size(), 1u);
    const TunedEntry *hit = db.find("tpu", "channel-first", "g", 1);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->variant, "tpu-v2-a256-w4");

    // Same key replaces; different groups or family is a new entry.
    TunedEntry replacement = sampleEntry("g");
    replacement.variant = "tpu-v2-256x256";
    db.upsert(replacement);
    EXPECT_EQ(db.size(), 1u);
    EXPECT_EQ(db.find("tpu", "channel-first", "g", 1)->variant, "tpu-v2-256x256");

    db.upsert(sampleEntry("g", 2));
    TunedEntry gpu = sampleEntry("g");
    gpu.family = "gpu";
    gpu.variant = "gpu-v100-tuned";
    gpu.baseline = "gpu-v100";
    db.upsert(gpu);
    EXPECT_EQ(db.size(), 3u);
    EXPECT_EQ(db.find("tpu", "channel-first", "g", 2)->groups, 2);
    EXPECT_EQ(db.find("gpu", "channel-first", "g", 1)->variant, "gpu-v100-tuned");
}

TEST(TunedConfigDb, ToJsonIsDeterministicAndInsertionOrderFree)
{
    TunedConfigDb forward, backward;
    const auto a = sampleEntry("aaa");
    const auto b = sampleEntry("bbb");
    const auto c = sampleEntry("ccc");
    forward.upsert(a);
    forward.upsert(b);
    forward.upsert(c);
    backward.upsert(c);
    backward.upsert(a);
    backward.upsert(b);
    EXPECT_EQ(forward.toJson(), backward.toJson());
    EXPECT_EQ(forward.toJson(), forward.toJson());
}

TEST(TunedConfigDb, SaveAndLoadRoundTrips)
{
    const std::string path = tempPath("roundtrip");
    TunedConfigDb db;
    db.upsert(sampleEntry("layer1"));
    db.upsert(sampleEntry("layer2", 4));
    TunedEntry cheap = sampleEntry("layer3");
    cheap.evaluations = 5;
    db.upsert(cheap);
    ASSERT_TRUE(db.saveFile(path));

    TunedConfigDb loaded;
    const auto stats = loaded.loadFile(path);
    ASSERT_TRUE(stats.ok()) << stats.status().toString();
    EXPECT_EQ(stats.value().loaded, 3);
    EXPECT_EQ(stats.value().rejected, 0);
    ASSERT_EQ(loaded.size(), db.size());

    for (const TunedEntry &want : db.entries()) {
        const TunedEntry *got =
            loaded.find(want.family, want.algorithm, want.geometry,
                        want.groups);
        ASSERT_NE(got, nullptr) << want.geometry;
        EXPECT_EQ(got->algorithm, want.algorithm);
        EXPECT_EQ(got->variant, want.variant);
        EXPECT_EQ(got->baseline, want.baseline);
        EXPECT_DOUBLE_EQ(got->tunedSeconds, want.tunedSeconds);
        EXPECT_DOUBLE_EQ(got->baselineSeconds, want.baselineSeconds);
        EXPECT_EQ(got->evaluations, want.evaluations);
    }
    // A loaded database persists byte-identically.
    EXPECT_EQ(loaded.toJson(), db.toJson());
    std::remove(path.c_str());
}

TEST(TunedConfigDb, LoaderRejectsStaleEntriesIndividually)
{
    const std::string path = tempPath("stale");
    TunedConfigDb db;
    db.upsert(sampleEntry("good"));
    TunedEntry unknownVariant = sampleEntry("stale_variant");
    unknownVariant.variant = "tpu-v9-retired";
    db.upsert(unknownVariant);
    TunedEntry unknownBaseline = sampleEntry("stale_baseline");
    unknownBaseline.baseline = "tpu-v9-retired";
    db.upsert(unknownBaseline);
    TunedEntry badSeconds = sampleEntry("bad_seconds");
    badSeconds.tunedSeconds = 0.0;
    db.upsert(badSeconds);
    TunedEntry badGroups = sampleEntry("bad_groups");
    badGroups.groups = 0;
    db.upsert(badGroups);
    TunedEntry unknownAlgorithm = sampleEntry("stale_algorithm");
    unknownAlgorithm.algorithm = "winograd";
    db.upsert(unknownAlgorithm);
    // Known names of the other family: a TPU entry won by a GPU
    // variant, a GPU entry naming TPU variants, and a GPU entry with a
    // TPU baseline.
    TunedEntry gpuWinner = sampleEntry("gpu_winner");
    gpuWinner.variant = "gpu-v100";
    db.upsert(gpuWinner);
    TunedEntry tpuNames = sampleEntry("tpu_names");
    tpuNames.family = "gpu";
    tpuNames.variant = "tpu-v3ish";
    db.upsert(tpuNames);
    TunedEntry tpuBaseline = sampleEntry("tpu_baseline");
    tpuBaseline.family = "gpu";
    tpuBaseline.variant = "gpu-v100-tuned";
    db.upsert(tpuBaseline);
    ASSERT_TRUE(db.saveFile(path));

    TunedConfigDb loaded;
    const auto stats = loaded.loadFile(path);
    ASSERT_TRUE(stats.ok()) << stats.status().toString();
    EXPECT_EQ(stats.value().loaded, 1);
    EXPECT_EQ(stats.value().rejected, 8);
    EXPECT_EQ(loaded.size(), 1u);
    EXPECT_NE(loaded.find("tpu", "channel-first", "good", 1), nullptr);
    EXPECT_EQ(loaded.find("tpu", "channel-first", "stale_variant", 1), nullptr);
    std::remove(path.c_str());
}

TEST(TunedConfigDb, LoaderRefusesForeignSchemas)
{
    const std::string path = tempPath("schema");
    const auto writeDoc = [&](const std::string &doc) {
        std::ofstream out(path);
        out << doc;
    };
    TunedConfigDb db;

    writeDoc(R"({"schema": "other.format", "version": 1,)"
             R"( "entries": []})");
    EXPECT_FALSE(db.loadFile(path).ok());

    writeDoc(R"({"schema": "cfconv.tuned_db", "version": 999,)"
             R"( "entries": []})");
    EXPECT_FALSE(db.loadFile(path).ok());

    // The pre-algorithm v1 layout is refused outright, not guessed at.
    writeDoc(R"({"schema": "cfconv.tuned_db", "version": 1,)"
             R"( "entries": []})");
    EXPECT_FALSE(db.loadFile(path).ok());

    writeDoc(R"({"schema": "cfconv.tuned_db", "version": 2})");
    EXPECT_FALSE(db.loadFile(path).ok());

    writeDoc("{not json");
    EXPECT_FALSE(db.loadFile(path).ok());

    // A structurally failed load leaves the database untouched.
    EXPECT_EQ(db.size(), 0u);
    std::remove(path.c_str());
}

TEST(TunedConfigDb, EntriesThatCarryAModeLoadAndResaveWithoutIt)
{
    // Files written while the tuner had a second search mode carry a
    // per-entry "mode"; they stay schema v2, so the loader takes them
    // as they are and the next save drops the key.
    const std::string path = tempPath("legacy_mode");
    {
        std::ofstream out(path);
        out << R"({"schema": "cfconv.tuned_db", "version": 2,)"
               R"( "entries": [{"family": "tpu",)"
               R"( "algorithm": "channel-first",)"
               R"( "geometry": "n8_ci64_hw56_co64_k3_s1_p1",)"
               R"( "groups": 1, "variant": "tpu-v2-a256-w4",)"
               R"( "baseline": "tpu-v2", "tuned_seconds": 0.000125,)"
               R"( "baseline_seconds": 0.00025, "evaluations": 9,)"
               R"( "mode": "greedy"}]})";
    }
    TunedConfigDb db;
    const auto stats = db.loadFile(path);
    ASSERT_TRUE(stats.ok()) << stats.status().toString();
    EXPECT_EQ(stats.value().loaded, 1);
    EXPECT_EQ(stats.value().rejected, 0);
    TunedConfigDb fresh;
    fresh.upsert(sampleEntry());
    EXPECT_EQ(db.toJson(), fresh.toJson());

    ASSERT_TRUE(db.saveFile(path));
    std::ifstream in(path, std::ios::binary);
    const std::string raw((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
    EXPECT_EQ(raw.find("\"mode\""), std::string::npos) << raw;
    EXPECT_NE(raw.find("\"evaluations\": 9"), std::string::npos) << raw;
    std::remove(path.c_str());
}

TEST(TunedConfigDb, MissingFileIsNotFound)
{
    TunedConfigDb db;
    const auto stats = db.loadFile("/nonexistent/tuned.json");
    ASSERT_FALSE(stats.ok());
    EXPECT_EQ(stats.status().code(), StatusCode::kNotFound);
}

TEST(TunedConfigDb, LoadMergesIntoExistingEntries)
{
    const std::string path = tempPath("merge");
    TunedConfigDb onDisk;
    TunedEntry newer = sampleEntry("shared");
    newer.variant = "tpu-v2-256x256";
    onDisk.upsert(newer);
    onDisk.upsert(sampleEntry("disk_only"));
    ASSERT_TRUE(onDisk.saveFile(path));

    TunedConfigDb db;
    db.upsert(sampleEntry("shared")); // to be overwritten by the file
    db.upsert(sampleEntry("memory_only"));
    const auto stats = db.loadFile(path);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(db.size(), 3u);
    EXPECT_EQ(db.find("tpu", "channel-first", "shared", 1)->variant, "tpu-v2-256x256");
    EXPECT_NE(db.find("tpu", "channel-first", "memory_only", 1), nullptr);
    EXPECT_NE(db.find("tpu", "channel-first", "disk_only", 1), nullptr);
    std::remove(path.c_str());
}

TEST(TunedConfigDb, SaveWritesAChecksumTrailer)
{
    const std::string path = tempPath("trailer");
    TunedConfigDb db;
    db.upsert(sampleEntry());
    ASSERT_TRUE(db.saveFile(path));

    std::ifstream in(path, std::ios::binary);
    std::string raw;
    raw.assign(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
    EXPECT_NE(raw.find(kChecksumTrailerPrefix), std::string::npos);

    // The verified loader strips the trailer transparently.
    TunedConfigDb loaded;
    ASSERT_TRUE(loaded.loadFile(path).ok());
    EXPECT_EQ(loaded.size(), 1u);
    std::remove(path.c_str());
}

TEST(TunedConfigDb, LoadOrRecoverStartsFreshWhenMissing)
{
    TunedConfigDb db;
    const DbLoadStats stats = db.loadOrRecover(tempPath("never_written"));
    EXPECT_TRUE(stats.fresh);
    EXPECT_FALSE(stats.recovered);
    EXPECT_EQ(db.size(), 0u);
}

TEST(TunedConfigDb, LoadOrRecoverQuarantinesATornFile)
{
    const std::string path = tempPath("torn");
    TunedConfigDb onDisk;
    onDisk.upsert(sampleEntry());
    ASSERT_TRUE(onDisk.saveFile(path));

    // Tear the file the way an interrupted write would: keep a prefix
    // of the content plus the now-stale checksum trailer.
    std::string raw;
    {
        std::ifstream in(path, std::ios::binary);
        raw.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
    }
    const size_t trailer = raw.rfind(kChecksumTrailerPrefix);
    ASSERT_NE(trailer, std::string::npos);
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << raw.substr(0, raw.size() / 2) << raw.substr(trailer);
    }

    // The strict loader refuses the torn file...
    TunedConfigDb strict;
    EXPECT_FALSE(strict.loadFile(path).ok());

    // ...while loadOrRecover() deletes it and reports the recovery,
    // leaving the db empty but usable for a clean re-save.
    TunedConfigDb db;
    const DbLoadStats stats = db.loadOrRecover(path);
    EXPECT_TRUE(stats.recovered);
    EXPECT_FALSE(stats.fresh);
    EXPECT_EQ(db.size(), 0u);
    EXPECT_FALSE(std::ifstream(path).good()); // quarantined

    db.upsert(sampleEntry());
    ASSERT_TRUE(db.saveFile(path));
    TunedConfigDb reread;
    const DbLoadStats again = reread.loadOrRecover(path);
    EXPECT_FALSE(again.recovered);
    EXPECT_EQ(reread.size(), 1u);
    std::remove(path.c_str());
}

} // namespace
} // namespace cfconv::tune
