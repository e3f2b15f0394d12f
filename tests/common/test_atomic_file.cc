/** @file Tests for crash-consistent persistence (common/atomic_file):
 *  write-temp+rename round-trips, the FNV-1a checksum trailer,
 *  DATA_LOSS detection of torn/corrupted content, and acceptance of
 *  legacy trailer-less files. */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "common/atomic_file.h"
#include "common/rng.h"

namespace cfconv {
namespace {

std::string
tempPath(const std::string &stem)
{
    return testing::TempDir() + "cfconv_atomic_" + stem + ".txt";
}

std::string
rawRead(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

TEST(ContentChecksum, DeterministicAndContentSensitive)
{
    const std::string a = contentChecksum("hello");
    EXPECT_EQ(a.size(), 16u);
    EXPECT_EQ(a, contentChecksum("hello"));
    EXPECT_NE(a, contentChecksum("hello!"));
    EXPECT_NE(contentChecksum(""), contentChecksum("\n"));
}

TEST(ContentChecksum, IsTheFnv1aOfTheBytes)
{
    // Pinned: trailers written by earlier builds must keep verifying.
    EXPECT_EQ(contentChecksum("hello"), "a430d84680aabd0b");
    EXPECT_EQ(contentChecksum(""), "cbf29ce484222325");
    const std::string text = "tuned\n";
    char hex[24];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(
                      hashBytes(text.data(), text.size())));
    EXPECT_EQ(contentChecksum(text), hex);
}

TEST(AtomicWriteFile, RoundTripsAndReplacesExisting)
{
    const std::string path = tempPath("plain");
    ASSERT_TRUE(atomicWriteFile(path, "first\n"));
    auto read = readFileVerified(path);
    ASSERT_TRUE(read.ok()) << read.status().toString();
    EXPECT_EQ(read.value(), "first\n");

    // Replacement is atomic: no .tmp residue, new content visible.
    ASSERT_TRUE(atomicWriteFile(path, "second\n"));
    EXPECT_EQ(rawRead(path), "second\n");
    std::ifstream tmp(path + ".tmp");
    EXPECT_FALSE(tmp.good());
    std::remove(path.c_str());
}

TEST(AtomicWriteFile, ChecksummedRoundTripStripsTheTrailer)
{
    const std::string path = tempPath("sum");
    const std::string content = "{\"k\": 1}\n";
    ASSERT_TRUE(atomicWriteFileChecksummed(path, content));

    // The raw file carries the trailer; the verified read strips it.
    const std::string raw = rawRead(path);
    EXPECT_NE(raw.find(kChecksumTrailerPrefix), std::string::npos);
    auto read = readFileVerified(path);
    ASSERT_TRUE(read.ok()) << read.status().toString();
    EXPECT_EQ(read.value(), content);
    std::remove(path.c_str());
}

TEST(ReadFileVerified, TruncationIsDataLossNamingThePath)
{
    const std::string path = tempPath("torn");
    ASSERT_TRUE(
        atomicWriteFileChecksummed(path, "a long enough payload\n"));

    // Truncate mid-content, keeping the (now stale) trailer intact —
    // the shape a torn write or bit rot leaves behind.
    const std::string raw = rawRead(path);
    const size_t trailer = raw.rfind(kChecksumTrailerPrefix);
    ASSERT_NE(trailer, std::string::npos);
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << raw.substr(0, 4) << '\n' << raw.substr(trailer);
    }
    const auto read = readFileVerified(path);
    ASSERT_FALSE(read.ok());
    EXPECT_EQ(read.status().code(), StatusCode::kDataLoss);
    EXPECT_NE(read.status().toString().find(path), std::string::npos);
    std::remove(path.c_str());
}

TEST(ReadFileVerified, BitFlipIsDataLoss)
{
    const std::string path = tempPath("flip");
    ASSERT_TRUE(atomicWriteFileChecksummed(path, "payload payload\n"));
    std::string raw = rawRead(path);
    raw[0] = raw[0] == 'x' ? 'y' : 'x';
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << raw;
    }
    const auto read = readFileVerified(path);
    ASSERT_FALSE(read.ok());
    EXPECT_EQ(read.status().code(), StatusCode::kDataLoss);
    std::remove(path.c_str());
}

TEST(ReadFileVerified, LegacyTrailerlessFilesStillLoad)
{
    const std::string path = tempPath("legacy");
    {
        std::ofstream out(path, std::ios::binary);
        out << "old artifact without a trailer\n";
    }
    const auto read = readFileVerified(path);
    ASSERT_TRUE(read.ok()) << read.status().toString();
    EXPECT_EQ(read.value(), "old artifact without a trailer\n");
    std::remove(path.c_str());
}

TEST(ReadFileVerified, MissingFileIsNotFound)
{
    const auto read = readFileVerified("/nonexistent/dir/x.txt");
    ASSERT_FALSE(read.ok());
    EXPECT_EQ(read.status().code(), StatusCode::kNotFound);
}

TEST(AtomicWriteFile, UnwritablePathFailsWithoutAborting)
{
    EXPECT_FALSE(atomicWriteFile("/nonexistent-dir/x/y.txt", "z"));
    EXPECT_FALSE(
        atomicWriteFileChecksummed("/nonexistent-dir/x/y.txt", "z"));
}

} // namespace
} // namespace cfconv
