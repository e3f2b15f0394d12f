/** @file The run-length fill streams and the row-cursor DRAM walk
 *  against the per-element reference of dram_oracle.h: the same
 *  requests, and exactly the same cycles, bandwidth and hit rate. */

#include <gtest/gtest.h>

#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "dram/access_pattern.h"
#include "dram/dram_model.h"
#include "dram_oracle.h"
#include "im2col/filter_decomp.h"
#include "models/model_zoo.h"

namespace cfconv::dram {
namespace {

using NamedConfig = std::pair<std::string, DramConfig>;

/** Configs on both sides of the settle condition
 *  (banksPerChannel - 1) * fullBurst >= miss latency. */
std::vector<NamedConfig>
walkConfigs()
{
    DramConfig odd; // rows that are not a power of two
    odd.channels = 3;
    odd.banksPerChannel = 5;
    odd.rowBytes = 1000;
    odd.busBytesPerCycle = 24;
    DramConfig unsettled; // 1 * 16-cycle burst < a 74-cycle miss
    unsettled.channels = 2;
    unsettled.banksPerChannel = 2;
    unsettled.rowBytes = 512;
    unsettled.tPrecharge = 30;
    unsettled.tActivate = 30;
    DramConfig settled = unsettled; // 11 * 16 >= 74
    settled.banksPerChannel = 12;
    DramConfig single;
    single.channels = 1;
    single.banksPerChannel = 1;
    return {{"hbm700", DramConfig::hbm700()},
            {"hbm900", DramConfig::hbm900()},
            {"default", DramConfig{}},
            {"3x5-rows1000-bus24", odd},
            {"2x2-slow-rows", unsettled},
            {"2x12-slow-rows", settled},
            {"1x1", single}};
}

/** A random stream of single requests and strided runs: sub-row,
 *  row-crossing and multi-row runs, jumps back and forth, runs that
 *  continue where the last one ended, requests up to 3 MB, and
 *  requests that cross a 128 MB boundary up to 17.5 GB. */
std::vector<Request>
randomStream(Rng &rng, Bytes row)
{
    std::vector<Request> stream;
    Bytes cursor = rng.below(1 << 20);
    const Index runs = 1 + static_cast<Index>(rng.below(24));
    for (Index i = 0; i < runs; ++i) {
        Request r;
        switch (rng.below(7)) {
          case 0: // single request anywhere
            r.addr = rng.below(64ULL << 20);
            r.bytes = 1 + rng.below(4 * row);
            break;
          case 1: // sub-row run
            r.bytes = 1 + rng.below(64);
            r.count = 1 + static_cast<Index>(rng.below(48));
            r.stride = r.bytes + rng.below(row / 2);
            break;
          case 2: // row-crossing run
            r.bytes = row / 2 + rng.below(2 * row);
            r.count = 1 + static_cast<Index>(rng.below(12));
            r.stride = r.bytes + rng.below(row);
            break;
          case 3: // multi-row run
            r.bytes = 1 + rng.below(5 * row);
            r.count = 1 + static_cast<Index>(rng.below(8));
            r.stride = r.bytes + rng.below(20 * row);
            break;
          case 4: // a long request
            r.bytes = 1 + rng.below(3ULL << 20);
            break;
          case 5: // a long request across a 128 MB boundary
            r.addr = ((1 + rng.below(140)) << 27) - 1 - rng.below(8 * row);
            r.bytes = 1 + rng.below(1ULL << 20);
            break;
          default: // a run of equal bursts back to back
            r.bytes = 1 + rng.below(2 * row);
            r.count = 1 + static_cast<Index>(rng.below(16));
            r.stride = r.bytes;
            break;
        }
        if (r.addr == 0) {
            // Continue near the last request, or jump back.
            switch (rng.below(3)) {
              case 0:
                r.addr = cursor + rng.below(64);
                break;
              case 1:
                r.addr = cursor > row ? cursor - rng.below(cursor) : 0;
                break;
              default:
                r.addr = rng.below(64ULL << 20);
                break;
            }
        }
        cursor = r.addr + static_cast<Bytes>(r.count - 1) * r.stride +
                 r.bytes;
        stream.push_back(r);
    }
    return stream;
}

/** Every request of @p got equals its counterpart in @p want. */
::testing::AssertionResult
sameRequests(const std::vector<Request> &got,
             const std::vector<Request> &want)
{
    if (got.size() != want.size())
        return ::testing::AssertionFailure()
               << got.size() << " requests, want " << want.size();
    for (size_t i = 0; i < got.size(); ++i)
        if (got[i].addr != want[i].addr || got[i].bytes != want[i].bytes ||
            got[i].count != want[i].count)
            return ::testing::AssertionFailure()
                   << "request " << i << ": [" << got[i].addr << ", +"
                   << got[i].bytes << "] x" << got[i].count << ", want ["
                   << want[i].addr << ", +" << want[i].bytes << "]";
    return ::testing::AssertionSuccess();
}

/** The model and the oracle report the same cycles, bandwidth and hit
 *  rate for @p stream under @p config. */
::testing::AssertionResult
servicesAlike(const DramConfig &config, const std::vector<Request> &stream)
{
    DramModel model(config);
    const Cycles cycles = model.service(stream);
    const oracle::Serviced want =
        oracle::service(config, oracle::expand(stream));
    if (cycles == want.cycles && model.lastEffectiveGBps() == want.gbps &&
        model.lastRowHitRate() == want.rowHitRate)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << cycles << " cycles, " << model.lastEffectiveGBps()
           << " GB/s, hit rate " << model.lastRowHitRate() << "; want "
           << want.cycles << ", " << want.gbps << ", " << want.rowHitRate;
}

TEST(DramModel, ServiceEqualsThePerPieceOracle)
{
    Rng rng(2024);
    for (const auto &[name, config] : walkConfigs()) {
        int failures = 0;
        for (int s = 0; s < 1000 && failures < 3; ++s) {
            const std::vector<Request> stream =
                randomStream(rng, config.rowBytes);
            const ::testing::AssertionResult alike =
                servicesAlike(config, stream);
            if (!alike) {
                ++failures;
                ADD_FAILURE() << name << ", stream " << s << ": "
                              << alike.message();
            }
        }
    }
}

/** A full row's data-bus cycles under @p config. */
Cycles
fullBurst(const DramConfig &config)
{
    return std::max<Cycles>(
        2, divCeil<Bytes>(config.rowBytes, config.busBytesPerCycle));
}

/** Whether the banks of @p config settle: banksPerChannel - 1 full
 *  bursts cover the slowest access, a conflict. */
bool
settles(const DramConfig &config)
{
    return static_cast<Cycles>(config.banksPerChannel - 1) *
               fullBurst(config) >=
           config.tPrecharge + config.tActivate + config.tCas;
}

/** The settle point: the pieces of a long request served one by one
 *  before its tail runs bus-bound, 1 + channels * ceil(slowest access /
 *  full burst). */
Index
settlePoint(const DramConfig &config)
{
    const Cycles slowest =
        config.tPrecharge + config.tActivate + config.tCas;
    return 1 + config.channels * static_cast<Index>(
                                     divCeil(slowest, fullBurst(config)));
}

/** Bytes of a request of @p pieces row pieces whose first starts
 *  @p offset bytes into its row and whose last moves @p last bytes. */
Bytes
requestBytes(Bytes row, Index pieces, Bytes offset, Bytes last)
{
    if (pieces == 1)
        return std::min(last, row - offset);
    return row - offset + static_cast<Bytes>(pieces - 2) * row + last;
}

TEST(DramModel, LongRequestTailEqualsThePerPieceOracle)
{
    // Requests of every length around the walk's boundaries, from every
    // bank of a turn, after prefixes that leave banks hot: a bank the
    // long request reaches (its first piece, or the pieces at and just
    // before the settle point) holds the previous row of that bank,
    // opened by a request that ends there and a sub-row run in the same
    // row, so its ready time is its bus's. The suffixes go on from the
    // tail's last row and read the request's first rows again, in both
    // orders, so the state the tail leaves shows.
    for (const auto &[name, config] : walkConfigs()) {
        if (!settles(config) && name != "2x2-slow-rows")
            continue;
        const Bytes row = config.rowBytes;
        const Index banks = config.channels * config.banksPerChannel;
        const Index settle = settlePoint(config);
        // The walk's boundaries: the settle point, the end of the tail's
        // exact window (as long again), the banks the walk leaves
        // fresh, a tail of one turn, two turns.
        std::set<Index> lengths; // in pieces
        for (const Index at : {settle, 2 * settle, banks, settle + banks,
                               2 * banks})
            for (const Index d : {-1, 0, 1})
                if (at + d >= 1)
                    lengths.insert(at + d);
        lengths.insert(3 * banks + 3);

        int failures = 0;
        const auto expect_alike = [&](const std::vector<Request> &stream,
                                      Index pieces) {
            const ::testing::AssertionResult alike =
                servicesAlike(config, stream);
            if (!alike && ++failures <= 3)
                ADD_FAILURE() << name << ", " << pieces << " pieces at ["
                              << stream[stream.size() - 4].addr << ", +"
                              << stream[stream.size() - 4].bytes
                              << "] in a stream of " << stream.size()
                              << ": " << alike.message();
        };
        for (Index start = 0; start < banks && failures < 3; ++start) {
            const Index r0 = 4 * banks + start; // the first piece's row
            const Bytes r0_addr = static_cast<Bytes>(r0) * row;
            const auto hot = [&](Index h) {
                const Bytes prev = static_cast<Bytes>(h - banks) * row;
                return std::vector<Request>{{prev - 2 * row + 3, 3 * row - 3},
                                            {prev + 8, 16, 3, 40}};
            };
            const std::vector<std::vector<Request>> prefixes = {
                {},
                hot(r0),
                hot(r0 + settle - 1),
                hot(r0 + settle),
                {{r0_addr + row, static_cast<Bytes>(banks - 1) * row}}};
            for (const Index length : lengths)
                for (const Bytes offset : {Bytes{0}, Bytes{1}, row - 1})
                    for (const Bytes last : {row, row / 2 + 1}) {
                        const Request request = {
                            r0_addr + offset,
                            requestBytes(row, length, offset, last)};
                        const Bytes end = request.addr + request.bytes;
                        const Request on[] = {{end, 4, 3, 8},
                                              {end + 24, row + 1}};
                        const Request back = {r0_addr, 2 * row};
                        for (std::vector<Request> stream : prefixes) {
                            stream.push_back(request);
                            std::vector<Request> back_first = stream;
                            stream.insert(stream.end(), {on[0], on[1], back});
                            back_first.insert(back_first.end(),
                                              {back, on[0], on[1]});
                            expect_alike(stream, length);
                            expect_alike(back_first, length);
                        }
                    }
        }
    }
}

/** One model of the eight-model zoo. */
struct ZooModel
{
    const char *name;
    models::ModelSpec (*build)(Index batch);
};

/** Print the name only, so test names do not vary between runs. */
void
PrintTo(const ZooModel &model, std::ostream *os)
{
    *os << model.name;
}

/** One zoo model per instance, so that no instance runs for long: the
 *  per-element oracle walks every channel of every image. */
class TileFillStream : public ::testing::TestWithParam<ZooModel>
{};

TEST_P(TileFillStream, ExpandsToThePerElementOracle)
{
    const std::vector<NamedConfig> configs = {
        {"hbm700", DramConfig::hbm700()},
        {"hbm900", DramConfig::hbm900()},
        {"default", DramConfig{}}};
    for (const Index batch : {1, 8}) {
        std::set<std::string> seen;
        for (const models::ConvLayerSpec &layer :
             GetParam().build(batch).layers) {
            const ConvParams &p = layer.params;
            if (!seen.insert(p.toString()).second)
                continue;
            for (const im2col::FilterTile &tap :
                 im2col::decomposeFilter(p)) {
                for (const Layout layout : {Layout::HWCN, Layout::NHWC,
                                            Layout::NCHW, Layout::CHWN}) {
                    const std::vector<Request> runs =
                        tileFillStream(p, tap, layout);
                    const std::vector<Request> expanded =
                        oracle::expand(runs);
                    ASSERT_TRUE(sameRequests(
                        expanded, oracle::tileFillStream(p, tap, layout)))
                        << p.toString() << " tap <" << tap.r << ","
                        << tap.s << "> " << tensor::layoutName(layout);
                    ASSERT_EQ(streamBytes(runs), streamBytes(expanded));
                    if (layout != Layout::HWCN)
                        continue;
                    for (const auto &[name, config] : configs)
                        ASSERT_TRUE(servicesAlike(config, runs))
                            << name << ", " << p.toString() << " tap <"
                            << tap.r << "," << tap.s << ">";
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, TileFillStream,
    ::testing::Values(ZooModel{"alexnet", &models::alexnet},
                      ZooModel{"densenet121", &models::densenet121},
                      ZooModel{"googlenet", &models::googlenet},
                      ZooModel{"resnet50", &models::resnet50},
                      ZooModel{"vgg16", &models::vgg16},
                      ZooModel{"yolov2", &models::yolov2},
                      ZooModel{"zfnet", &models::zfnet},
                      ZooModel{"mobilenetv1", &models::mobilenetv1}),
    [](const auto &info) { return std::string(info.param.name); });

} // namespace
} // namespace cfconv::dram
