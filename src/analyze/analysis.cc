#include "analyze/analysis.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <utility>

namespace cfconv::analyze {

namespace {

using Interval = std::pair<double, double>;

/** Merge (start, end) pairs into a sorted disjoint interval list. */
std::vector<Interval>
mergeIntervals(std::vector<Interval> spans)
{
    std::sort(spans.begin(), spans.end());
    std::vector<Interval> merged;
    for (const auto &s : spans) {
        if (s.second <= s.first)
            continue;
        if (!merged.empty() && s.first <= merged.back().second)
            merged.back().second =
                std::max(merged.back().second, s.second);
        else
            merged.push_back(s);
    }
    return merged;
}

double
totalLength(const std::vector<Interval> &merged)
{
    double total = 0.0;
    for (const auto &s : merged)
        total += s.second - s.first;
    return total;
}

/** Two-pointer intersection length of two disjoint sorted lists. */
double
intersectionLength(const std::vector<Interval> &a,
                   const std::vector<Interval> &b)
{
    double total = 0.0;
    size_t i = 0, j = 0;
    while (i < a.size() && j < b.size()) {
        const double lo = std::max(a[i].first, b[j].first);
        const double hi = std::min(a[i].second, b[j].second);
        if (hi > lo)
            total += hi - lo;
        if (a[i].second < b[j].second)
            ++i;
        else
            ++j;
    }
    return total;
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) ==
               0;
}

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.compare(0, prefix.size(), prefix) == 0;
}

std::vector<std::string>
splitWords(const std::string &s)
{
    std::vector<std::string> words;
    size_t pos = 0;
    while (pos < s.size()) {
        const size_t space = s.find(' ', pos);
        if (space == std::string::npos) {
            words.push_back(s.substr(pos));
            break;
        }
        if (space > pos)
            words.push_back(s.substr(pos, space - pos));
        pos = space + 1;
    }
    return words;
}

/** One sim row's spans and instants, gathered per tid. */
struct SimRow
{
    std::string label;
    std::vector<Interval> spans;
    std::vector<const TraceEvent *> spanEvents;
    std::vector<const TraceEvent *> instants;
};

/** Pre-sort/dedupe form of a timeline: both rows' raw spans. The
 *  serialized content orders same-key instances deterministically
 *  regardless of which pool thread recorded them. */
struct RawTimeline
{
    std::vector<Interval> fill;
    std::vector<Interval> compute;

    std::string contentKey() const
    {
        std::string key;
        char buf[64];
        for (const auto &s : fill) {
            std::snprintf(buf, sizeof(buf), "f%.17g:%.17g;", s.first,
                          s.second);
            key += buf;
        }
        for (const auto &s : compute) {
            std::snprintf(buf, sizeof(buf), "c%.17g:%.17g;", s.first,
                          s.second);
            key += buf;
        }
        return key;
    }
};

TimelineAnalysis
analyzeTimeline(const std::string &key, const RawTimeline &raw)
{
    TimelineAnalysis t;
    t.key = key;
    t.signature = timelineSignature(key);
    t.fillSpans = raw.fill.size();
    t.computeSpans = raw.compute.size();

    const auto words = splitWords(key);
    if (!words.empty() && words[0] == "gemm") {
        t.kind = "gemm";
        t.style = "gemm";
    } else if (words.size() >= 3 &&
               words[2].find("->") != std::string::npos) {
        t.kind = "conv";
        t.style = words[0];
    } else {
        t.kind = "other";
        t.style = words.empty() ? std::string() : words[0];
    }

    const auto fill = mergeIntervals(raw.fill);
    const auto compute = mergeIntervals(raw.compute);
    std::vector<Interval> all;
    all.reserve(raw.fill.size() + raw.compute.size());
    all.insert(all.end(), raw.fill.begin(), raw.fill.end());
    all.insert(all.end(), raw.compute.begin(), raw.compute.end());
    const auto busy = mergeIntervals(all);
    if (busy.empty())
        return t;

    t.fillCycles = totalLength(fill);
    t.computeCycles = totalLength(compute);
    t.overlapCycles = intersectionLength(fill, compute);
    t.exposedFillCycles = t.fillCycles - t.overlapCycles;
    t.spanCycles = busy.back().second - busy.front().first;
    t.idleCycles = t.spanCycles - totalLength(busy);

    if (t.fillCycles > 0.0)
        t.overlapRatio = t.overlapCycles / t.fillCycles;
    if (t.spanCycles > 0.0) {
        t.computeFrac = t.computeCycles / t.spanCycles;
        t.exposedFillFrac = t.exposedFillCycles / t.spanCycles;
        t.idleFrac = t.idleCycles / t.spanCycles;
        t.fillResidency = t.fillCycles / t.spanCycles;
        t.computeResidency = t.computeCycles / t.spanCycles;
    }
    t.fillBound = t.fillCycles > t.computeCycles;
    return t;
}

/** Parse "serve chipN (variant)" into its chip index and variant. */
void
parseChipLabel(const std::string &label, ChipOccupancy &chip)
{
    chip.track = label;
    const size_t idx = std::string("serve chip").size();
    size_t end = idx;
    while (end < label.size() && label[end] >= '0' && label[end] <= '9')
        ++end;
    if (end > idx)
        chip.chip = std::stoi(label.substr(idx, end - idx));
    const size_t open = label.find('(', end);
    const size_t close = label.rfind(')');
    if (open != std::string::npos && close != std::string::npos &&
        close > open)
        chip.variant = label.substr(open + 1, close - open - 1);
}

} // namespace

double
unionCycles(std::vector<Interval> spans)
{
    return totalLength(mergeIntervals(std::move(spans)));
}

std::string
timelineSignature(const std::string &key)
{
    const auto words = splitWords(key);
    if (words.size() >= 3 && words[0] != "gemm" &&
        words[1].find('x') != std::string::npos &&
        words[2].find("->") != std::string::npos)
        return words[1] + " " + words[2];
    return key;
}

TraceAnalysis
analyzeTrace(const TraceDocument &doc, const AnalyzeOptions &options)
{
    TraceAnalysis a;

    // ---- Gather simulated-cycle rows by tid, labelled from metadata.
    std::map<int, SimRow> rows;
    for (const auto &[key, label] : doc.trackNames)
        if (key.first == kSimPid)
            rows[key.second].label = label;
    for (const auto &e : doc.events) {
        if (!e.onSimClock())
            continue;
        auto &row = rows[e.tid];
        if (e.phase == TraceEvent::Phase::Complete) {
            row.spans.push_back({e.ts, e.end()});
            row.spanEvents.push_back(&e);
        } else if (e.phase == TraceEvent::Phase::Instant)
            row.instants.push_back(&e);
    }

    // ---- Classify rows: fill/compute pairs, serving chips, the rest.
    // Fill and compute rows pair by per-key allocation order: the
    // simulators allocate "<key> fill" immediately followed by
    // "<key> compute", so the k-th fill tid and the k-th
    // compute tid under one key belong to the same simulated layer
    // even when several accelerator variants reuse the label.
    struct KeyRows
    {
        std::vector<const SimRow *> fill;
        std::vector<const SimRow *> compute;
    };
    std::map<std::string, KeyRows> keyed;
    std::map<std::string, std::vector<const SimRow *>> chipRows;
    std::map<std::string, std::vector<const SimRow *>> genericRows;
    std::vector<const SimRow *> degradeRows;
    for (const auto &[tid, row] : rows) {
        (void)tid;
        if (endsWith(row.label, " fill"))
            keyed[row.label.substr(0, row.label.size() - 5)]
                .fill.push_back(&row);
        else if (endsWith(row.label, " compute"))
            keyed[row.label.substr(0, row.label.size() - 8)]
                .compute.push_back(&row);
        else if (startsWith(row.label, "serve chip"))
            chipRows[row.label].push_back(&row);
        else if (row.label == "serve degradation")
            degradeRows.push_back(&row);
        else
            genericRows[row.label].push_back(&row);
    }

    // ---- Per-key: pair rows, order instances by content, collapse
    // exact duplicates (concurrent memo-cache misses replay identical
    // timelines; so do repeated runs of the same layer).
    for (const auto &[key, kr] : keyed) {
        const size_t n = std::max(kr.fill.size(), kr.compute.size());
        std::vector<RawTimeline> instances;
        instances.reserve(n);
        for (size_t i = 0; i < n; ++i) {
            RawTimeline raw;
            if (i < kr.fill.size()) {
                raw.fill = kr.fill[i]->spans;
                std::sort(raw.fill.begin(), raw.fill.end());
            }
            if (i < kr.compute.size()) {
                raw.compute = kr.compute[i]->spans;
                std::sort(raw.compute.begin(), raw.compute.end());
            }
            instances.push_back(std::move(raw));
        }
        std::sort(instances.begin(), instances.end(),
                  [](const RawTimeline &x, const RawTimeline &y) {
                      return x.contentKey() < y.contentKey();
                  });
        std::string last;
        int ordinal = 0;
        for (const auto &raw : instances) {
            const std::string content = raw.contentKey();
            if (!a.timelines.empty() && content == last &&
                a.timelines.back().key == key)
                continue; // duplicate replay of the same timeline
            last = content;
            TimelineAnalysis t = analyzeTimeline(key, raw);
            t.instance = ordinal++;
            a.timelines.push_back(std::move(t));
        }
    }

    // ---- Disambiguate colliding signatures deterministically: the
    // diff aligner needs signature -> timeline to be one-to-one.
    {
        std::map<std::string, int> seen;
        for (auto &t : a.timelines) {
            const int n = ++seen[t.signature];
            if (n > 1)
                t.signature += " #" + std::to_string(n);
        }
    }

    // ---- Run-level critical path over every timeline.
    auto &cp = a.criticalPath;
    for (const auto &t : a.timelines) {
        ++cp.timelines;
        cp.spanCycles += t.spanCycles;
        cp.computeCycles += t.computeCycles;
        cp.fillCycles += t.fillCycles;
        cp.overlapCycles += t.overlapCycles;
        cp.exposedFillCycles += t.exposedFillCycles;
        cp.idleCycles += t.idleCycles;
    }
    if (cp.fillCycles > 0.0)
        cp.overlapRatio = cp.overlapCycles / cp.fillCycles;
    if (cp.spanCycles > 0.0) {
        cp.computeFrac = cp.computeCycles / cp.spanCycles;
        cp.exposedFillFrac = cp.exposedFillCycles / cp.spanCycles;
        cp.idleFrac = cp.idleCycles / cp.spanCycles;
    }

    // ---- Serving chips. One occupancy row per track: a bench can
    // run several serving scenarios in one trace session, each
    // allocating fresh chip tracks that restart the tick axis, so
    // same-label tracks must never be merged. The k-th occurrence of
    // a label (tid allocation order — scenarios run serially) is
    // scenario k; the fleet-wide makespan is taken per scenario.
    std::map<int, double> runMakespan;
    std::map<std::string, int> labelRuns;
    std::vector<ChipOccupancy> chips;
    std::vector<ChipResilience> breakers;
    for (const auto &[label, group] : chipRows)
        for (const SimRow *row : group) {
            ChipOccupancy chip;
            parseChipLabel(label, chip);
            chip.run = labelRuns[label]++;
            chip.batches = row->spans.size();
            for (const TraceEvent *s : row->spanEvents) {
                auto it = s->args.find("batch");
                if (it != s->args.end())
                    chip.requests += it->second;
            }
            // Resilience instants ride on the same chip track:
            // breaker state changes and hedge-race outcomes. The row
            // only materializes when at least one event exists, so
            // stock serving traces contribute nothing here.
            ChipResilience res;
            res.track = chip.track;
            res.run = chip.run;
            res.chip = chip.chip;
            res.variant = chip.variant;
            for (const TraceEvent *i : row->instants) {
                if (i->name == "chip_down") {
                    ++chip.outages;
                    auto it = i->args.find("downtimeTicks");
                    if (it != i->args.end())
                        chip.downTicks += it->second;
                } else if (i->name == "breaker_open") {
                    ++res.trips;
                    auto it = i->args.find("openTicks");
                    if (it != i->args.end())
                        res.openTicks += it->second;
                    res.timeline.push_back({i->ts, "open"});
                } else if (i->name == "breaker_probe") {
                    ++res.probes;
                    res.timeline.push_back({i->ts, "probe"});
                } else if (i->name == "breaker_close") {
                    ++res.closes;
                    res.timeline.push_back({i->ts, "closed"});
                } else if (i->name == "hedge_win")
                    ++res.hedgeWins;
                else if (i->name == "hedge_loss")
                    ++res.hedgeLosses;
            }
            // Instants land in emission order (serial simulated
            // time); a stable sort by tick keeps same-tick emission
            // order while guarding against buffered reordering.
            std::stable_sort(res.timeline.begin(), res.timeline.end(),
                             [](const BreakerEvent &x,
                                const BreakerEvent &y) {
                                 return x.tick < y.tick;
                             });
            if (res.trips + res.probes + res.closes + res.hedgeWins +
                    res.hedgeLosses >
                0)
                breakers.push_back(std::move(res));
            chip.busyTicks = totalLength(mergeIntervals(row->spans));
            auto &makespan = runMakespan[chip.run];
            for (const auto &s : row->spans)
                makespan = std::max(makespan, s.second);
            a.resilience.chipDownEvents += chip.outages;
            chips.push_back(std::move(chip));
        }
    for (auto &chip : chips) {
        const double makespan = runMakespan[chip.run];
        chip.makespanTicks = makespan;
        chip.idleTicks = std::max(
            0.0, makespan - chip.busyTicks - chip.downTicks);
        if (makespan > 0.0)
            chip.occupancy = chip.busyTicks / makespan;
    }
    a.chips = std::move(chips);
    std::sort(a.chips.begin(), a.chips.end(),
              [](const ChipOccupancy &x, const ChipOccupancy &y) {
                  return std::tie(x.run, x.chip, x.track) <
                         std::tie(y.run, y.chip, y.track);
              });

    // ---- Serving resilience: breaker rows sorted like the chips,
    // plus degradation-step occupancy integrated from the "serve
    // degradation" track. Each degradation-enabled scenario allocates
    // a fresh instance of that track, so the k-th occurrence (tid
    // allocation order — scenarios run serially) is occupancy row k.
    std::sort(breakers.begin(), breakers.end(),
              [](const ChipResilience &x, const ChipResilience &y) {
                  return std::tie(x.run, x.chip, x.track) <
                         std::tie(y.run, y.chip, y.track);
              });
    for (const auto &res : breakers) {
        a.serving.hedgeWins += res.hedgeWins;
        a.serving.hedgeLosses += res.hedgeLosses;
    }
    a.serving.chips = std::move(breakers);
    {
        int run = 0;
        for (const SimRow *row : degradeRows) {
            DegradationOccupancy occ;
            occ.run = run++;
            // The track carries one "degrade_step" per state (the
            // initial step 0 included) and a closing "degrade_end" at
            // the scenario makespan; residency at a step is the gap
            // to the next instant.
            std::vector<std::pair<double, double>> steps; // tick, step
            double endTick = 0.0;
            bool closed = false;
            for (const TraceEvent *i : row->instants) {
                auto it = i->args.find("step");
                const double step =
                    it != i->args.end() ? it->second : 0.0;
                if (i->name == "degrade_step")
                    steps.push_back({i->ts, step});
                else if (i->name == "degrade_end") {
                    endTick = i->ts;
                    closed = true;
                }
            }
            std::stable_sort(steps.begin(), steps.end(),
                             [](const auto &x, const auto &y) {
                                 return x.first < y.first;
                             });
            occ.transitions = steps.size() > 1 ? steps.size() - 1 : 0;
            for (size_t i = 0; i < steps.size(); ++i) {
                const int step = std::min(
                    3, std::max(0, static_cast<int>(steps[i].second)));
                occ.maxStep = std::max(occ.maxStep, step);
                const double next = i + 1 < steps.size()
                    ? steps[i + 1].first
                    : (closed ? endTick : steps[i].first);
                if (next > steps[i].first)
                    occ.stepTicks[step] += next - steps[i].first;
            }
            a.serving.degradation.push_back(occ);
        }
    }
    a.hasServingResilience = a.serving.any();

    // ---- Everything else on the sim clock: functional-core rows,
    // chaos tracks, future emitters. Chaos instants feed the
    // resilience tally.
    for (const auto &[label, group] : genericRows) {
        GenericTrack track;
        track.label = label;
        std::vector<Interval> spans;
        double lo = 0.0, hi = 0.0;
        bool any = false;
        for (const SimRow *row : group) {
            track.spans += row->spans.size();
            track.instants += row->instants.size();
            for (const auto &s : row->spans) {
                spans.push_back(s);
                lo = any ? std::min(lo, s.first) : s.first;
                hi = any ? std::max(hi, s.second) : s.second;
                any = true;
            }
            if (startsWith(label, "resilience "))
                for (const TraceEvent *i : row->instants) {
                    if (startsWith(i->name, "fault "))
                        ++a.resilience.faults;
                    else if (startsWith(i->name, "failover "))
                        ++a.resilience.failovers;
                }
        }
        track.busyCycles = totalLength(mergeIntervals(std::move(spans)));
        track.spanCycles = any ? hi - lo : 0.0;
        a.otherTracks.push_back(std::move(track));
    }
    a.hasResilience = a.resilience.faults + a.resilience.failovers +
                          a.resilience.chipDownEvents >
                      0;

    // ---- Identities from the wall-clock runner spans. One span per
    // model run / per chip variant regardless of thread count, so
    // these sorted sets stay in the deterministic section.
    std::set<std::string> models, accelerators, algorithms, variants;
    for (const auto &e : doc.events) {
        if (e.pid != kWallPid || e.category != "runner")
            continue;
        if (e.phase == TraceEvent::Phase::Complete &&
            startsWith(e.name, "runModel ")) {
            const std::string rest = e.name.substr(9);
            const size_t on = rest.rfind(" on ");
            if (on != std::string::npos) {
                models.insert(rest.substr(0, on));
                accelerators.insert(rest.substr(on + 4));
            }
        }
        auto it = e.textArgs.find("algorithm");
        if (it != e.textArgs.end())
            algorithms.insert(it->second);
        it = e.textArgs.find("variant");
        if (it != e.textArgs.end())
            variants.insert(it->second);
    }
    for (const auto &chip : a.chips)
        if (!chip.variant.empty())
            variants.insert(chip.variant);
    a.models.assign(models.begin(), models.end());
    a.accelerators.assign(accelerators.begin(), accelerators.end());
    a.algorithms.assign(algorithms.begin(), algorithms.end());
    a.variants.assign(variants.begin(), variants.end());

    // ---- Wall-clock section (run-to-run varying; optional).
    if (options.includeWall) {
        a.hasWall = true;
        auto &w = a.wall;
        std::map<std::string, std::vector<Interval>> counterSamples;
        for (const auto &e : doc.events) {
            if (e.pid != kWallPid)
                continue;
            ++w.events;
            if (e.phase == TraceEvent::Phase::Complete &&
                e.category == "runner") {
                if (startsWith(e.name, "runModel "))
                    ++w.modelSpans;
                else if (e.name.find(" layer ") != std::string::npos) {
                    ++w.layerSpans;
                    w.layerWallUsTotal += e.dur;
                }
            } else if (e.phase == TraceEvent::Phase::Counter) {
                auto it = e.args.find("value");
                if (it != e.args.end())
                    counterSamples[e.category + "." + e.name].push_back(
                        {e.ts, it->second});
            } else if (e.phase == TraceEvent::Phase::Instant &&
                       e.category == "cache") {
                const size_t dot = e.name.rfind('.');
                if (dot != std::string::npos) {
                    const std::string what = e.name.substr(dot + 1);
                    auto &cache = w.caches[e.name.substr(0, dot)];
                    if (what == "hit")
                        cache.hits += 1.0;
                    else if (what == "miss")
                        cache.misses += 1.0;
                }
            }
        }
        for (auto &[name, samples] : counterSamples) {
            // Counter events land in per-thread buffers, so file
            // order is not time order: sort by timestamp before the
            // step-function integral.
            std::sort(samples.begin(), samples.end());
            CounterStats stats;
            stats.samples = samples.size();
            stats.min = samples.front().second;
            stats.max = samples.front().second;
            stats.last = samples.back().second;
            double integral = 0.0;
            for (size_t i = 0; i < samples.size(); ++i) {
                stats.min = std::min(stats.min, samples[i].second);
                stats.max = std::max(stats.max, samples[i].second);
                if (i + 1 < samples.size())
                    integral += samples[i].second *
                                (samples[i + 1].first -
                                 samples[i].first);
            }
            const double window =
                samples.back().first - samples.front().first;
            stats.timeWeightedMean = window > 0.0
                ? integral / window
                : samples.back().second;
            w.counters[name] = stats;
        }
    }
    return a;
}

} // namespace cfconv::analyze
