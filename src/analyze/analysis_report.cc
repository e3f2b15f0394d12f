#include "analyze/analysis_report.h"

#include "common/report.h"
#include "common/table.h"

namespace cfconv::analyze {

namespace {

void
emitStringArray(JsonWriter &w, const std::string &key,
                const std::vector<std::string> &values)
{
    w.key(key);
    w.beginArray();
    for (const auto &v : values)
        w.value(v);
    w.endArray();
}

void
emitCriticalPath(JsonWriter &w, const CriticalPathBreakdown &cp)
{
    w.beginObject();
    w.field("timelines", static_cast<std::uint64_t>(cp.timelines));
    w.field("span_cycles", cp.spanCycles);
    w.field("compute_cycles", cp.computeCycles);
    w.field("fill_cycles", cp.fillCycles);
    w.field("overlap_cycles", cp.overlapCycles);
    w.field("exposed_fill_cycles", cp.exposedFillCycles);
    w.field("idle_cycles", cp.idleCycles);
    w.field("overlap_ratio", cp.overlapRatio);
    w.field("compute_frac", cp.computeFrac);
    w.field("exposed_fill_frac", cp.exposedFillFrac);
    w.field("idle_frac", cp.idleFrac);
    w.endObject();
}

void
emitTimeline(JsonWriter &w, const TimelineAnalysis &t)
{
    w.beginObject();
    w.field("key", t.key);
    w.field("signature", t.signature);
    w.field("kind", t.kind);
    w.field("style", t.style);
    w.field("instance", static_cast<long long>(t.instance));
    w.field("span_cycles", t.spanCycles);
    w.field("compute_cycles", t.computeCycles);
    w.field("fill_cycles", t.fillCycles);
    w.field("overlap_cycles", t.overlapCycles);
    w.field("exposed_fill_cycles", t.exposedFillCycles);
    w.field("idle_cycles", t.idleCycles);
    w.field("fill_spans", static_cast<std::uint64_t>(t.fillSpans));
    w.field("compute_spans",
            static_cast<std::uint64_t>(t.computeSpans));
    w.field("overlap_ratio", t.overlapRatio);
    w.field("compute_frac", t.computeFrac);
    w.field("exposed_fill_frac", t.exposedFillFrac);
    w.field("idle_frac", t.idleFrac);
    w.field("fill_residency", t.fillResidency);
    w.field("compute_residency", t.computeResidency);
    w.field("fill_bound", t.fillBound);
    w.endObject();
}

void
emitDiffRow(JsonWriter &w, const DiffRow &row, bool aligned)
{
    w.beginObject();
    w.field("signature", row.signature);
    if (!row.leftKey.empty())
        w.field("left_key", row.leftKey);
    if (!row.rightKey.empty())
        w.field("right_key", row.rightKey);
    if (aligned) {
        w.field("left_span_cycles", row.leftSpanCycles);
        w.field("right_span_cycles", row.rightSpanCycles);
        w.field("span_ratio", row.spanRatio);
        w.field("left_overlap_ratio", row.leftOverlapRatio);
        w.field("right_overlap_ratio", row.rightOverlapRatio);
        w.field("overlap_delta", row.overlapDelta);
        w.field("left_exposed_fill_frac", row.leftExposedFillFrac);
        w.field("right_exposed_fill_frac", row.rightExposedFillFrac);
        w.field("exposed_fill_delta", row.exposedFillDelta);
        w.field("left_fill_bound", row.leftFillBound);
        w.field("right_fill_bound", row.rightFillBound);
    } else {
        const bool onLeft = !row.leftKey.empty();
        w.field("span_cycles",
                onLeft ? row.leftSpanCycles : row.rightSpanCycles);
        w.field("overlap_ratio",
                onLeft ? row.leftOverlapRatio : row.rightOverlapRatio);
        w.field("fill_bound",
                onLeft ? row.leftFillBound : row.rightFillBound);
    }
    w.endObject();
}

void
emitServingResilience(JsonWriter &w, const ServingResilience &s)
{
    w.key("serving");
    w.beginObject();
    w.field("hedge_wins", static_cast<std::uint64_t>(s.hedgeWins));
    w.field("hedge_losses",
            static_cast<std::uint64_t>(s.hedgeLosses));
    w.key("breakers");
    w.beginArray();
    for (const auto &c : s.chips) {
        w.beginObject();
        w.field("run", static_cast<long long>(c.run));
        w.field("chip", static_cast<long long>(c.chip));
        w.field("variant", c.variant);
        w.field("trips", static_cast<std::uint64_t>(c.trips));
        w.field("probes", static_cast<std::uint64_t>(c.probes));
        w.field("closes", static_cast<std::uint64_t>(c.closes));
        w.field("open_ticks", c.openTicks);
        w.field("hedge_wins",
                static_cast<std::uint64_t>(c.hedgeWins));
        w.field("hedge_losses",
                static_cast<std::uint64_t>(c.hedgeLosses));
        w.key("timeline");
        w.beginArray();
        for (const auto &e : c.timeline) {
            w.beginObject();
            w.field("tick", e.tick);
            w.field("state", e.state);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.key("degradation");
    w.beginArray();
    for (const auto &d : s.degradation) {
        w.beginObject();
        w.field("run", static_cast<long long>(d.run));
        w.field("transitions",
                static_cast<std::uint64_t>(d.transitions));
        w.field("max_step", static_cast<long long>(d.maxStep));
        w.key("step_ticks");
        w.beginArray();
        for (const double t : d.stepTicks)
            w.value(t);
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

/** Compact one-line rendering of a breaker timeline for the text
 *  table: "open@120 probe@260 closed@264 ...". */
std::string
timelineCell(const std::vector<BreakerEvent> &timeline)
{
    std::string out;
    for (const auto &e : timeline) {
        if (!out.empty())
            out += ' ';
        out += e.state + "@" + cell("%.0f", e.tick);
    }
    return out.empty() ? std::string("-") : out;
}

} // namespace

std::string
analysisJson(const TraceAnalysis &a)
{
    JsonWriter w;
    w.beginObject();
    w.field("schema", kAnalysisSchema);
    w.field("version", static_cast<long long>(kAnalysisSchemaVersion));

    w.key("source");
    w.beginObject();
    emitStringArray(w, "models", a.models);
    emitStringArray(w, "accelerators", a.accelerators);
    emitStringArray(w, "algorithms", a.algorithms);
    emitStringArray(w, "variants", a.variants);
    w.endObject();

    w.key("critical_path");
    emitCriticalPath(w, a.criticalPath);

    w.key("timelines");
    w.beginArray();
    for (const auto &t : a.timelines)
        emitTimeline(w, t);
    w.endArray();

    if (!a.otherTracks.empty()) {
        w.key("tracks");
        w.beginArray();
        for (const auto &t : a.otherTracks) {
            w.beginObject();
            w.field("label", t.label);
            w.field("spans", static_cast<std::uint64_t>(t.spans));
            w.field("instants",
                    static_cast<std::uint64_t>(t.instants));
            w.field("busy_cycles", t.busyCycles);
            w.field("span_cycles", t.spanCycles);
            w.endObject();
        }
        w.endArray();
    }

    if (!a.chips.empty()) {
        w.key("serving");
        w.beginObject();
        w.key("chips");
        w.beginArray();
        for (const auto &c : a.chips) {
            w.beginObject();
            w.field("run", static_cast<long long>(c.run));
            w.field("chip", static_cast<long long>(c.chip));
            w.field("variant", c.variant);
            w.field("batches",
                    static_cast<std::uint64_t>(c.batches));
            w.field("requests", c.requests);
            w.field("outages",
                    static_cast<std::uint64_t>(c.outages));
            w.field("busy_ticks", c.busyTicks);
            w.field("down_ticks", c.downTicks);
            w.field("idle_ticks", c.idleTicks);
            w.field("makespan_ticks", c.makespanTicks);
            w.field("occupancy", c.occupancy);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }

    w.key("resilience");
    w.beginObject();
    w.field("faults", static_cast<std::uint64_t>(a.resilience.faults));
    w.field("failovers",
            static_cast<std::uint64_t>(a.resilience.failovers));
    w.field("chip_down_events",
            static_cast<std::uint64_t>(a.resilience.chipDownEvents));
    emitServingResilience(w, a.serving);
    w.endObject();

    if (a.hasWall) {
        w.key("wall");
        w.beginObject();
        w.field("events", static_cast<std::uint64_t>(a.wall.events));
        w.field("model_spans",
                static_cast<std::uint64_t>(a.wall.modelSpans));
        w.field("layer_spans",
                static_cast<std::uint64_t>(a.wall.layerSpans));
        w.field("layer_wall_us_total", a.wall.layerWallUsTotal);
        w.key("counters");
        w.beginObject();
        for (const auto &[name, c] : a.wall.counters) {
            w.key(name);
            w.beginObject();
            w.field("samples",
                    static_cast<std::uint64_t>(c.samples));
            w.field("min", c.min);
            w.field("max", c.max);
            w.field("time_weighted_mean", c.timeWeightedMean);
            w.field("last", c.last);
            w.endObject();
        }
        w.endObject();
        w.key("caches");
        w.beginObject();
        for (const auto &[name, c] : a.wall.caches) {
            w.key(name);
            w.beginObject();
            w.field("hits", c.hits);
            w.field("misses", c.misses);
            w.endObject();
        }
        w.endObject();
        w.endObject();
    }

    w.endObject();
    return w.str() + "\n";
}

std::string
diffJson(const AnalysisDiff &d)
{
    JsonWriter w;
    w.beginObject();
    w.field("schema", kDiffSchema);
    w.field("version", static_cast<long long>(kAnalysisSchemaVersion));
    w.key("critical_path");
    w.beginObject();
    w.key("left");
    emitCriticalPath(w, d.left);
    w.key("right");
    emitCriticalPath(w, d.right);
    w.endObject();
    w.field("span_ratio_geomean", d.spanRatioGeoMean);
    w.field("overlap_delta_mean", d.overlapDeltaMean);
    w.field("boundedness_flips",
            static_cast<std::uint64_t>(d.boundednessFlips));
    const auto &r = d.resilience;
    const auto pair = [&w](const char *key, std::uint64_t left,
                           std::uint64_t right) {
        w.key(key);
        w.beginObject();
        w.field("left", left);
        w.field("right", right);
        w.endObject();
    };
    w.key("resilience");
    w.beginObject();
    pair("faults", r.leftFaults, r.rightFaults);
    pair("failovers", r.leftFailovers, r.rightFailovers);
    pair("chip_down_events", r.leftChipDown, r.rightChipDown);
    pair("breaker_trips", r.leftTrips, r.rightTrips);
    pair("breaker_probes", r.leftProbes, r.rightProbes);
    pair("breaker_closes", r.leftCloses, r.rightCloses);
    w.key("breaker_open_ticks");
    w.beginObject();
    w.field("left", r.leftOpenTicks);
    w.field("right", r.rightOpenTicks);
    w.endObject();
    pair("hedge_wins", r.leftHedgeWins, r.rightHedgeWins);
    pair("hedge_losses", r.leftHedgeLosses, r.rightHedgeLosses);
    pair("degrade_max_step",
         static_cast<std::uint64_t>(r.leftMaxStep),
         static_cast<std::uint64_t>(r.rightMaxStep));
    pair("degrade_transitions", r.leftDegradeTransitions,
         r.rightDegradeTransitions);
    w.endObject();
    w.key("aligned");
    w.beginArray();
    for (const auto &row : d.aligned)
        emitDiffRow(w, row, /*aligned=*/true);
    w.endArray();
    w.key("left_only");
    w.beginArray();
    for (const auto &row : d.leftOnly)
        emitDiffRow(w, row, /*aligned=*/false);
    w.endArray();
    w.key("right_only");
    w.beginArray();
    for (const auto &row : d.rightOnly)
        emitDiffRow(w, row, /*aligned=*/false);
    w.endArray();
    w.endObject();
    return w.str() + "\n";
}

void
printAnalysis(const TraceAnalysis &a, std::FILE *out)
{
    if (!a.timelines.empty()) {
        Table table("Fill/compute timelines (simulated cycles)");
        table.setHeader({"timeline", "span", "compute",
                         "fill", "overlap", "exposed", "idle",
                         "ovl%", "bound"});
        for (const auto &t : a.timelines) {
            std::string name = t.key;
            if (t.instance > 0)
                name += " #" + std::to_string(t.instance + 1);
            table.addRow({name, cell("%.0f", t.spanCycles),
                          cell("%.0f", t.computeCycles),
                          cell("%.0f", t.fillCycles),
                          cell("%.0f", t.overlapCycles),
                          cell("%.0f", t.exposedFillCycles),
                          cell("%.0f", t.idleCycles),
                          cell("%.1f", t.overlapRatio * 100.0),
                          t.fillBound ? "fill" : "compute"});
        }
        table.print(out);

        const auto &cp = a.criticalPath;
        Table summary("Critical-path breakdown (all timelines)");
        summary.setHeader({"timelines", "span", "compute%",
                           "exposed_fill%", "idle%", "overlap%"});
        summary.addRow(
            {cell("%zu", cp.timelines), cell("%.0f", cp.spanCycles),
             cell("%.1f", cp.computeFrac * 100.0),
             cell("%.1f", cp.exposedFillFrac * 100.0),
             cell("%.1f", cp.idleFrac * 100.0),
             cell("%.1f", cp.overlapRatio * 100.0)});
        summary.print(out);
    }

    if (!a.chips.empty()) {
        Table table("Serving chip occupancy (simulated ticks)");
        table.setHeader({"run", "chip", "variant", "batches",
                         "requests", "busy", "down", "idle",
                         "occupancy%", "outages"});
        for (const auto &c : a.chips)
            table.addRow({cell("%d", c.run), cell("%d", c.chip),
                          c.variant,
                          cell("%zu", c.batches),
                          cell("%.0f", c.requests),
                          cell("%.0f", c.busyTicks),
                          cell("%.0f", c.downTicks),
                          cell("%.0f", c.idleTicks),
                          cell("%.1f", c.occupancy * 100.0),
                          cell("%zu", c.outages)});
        table.print(out);
    }

    if (!a.otherTracks.empty()) {
        Table table("Other simulated tracks");
        table.setHeader({"track", "spans", "instants", "busy",
                         "extent"});
        for (const auto &t : a.otherTracks)
            table.addRow({t.label, cell("%zu", t.spans),
                          cell("%zu", t.instants),
                          cell("%.0f", t.busyCycles),
                          cell("%.0f", t.spanCycles)});
        table.print(out);
    }

    if (a.hasResilience) {
        Table table("Resilience events");
        table.setHeader({"faults", "failovers", "chip_down"});
        table.addRow({cell("%zu", a.resilience.faults),
                      cell("%zu", a.resilience.failovers),
                      cell("%zu", a.resilience.chipDownEvents)});
        table.print(out);
    }

    if (!a.serving.chips.empty()) {
        Table table("Serving breaker / hedge activity");
        table.setHeader({"run", "chip", "variant", "trips", "probes",
                         "closes", "open_ticks", "hedge_w", "hedge_l",
                         "timeline"});
        for (const auto &c : a.serving.chips)
            table.addRow({cell("%d", c.run), cell("%d", c.chip),
                          c.variant, cell("%zu", c.trips),
                          cell("%zu", c.probes),
                          cell("%zu", c.closes),
                          cell("%.0f", c.openTicks),
                          cell("%zu", c.hedgeWins),
                          cell("%zu", c.hedgeLosses),
                          timelineCell(c.timeline)});
        table.print(out);
    }

    if (!a.serving.degradation.empty()) {
        Table table("Degradation-ladder occupancy (ticks)");
        table.setHeader({"run", "transitions", "max_step", "step0",
                         "step1", "step2", "step3"});
        for (const auto &d : a.serving.degradation)
            table.addRow({cell("%d", d.run),
                          cell("%zu", d.transitions),
                          cell("%d", d.maxStep),
                          cell("%.0f", d.stepTicks[0]),
                          cell("%.0f", d.stepTicks[1]),
                          cell("%.0f", d.stepTicks[2]),
                          cell("%.0f", d.stepTicks[3])});
        table.print(out);
    }

    if (a.hasWall) {
        if (!a.wall.counters.empty()) {
            Table table("Wall-clock counters (time-weighted)");
            table.setHeader(
                {"counter", "samples", "min", "max", "mean", "last"});
            for (const auto &[name, c] : a.wall.counters)
                table.addRow({name, cell("%zu", c.samples),
                              cell("%.0f", c.min),
                              cell("%.0f", c.max),
                              cell("%.2f", c.timeWeightedMean),
                              cell("%.0f", c.last)});
            table.print(out);
        }
        if (!a.wall.caches.empty()) {
            Table table("Memo-cache activity");
            table.setHeader({"cache", "hits", "misses"});
            for (const auto &[name, c] : a.wall.caches)
                table.addRow({name, cell("%.0f", c.hits),
                              cell("%.0f", c.misses)});
            table.print(out);
        }
    }
}

void
printDiff(const AnalysisDiff &d, std::FILE *out)
{
    if (!d.aligned.empty()) {
        Table table("Aligned timelines (right vs left)");
        table.setHeader({"signature", "span_L", "span_R", "ratio",
                         "ovl%_L", "ovl%_R", "Δovl%", "bound_L",
                         "bound_R"});
        for (const auto &row : d.aligned)
            table.addRow(
                {row.signature, cell("%.0f", row.leftSpanCycles),
                 cell("%.0f", row.rightSpanCycles),
                 cell("%.2f", row.spanRatio),
                 cell("%.1f", row.leftOverlapRatio * 100.0),
                 cell("%.1f", row.rightOverlapRatio * 100.0),
                 cell("%+.1f", row.overlapDelta * 100.0),
                 row.leftFillBound ? "fill" : "compute",
                 row.rightFillBound ? "fill" : "compute"});
        table.print(out);
    }
    const auto oneSidedTable = [out](const char *title,
                                     const std::vector<DiffRow> &rows,
                                     bool onLeft) {
        if (rows.empty())
            return;
        Table table(title);
        table.setHeader({"signature", "key", "span", "ovl%"});
        for (const auto &row : rows)
            table.addRow(
                {row.signature, onLeft ? row.leftKey : row.rightKey,
                 cell("%.0f", onLeft ? row.leftSpanCycles
                                     : row.rightSpanCycles),
                 cell("%.1f", (onLeft ? row.leftOverlapRatio
                                      : row.rightOverlapRatio) *
                                  100.0)});
        table.print(out);
    };
    oneSidedTable("Only in left trace", d.leftOnly, /*onLeft=*/true);
    oneSidedTable("Only in right trace", d.rightOnly,
                  /*onLeft=*/false);

    if (d.resilience.any) {
        const auto &r = d.resilience;
        Table table("Resilience (left vs right)");
        table.setHeader({"metric", "left", "right"});
        const auto row = [&table](const char *metric, std::size_t l,
                                  std::size_t rv) {
            table.addRow({metric, cell("%zu", l), cell("%zu", rv)});
        };
        row("faults", r.leftFaults, r.rightFaults);
        row("failovers", r.leftFailovers, r.rightFailovers);
        row("chip_down", r.leftChipDown, r.rightChipDown);
        row("breaker_trips", r.leftTrips, r.rightTrips);
        row("breaker_probes", r.leftProbes, r.rightProbes);
        row("breaker_closes", r.leftCloses, r.rightCloses);
        table.addRow({"breaker_open_ticks",
                      cell("%.0f", r.leftOpenTicks),
                      cell("%.0f", r.rightOpenTicks)});
        row("hedge_wins", r.leftHedgeWins, r.rightHedgeWins);
        row("hedge_losses", r.leftHedgeLosses, r.rightHedgeLosses);
        table.addRow({"degrade_max_step", cell("%d", r.leftMaxStep),
                      cell("%d", r.rightMaxStep)});
        row("degrade_transitions", r.leftDegradeTransitions,
            r.rightDegradeTransitions);
        table.print(out);
    }
}

std::string
analysisHeadline(const std::string &label, const TraceAnalysis &a)
{
    const auto &cp = a.criticalPath;
    std::string line = "ANALYZE " + label;
    line += cell(" timelines=%zu span_cycles=%.0f overlap=%.3f"
                 " exposed_fill=%.3f idle=%.3f",
                 cp.timelines, cp.spanCycles, cp.overlapRatio,
                 cp.exposedFillFrac, cp.idleFrac);
    if (!a.chips.empty())
        line += cell(" chips=%zu", a.chips.size());
    if (a.hasResilience)
        line += cell(" faults=%zu", a.resilience.faults +
                                        a.resilience.chipDownEvents);
    if (a.hasServingResilience) {
        std::size_t trips = 0;
        for (const auto &c : a.serving.chips)
            trips += c.trips;
        line += cell(" breaker_trips=%zu hedge_wins=%zu", trips,
                     a.serving.hedgeWins);
    }
    return line;
}

std::string
diffHeadline(const AnalysisDiff &d)
{
    return cell("DIFF aligned=%zu left_only=%zu right_only=%zu"
                " span_ratio_gmean=%.3f overlap_delta_mean=%+.3f"
                " boundedness_flips=%zu",
                d.aligned.size(), d.leftOnly.size(),
                d.rightOnly.size(), d.spanRatioGeoMean,
                d.overlapDeltaMean, d.boundednessFlips);
}

} // namespace cfconv::analyze
