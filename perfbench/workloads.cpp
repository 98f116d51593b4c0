#include "workloads.hpp"

#include <deque>
#include <filesystem>
#include <future>
#include <thread>
#include <unordered_set>

#include <sched.h>

#include "ds/oblivious_map.hpp"
#include "journal/request_journal.hpp"
#include "mem/fault_injecting_backend.hpp"
#include "probes.hpp"
#include "shard/sharded_service.hpp"

namespace perfbench {

using namespace froram;
namespace fs = std::filesystem;

namespace {

constexpr u64 kMiB = u64{1} << 20;
/** Set-ups per untraced run; setup_s is their median. */
constexpr int kSetups = 3;
/** PLB reach: 64 KiB PLB / 64 B blocks x X = 32 leaves per PosMap block. */
constexpr u64 kPlbReachBlocks = 32 * 1024;

/** The timed set-ups of one run. The meter adds up host steal and process
 *  CPU over them for the diagnostics. */
struct SetupTimes {
    std::vector<double> sec;
    Meter meter;

    template <typename Fn>
    void
    time(Fn&& setup)
    {
        meter.start();
        const auto t0 = Clock::now();
        setup();
        sec.push_back(secondsSince(t0));
        meter.stop();
    }
};

// ------------------------------------------------------ metric records

/** Every per-layer metric, in BENCHMARK.json order. A layer that does no
 *  work on a workload reports 0. */
struct Layers {
    double shardSubmitUs = 0, shardBusyFrac = 0, shardSliceImbalance = 0;
    double journalAppendUs = 0, journalSyncUs = 0, journalBytesPerRecord = 0,
           journalReplayUsPerRecord = 0;
    double ckptRefreshMs = 0, ckptRollbackMs = 0, ckptRestoreMs = 0,
           ckptBlobMb = 0;
    double dsUsPerOp = 0, dsAccessesPerOp = 0;
    double coreUsPerAccess = 0, coreBackendAccessesPerReq = 0,
           corePosmapByteShare = 0;
    double oramPathReads = 0, oramPathWrites = 0, oramEvictPaths = 0,
           oramReshuffles = 0, oramEvictUsPerAccess = 0;
    double cryptoUsPerAccess = 0, cryptoBytesPerAccess = 0;
    double memUsPerAccess = 0, memMinorFaultsPerReq = 0, memBytesTouchedMb = 0;
    double traceOverheadRatio = 0, traceLayerCoverage = 0;

    void
    emit(Outcome& out) const
    {
        out.add("shard.submit_us", "us", shardSubmitUs);
        out.add("shard.busy_frac", "ratio", shardBusyFrac);
        out.add("shard.slice_imbalance", "ratio", shardSliceImbalance);
        out.add("journal.append_us", "us", journalAppendUs);
        out.add("journal.sync_us", "us", journalSyncUs);
        out.add("journal.bytes_per_record", "B", journalBytesPerRecord);
        out.add("journal.replay_us_per_record", "us",
                journalReplayUsPerRecord);
        out.add("checkpoint.refresh_ms", "ms", ckptRefreshMs);
        out.add("checkpoint.rollback_ms", "ms", ckptRollbackMs);
        out.add("checkpoint.restore_ms", "ms", ckptRestoreMs);
        out.add("checkpoint.blob_mb", "MB", ckptBlobMb);
        out.add("ds.us_per_op", "us", dsUsPerOp);
        out.add("ds.accesses_per_op", "count", dsAccessesPerOp);
        out.add("core.us_per_access", "us", coreUsPerAccess);
        out.add("core.backend_accesses_per_req", "count",
                coreBackendAccessesPerReq);
        out.add("core.posmap_byte_share", "ratio", corePosmapByteShare);
        out.add("oram.path_reads_per_req", "count", oramPathReads);
        out.add("oram.path_writes_per_req", "count", oramPathWrites);
        out.add("oram.evict_paths_per_req", "count", oramEvictPaths);
        out.add("oram.reshuffles_per_req", "count", oramReshuffles);
        out.add("oram.evict_us_per_access", "us", oramEvictUsPerAccess);
        out.add("crypto.us_per_access", "us", cryptoUsPerAccess);
        out.add("crypto.bytes_per_access", "B", cryptoBytesPerAccess);
        out.add("mem.us_per_access", "us", memUsPerAccess);
        out.add("mem.minor_faults_per_req", "count", memMinorFaultsPerReq);
        out.add("mem.bytes_touched_mb", "MB", memBytesTouchedMb);
        out.add("trace.overhead_ratio", "ratio", traceOverheadRatio);
        out.add("trace.layer_coverage", "ratio", traceLayerCoverage);
    }
};

/** `v` as a JSON list of whole numbers (diagnostics). */
std::string
jsonList(const std::vector<double>& v)
{
    std::string j = "[";
    for (size_t i = 0; i < v.size(); ++i)
        j += (i ? ", " : "") + std::to_string(std::lround(v[i]));
    return j + "]";
}

/** How emitEndToEnd turns the meter's windows into throughput, p50 and
 *  CPU per request. */
enum class Summary {
    /** The median over the windows (ring-wide, recover). */
    MedianWindow,
    /** Pooled over the fastest kFastShare of the windows (kv). */
    FastestWindows,
};

/** Share of kv's windows that Summary::FastestWindows pools. */
constexpr double kFastShare = 0.05;

/**
 * The end-to-end metrics. With Summary::MedianWindow, throughput, CPU per
 * request and the median latency are medians over the meter's windows, so
 * a burst of host contention moves only the windows it hits. With
 * Summary::FastestWindows they are requests per second, CPU per request
 * and the median batch latency over the fastest kFastShare of the windows
 * (by requests per second), pooled: the windows other tenants slowed
 * least (see runKvUntraced). The p99 goes to the diagnostics only: it is
 * set by the few slowest batches, which track bursts of host steal and
 * CPU speed, and over ten runs it spread by up to 0.35 of its median on
 * ring-wide and recover, beyond any bound a gated metric may have.
 */
void
emitEndToEnd(Outcome& out, const Meter& m, u64 requests, u64 user_bytes,
             u64 bytes_moved, const std::vector<double>& lat_us,
             const SetupTimes& setups, Summary summary)
{
    std::vector<Meter::Window> cuts = m.windows;
    if (cuts.empty() || cuts.back().requests != requests)
        cuts.push_back({m.wallSec, m.usage.cpuSec, requests, lat_us.size()});
    // Per window: wall and CPU seconds, requests, latency samples.
    std::vector<double> wall, cpu_sec, reqs, rate, cpu, p50, p99;
    std::vector<std::vector<double>> lats;
    Meter::Window prev{0, 0, 0, 0};
    for (const Meter::Window& w : cuts) {
        wall.push_back(w.wallSec - prev.wallSec);
        cpu_sec.push_back(w.cpuSec - prev.cpuSec);
        reqs.push_back(static_cast<double>(w.requests - prev.requests));
        rate.push_back(reqs.back() / wall.back());
        cpu.push_back(cpu_sec.back() * 1e6 / reqs.back());
        lats.emplace_back(
            lat_us.begin() + static_cast<std::ptrdiff_t>(prev.samples),
            lat_us.begin() + static_cast<std::ptrdiff_t>(w.samples));
        p50.push_back(percentile(lats.back(), 50));
        p99.push_back(percentile(lats.back(), 99));
        prev = w;
    }
    // Many windows: min, quartiles and max instead of every value.
    const auto spread = [](const std::vector<double>& v) {
        if (v.size() <= 10)
            return jsonList(v);
        return jsonList({percentile(v, 0), percentile(v, 25), percentile(v, 50),
                         percentile(v, 75), percentile(v, 100)});
    };
    out.diagnostics.push_back({"latency_samples", std::to_string(lat_us.size())});
    out.diagnostics.push_back(
        {"latency_p99_us", std::to_string(std::lround(percentile(lat_us, 99)))});
    out.diagnostics.push_back({"windows", std::to_string(cuts.size())});
    out.diagnostics.push_back({"window_rps", spread(rate)});
    out.diagnostics.push_back({"window_p50_us", spread(p50)});
    out.diagnostics.push_back({"window_p99_us", spread(p99)});
    std::string each = "[";
    for (size_t i = 0; i < setups.sec.size(); ++i) {
        char num[32];
        std::snprintf(num, sizeof(num), "%s%.3f", i ? ", " : "", setups.sec[i]);
        each += num;
    }
    out.diagnostics.push_back({"setup_s_each", each + "]"});
    out.diagnostics.push_back(
        {"setup_cpu_s", std::to_string(setups.meter.usage.cpuSec /
                                       static_cast<double>(setups.sec.size()))});
    out.diagnostics.push_back(
        {"setup_steal_frac", std::to_string(setups.meter.stealFrac())});
    double throughput = median(rate), p50_us = median(p50),
           cpu_us = median(cpu);
    if (summary == Summary::FastestWindows) {
        std::vector<size_t> order(rate.size());
        for (size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        std::sort(order.begin(), order.end(),
                  [&rate](size_t a, size_t b) { return rate[a] > rate[b]; });
        const size_t keep = std::max<size_t>(
            1, static_cast<size_t>(std::llround(kFastShare *
                                                static_cast<double>(order.size()))));
        double n = 0, sec = 0, cpus = 0;
        std::vector<double> fast_lat;
        for (size_t k = 0; k < keep; ++k) {
            const size_t i = order[k];
            n += reqs[i];
            sec += wall[i];
            cpus += cpu_sec[i];
            fast_lat.insert(fast_lat.end(), lats[i].begin(), lats[i].end());
        }
        throughput = n / sec;
        p50_us = percentile(fast_lat, 50);
        cpu_us = cpus * 1e6 / n;
        out.diagnostics.push_back({"fast_windows", std::to_string(keep)});
    }
    out.add("throughput_rps", "1/s", throughput);
    out.add("latency_p50_us", "us", p50_us);
    out.add("cpu_us_per_req", "us", cpu_us);
    out.add("setup_s", "s", median(setups.sec));
    out.add("rss_peak_mb", "MB", peakRssMb());
    out.add("bytes_per_user_byte", "ratio",
            static_cast<double>(bytes_moved) /
                static_cast<double>(std::max<u64>(user_bytes, 1)));
}

/** Windows of ring-wide's measured phase (see emitEndToEnd). */
constexpr u64 kWindows = 5;

/** True when unit `i` of `n` closes one of the first kWindows - 1
 *  equal windows (the last window ends with the phase). */
bool
windowEnds(u64 i, u64 n)
{
    const u64 per = n / kWindows;
    return per != 0 && (i + 1) % per == 0 && (i + 1) / per < kWindows;
}

/** Measured units of work for a run of `seconds` at `per_second`: the
 *  work is fixed per (seconds, seed), so counts repeat exactly. */
u64
unitsFor(double seconds, double per_second)
{
    return std::max<u64>(1, static_cast<u64>(std::llround(seconds * per_second)));
}

void
removeAll(const std::string& path)
{
    std::error_code ec;
    fs::remove_all(path, ec);
}

// ================================================================== kv

/*
 * kv: ObliviousMap over OramSystem PIC_X32 (PLB + compressed PosMap +
 * PMMAC), Path scheme, flat backend, AES-NI. The map's 32Ki buckets sit
 * inside the PLB's reach, preloaded to 25% load (at 50% the cuckoo
 * overflow stash can fill). A round is one 48-key getBatch (1 in 8 keys
 * absent) plus 16 puts that update live keys, so the load stays put.
 */
constexpr u64 kKvCapacity = 64 * kMiB;
constexpr u64 kKvBuckets = kPlbReachBlocks;
constexpr u64 kKvLiveKeys = kKvBuckets * 2 / 4; // 2 slots/bucket, 25%
constexpr u64 kKvAbsentKeys = 4096;
constexpr u64 kKvGets = 48;
constexpr u64 kKvPuts = 16;
constexpr u64 kKvValueBytes = 16;
/** Rounds per second of --seconds (about the reference machine's rate). */
constexpr double kKvRoundsPerSec = 250;
/** Rounds per window of kv's measured phase (about 0.1 s). */
constexpr u64 kKvWindowRounds = 25;

OramSystemConfig
kvConfig(u64 seed)
{
    OramSystemConfig c;
    c.capacityBytes = kKvCapacity;
    c.blockBytes = 64;
    c.storage = StorageMode::Encrypted;
    c.backend = StorageBackendKind::Flat;
    c.realAes = true;
    c.bucketScheme = BucketSchemeKind::Path;
    c.seed = splitmix64Mix(seed ^ 0x6b76);
    return c;
}

ObliviousMapConfig
kvMapConfig(u64 seed)
{
    ObliviousMapConfig m;
    m.valueBytes = kKvValueBytes;
    m.seed = splitmix64Mix(seed ^ 0x6d6170);
    return m;
}

/**
 * Moves the calling thread to the next CPU it may run on at each step(),
 * and gives it back its own affinity at the end. kv's one thread,
 * left alone, stays on one vCPU for a whole run, and other tenants' load
 * slows each vCPU by up to 1.7x for anywhere from a fraction of a second
 * to a whole run, independently of the others.
 */
class CpuRotation {
  public:
    CpuRotation()
    {
        if (::sched_getaffinity(0, sizeof(saved_), &saved_) != 0)
            return;
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &saved_))
                cpus_.push_back(c);
    }
    ~CpuRotation()
    {
        if (cpus_.size() > 1)
            ::sched_setaffinity(0, sizeof(saved_), &saved_);
    }
    CpuRotation(const CpuRotation&) = delete;
    CpuRotation& operator=(const CpuRotation&) = delete;

    void
    step()
    {
        if (cpus_.size() < 2)
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[next_++ % cpus_.size()], &one);
        ::sched_setaffinity(0, sizeof(one), &one);
    }

  private:
    cpu_set_t saved_{};
    std::vector<int> cpus_;
    size_t next_ = 0;
};

/** Keys, the reference model and the op stream of one kv run. */
struct KvModel {
    explicit KvModel(u64 seed) : payloadSeed(splitmix64Mix(seed ^ 0x76616c))
    {
        Xoshiro256 rng(splitmix64Mix(seed ^ 0x6b657973));
        std::unordered_set<u64> seen;
        while (live.size() < kKvLiveKeys) {
            const u64 k = rng.next();
            if (seen.insert(k).second)
                live.push_back(k);
        }
        while (absent.size() < kKvAbsentKeys) {
            const u64 k = rng.next();
            if (seen.insert(k).second)
                absent.push_back(k);
        }
    }

    void
    value(u64 key, u64 ver, u8* out) const
    {
        fillPayload(out, kKvValueBytes, payloadSeed, key, ver);
    }

    u64 payloadSeed;
    std::vector<u64> live;
    std::vector<u64> absent;
};

/** One map plus the state the checks need; reused by every stack. */
struct KvClient {
    KvClient(const KvModel& model, ObliviousMap& map, Outcome& out)
        : model(model), map(map), out(out), version(model.live.size(), 0)
    {
    }

    /** Put every live key at version 1; with `rotation`, move to the
     *  next vCPU every kKvWindowRounds rounds' worth of puts. */
    void
    preload(CpuRotation* rotation = nullptr)
    {
        u8 v[kKvValueBytes];
        for (size_t i = 0; i < model.live.size(); ++i) {
            if (rotation != nullptr &&
                i % (kKvWindowRounds * (kKvGets + kKvPuts)) == 0)
                rotation->step();
            version[i] = 1;
            model.value(model.live[i], 1, v);
            map.put(model.live[i], v);
        }
    }

    /** Draw one round's keys (deterministic in `rng`). */
    void
    drawRound(Xoshiro256& rng)
    {
        for (u64 j = 0; j < kKvGets; ++j) {
            if (rng.below(8) == 0) {
                getIdx[j] = ~u64{0};
                getKeys[j] = model.absent[rng.below(model.absent.size())];
            } else {
                getIdx[j] = rng.below(model.live.size());
                getKeys[j] = model.live[getIdx[j]];
                getVer[j] = version[getIdx[j]]; // before this round's puts
            }
        }
        for (u64 j = 0; j < kKvPuts; ++j)
            putIdx[j] = rng.below(model.live.size());
    }

    void
    getBatch()
    {
        map.getBatch(getKeys, kKvGets, values, found);
    }

    /** Check the getBatch answers against the model; returns mismatches. */
    u64
    checkGets()
    {
        u64 bad = 0;
        u8 want[kKvValueBytes];
        for (u64 j = 0; j < kKvGets; ++j) {
            const bool expect = getIdx[j] != ~u64{0};
            bool ok = (found[j] != 0) == expect;
            if (ok && expect) {
                model.value(getKeys[j], getVer[j], want);
                ok = std::memcmp(values + j * kKvValueBytes, want,
                                 kKvValueBytes) == 0;
            }
            if (!ok) {
                ++bad;
                out.fail("kv: getBatch returned a wrong answer for key " +
                         std::to_string(getKeys[j]));
            }
        }
        return bad;
    }

    void
    put(u64 j)
    {
        const u64 i = putIdx[j];
        u8 v[kKvValueBytes];
        model.value(model.live[i], ++version[i], v);
        map.put(model.live[i], v);
    }

    const KvModel& model;
    ObliviousMap& map;
    Outcome& out;
    std::vector<u64> version;
    u64 getKeys[kKvGets];
    u64 getIdx[kKvGets];
    u64 getVer[kKvGets];
    u64 putIdx[kKvPuts];
    u8 values[kKvGets * kKvValueBytes];
    u8 found[kKvGets];
};

/** The untraced kv stack: OramSystem → ProbeFrontend (counts) → map. */
struct KvPlainStack {
    KvPlainStack(u64 seed, const KvModel& model, Outcome& out, bool trace)
    {
        OramSystemConfig c = kvConfig(seed);
        c.collectTrace = trace;
        sys = std::make_unique<OramSystem>(SchemeId::PlbIntegrityCompressed, c);
        probe = std::make_unique<ProbeFrontend>(sys->frontend());
        map = std::make_unique<ObliviousMap>(*probe, 0, kKvBuckets,
                                             kvMapConfig(seed));
        client = std::make_unique<KvClient>(model, *map, out);
    }

    /** Fold the buffered adversary trace into `d` and drop it. */
    void
    foldTrace(Digest& d)
    {
        for (const TraceEvent& e : sys->trace())
            digestEvent(d, e);
        sys->clearTrace();
    }

    std::unique_ptr<OramSystem> sys;
    std::unique_ptr<ProbeFrontend> probe;
    std::unique_ptr<ObliviousMap> map;
    std::unique_ptr<KvClient> client;
};

Outcome
runKvUntraced(const Options& opt)
{
    Outcome out;
    const KvModel model(opt.seed);
    SetupTimes setups;
    std::unique_ptr<KvPlainStack> stack;
    // The thread samples every vCPU in set-up as in the measured phase.
    CpuRotation rotation;
    for (int s = 0; s < kSetups; ++s) {
        stack.reset();
        setups.time([&] {
            stack = std::make_unique<KvPlainStack>(opt.seed, model, out, false);
            stack->client->preload(&rotation);
        });
    }

    const u64 rounds = unitsFor(opt.seconds, kKvRoundsPerSec);
    Xoshiro256 rng(splitmix64Mix(opt.seed ^ 0x726f756e64));
    KvClient& d = *stack->client;
    const FrontendTally before = stack->probe->tally;
    std::vector<double> lat_us;
    lat_us.reserve(rounds);
    u64 bad = 0;
    // Windows of kKvWindowRounds rounds, each on the next vCPU in turn, so
    // a run samples every vCPU; the metrics pool the fastest windows
    // (Summary::FastestWindows).
    rotation.step();
    Meter m;
    m.start();
    for (u64 r = 0; r < rounds; ++r) {
        const auto t0 = Clock::now();
        d.drawRound(rng);
        d.getBatch();
        for (u64 j = 0; j < kKvPuts; ++j)
            d.put(j);
        lat_us.push_back(secondsSince(t0) * 1e6);
        bad += d.checkGets();
        if ((r + 1) % kKvWindowRounds == 0 && r + 1 < rounds) {
            m.cut((r + 1) * (kKvGets + kKvPuts), lat_us.size());
            rotation.step();
        }
    }
    m.stop();

    const u64 ops = rounds * (kKvGets + kKvPuts);
    const FrontendTally& t = stack->probe->tally;
    const u64 accesses = t.accesses - before.accesses;
    if (accesses != ops * ObliviousMap::kAccessesPerOp)
        out.fail("kv: " + std::to_string(accesses) + " ORAM accesses for " +
                 std::to_string(ops) + " map ops (must be exactly " +
                 std::to_string(ObliviousMap::kAccessesPerOp) + " per op)");
    out.attempted = ops;
    out.failed = bad;
    out.stealFrac = m.stealFrac();
    emitEndToEnd(out, m, ops, ops * kKvValueBytes,
                 t.bytesMoved - before.bytesMoved, lat_us, setups,
                 Summary::FastestWindows);
    return out;
}

/**
 * Traced kv: the untraced stack (collecting its adversary trace) and the
 * probed stack — ObliviousMap over a ProbeFrontend over a TracedEngine —
 * run the same seed's op stream; their traces, results and answers must
 * agree, and the probed run yields the per-layer metrics.
 */
Outcome
runKvTraced(const Options& opt)
{
    Outcome out;
    const KvModel model(opt.seed);
    const u64 rounds = unitsFor(opt.seconds, kKvRoundsPerSec);
    const u64 ops = rounds * (kKvGets + kKvPuts);
    const u64 rng_seed = splitmix64Mix(opt.seed ^ 0x726f756e64);

    // Reference: the untraced stack, its trace folded after every round.
    Digest ref_trace, ref_results;
    double ref_sec = 0;
    Usage ref_usage;
    {
        KvPlainStack st(opt.seed, model, out, true);
        st.probe->digest = &ref_results;
        st.client->preload();
        st.foldTrace(ref_trace);
        Xoshiro256 rng(rng_seed);
        Meter m;
        m.start();
        for (u64 r = 0; r < rounds; ++r) {
            st.client->drawRound(rng);
            st.client->getBatch();
            for (u64 j = 0; j < kKvPuts; ++j)
                st.client->put(j);
            st.client->checkGets();
            st.foldTrace(ref_trace);
        }
        m.stop();
        ref_sec = m.wallSec;
        ref_usage = m.usage;
        out.stealFrac = m.stealFrac();
    }

    // Probed stack.
    TickClock clock;
    LayerTotals totals;
    TraceRecorder rec(totals);
    SpanLog spans;
    const u32 n_get = spans.name("ds.get_batch");
    const u32 n_put = spans.name("ds.put");
    Digest results;
    TracedEngine eng(SchemeId::PlbIntegrityCompressed, kvConfig(opt.seed),
                     totals, rec);
    ProbeFrontend probe(eng.frontend());
    probe.digest = &results;
    ObliviousMap map(probe, 0, kKvBuckets, kvMapConfig(opt.seed));
    KvClient d(model, map, out);
    d.preload();

    Xoshiro256 rng(rng_seed);
    probe.spans = &spans;
    probe.spanName = spans.name("core.submit");
    probe.recorder = &rec;
    rec.measuring = true;
    const FrontendTally t0 = probe.tally;
    const LayerTotals l0 = totals;
    u64 ds_ticks = 0;
    const u64 origin = ticks();
    for (u64 r = 0; r < rounds; ++r) {
        probe.requestId = r;
        d.drawRound(rng);
        u64 a = ticks();
        probe.parent = spans.add(n_get, SpanLog::kNone, r, a, a);
        d.getBatch();
        u64 b = ticks();
        spans.finish(probe.parent, b);
        ds_ticks += b - a;
        for (u64 j = 0; j < kKvPuts; ++j) {
            a = ticks();
            probe.parent = spans.add(n_put, SpanLog::kNone, r, a, a);
            d.put(j);
            b = ticks();
            spans.finish(probe.parent, b);
            ds_ticks += b - a;
        }
        d.checkGets();
    }
    const u64 wall_ticks = ticks() - origin;
    rec.measuring = false;

    if (rec.digest.h != ref_trace.h)
        out.fail("kv: traced stack's adversary trace differs from "
                 "OramSystem's");
    if (results.h != ref_results.h)
        out.fail("kv: traced stack's results (payloads, backendAccesses, "
                 "bytesMoved) differ from OramSystem's");

    const FrontendTally& t = probe.tally;
    const double acc = static_cast<double>(t.accesses - t0.accesses);
    const double nops = static_cast<double>(ops);
    const u64 submit = t.submitTicks - t0.submitTicks;
    const u64 crypto = totals.cryptoTicks - l0.cryptoTicks;
    const u64 mem = totals.memTicks - l0.memTicks;
    const u64 core = submit - std::min(submit, crypto + mem);
    const u64 ds_self = ds_ticks - std::min(ds_ticks, submit);

    Layers L;
    L.dsUsPerOp = clock.toUs(ds_self) / nops;
    L.dsAccessesPerOp = acc / nops;
    if (t.accesses - t0.accesses != ops * ObliviousMap::kAccessesPerOp)
        out.fail("kv: traced map issued " + std::to_string(L.dsAccessesPerOp) +
                 " accesses per op (must be exactly 4)");
    L.coreUsPerAccess = clock.toUs(core) / acc;
    L.coreBackendAccessesPerReq =
        static_cast<double>(t.backendAccesses - t0.backendAccesses) / acc;
    L.corePosmapByteShare =
        static_cast<double>(t.posmapBytes - t0.posmapBytes) /
        static_cast<double>(std::max<u64>(t.bytesMoved - t0.bytesMoved, 1));
    L.oramPathReads = static_cast<double>(rec.counts[0]) / nops;
    L.oramPathWrites = static_cast<double>(rec.counts[1]) / nops;
    L.oramEvictPaths = static_cast<double>(rec.counts[2]) / nops;
    L.oramReshuffles = static_cast<double>(rec.counts[3]) / nops;
    L.oramEvictUsPerAccess = clock.toUs(rec.evictTicks) / acc;
    L.cryptoUsPerAccess = clock.toUs(crypto) / acc;
    L.cryptoBytesPerAccess =
        static_cast<double>(totals.cryptoBytes - l0.cryptoBytes) / acc;
    L.memUsPerAccess = clock.toUs(mem) / acc;
    L.memMinorFaultsPerReq = ref_usage.minorFaults / nops;
    L.memBytesTouchedMb =
        static_cast<double>(eng.storage().bytesTouched()) / kMiB;
    const double traced_sec = clock.toUs(wall_ticks) / 1e6;
    L.traceOverheadRatio = traced_sec / ref_sec;
    L.traceLayerCoverage = static_cast<double>(ds_self + core + crypto + mem) /
                           static_cast<double>(wall_ticks);
    L.emit(out);
    out.attempted = ops;
    if (!opt.spanPath.empty() && !spans.write(opt.spanPath, clock, origin))
        out.notes.push_back("could not write spans to " + opt.spanPath);
    return out;
}

// ============================================================ services

/** Shape of one service workload. */
struct ServiceShape {
    const char* name;
    SchemeId scheme;
    BucketSchemeKind bucket;
    StorageBackendKind backend;
    u64 capacity;       ///< total bytes across shards
    u64 working;        ///< addresses the traffic touches
    u32 writeOneIn;     ///< 1 in N requests is a write
    bool journal;
    double batchesPerSec; ///< measured batches per second of --seconds
};

constexpr u32 kShards = 2;
constexpr u32 kWorkers = 2;
constexpr u32 kBatch = 256;
constexpr size_t kInflight = 4;
constexpr u64 kPayloadBytes = 64;

/*
 * ring-wide: PC_X32 on the Ring scheme and the mmap backend, 64 MiB over
 * two shards. Uniform 3:1 read:write traffic over 256Ki blocks, 8x the
 * PLB reach, so PLB misses drive PosMap recursion on most requests.
 */
constexpr ServiceShape kRingWide{
    "ring-wide", SchemeId::PlbCompressed, BucketSchemeKind::Ring,
    StorageBackendKind::MmapFile, 64 * kMiB, 8 * kPlbReachBlocks, 4, false,
    260};

/*
 * recover: PC_X32 on the Path scheme and the flat backend, 16 MiB over two
 * journaled shards (group commit every 64 records). 1:1 read:write over a
 * working set of half of each shard's PLB reach.
 */
constexpr ServiceShape kRecover{
    "recover", SchemeId::PlbCompressed, BucketSchemeKind::Path,
    StorageBackendKind::Flat, 16 * kMiB, kPlbReachBlocks, 2, true, 100};

/** recover's schedule, in measured batches: a recovery-point refresh
 *  every kRefreshEvery batches, and a hard EIO kFaultAfter batches after
 *  each refresh, alternating shards. */
constexpr u64 kRefreshEvery = 200;
constexpr u64 kFaultAfter = 100;
/** recover's journal suffix behind the sealed generation (records). */
constexpr u64 kSuffixRecords = 20 * 1024;

ShardedServiceConfig
serviceConfig(const ServiceShape& shape, u64 seed, const std::string& dir)
{
    ShardedServiceConfig c;
    c.scheme = shape.scheme;
    c.base.capacityBytes = shape.capacity;
    c.base.blockBytes = 64;
    c.base.storage = StorageMode::Encrypted;
    c.base.backend = shape.backend;
    c.base.realAes = true;
    c.base.bucketScheme = shape.bucket;
    c.base.seed = splitmix64Mix(seed ^ 0x737663);
    c.numShards = kShards;
    c.numWorkers = kWorkers;
    c.directory = dir;
    c.supervision.checkpointIntervalMs = 0;
    if (shape.journal) {
        c.supervision.journal.enabled = true;
        c.supervision.journal.fsyncEveryRecords = 64;
        c.supervision.journal.fsyncMaxDelayUs = 0; // count-driven only
        c.supervision.maxRecoveries = 1u << 20;
        // Both shards fault-armed: they take the same (copying) data path.
        for (u32 s = 0; s < kShards; ++s)
            c.shardFaultSchedules.push_back(std::make_shared<FaultSchedule>());
    }
    return c;
}

/** One request of the recorded global stream. */
struct StreamOp {
    u64 addr;
    u32 version;
    bool write;
    bool measured;
};

/** The closed-loop client: batches in flight, reference model, checks. */
class ServiceClient {
  public:
    ServiceClient(const ServiceShape& shape, u64 seed, Outcome& out,
                  bool record)
        : shape_(shape), payloadSeed_(splitmix64Mix(seed ^ 0x706179)),
          out_(out), record_(record), version_(shape.working, 0),
          shardDigest_(kShards)
    {
    }

    void attach(ShardedOramService* svc) { svc_ = svc; }

    /** Submit one batch of (addr, isWrite) requests. */
    void
    submit(const std::vector<std::pair<u64, bool>>& ops, bool measured)
    {
        if (window_.size() == kInflight)
            retireOldest();
        Pending p;
        p.measured = measured;
        p.addrs.reserve(ops.size());
        p.expect.reserve(ops.size());
        std::vector<ShardRequest> batch(ops.size());
        u32 per_shard[kShards] = {};
        for (size_t i = 0; i < ops.size(); ++i) {
            const u64 a = ops[i].first;
            batch[i].addr = a;
            batch[i].isWrite = ops[i].second;
            if (ops[i].second) {
                ++version_[a];
                batch[i].writeData.resize(kPayloadBytes);
                fillPayload(batch[i].writeData.data(), kPayloadBytes,
                            payloadSeed_, a, version_[a]);
            }
            p.addrs.push_back(a);
            p.expect.push_back(ops[i].second ? ~u32{0} : version_[a]);
            ++per_shard[svc_->shardOf(a)];
            if (record_)
                stream.push_back({a, version_[a], ops[i].second, measured});
        }
        if (measured) {
            u32 largest = 0;
            for (u32 s = 0; s < kShards; ++s)
                largest = std::max(largest, per_shard[s]);
            imbalanceSum += static_cast<double>(largest) * kShards /
                            static_cast<double>(ops.size());
            ++batches;
            requests += ops.size();
        }
        const auto t0 = Clock::now();
        p.fut = svc_->submit(std::move(batch));
        p.t0 = t0;
        if (measured)
            submitSec += secondsSince(t0);
        window_.push_back(std::move(p));
    }

    /** Wait for the oldest batch and check every answer. */
    void
    retireOldest()
    {
        Pending p = std::move(window_.front());
        window_.pop_front();
        const ShardedOramService::BatchResult res = p.fut.get();
        const double us = secondsSince(p.t0) * 1e6;
        if (p.measured)
            latUs.push_back(us);
        std::vector<u8> want(kPayloadBytes);
        for (size_t i = 0; i < res.size(); ++i) {
            const ShardAccessResult& r = res[i];
            bool ok = r.status == RequestStatus::Ok;
            if (!ok) {
                out_.fail(std::string(shape_.name) + ": request to address " +
                          std::to_string(p.addrs[i]) + " failed (" +
                          toString(r.status) + "): " + r.error);
            } else if (p.expect[i] != ~u32{0} && p.expect[i] != 0) {
                fillPayload(want.data(), kPayloadBytes, payloadSeed_,
                            p.addrs[i], p.expect[i]);
                ok = r.result.data == want;
                if (!ok)
                    out_.fail(std::string(shape_.name) + ": read of address " +
                              std::to_string(p.addrs[i]) +
                              " returned stale, lost or misrouted data");
            }
            if (record_)
                digestResult(shardDigest_[r.shard], r.result);
            if (!p.measured)
                continue;
            failed += ok ? 0 : 1;
            bytesMoved += r.result.bytesMoved;
            posmapBytes += r.result.posmapBytes;
            backendAccesses += r.result.backendAccesses;
        }
    }

    void
    drain()
    {
        while (!window_.empty())
            retireOldest();
    }

    /** Submit `ops` in kBatch-sized batches (unmeasured phases). */
    void
    run(const std::vector<std::pair<u64, bool>>& ops)
    {
        std::vector<std::pair<u64, bool>> batch;
        for (const auto& op : ops) {
            batch.push_back(op);
            if (batch.size() == kBatch) {
                submit(batch, false);
                batch.clear();
            }
        }
        if (!batch.empty())
            submit(batch, false);
        drain();
    }

    /** Write every working-set address once, in address order. */
    void
    prefill()
    {
        std::vector<std::pair<u64, bool>> ops;
        for (u64 a = 0; a < shape_.working; ++a)
            ops.push_back({a, true});
        run(ops);
    }

    /** Read back every working-set address served by shard `shard`
     *  (all shards when kShards) and check it. */
    void
    sweep(u32 shard)
    {
        std::vector<std::pair<u64, bool>> ops;
        for (u64 a = 0; a < shape_.working; ++a)
            if (shard == kShards || svc_->shardOf(a) == shard)
                ops.push_back({a, false});
        run(ops);
    }

    /** One batch of the workload's uniform traffic. */
    std::vector<std::pair<u64, bool>>
    trafficBatch(Xoshiro256& rng) const
    {
        std::vector<std::pair<u64, bool>> ops(kBatch);
        for (auto& op : ops) {
            op.first = rng.below(shape_.working);
            op.second = rng.below(shape_.writeOneIn) == 0;
        }
        return ops;
    }

    u64 payloadSeed() const { return payloadSeed_; }
    const std::vector<Digest>& shardDigests() const { return shardDigest_; }

    // Measured-phase tallies.
    std::vector<double> latUs;
    u64 requests = 0, failed = 0, batches = 0;
    u64 bytesMoved = 0, posmapBytes = 0, backendAccesses = 0;
    double submitSec = 0, imbalanceSum = 0;
    /** Every request ever submitted, in order (traced runs). */
    std::vector<StreamOp> stream;

  private:
    struct Pending {
        std::future<ShardedOramService::BatchResult> fut;
        Clock::time_point t0;
        std::vector<u64> addrs;
        std::vector<u32> expect; ///< version a read must see (~0 = write)
        bool measured = false;
    };

    const ServiceShape& shape_;
    u64 payloadSeed_;
    Outcome& out_;
    bool record_;
    ShardedOramService* svc_ = nullptr;
    std::vector<u32> version_;
    std::vector<Digest> shardDigest_;
    std::deque<Pending> window_;
};

// ------------------------------------------------------ shard replays

/** What one single-threaded replay of a shard's slice measured. */
struct ReplayStats {
    Digest trace;
    Digest results;
    u64 measured = 0;       ///< measured requests replayed
    u64 engineTicks = 0;    ///< submit time of measured requests
    u64 loopTicks = 0;      ///< whole loop time of measured requests
    u64 cryptoTicks = 0, cryptoBytes = 0, memTicks = 0;
    std::array<u64, 4> events{};
    u64 evictTicks = 0;
};

/** Shard `shard`'s slice of the global stream, in submission order. */
std::vector<size_t>
sliceOf(const std::vector<StreamOp>& stream, const ShardedOramService& svc,
        u32 shard)
{
    std::vector<size_t> idx;
    for (size_t i = 0; i < stream.size(); ++i)
        if (svc.shardOf(stream[i].addr) == shard)
            idx.push_back(i);
    return idx;
}

/** A replay's copy of a shard config: its own backing file, its own
 *  (armed, empty) fault schedule, same everything else. */
OramSystemConfig
replayConfig(OramSystemConfig c, const std::string& path)
{
    if (c.backend == StorageBackendKind::MmapFile) {
        c.backendPath = path;
        c.backendReset = true;
    }
    if (c.faultSchedule != nullptr)
        c.faultSchedule = std::make_shared<FaultSchedule>();
    return c;
}

/**
 * Replay one shard's slice the way its worker runs it — the next
 * request's prefetch hint, then the access — through `submit`: the plain
 * OramSystem (reference) or a TracedEngine (probed, with `rec`, `totals`
 * and `spans` set).
 */
template <typename SubmitFn>
void
replaySlice(const std::vector<StreamOp>& stream,
            const std::vector<size_t>& slice, u64 payload_seed,
            ReplayStats& st, SpanLog* spans, u32 span_name,
            TraceRecorder* rec, const LayerTotals* totals, SubmitFn&& submit,
            const std::function<void()>& after)
{
    std::vector<u8> payload(kPayloadBytes);
    AccessResult res, ignored;
    for (size_t k = 0; k < slice.size(); ++k) {
        const u64 it0 = ticks();
        const StreamOp& op = stream[slice[k]];
        AccessRequest ar;
        ar.addr = op.addr / kShards;
        ar.isWrite = op.write;
        if (op.write) {
            fillPayload(payload.data(), kPayloadBytes, payload_seed, op.addr,
                        op.version);
            ar.writeData = &payload;
        }
        AccessRequest hint;
        hint.prefetchOnly = true;
        const bool has_next = k + 1 < slice.size();
        if (has_next)
            hint.addr = stream[slice[k + 1]].addr / kShards;
        const LayerTotals l0 = totals != nullptr ? *totals : LayerTotals{};
        if (rec != nullptr)
            rec->measuring = op.measured;
        const u64 t0 = ticks();
        if (rec != nullptr)
            rec->mark(t0);
        if (has_next)
            submit(&hint, &ignored);
        submit(&ar, &res);
        const u64 t1 = ticks();
        digestResult(st.results, res);
        after();
        if (!op.measured)
            continue;
        ++st.measured;
        st.engineTicks += t1 - t0;
        if (totals != nullptr) {
            st.cryptoTicks += totals->cryptoTicks - l0.cryptoTicks;
            st.cryptoBytes += totals->cryptoBytes - l0.cryptoBytes;
            st.memTicks += totals->memTicks - l0.memTicks;
        }
        if (spans != nullptr)
            spans->add(span_name, SpanLog::kNone, slice[k], t0, t1);
        st.loopTicks += ticks() - it0;
    }
    if (rec != nullptr)
        rec->measuring = false;
}

ReplayStats
replayReference(SchemeId scheme, const OramSystemConfig& cfg,
                const std::vector<StreamOp>& stream,
                const std::vector<size_t>& slice, u64 payload_seed)
{
    ReplayStats st;
    OramSystemConfig c = cfg;
    c.collectTrace = true;
    OramSystem sys(scheme, c);
    replaySlice(
        stream, slice, payload_seed, st, nullptr, 0, nullptr, nullptr,
        [&](const AccessRequest* r, AccessResult* out) { sys.submit(r, out, 1); },
        [&] {
            for (const TraceEvent& e : sys.trace())
                digestEvent(st.trace, e);
            sys.clearTrace();
        });
    return st;
}

ReplayStats
replayTraced(SchemeId scheme, const OramSystemConfig& cfg,
             const std::vector<StreamOp>& stream,
             const std::vector<size_t>& slice, u64 payload_seed,
             SpanLog& spans, u32 span_name)
{
    ReplayStats st;
    LayerTotals totals;
    TraceRecorder rec(totals);
    TracedEngine eng(scheme, cfg, totals, rec);
    Frontend& fe = eng.frontend();
    replaySlice(
        stream, slice, payload_seed, st, &spans, span_name, &rec, &totals,
        [&](const AccessRequest* r, AccessResult* out) { fe.submit(r, out, 1); },
        [] {});
    st.trace = rec.digest;
    st.events = rec.counts;
    st.evictTicks = rec.evictTicks;
    return st;
}

/**
 * The traced half shared by both service workloads: replay every shard's
 * slice through the reference OramSystem and through the probed engine,
 * check both against each other and against the service's own results,
 * and fill the engine-level per-layer metrics.
 */
void
replayShards(const ServiceShape& shape, const Options& opt,
             const std::vector<OramSystemConfig>& shard_cfgs,
             const ShardedOramService& svc, const ServiceClient& client,
             double measured_wall, Layers& L, Outcome& out)
{
    TickClock clock;
    const u64 origin = ticks();
    // Shards replay concurrently, one thread each (as many as the
    // service's workers); each compares its plain and probed runs.
    std::vector<SpanLog> spans(kShards);
    std::vector<ReplayStats> refs(kShards), trs(kShards);
    std::vector<std::string> errors(kShards);
    std::vector<std::thread> threads;
    for (u32 s = 0; s < kShards; ++s) {
        threads.emplace_back([&, s] {
            try {
                const std::vector<size_t> slice = sliceOf(client.stream, svc, s);
                const std::string file =
                    opt.runDir + "/replay-" + std::to_string(s) + ".oram";
                refs[s] = replayReference(
                    shape.scheme, replayConfig(shard_cfgs[s], file),
                    client.stream, slice, client.payloadSeed());
                removeAll(file);
                trs[s] = replayTraced(
                    shape.scheme, replayConfig(shard_cfgs[s], file),
                    client.stream, slice, client.payloadSeed(), spans[s],
                    spans[s].name("core.submit"));
                removeAll(file);
            } catch (const std::exception& e) {
                errors[s] = e.what();
            }
        });
    }
    for (std::thread& t : threads)
        t.join();
    ReplayStats ref_sum, tr_sum;
    for (u32 s = 0; s < kShards; ++s) {
        const ReplayStats& ref = refs[s];
        const ReplayStats& tr = trs[s];
        const std::string who =
            std::string(shape.name) + ": shard " + std::to_string(s) + " ";
        if (!errors[s].empty())
            out.fail(who + "replay failed: " + errors[s]);
        if (tr.trace.h != ref.trace.h)
            out.fail(who + "traced adversary trace differs from OramSystem's");
        if (tr.results.h != ref.results.h)
            out.fail(who + "traced results differ from OramSystem's");
        if (ref.results.h != client.shardDigests()[s].h)
            out.fail(who + "replayed results differ from the service's");
        ref_sum.measured += ref.measured;
        ref_sum.engineTicks += ref.engineTicks;
        tr_sum.measured += tr.measured;
        tr_sum.engineTicks += tr.engineTicks;
        tr_sum.loopTicks += tr.loopTicks;
        tr_sum.cryptoTicks += tr.cryptoTicks;
        tr_sum.cryptoBytes += tr.cryptoBytes;
        tr_sum.memTicks += tr.memTicks;
        tr_sum.evictTicks += tr.evictTicks;
        for (size_t k = 0; k < 4; ++k)
            tr_sum.events[k] += tr.events[k];
        if (s > 0)
            spans[0].append(spans[s]);
    }
    const double acc = static_cast<double>(std::max<u64>(tr_sum.measured, 1));
    const u64 layer = tr_sum.cryptoTicks + tr_sum.memTicks;
    const u64 core = tr_sum.engineTicks - std::min(tr_sum.engineTicks, layer);
    L.shardBusyFrac = clock.toUs(ref_sum.engineTicks) / 1e6 /
                      (kWorkers * measured_wall);
    L.coreUsPerAccess = clock.toUs(core) / acc;
    L.oramPathReads = static_cast<double>(tr_sum.events[0]) / acc;
    L.oramPathWrites = static_cast<double>(tr_sum.events[1]) / acc;
    L.oramEvictPaths = static_cast<double>(tr_sum.events[2]) / acc;
    L.oramReshuffles = static_cast<double>(tr_sum.events[3]) / acc;
    L.oramEvictUsPerAccess = clock.toUs(tr_sum.evictTicks) / acc;
    L.cryptoUsPerAccess = clock.toUs(tr_sum.cryptoTicks) / acc;
    L.cryptoBytesPerAccess = static_cast<double>(tr_sum.cryptoBytes) / acc;
    L.memUsPerAccess = clock.toUs(tr_sum.memTicks) / acc;
    // Single-threaded engine throughput, untraced vs traced.
    L.traceOverheadRatio = static_cast<double>(tr_sum.engineTicks) /
                           static_cast<double>(std::max<u64>(ref_sum.engineTicks, 1));
    L.traceLayerCoverage =
        static_cast<double>(core + layer) /
        static_cast<double>(std::max<u64>(tr_sum.loopTicks, 1));
    if (!opt.spanPath.empty() && !spans[0].write(opt.spanPath, clock, origin))
        out.notes.push_back("could not write spans to " + opt.spanPath);
}

/** Counts of the measured phase shared by both service workloads. */
void
fillServiceCounts(const ServiceClient& c, const Meter& m,
                  ShardedOramService& svc, Layers& L)
{
    const double reqs = static_cast<double>(std::max<u64>(c.requests, 1));
    L.shardSubmitUs = c.submitSec * 1e6 /
                      static_cast<double>(std::max<u64>(c.batches, 1));
    L.shardSliceImbalance =
        c.imbalanceSum / static_cast<double>(std::max<u64>(c.batches, 1));
    L.coreBackendAccessesPerReq = static_cast<double>(c.backendAccesses) / reqs;
    L.corePosmapByteShare = static_cast<double>(c.posmapBytes) /
                            static_cast<double>(std::max<u64>(c.bytesMoved, 1));
    L.memMinorFaultsPerReq = m.usage.minorFaults / reqs;
    u64 touched = 0;
    for (u32 s = 0; s < kShards; ++s)
        touched += svc.shard(s).storage().bytesTouched();
    L.memBytesTouchedMb = static_cast<double>(touched) / kMiB;
}

void
finishService(Outcome& out, const ServiceClient& c, const Meter& m)
{
    out.attempted = c.requests;
    out.failed = c.failed;
    out.stealFrac = m.stealFrac();
}

// ----------------------------------------------------------- ring-wide

/** The measured phase of ring-wide (fixed work per --seconds). */
void
ringWideMeasured(const Options& opt, ServiceClient& client, Meter& m)
{
    const u64 n = unitsFor(opt.seconds, kRingWide.batchesPerSec);
    Xoshiro256 rng(splitmix64Mix(opt.seed ^ 0x7477));
    m.start();
    for (u64 b = 0; b < n; ++b) {
        client.submit(client.trafficBatch(rng), true);
        if (windowEnds(b, n)) {
            client.drain();
            m.cut(client.requests, client.latUs.size());
        }
    }
    client.drain();
    m.stop();
}

} // namespace

Outcome
runKv(const Options& opt)
{
    return opt.trace ? runKvTraced(opt) : runKvUntraced(opt);
}

Outcome
runRingWide(const Options& opt)
{
    Outcome out;
    const ServiceShape& shape = kRingWide;
    const int setups_n = opt.trace ? 1 : kSetups;
    SetupTimes setups;
    std::unique_ptr<ShardedOramService> svc;
    std::unique_ptr<ServiceClient> client;
    std::string dir;
    for (int s = 0; s < setups_n; ++s) {
        client.reset();
        svc.reset();
        if (!dir.empty())
            removeAll(dir);
        dir = opt.runDir + "/ring-wide-" + std::to_string(s);
        setups.time([&] {
            svc = std::make_unique<ShardedOramService>(
                serviceConfig(shape, opt.seed, dir));
            client = std::make_unique<ServiceClient>(shape, opt.seed, out,
                                                     opt.trace);
            client->attach(svc.get());
            client->prefill();
        });
    }

    Meter m;
    ringWideMeasured(opt, *client, m);
    finishService(out, *client, m);
    if (!opt.trace) {
        emitEndToEnd(out, m, client->requests, client->requests * kPayloadBytes,
                     client->bytesMoved, client->latUs, setups,
                     Summary::MedianWindow);
    } else {
        svc->drain();
        Layers L;
        fillServiceCounts(*client, m, *svc, L);
        std::vector<OramSystemConfig> cfgs;
        for (u32 s = 0; s < kShards; ++s)
            cfgs.push_back(svc->shard(s).config());
        replayShards(shape, opt, cfgs, *svc, *client, m.wallSec, L, out);
        L.emit(out);
    }
    client.reset();
    svc.reset();
    removeAll(dir);
    return out;
}

namespace {

/** Requests of recover's journal suffix (1:1 traffic, untimed). */
void
driveSuffix(ServiceClient& client, u64 seed)
{
    Xoshiro256 rng(splitmix64Mix(seed ^ 0x737566));
    for (u64 i = 0; i < kSuffixRecords / kBatch; ++i)
        client.submit(client.trafficBatch(rng), false);
    client.drain();
}

/** Files named shard-0000.g<N>.ckpt: size of the newest generation. */
double
newestShard0BlobMb(const std::string& dir)
{
    u64 best_gen = 0, bytes = 0;
    for (const auto& e : fs::directory_iterator(dir)) {
        const std::string n = e.path().filename().string();
        unsigned long long gen = 0;
        if (std::sscanf(n.c_str(), "shard-0000.g%llu.ckpt", &gen) == 1 &&
            gen >= best_gen) {
            best_gen = gen;
            bytes = e.file_size();
        }
    }
    return static_cast<double>(bytes) / kMiB;
}

/**
 * A standalone RequestJournal fed the measured record stream under the
 * service's policy (barrier every 64 records): time per append, per
 * barrier, and bytes per record on disk.
 */
void
journalProbe(const Options& opt, const ShardedServiceConfig& cfg,
             const ServiceClient& client, u64 payload_seed, Layers& L)
{
    const std::string dir = opt.runDir + "/journal-probe";
    fs::create_directories(dir);
    double append_sec = 0, sync_sec = 0;
    u64 records = 0, syncs = 0;
    {
        RequestJournal j(dir, 0, cfg.supervision.journal, cfg.supervision.retry,
                         nullptr, true);
        std::vector<u8> payload(kPayloadBytes);
        for (const StreamOp& op : client.stream) {
            if (!op.measured)
                continue;
            if (op.write)
                fillPayload(payload.data(), kPayloadBytes, payload_seed,
                            op.addr, op.version);
            auto t0 = Clock::now();
            j.append(op.addr / kShards, op.write,
                     op.write ? payload.data() : nullptr,
                     op.write ? kPayloadBytes : 0);
            append_sec += secondsSince(t0);
            if (++records % cfg.supervision.journal.fsyncEveryRecords == 0) {
                t0 = Clock::now();
                j.sync();
                sync_sec += secondsSince(t0);
                ++syncs;
            }
        }
    }
    u64 bytes = 0;
    for (const auto& e : fs::directory_iterator(dir))
        bytes += e.file_size();
    removeAll(dir);
    L.journalAppendUs = append_sec * 1e6 / static_cast<double>(std::max<u64>(records, 1));
    L.journalSyncUs = sync_sec * 1e6 / static_cast<double>(std::max<u64>(syncs, 1));
    L.journalBytesPerRecord =
        static_cast<double>(bytes) / static_cast<double>(std::max<u64>(records, 1));
}

} // namespace

Outcome
runRecover(const Options& opt)
{
    Outcome out;
    const ServiceShape& shape = kRecover;
    ServiceClient client(shape, opt.seed, out, opt.trace);

    // Untimed preparation: a sealed generation after the prefill, then
    // a fixed journal suffix past it.
    const std::string prep = opt.runDir + "/recover-prep";
    {
        ShardedOramService svc(serviceConfig(shape, opt.seed, prep));
        client.attach(&svc);
        client.prefill();
        svc.checkpoint();
        driveSuffix(client, opt.seed);
        svc.drain();
    }

    // setup_s: open() of a fresh copy — manifest verify, restore, replay.
    const int setups_n = opt.trace ? 1 : kSetups;
    SetupTimes setups;
    std::unique_ptr<ShardedOramService> svc;
    std::string dir;
    u64 replay_depth = 0;
    for (int s = 0; s < setups_n; ++s) {
        svc.reset();
        if (!dir.empty())
            removeAll(dir);
        dir = opt.runDir + "/recover-" + std::to_string(s);
        fs::copy(prep, dir, fs::copy_options::recursive);
        setups.time([&] {
            svc = ShardedOramService::open(serviceConfig(shape, opt.seed, dir));
        });
        replay_depth = 0;
        for (u32 sh = 0; sh < kShards; ++sh)
            replay_depth += svc->shardReport(sh).lastReplayDepth;
    }
    removeAll(prep);
    if (replay_depth == 0)
        out.fail("recover: open() replayed no journal records");
    client.attach(svc.get());
    client.sweep(kShards); // every acked write readable after open()

    // Measured phase: refreshes and faults at fixed batch counts.
    const ShardedServiceConfig cfg = serviceConfig(shape, opt.seed, dir);
    std::vector<std::shared_ptr<FaultSchedule>> scheds =
        svc->config().shardFaultSchedules;
    const u64 n = unitsFor(opt.seconds, shape.batchesPerSec);
    Xoshiro256 rng(splitmix64Mix(opt.seed ^ 0x7263));
    std::vector<double> refresh_ms, rollback_ms;
    u64 faults = 0;
    Meter m;
    m.start();
    for (u64 b = 0; b < n;) {
        const u64 phase = b % kRefreshEvery;
        if (phase == 0) {
            // Nothing in flight: the refresh shows in throughput, not in
            // the latency of whichever batches it would hold up. Each
            // refresh period is one window.
            client.drain();
            if (b != 0)
                m.cut(client.requests, client.latUs.size());
            const auto t0 = Clock::now();
            svc->refreshRecoveryPoints();
            refresh_ms.push_back(secondsSince(t0) * 1e3);
        }
        if (phase != kFaultAfter) {
            client.submit(client.trafficBatch(rng), true);
            ++b;
            continue;
        }
        // Quiesce so the fault lands on the first request the victim
        // shard serves next: the same request on every run. The window
        // then refills, so the rollback holds up kInflight batches.
        client.drain();
        const u32 victim = static_cast<u32>(faults % kShards);
        const u64 recoveries = svc->shardReport(victim).recoveries;
        FaultSpec spec;
        spec.op = FaultOp::Read;
        spec.kind = FaultKind::Eio;
        spec.afterOps = scheds[victim]->opsSeen(FaultOp::Read);
        spec.transient = false;
        scheds[victim]->inject(spec);
        const size_t faulted = client.latUs.size();
        for (size_t k = 0; k < kInflight && b < n; ++k, ++b)
            client.submit(client.trafficBatch(rng), true);
        client.drain();
        rollback_ms.push_back(client.latUs[faulted] / 1e3);
        ++faults;
        if (svc->shardReport(victim).recoveries != recoveries + 1)
            out.fail("recover: injected fault on shard " +
                     std::to_string(victim) + " did not roll it back");
        // Every acked write must still read back after the rollback
        // (checked untimed).
        m.stop();
        client.sweep(victim);
        m.start();
    }
    client.drain();
    m.stop();
    finishService(out, client, m);

    if (!opt.trace) {
        emitEndToEnd(out, m, client.requests, client.requests * kPayloadBytes,
                     client.bytesMoved, client.latUs, setups,
                     Summary::MedianWindow);
        out.diagnostics.push_back({"refresh_ms", jsonList(refresh_ms)});
        out.diagnostics.push_back({"rollback_ms", jsonList(rollback_ms)});
        svc.reset();
        removeAll(dir);
        return out;
    }

    Layers L;
    svc->drain();
    fillServiceCounts(client, m, *svc, L);
    L.ckptRefreshMs = median(refresh_ms);
    L.ckptRollbackMs = median(rollback_ms);
    std::vector<OramSystemConfig> cfgs;
    for (u32 s = 0; s < kShards; ++s)
        cfgs.push_back(svc->shard(s).config());

    // Restore with an empty journal suffix: seal a generation now and
    // reopen it; every acked write must read back again.
    svc->checkpoint();
    L.ckptBlobMb = newestShard0BlobMb(dir);
    svc.reset();
    {
        const auto t0 = Clock::now();
        svc = ShardedOramService::open(cfg);
        L.ckptRestoreMs = secondsSince(t0) * 1e3;
    }
    L.journalReplayUsPerRecord =
        std::max(0.0, setups.sec[0] * 1e6 - L.ckptRestoreMs * 1e3) /
        static_cast<double>(std::max<u64>(replay_depth, 1));
    client.attach(svc.get());
    client.sweep(kShards);
    svc->drain();

    journalProbe(opt, cfg, client, client.payloadSeed(), L);
    replayShards(shape, opt, cfgs, *svc, client, m.wallSec, L, out);
    svc.reset();
    removeAll(dir);
    L.emit(out);
    return out;
}

} // namespace perfbench
