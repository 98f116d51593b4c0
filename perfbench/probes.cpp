#include "probes.hpp"

#include <cstdio>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "core/unified_frontend.hpp"

namespace perfbench {

using namespace froram;

u64
ticks()
{
#if defined(__x86_64__) || defined(__i386__)
    return __rdtsc();
#else
    return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                Clock::now().time_since_epoch())
                                .count());
#endif
}

TickClock::TickClock() : t0_(ticks()), c0_(Clock::now()) {}

double
TickClock::nsPerTick() const
{
    const double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - c0_).count();
    const u64 dt = ticks() - t0_;
    return dt == 0 ? 1.0 : ns / static_cast<double>(dt);
}

// ------------------------------------------------------------ crypto

void
TimedCipher::pad(u64 seed_hi, u64 seed_lo, u32 chunk, u8* out16) const
{
    const u64 t0 = ticks();
    inner_.pad(seed_hi, seed_lo, chunk, out16);
    totals_.cryptoTicks += ticks() - t0;
    totals_.cryptoBytes += 16;
}

void
TimedCipher::xorCryptBulkTo(u64 seed_hi, u64 seed_lo, const u8* src, u8* dst,
                            size_t len) const
{
    const u64 t0 = ticks();
    inner_.xorCryptBulkTo(seed_hi, seed_lo, src, dst, len);
    totals_.cryptoTicks += ticks() - t0;
    totals_.cryptoBytes += len;
}

void
TimedCipher::xorCryptSpans(const CryptSpan* spans, size_t n) const
{
    const u64 t0 = ticks();
    inner_.xorCryptSpans(spans, n);
    totals_.cryptoTicks += ticks() - t0;
    for (size_t i = 0; i < n; ++i)
        totals_.cryptoBytes += spans[i].len;
}

// --------------------------------------------------------------- mem

void
TimedStorage::read(u64 addr, u8* dst, u64 len)
{
    const u64 t0 = ticks();
    inner_->read(addr, dst, len);
    totals_.memTicks += ticks() - t0;
}

void
TimedStorage::write(u64 addr, const u8* src, u64 len)
{
    const u64 t0 = ticks();
    inner_->write(addr, src, len);
    totals_.memTicks += ticks() - t0;
}

u8*
TimedStorage::view(u64 addr, u64 len)
{
    const u64 t0 = ticks();
    u8* v = inner_->view(addr, len);
    totals_.memTicks += ticks() - t0;
    return v;
}

u32
TimedStorage::gatherView(const ByteSpan* spans, u32 n, u8** views)
{
    const u64 t0 = ticks();
    const u32 direct = inner_->gatherView(spans, n, views);
    totals_.memTicks += ticks() - t0;
    return direct;
}

void
TimedStorage::prefetch(u64 addr, u64 len)
{
    const u64 t0 = ticks();
    inner_->prefetch(addr, len);
    totals_.memTicks += ticks() - t0;
}

void
TimedStorage::sync()
{
    const u64 t0 = ticks();
    inner_->sync();
    totals_.memTicks += ticks() - t0;
}

// ------------------------------------------------------------- trace

void
TraceRecorder::mark(u64 t)
{
    markTick_ = t;
    markLayerTicks_ = totals_.cryptoTicks + totals_.memTicks;
}

void
TraceRecorder::onEvent(const TraceEvent& e)
{
    const u64 t = ticks();
    digestEvent(digest, e);
    if (measuring) {
        ++counts[static_cast<size_t>(e.kind)];
        if (e.kind != TraceEvent::Kind::PathRead) {
            const u64 layer =
                totals_.cryptoTicks + totals_.memTicks - markLayerTicks_;
            const u64 span = t - markTick_;
            evictTicks += span > layer ? span - layer : 0;
        }
    }
    mark(t);
}

// ------------------------------------------------------------- spans

u32
SpanLog::name(const std::string& n)
{
    names_.push_back(n);
    return static_cast<u32>(names_.size() - 1);
}

void
SpanLog::append(const SpanLog& other)
{
    const u32 name_base = static_cast<u32>(names_.size());
    const u32 id_base = static_cast<u32>(spans_.size());
    names_.insert(names_.end(), other.names_.begin(), other.names_.end());
    for (Span s : other.spans_) {
        s.name += name_base;
        if (s.parent != kNone)
            s.parent += id_base;
        spans_.push_back(s);
    }
}

bool
SpanLog::write(const std::string& path, const TickClock& clock,
               u64 origin) const
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    const double ns = clock.nsPerTick();
    std::fprintf(f, "id,name,start_ns,end_ns,parent,request\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::fprintf(f, "%zu,%s,%.0f,%.0f,%u,%llu\n", i + 1,
                     names_[s.name].c_str(),
                     static_cast<double>(s.start - origin) * ns,
                     static_cast<double>(s.end - origin) * ns, s.parent,
                     static_cast<unsigned long long>(s.req));
    }
    return std::fclose(f) == 0;
}

// ---------------------------------------------------------- frontend

void
ProbeFrontend::submit(const AccessRequest* reqs, AccessResult* results,
                      size_t n)
{
    const bool timed = spans != nullptr;
    const u64 t0 = timed ? ticks() : 0;
    if (recorder != nullptr)
        recorder->mark(t0);
    inner_.submit(reqs, results, n);
    if (timed) {
        const u64 t1 = ticks();
        tally.submitTicks += t1 - t0;
        spans->add(spanName, parent, requestId, t0, t1);
    }
    for (size_t i = 0; i < n; ++i) {
        if (reqs[i].prefetchOnly)
            continue;
        const AccessResult& r = results[i];
        ++tally.accesses;
        tally.bytesMoved += r.bytesMoved;
        tally.posmapBytes += r.posmapBytes;
        tally.backendAccesses += r.backendAccesses;
        if (digest != nullptr)
            digestResult(*digest, r);
    }
}

// ------------------------------------------------------------ engine

TracedEngine::TracedEngine(SchemeId scheme, const OramSystemConfig& cfg,
                           LayerTotals& totals, TraceRecorder& recorder)
{
    if (!cfg.realAes)
        fatal("traced engine: only the AES-CTR cipher is probed");

    // Bucket-pad key: the same KDF label OramSystem derives it under.
    Xoshiro256 kdf(cfg.seed ^ 0xc1f0e4ULL);
    u8 key[16];
    for (auto& b : key)
        b = static_cast<u8>(kdf.next());
    cipher_ = std::make_unique<TimedCipher>(key, totals);

    // Storage sized exactly as OramSystem sizes it (the mmap file's
    // capacity bounds the region allocator).
    StorageBackendConfig sc;
    sc.kind = cfg.backend;
    sc.dramChannels = cfg.dramChannels;
    sc.path = cfg.backendPath;
    u64 mult = 8;
    if (cfg.bucketScheme == BucketSchemeKind::Ring) {
        const u32 s = cfg.ringS != 0 ? cfg.ringS : cfg.z + 2;
        mult = divCeil(u64{8} * (cfg.z + s), cfg.z);
    }
    sc.fileBytes = cfg.backendFileBytes != 0
                       ? cfg.backendFileBytes
                       : mult * cfg.capacityBytes + (u64{16} << 20);
    sc.reset = cfg.backendReset;
    sc.faultSchedule = cfg.faultSchedule;
    sc.retry = cfg.storageRetry;
    storage_ = std::make_unique<TimedStorage>(makeStorageBackend(sc), totals);

    UnifiedFrontendConfig uc;
    uc.numBlocks = cfg.capacityBytes / cfg.blockBytes;
    uc.blockBytes = cfg.blockBytes;
    uc.z = cfg.z;
    switch (scheme) {
      case SchemeId::Plb:
        uc.format = PosMapFormat::Kind::Leaves;
        break;
      case SchemeId::PlbCompressed:
        uc.format = PosMapFormat::Kind::Compressed;
        break;
      case SchemeId::PlbIntegrity:
        uc.format = PosMapFormat::Kind::FlatCounter;
        uc.integrity = true;
        break;
      case SchemeId::PlbIntegrityCompressed:
        uc.format = PosMapFormat::Kind::Compressed;
        uc.integrity = true;
        break;
      default:
        fatal("traced engine: only the unified (PLB) schemes are probed");
    }
    uc.plb.capacityBytes = cfg.plbBytes;
    uc.plb.ways = cfg.plbWays;
    uc.plb.blockBytes = cfg.blockBytes;
    uc.onChipTargetBytes = cfg.onChipTargetBytes;
    uc.storage = cfg.storage;
    uc.seedScheme = cfg.seedScheme;
    uc.latency = cfg.latency;
    uc.rngSeed = cfg.seed;
    uc.stashCapacity = cfg.stashCapacity;
    uc.bucketScheme = cfg.bucketScheme;
    uc.ringS = cfg.ringS;
    uc.ringA = cfg.ringA;
    frontend_ = std::make_unique<UnifiedFrontend>(uc, cipher_.get(),
                                                  storage_.get(),
                                                  recorder.sink());
}

} // namespace perfbench
