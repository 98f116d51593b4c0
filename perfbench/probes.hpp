/**
 * @file
 * Outside-in layer probes for the traced run.
 *
 * Every probe sits at a public seam of the library and is built by the
 * benchmark, never inside the program:
 *
 *  - TimedCipher: a StreamCipher decorator around AesCtrCipher (the
 *    crypto layer);
 *  - TimedStorage: a StorageBackend decorator around the backend that
 *    makeStorageBackend() builds (the mem layer);
 *  - TraceRecorder: a TraceSink that timestamps adversary-visible
 *    events, counts them and digests them (the oram layer's work);
 *  - ProbeFrontend: a pass-through Frontend that times every submit()
 *    and tallies its AccessResults (the core layer, and the counts the
 *    untraced runs report);
 *  - SpanLog: the in-memory span list, written out when the run ends.
 *
 * Fine-grained probes read the TSC (a few ns) instead of the system
 * clock; TickClock converts ticks to nanoseconds against steady_clock.
 */
#ifndef FRORAM_PERFBENCH_PROBES_HPP
#define FRORAM_PERFBENCH_PROBES_HPP

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/oram_system.hpp"
#include "crypto/stream_cipher.hpp"
#include "mem/storage_backend.hpp"

namespace perfbench {

/** Probe timestamp in ticks (TSC on x86-64, nanoseconds elsewhere). */
u64 ticks();

/** Tick→nanosecond conversion, calibrated over a stretch of wall time. */
class TickClock {
  public:
    TickClock();
    /** Nanoseconds per tick measured since construction. */
    double nsPerTick() const;
    double toUs(u64 t) const { return static_cast<double>(t) * nsPerTick() / 1e3; }

  private:
    u64 t0_;
    Clock::time_point c0_;
};

/** Work and time the crypto and mem decorators accumulate. */
struct LayerTotals {
    u64 cryptoTicks = 0;
    u64 cryptoBytes = 0;
    u64 memTicks = 0;
};

/** StreamCipher decorator timing every pad call (crypto layer). */
class TimedCipher final : public froram::StreamCipher {
  public:
    TimedCipher(const u8* key16, LayerTotals& totals)
        : inner_(key16), totals_(totals)
    {
    }

    void pad(u64 seed_hi, u64 seed_lo, u32 chunk, u8* out16) const override;
    void xorCryptBulkTo(u64 seed_hi, u64 seed_lo, const u8* src, u8* dst,
                        size_t len) const override;
    void xorCryptSpans(const froram::CryptSpan* spans,
                       size_t n) const override;

  private:
    froram::AesCtrCipher inner_;
    LayerTotals& totals_;
};

/** StorageBackend decorator timing every data-plane call (mem layer). */
class TimedStorage final : public froram::StorageBackend {
  public:
    TimedStorage(std::unique_ptr<froram::StorageBackend> inner,
                 LayerTotals& totals)
        : inner_(std::move(inner)), totals_(totals)
    {
    }

    froram::StorageBackendKind kind() const override { return inner_->kind(); }
    void read(u64 addr, u8* dst, u64 len) override;
    void write(u64 addr, const u8* src, u64 len) override;
    u8* view(u64 addr, u64 len) override;
    u32 gatherView(const froram::ByteSpan* spans, u32 n,
                   u8** views) override;
    void prefetch(u64 addr, u64 len) override;
    bool prefetchable() const override { return inner_->prefetchable(); }
    void sync() override;
    bool persistent() const override { return inner_->persistent(); }
    u64 bytesTouched() const override { return inner_->bytesTouched(); }
    u64
    transientFaultsRetried() const override
    {
        return inner_->transientFaultsRetried();
    }
    bool timed() const override { return inner_->timed(); }
    u64
    accessBatch(const std::vector<froram::DramRequest>& requests) override
    {
        return inner_->accessBatch(requests);
    }
    u64
    streamBatch(const froram::ByteSpan* spans, u32 n, bool is_write) override
    {
        return inner_->streamBatch(spans, n, is_write);
    }
    u64 burstBytes() const override { return inner_->burstBytes(); }
    u64 layoutUnitBytes() const override { return inner_->layoutUnitBytes(); }
    froram::DramModel* dramModel() override { return inner_->dramModel(); }
    u64 allocRegion(u64 bytes) override { return inner_->allocRegion(bytes); }
    u64 allocatedBytes() const override { return inner_->allocatedBytes(); }

  private:
    std::unique_ptr<froram::StorageBackend> inner_;
    LayerTotals& totals_;
};

/**
 * TraceSink that digests every adversary-visible event and, while
 * `measuring`, counts events by kind and attributes eviction time: the
 * interval each PathWrite / EvictPath / BucketReshuffle event closes
 * (since the previous event or the enclosing submit's start, whichever
 * is later) minus the crypto and mem time inside it.
 */
class TraceRecorder {
  public:
    explicit TraceRecorder(const LayerTotals& totals) : totals_(totals) {}

    froram::TraceSink
    sink()
    {
        return [this](const froram::TraceEvent& e) { onEvent(e); };
    }
    /** Mark the start of a submit() span (or of an event interval):
     *  eviction intervals never reach back across a mark. */
    void mark(u64 t);
    void onEvent(const froram::TraceEvent& e);

    bool measuring = false;
    Digest digest;
    std::array<u64, 4> counts{}; ///< by TraceEvent::Kind (measured only)
    u64 evictTicks = 0;          ///< measured only

  private:
    const LayerTotals& totals_;
    u64 markTick_ = 0;
    u64 markLayerTicks_ = 0;
};

/** Digest of one adversary-visible event (shared with reference runs). */
inline void
digestEvent(Digest& d, const froram::TraceEvent& e)
{
    d.mix((static_cast<u64>(e.kind) << 32) | e.treeId);
    d.mix(e.leaf);
}

/** Digest of one access outcome: payload, backendAccesses, bytesMoved. */
inline void
digestResult(Digest& d, const froram::AccessResult& r)
{
    d.mix((static_cast<u64>(r.backendAccesses) << 1) | (r.coldMiss ? 1 : 0));
    d.mix(r.bytesMoved);
    d.mix(r.posmapBytes);
    d.mixBytes(r.data.data(), r.data.size());
}

/** In-memory spans: name, start, end, parent and request id. */
class SpanLog {
  public:
    static constexpr u32 kNone = 0;

    /** Register a span name; returns its id. */
    u32 name(const std::string& n);
    /** Record a finished span; returns its id (1-based). */
    u32
    add(u32 name, u32 parent, u64 req, u64 start, u64 end)
    {
        spans_.push_back({name, parent, req, start, end});
        return static_cast<u32>(spans_.size());
    }
    /** Close a span opened with add(..., start, start). */
    void finish(u32 id, u64 end) { spans_[id - 1].end = end; }
    /** Append another log's spans (their parent ids shifted to match). */
    void append(const SpanLog& other);
    /** Write every span as CSV (times in ns from `origin`). */
    bool write(const std::string& path, const TickClock& clock,
               u64 origin) const;

  private:
    struct Span {
        u32 name;
        u32 parent;
        u64 req;
        u64 start;
        u64 end;
    };
    std::vector<std::string> names_;
    std::vector<Span> spans_;
};

/** Totals a ProbeFrontend keeps over the results it passes through. */
struct FrontendTally {
    u64 accesses = 0; ///< real (non-prefetch) requests
    u64 bytesMoved = 0;
    u64 posmapBytes = 0;
    u64 backendAccesses = 0;
    u64 submitTicks = 0; ///< timed mode only
};

/**
 * Pass-through Frontend: forwards to `inner` and tallies every
 * AccessResult. With a SpanLog it also times each submit() and records
 * it as a child span of `parent`; with a Digest it folds every result
 * into it.
 */
class ProbeFrontend final : public froram::Frontend {
  public:
    explicit ProbeFrontend(froram::Frontend& inner) : inner_(inner) {}

    using froram::Frontend::submit;
    void submit(const froram::AccessRequest* reqs,
                froram::AccessResult* results, size_t n) override;

    std::string name() const override { return inner_.name(); }
    u64 dataBlockBytes() const override { return inner_.dataBlockBytes(); }
    u64 onChipPosMapBits() const override { return inner_.onChipPosMapBits(); }
    const froram::StatSet& stats() const override { return inner_.stats(); }
    void
    saveState(froram::CheckpointWriter& w) const override
    {
        inner_.saveState(w);
    }
    void
    restoreState(froram::CheckpointReader& r) override
    {
        inner_.restoreState(r);
    }

    FrontendTally tally;
    SpanLog* spans = nullptr;
    u32 spanName = 0;
    u32 parent = SpanLog::kNone;
    u64 requestId = 0;
    TraceRecorder* recorder = nullptr;
    Digest* digest = nullptr;

  protected:
    void
    serviceAccess(froram::AccessResult& res,
                  const froram::AccessRequest& req) override
    {
        submit(&req, &res, 1);
    }
    void serviceHint(froram::Addr addr) override { inner_.prefetchHint(addr); }

  private:
    froram::Frontend& inner_;
};

/**
 * The engine of one OramSystem rebuilt from public parts with the probes
 * in place: a UnifiedFrontend over a TimedCipher and a TimedStorage,
 * emitting into a TraceRecorder. Keys, storage sizing and the frontend
 * configuration follow OramSystem's constructor, so results and the
 * adversary trace are bit-identical to OramSystem(scheme, config) —
 * which every traced run checks.
 */
class TracedEngine {
  public:
    TracedEngine(froram::SchemeId scheme, const froram::OramSystemConfig& cfg,
                 LayerTotals& totals, TraceRecorder& recorder);

    froram::UnifiedFrontend& frontend() { return *frontend_; }
    froram::StorageBackend& storage() { return *storage_; }

  private:
    std::unique_ptr<TimedCipher> cipher_;
    std::unique_ptr<TimedStorage> storage_;
    std::unique_ptr<froram::UnifiedFrontend> frontend_;
};

} // namespace perfbench

#endif // FRORAM_PERFBENCH_PROBES_HPP
