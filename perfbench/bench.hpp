/**
 * @file
 * Shared plumbing of the repository benchmark: options, the result
 * record printed as the final JSON line, clocks, percentiles, process
 * resource counters and the self-checking payload encoding.
 */
#ifndef FRORAM_PERFBENCH_BENCH_HPP
#define FRORAM_PERFBENCH_BENCH_HPP

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "util/bitops.hpp"
#include "util/common.hpp"
#include "util/rng.hpp"

namespace perfbench {

using froram::u32;
using froram::u64;
using froram::u8;

/** Command-line options (see main.cpp). */
struct Options {
    std::string workload;
    u64 seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Run directory for service files; removed at exit. */
    std::string runDir;
    /** Where the traced run writes its spans (empty = nowhere). */
    std::string spanPath;
};

struct Metric {
    std::string name;
    std::string unit;
    double value = 0;
};

/** What one run reports: the gate, the counts and the metrics. */
struct Outcome {
    bool correct = true;
    u64 attempted = 0;
    u64 failed = 0;
    std::vector<Metric> metrics;
    std::vector<std::string> errors;  ///< first few gate failures
    std::vector<std::string> notes;   ///< informational lines (stderr)
    double stealFrac = 0;             ///< host steal over the measured phase
    /** Extra diagnostics as (key, JSON value) pairs; never metrics. */
    std::vector<std::pair<std::string, std::string>> diagnostics;

    void
    add(const std::string& name, const std::string& unit, double value)
    {
        metrics.push_back({name, unit, value});
    }

    /** Record a correctness-gate failure (the run then exits non-zero). */
    void
    fail(const std::string& why)
    {
        correct = false;
        if (errors.size() < 16)
            errors.push_back(why);
    }
};

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Nearest-rank percentile (p in [0, 100]) of an unsorted sample. */
inline double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
    const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
    return v[std::min(idx, v.size() - 1)];
}

inline double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50);
}

/** Process CPU time and page-fault counters (getrusage). */
struct Usage {
    double cpuSec = 0;
    double minorFaults = 0;

    static Usage
    now()
    {
        rusage ru{};
        ::getrusage(RUSAGE_SELF, &ru);
        Usage u;
        u.cpuSec = static_cast<double>(ru.ru_utime.tv_sec) +
                   static_cast<double>(ru.ru_utime.tv_usec) * 1e-6 +
                   static_cast<double>(ru.ru_stime.tv_sec) +
                   static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
        u.minorFaults = static_cast<double>(ru.ru_minflt);
        return u;
    }

    Usage
    operator-(const Usage& o) const
    {
        return {cpuSec - o.cpuSec, minorFaults - o.minorFaults};
    }
    Usage&
    operator+=(const Usage& o)
    {
        cpuSec += o.cpuSec;
        minorFaults += o.minorFaults;
        return *this;
    }
};

/** Host CPU jiffies from /proc/stat: all states, and stolen ones. */
struct HostCpu {
    u64 total = 0;
    u64 steal = 0;

    static HostCpu
    now()
    {
        HostCpu h;
        std::FILE* f = std::fopen("/proc/stat", "r");
        if (f == nullptr)
            return h;
        unsigned long long v[10] = {};
        if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu %llu "
                           "%llu",
                        &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                        &v[7], &v[8], &v[9]) >= 8) {
            // guest and guest_nice (8, 9) are already inside user/nice.
            for (int i = 0; i < 8; ++i)
                h.total += v[i];
            h.steal = v[7];
        }
        std::fclose(f);
        return h;
    }
};

/**
 * Accumulates wall time, process CPU/fault counters and host steal over
 * one or more measured segments (untimed checks run between them).
 */
class Meter {
  public:
    void
    start()
    {
        t0_ = Clock::now();
        u0_ = Usage::now();
        h0_ = HostCpu::now();
    }
    void
    stop()
    {
        wallSec += secondsSince(t0_);
        usage += Usage::now() - u0_;
        const HostCpu h = HostCpu::now();
        hostTotal += h.total - h0_.total;
        hostSteal += h.steal - h0_.steal;
    }
    /**
     * Close a window at this point of the measured phase (the meter must
     * be running): it covered `requests` requests in total so far and
     * `samples` latency samples in total so far.
     */
    void
    cut(u64 requests, size_t samples)
    {
        stop();
        windows.push_back({wallSec, usage.cpuSec, requests, samples});
        start();
    }

    double
    stealFrac() const
    {
        return hostTotal == 0 ? 0
                              : static_cast<double>(hostSteal) /
                                    static_cast<double>(hostTotal);
    }

    /** Cumulative totals at each cut(). */
    struct Window {
        double wallSec;
        double cpuSec;
        u64 requests;
        size_t samples;
    };

    double wallSec = 0;
    Usage usage;
    u64 hostTotal = 0;
    u64 hostSteal = 0;
    std::vector<Window> windows;

  private:
    Clock::time_point t0_;
    Usage u0_;
    HostCpu h0_;
};

/** Peak resident set of this process in MiB (ru_maxrss is in KiB). */
inline double
peakRssMb()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** Order-sensitive 64-bit digest (equivalence checks). */
struct Digest {
    u64 h = 0x9e3779b97f4a7c15ULL;

    void mix(u64 v) { h = froram::splitmix64Mix(h ^ v) + 0x632be59bd9b4e019ULL; }

    void
    mixBytes(const u8* p, size_t n)
    {
        mix(n);
        size_t i = 0;
        for (; i + 8 <= n; i += 8) {
            u64 w;
            std::memcpy(&w, p + i, 8);
            mix(w);
        }
        u64 tail = 0;
        std::memcpy(&tail, p + i, n - i);
        mix(tail);
    }
};

/**
 * Self-checking payload: every byte is a function of (seed, address,
 * version), so a read that returns a stale version, another address's
 * block, or a lost write never matches what the reference model
 * expects.
 */
inline void
fillPayload(u8* out, size_t len, u64 seed, u64 addr, u64 version)
{
    u64 x = froram::splitmix64Mix(seed ^ (addr * 0x9e3779b97f4a7c15ULL) ^
                                  (version << 40) ^ version);
    for (size_t off = 0; off < len; off += 8) {
        x = froram::splitmix64Mix(x + off + 1);
        const size_t take = std::min<size_t>(8, len - off);
        std::memcpy(out + off, &x, take);
    }
    // Address and version in the clear too, for readable mismatches.
    if (len >= 16) {
        std::memcpy(out, &addr, 8);
        std::memcpy(out + 8, &version, 8);
    }
}

} // namespace perfbench

#endif // FRORAM_PERFBENCH_BENCH_HPP
