/**
 * @file
 * Repository benchmark binary (see README.md in this directory).
 *
 *   perfbench --workload kv|ring-wide|recover --seed N --seconds S
 *             --trace 0|1 --run-dir DIR [--spans FILE] [--commit ID]
 *
 * Prints one diagnostics line, then as its last line one JSON object
 * {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
 * with --trace 0, the per-layer metrics with --trace 1. Exits non-zero
 * when any request failed or any check did not hold.
 */
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <string>

#include <sched.h>
#include <sys/mount.h>
#include <unistd.h>

#include "workloads.hpp"

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const char* why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "kv|ring-wide|recover --seed N --seconds S --trace 0|1 "
                 "--run-dir DIR [--spans FILE] [--commit ID]\n",
                 why);
    std::exit(2);
}

std::string
jsonEscape(const std::string& s)
{
    std::string o;
    for (const char c : s) {
        if (c == '"' || c == '\\')
            o += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        o += c;
    }
    return o;
}

/**
 * Mount a tmpfs on `dir` in a mount namespace of this process alone, so
 * the service files (mmap shards, journal segments, snapshots, manifest)
 * live in memory: durability barriers are real calls that return at
 * once, and no page fault or writeback waits on the disk. The mount is
 * invisible outside the process and goes away with it. Returns the file
 * system the run directory ends up on: "tmpfs", or "disk" when the host
 * does not allow a private mount (the run then stays valid, with the
 * disk's barrier and writeback costs in its times).
 */
std::string
mountPrivateTmpfs(const std::string& dir)
{
    if (::unshare(CLONE_NEWNS) != 0)
        return "disk";
    // Private propagation first, or the mount would show in the parent
    // namespace.
    if (::mount(nullptr, "/", nullptr, MS_REC | MS_PRIVATE, nullptr) != 0 ||
        ::mount("perfbench", dir.c_str(), "tmpfs", MS_NOSUID | MS_NODEV,
                "mode=0700") != 0)
        return "disk";
    return "tmpfs";
}

std::string
utcNow()
{
    const std::time_t t = std::time(nullptr);
    char buf[32];
    std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", std::gmtime(&t));
    return buf;
}

} // namespace

int
main(int argc, char** argv)
{
    Options opt;
    std::string commit = "unknown";
    bool have_seconds = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        if (a == "--workload")
            opt.workload = v;
        else if (a == "--seed")
            opt.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (a == "--seconds") {
            opt.seconds = std::atof(v.c_str());
            have_seconds = true;
        } else if (a == "--trace")
            opt.trace = v == "1";
        else if (a == "--run-dir")
            opt.runDir = v;
        else if (a == "--spans")
            opt.spanPath = v;
        else if (a == "--commit")
            commit = v;
        else
            usage(("unknown option " + a).c_str());
    }
    if (opt.workload.empty() || opt.runDir.empty() || !have_seconds ||
        opt.seconds <= 0)
        usage("--workload, --seconds and --run-dir are required");

    Outcome (*run)(const Options&) = nullptr;
    if (opt.workload == "kv")
        run = runKv;
    else if (opt.workload == "ring-wide")
        run = runRingWide;
    else if (opt.workload == "recover")
        run = runRecover;
    else
        usage(("unknown workload " + opt.workload).c_str());

    const std::string start = utcNow();
    std::filesystem::create_directories(opt.runDir);
    const std::string run_fs = mountPrivateTmpfs(opt.runDir);
    Outcome out;
    try {
        out = run(opt);
    } catch (const std::exception& e) {
        out.fail(std::string("uncaught exception: ") + e.what());
    }
    std::error_code ec;
    if (run_fs == "tmpfs")
        ::umount2(opt.runDir.c_str(), MNT_DETACH);
    std::filesystem::remove_all(opt.runDir, ec);

    for (const Metric& m : out.metrics)
        if (!std::isfinite(m.value))
            out.fail("metric " + m.name + " is not finite");
    for (const std::string& n : out.notes)
        std::fprintf(stderr, "perfbench: %s\n", n.c_str());
    for (const std::string& e : out.errors)
        std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", e.c_str());

    // Diagnostics: never metrics, never used to drop a run.
    std::string extra;
    for (const auto& kv : out.diagnostics)
        extra += ", \"" + kv.first + "\": " + kv.second;
    std::printf("diagnostics {\"workload\": \"%s\", \"seed\": %llu, "
                "\"trace\": %d, \"start\": \"%s\", \"nproc\": %ld, "
                "\"commit\": \"%s\", \"run_fs\": \"%s\", "
                "\"steal_frac\": %.6f%s}\n",
                jsonEscape(opt.workload).c_str(),
                static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0,
                start.c_str(), ::sysconf(_SC_NPROCESSORS_ONLN),
                jsonEscape(commit).c_str(), run_fs.c_str(), out.stealFrac,
                extra.c_str());

    std::string json = "{\"correct\": ";
    json += out.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(out.attempted);
    json += ", \"failed\": " + std::to_string(out.failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < out.metrics.size(); ++i) {
        const Metric& m = out.metrics[i];
        char num[64];
        std::snprintf(num, sizeof(num), "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + num +
                ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return out.correct && out.failed == 0 ? 0 : 1;
}
