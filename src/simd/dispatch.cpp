// Runtime dispatch: build the per-level kernel tables once, pick the
// active level once (CPUID/compile-target detection, overridable with
// INFRAME_SIMD), and hand out const references ever after.

#include "simd/simd.hpp"

#include "simd/kernels_internal.hpp"
#include "util/contract.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <mutex>

namespace inframe::simd {
namespace {

constexpr int level_count = 2;

struct Dispatch_state {
    std::array<Kernels, level_count> tables{};
    std::array<Level, level_count> available{};
    int available_count = 0;
    Level best = Level::scalar;
    Level initial = Level::scalar; // after INFRAME_SIMD is applied
};

bool is_supported_here(Level level)
{
    if (level == Level::scalar) return true;
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
    return __builtin_cpu_supports("avx2") != 0;
#else
    return false;
#endif
}

Dispatch_state build_state()
{
    Dispatch_state s;

    // The AVX2 table starts from the scalar one, so on a compile target
    // without AVX2 it is the reference (and is never selected).
    s.tables[int(Level::scalar)] = detail::scalar_table();
    s.tables[int(Level::avx2)] = detail::avx2_table(s.tables[int(Level::scalar)]);

    for (Level level : {Level::scalar, Level::avx2}) {
        if (is_supported_here(level)) {
            s.available[s.available_count++] = level;
            s.best = level;
        }
    }

    s.initial = s.best;
    if (const char* env = std::getenv("INFRAME_SIMD"); env != nullptr && env[0] != '\0') {
        const Level requested = level_from_name(env);
        if (is_supported_here(requested)) {
            s.initial = requested;
        }
        else {
            std::fprintf(stderr,
                         "inframe: INFRAME_SIMD=%s is not supported on this host; "
                         "using %s\n",
                         to_string(requested), to_string(s.best));
        }
    }
    return s;
}

const Dispatch_state& state()
{
    static const Dispatch_state s = build_state();
    return s;
}

std::atomic<Level>& active_slot()
{
    static std::atomic<Level> slot{state().initial};
    return slot;
}

} // namespace

const char* to_string(Level level)
{
    switch (level) {
    case Level::scalar: return "scalar";
    case Level::avx2: return "avx2";
    }
    return "unknown";
}

Level best_supported() { return state().best; }

std::span<const Level> available_levels()
{
    const Dispatch_state& s = state();
    return {s.available.data(), static_cast<std::size_t>(s.available_count)};
}

Level active_level() { return active_slot().load(std::memory_order_relaxed); }

const Kernels& kernels() { return state().tables[int(active_level())]; }

const Kernels& kernels_for(Level level)
{
    util::expects(is_supported_here(level), "simd level not supported on this host");
    return state().tables[int(level)];
}

Level set_active_level(Level level)
{
    util::expects(is_supported_here(level), "simd level not supported on this host");
    return active_slot().exchange(level, std::memory_order_relaxed);
}

Level level_from_name(const std::string& name)
{
    std::string lower(name.size(), '\0');
    std::transform(name.begin(), name.end(), lower.begin(),
                   [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
    if (lower == "scalar") return Level::scalar;
    if (lower == "avx2") return Level::avx2;
    util::expects(false, "INFRAME_SIMD must be scalar or avx2");
    return Level::scalar; // unreachable
}

} // namespace inframe::simd
