// Fault-injection sweeps: BER/throughput under channel impairments, and
// the erasure-aware vs hard-decision decoder comparison.
//
// The paper's rig is a clean lab link; DeepLight and Revelio both report
// that deployment kills screen-camera links with frame drops, shake and
// occlusion long before additive noise does. Each sweep below dials one
// impairment from channel::Impairment_config while holding the rest at
// zero, and decodes the same channel twice: hard-decision (the paper's
// strawman) and erasure-aware (ambiguous/occluded blocks become erasures;
// GOB parity fills single-erasure GOBs; RS consumes the trusted mask).
//
// The run fails (non-zero exit) when the determinism contract breaks —
// any impaired run must be bit-identical at threads=1 and threads=4 —
// or, at --quick scale and above, when erasure-aware decoding does not
// beat hard-decision BER at two or more swept impairment levels.

#include "bench_common.hpp"
#include "core/link_runner.hpp"

#include <cstdio>
#include <string>
#include <vector>

namespace {

using namespace inframe;

constexpr int width = 480;
constexpr int height = 270;

core::Link_experiment_config base(double duration)
{
    core::Link_experiment_config config;
    config.video = video::make_dark_gray_video(width, height);
    config.inframe = core::paper_config(width, height);
    config.inframe.geometry = coding::fitted_geometry(width, height, 2);
    config.inframe.tau = 12;
    config.camera.sensor_width = width;
    config.camera.sensor_height = height;
    config.auto_exposure = false;
    config.duration_s = duration;
    return config;
}

struct Mode_pair {
    core::Link_experiment_result hard;
    core::Link_experiment_result erasure;
};

Mode_pair run_both(core::Link_experiment_config config)
{
    Mode_pair pair;
    config.erasure_aware = false;
    pair.hard = core::run_link_experiment(config);
    config.erasure_aware = true;
    pair.erasure = core::run_link_experiment(config);
    return pair;
}

int improved = 0; // swept levels where erasure BER < hard BER strictly
int impaired_levels = 0;

void report(util::Table& table, const std::string& label, const Mode_pair& pair,
            bool impairment_active)
{
    table.add_row({label, pair.hard.payload_bit_error_rate,
                   pair.erasure.payload_bit_error_rate, pair.erasure.recovered_gob_ratio,
                   pair.hard.goodput_kbps, pair.erasure.goodput_kbps,
                   static_cast<double>(pair.erasure.captures_dropped)});
    if (impairment_active) {
        ++impaired_levels;
        if (pair.erasure.payload_bit_error_rate < pair.hard.payload_bit_error_rate) ++improved;
    }
}

std::vector<std::string> table_header()
{
    return {"level",         "hard BER",     "erasure BER", "recovered GOBs",
            "hard goodput",  "eras goodput", "drops"};
}

// Exact-equality comparison of two experiment results: the determinism
// contract is bit-identical output, not approximately-equal output.
bool identical(const core::Link_experiment_result& a, const core::Link_experiment_result& b)
{
    return a.data_frames == b.data_frames && a.captures == b.captures
           && a.available_gob_ratio == b.available_gob_ratio
           && a.gob_error_rate == b.gob_error_rate && a.goodput_kbps == b.goodput_kbps
           && a.block_error_rate == b.block_error_rate
           && a.unknown_block_ratio == b.unknown_block_ratio
           && a.trusted_bit_error_rate == b.trusted_bit_error_rate
           && a.payload_bit_error_rate == b.payload_bit_error_rate
           && a.recovered_gob_ratio == b.recovered_gob_ratio
           && a.occluded_block_ratio == b.occluded_block_ratio
           && a.captures_dropped == b.captures_dropped;
}

} // namespace

int main(int argc, char** argv)
{
    const auto args = bench::parse_args(argc, argv);
    telemetry::Session telemetry_session(args.telemetry);
    const double duration = bench::scale_duration(args.scale, 1.0, 2.0, 4.0);

    bench::print_header("Fault injection 1: capture frame drops + stale duplication",
                        "capture-pipeline losses thin the vote per data frame; erasure "
                        "handling must not make a lossy link worse");
    {
        util::Table table(table_header());
        for (const double drop : {0.0, 0.05, 0.15, 0.30}) {
            auto config = base(duration);
            config.impairments.drop_probability = drop;
            config.impairments.duplicate_probability = drop > 0.0 ? 0.05 : 0.0;
            report(table, "drop " + util::format_fixed(drop, 2), run_both(config), drop > 0.0);
        }
        bench::emit_table(args, "fault_drop", table);
    }

    bench::print_header("Fault injection 2: translational camera shake",
                        "per-capture jitter the decoder's calibration does not know about "
                        "smears the chessboard across block boundaries");
    {
        util::Table table(table_header());
        for (const double sigma : {0.0, 0.3, 0.8, 1.6}) {
            auto config = base(duration);
            config.impairments.shake_sigma_px = sigma;
            report(table, "sigma " + util::format_fixed(sigma, 1) + " px", run_both(config),
                   sigma > 0.0);
        }
        bench::emit_table(args, "fault_shake", table);
    }

    bench::print_header("Fault injection 3: partial occlusion",
                        "an occluder kills the residual metric; hard decisions read covered "
                        "blocks as confident zeros, erasure-aware decoding flags and fills");
    {
        util::Table table(table_header());
        for (const double fraction : {0.0, 0.03, 0.08, 0.15}) {
            auto config = base(duration);
            config.impairments.occlusion_fraction = fraction;
            config.impairments.occlusion_count = 2;
            report(table, "area " + util::format_fixed(fraction, 2), run_both(config),
                   fraction > 0.0);
        }
        bench::emit_table(args, "fault_occlusion", table);
    }

    bench::print_header("Fault injection 4: exposure/gain drift",
                        "auto-exposure hunting modulates the whole frame at a few hertz; "
                        "the per-row threshold split must track it");
    {
        util::Table table(table_header());
        for (const double amplitude : {0.0, 0.1, 0.25, 0.45}) {
            auto config = base(duration);
            config.impairments.gain_drift_amplitude = amplitude;
            config.impairments.offset_drift_dn = amplitude * 20.0;
            report(table, "gain +-" + util::format_fixed(amplitude, 2), run_both(config),
                   amplitude > 0.0);
        }
        bench::emit_table(args, "fault_exposure_drift", table);
    }

    bench::print_header("Fault injection 5: rolling-shutter tear",
                        "a mid-scanout buffer swap shears the lower band off the block "
                        "grid; torn rows should become erasures, not bit errors");
    {
        util::Table table(table_header());
        for (const double probability : {0.0, 0.25, 0.6, 1.0}) {
            auto config = base(duration);
            config.impairments.tear_probability = probability;
            config.impairments.tear_shift_px = 10.0;
            report(table, "p " + util::format_fixed(probability, 2), run_both(config),
                   probability > 0.0);
        }
        bench::emit_table(args, "fault_tear", table);
    }

    bench::print_header("Determinism: combined impairments, threads 1 vs 4",
                        "every impairment draw is a pure function of (seed, stage, capture); "
                        "the impaired run must be bit-identical at any thread count");
    bool deterministic = true;
    {
        auto config = base(std::min(duration, 1.0));
        config.impairments.drop_probability = 0.1;
        config.impairments.duplicate_probability = 0.05;
        config.impairments.gain_drift_amplitude = 0.15;
        config.impairments.shake_sigma_px = 0.5;
        config.impairments.occlusion_fraction = 0.08;
        config.impairments.tear_probability = 0.3;
        config.erasure_aware = true;
        config.inframe.threads = 1;
        const auto serial = core::run_link_experiment(config);
        config.inframe.threads = 4;
        const auto parallel = core::run_link_experiment(config);
        deterministic = identical(serial, parallel);
        std::printf("threads=1 vs threads=4: %s (BER %.6f vs %.6f, drops %lld vs %lld)\n\n",
                    deterministic ? "IDENTICAL" : "MISMATCH",
                    serial.payload_bit_error_rate, parallel.payload_bit_error_rate,
                    static_cast<long long>(serial.captures_dropped),
                    static_cast<long long>(parallel.captures_dropped));
    }

    std::printf("erasure-aware beat hard-decision BER at %d of %d impaired levels\n", improved,
                impaired_levels);
    if (!deterministic) {
        std::printf("FAIL: impaired runs are not bit-identical across thread counts\n");
        return 1;
    }
    // At smoke scale the runs are too short for the BER comparison to be
    // meaningful; the smoke ctest only guards build/run bitrot and the
    // determinism contract.
    if (args.scale != bench::Run_scale::smoke && improved < 2) {
        std::printf("FAIL: erasure-aware decoding should win at >= 2 impaired levels\n");
        return 1;
    }
    std::printf("done.\n");
    return 0;
}
