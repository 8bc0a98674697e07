// Umbrella header: the public API of the InFrame library.
//
//   #include <inframe.hpp>   (with src/ on the include path)
//
// For finer-grained builds include the per-module headers directly; every
// public type is documented at its declaration.
#pragma once

// The paper's contribution.
#include "core/config.hpp"      // Inframe_config, paper_config
#include "core/encoder.hpp"     // Inframe_encoder, make_complementary_pair
#include "core/decoder.hpp"     // Inframe_decoder, Detector
#include "core/session.hpp"     // Inframe_sender / Inframe_receiver, Frame_codec
#include "core/sync.hpp"        // Phase_estimator, Synced_decoder
#include "core/link_runner.hpp" // experiment harnesses
#include "core/pipeline.hpp"    // stage-graph runtime (Pipeline, Stage)
#include "core/stages.hpp"      // Video/Encode/Link/Decode/Send/Receive stages

// Substrates.
#include "channel/display.hpp"
#include "channel/camera.hpp"
#include "channel/link.hpp"
#include "coding/geometry.hpp"
#include "coding/parity.hpp"
#include "coding/reed_solomon.hpp"
#include "coding/framing.hpp"
#include "hvs/observer.hpp"
#include "hvs/temporal_model.hpp"
#include "hvs/flicker.hpp"
#include "video/source.hpp"
#include "video/playback.hpp"
#include "dsp/envelope.hpp"
#include "dsp/filter.hpp"
#include "dsp/spectrum.hpp"
#include "imgproc/image.hpp"
#include "imgproc/image_ops.hpp"
#include "imgproc/filter.hpp"
#include "imgproc/draw.hpp"
#include "imgproc/io.hpp"
#include "imgproc/metrics.hpp"
#include "telemetry/telemetry.hpp" // Registry, Scoped_span, Session (--trace)
#include "util/prng.hpp"
#include "util/bitstream.hpp"
#include "util/crc32.hpp"
#include "util/stats.hpp"
#include "util/csv.hpp"
#include "util/thread_pool.hpp"
