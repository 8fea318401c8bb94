// Runtime-dispatched SIMD kernel for the dense G(n,p) classify sweep.
//
// Design rule: the vector path is a *transcription* of the scalar
// reference, not an approximation. The kernel (and the lane step it is
// built on) has a portable scalar implementation and (on x86-64) an AVX2
// implementation compiled in its own translation unit with -mavx2; the two
// produce byte-identical results: lane_step / classify_dense reproduce the
// xoshiro256** recurrence with exact 64-bit integer ops, and convert
// u64 -> double with the magic-constant trick, which is exact for values
// below 2^53 — the (bits >> 11) * 0x1.0p-53 uniform is therefore bit-equal
// to the scalar static_cast. Threshold comparisons use ordered `<`, same
// as scalar.
//
// Mode selection: CPUID at first use, overridable by the RADNET_SIMD
// environment variable (`off` or `scalar` pins the portable path, `avx2`
// requests the vector path and falls back with a warning when the CPU
// lacks it) and programmatically by set_mode() for benches and tests.
// Because every mode emits the same bytes, the override is a debugging and
// benchmarking knob, never a correctness knob.
#pragma once

#include <cstdint>

#include "support/rng.hpp"

namespace radnet::simd {

enum class Mode : std::uint8_t { kScalar = 0, kAvx2 = 1 };

/// True when the CPU (and the build) can execute the AVX2 kernels.
[[nodiscard]] bool cpu_has_avx2();

/// The mode all dispatched kernels currently run in. Resolved on first use:
/// RADNET_SIMD override if set, else AVX2 when available, else scalar.
[[nodiscard]] Mode active_mode();

/// Programmatic override (benches, tests). Requests for kAvx2 on a host
/// without it degrade to kScalar.
void set_mode(Mode mode);

/// "scalar" / "avx2" — the spelling used by RADNET_SIMD and the BENCH JSON.
[[nodiscard]] const char* mode_name(Mode mode);

// ---------------------------------------------------------------------------
// Lane generator step (LaneRng bulk draw backend).
// ---------------------------------------------------------------------------

/// Advances all LaneRng lanes by one step; out[l] = lane l's next u64.
void lane_step(LaneRng& lanes, std::uint64_t* out);
void lane_step_scalar(LaneRng& lanes, std::uint64_t* out);
void lane_step_avx2(LaneRng& lanes, std::uint64_t* out);

// ---------------------------------------------------------------------------
// Dense G(n,p) outcome classification (GnpSampler's plain dense sweep).
// ---------------------------------------------------------------------------

/// Per-round outcome thresholds, precomputed once per sweep (see
/// GnpSampler::outcome_probs): a listener's uniform u classifies as silent
/// when u < silent, as a single-sender delivery when u < edge, else as a
/// collision. Transmitting listeners use the *_tx pair (silent_tx = 1 under
/// half-duplex, so they always classify silent).
struct DenseClassifyParams {
  double silent;
  double edge;
  double silent_tx;
  double edge_tx;
};

inline constexpr unsigned char kOutcomeSilent = 0;
inline constexpr unsigned char kOutcomeDeliver = 1;
inline constexpr unsigned char kOutcomeCollide = 2;

/// Classifies `count` consecutive listeners: codes[i] for the listener at
/// position i, whose uniform is lane (i % kLanes)'s draw number (i / kLanes).
/// Every batch of kLanes positions advances all lanes once — including the
/// final partial batch, so stream consumption is a function of count alone.
/// is_tx must have `count` valid bytes (nonzero = transmitting listener);
/// the kernels never read past is_tx + count.
void classify_dense(LaneRng& lanes, const char* is_tx, std::uint32_t count,
                    unsigned char* codes, const DenseClassifyParams& params);
void classify_dense_scalar(LaneRng& lanes, const char* is_tx,
                           std::uint32_t count, unsigned char* codes,
                           const DenseClassifyParams& params);
void classify_dense_avx2(LaneRng& lanes, const char* is_tx,
                         std::uint32_t count, unsigned char* codes,
                         const DenseClassifyParams& params);

}  // namespace radnet::simd
