#pragma once
// Wire protocol for the network serving front-end — length-prefixed,
// versioned binary frames between dynasparse_loadgen / NetClient and the
// NetServer inside `dynasparse_serve --listen`.
//
// Frame layout (all integers little-endian):
//
//   u64  payload_len            bounded by kMaxFramePayload — a hostile
//                               prefix (2^63, 0, SIZE_MAX) is rejected
//                               before any allocation happens
//   u8   version                kWireVersion; anything else is a
//                               protocol error (versioned frames let a
//                               future v2 coexist on one port)
//   u8   type                   FrameType
//   u64  correlation id         client-chosen; echoed on every response
//   ...  type-specific body     decoded by the decode_* functions below
//
// Requests:  SUBMIT (a StreamRequestSpec — the same deterministic
//            workload description request-stream files use), POLL,
//            CANCEL, STATS.
// Responses: RESULT (deterministic fingerprint + latencies), ERROR
//            (WireErrorCode — the service's closed error taxonomy as
//            stable wire codes), STATE (poll/cancel replies), STATS_REPLY
//            (key=value text).
//
// Hardening contract (the util/strict_parse discipline, applied to
// bytes): every length is bounded and checked against what was actually
// received before anything is allocated or copied; every enum byte is
// range-checked; every body must be consumed exactly — trailing bytes
// are an error, not slack; every violation throws WireProtocolError with
// a message naming the offending field. try_extract_frame never reads
// past `size` and never allocates more than kMaxFramePayload.
//
// Error-code round-trip: the catch chain in
// NetServer::finalize_completions (net/server.cpp) maps each taxonomy
// exception to its code; rethrow_wire_error maps a code back to the same
// exception type, so a client observes exactly the typed error a local
// InferenceService::wait would have thrown (tested 1:1 in
// tests/net_service_test.cpp).

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "service/request_stream.hpp"

namespace dynasparse {

/// Malformed bytes on the wire (either direction). Deliberately distinct
/// from the request taxonomy: a protocol error says the *peer* is broken
/// or hostile, not that a request failed.
struct WireProtocolError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

inline constexpr std::uint8_t kWireVersion = 1;
/// Hard bound on one frame's payload. Checked against the raw length
/// prefix before any allocation: a 2^63 prefix costs nothing.
inline constexpr std::uint64_t kMaxFramePayload = 64 * 1024;
inline constexpr std::size_t kFrameLenBytes = 8;   // u64 length prefix
inline constexpr std::size_t kFrameHeaderBytes = 10;  // version+type+corr
/// Bounds on embedded variable-length fields, all far below the frame
/// bound so a single frame can never smuggle an oversized allocation.
inline constexpr std::size_t kMaxDatasetTagBytes = 32;
inline constexpr std::size_t kMaxErrorMessageBytes = 512;
/// Sanity bounds on submitted numeric fields — hostile values are
/// rejected at decode, before they reach dataset generation.
inline constexpr std::uint64_t kMaxWireScale = 1u << 20;
inline constexpr std::uint64_t kMaxWireHidden = 1u << 20;
inline constexpr std::uint64_t kMaxWireDeadlineMs = 1000ull * 1000 * 1000;

enum class FrameType : std::uint8_t {
  // client -> server
  kSubmit = 1,
  kPoll = 2,
  kCancel = 3,
  kStats = 4,
  // server -> client
  kResult = 0x81,
  kError = 0x82,
  kState = 0x83,
  kStatsReply = 0x84,
};

const char* frame_type_name(FrameType t);

/// The service's closed error taxonomy as stable wire codes, plus the
/// protocol-layer outcomes a networked caller can additionally observe.
enum class WireErrorCode : std::uint8_t {
  kProtocol = 1,           // malformed frame (WireProtocolError)
  kCancelled = 2,          // CancelledError
  kDeadlineExceeded = 3,   // DeadlineExceededError
  kAdmissionRejected = 4,  // AdmissionRejectedError
  kExecutionError = 5,     // ExecutionError
  kShuttingDown = 6,       // submit refused: server going down
  kUnknownRequest = 7,     // POLL/CANCEL for an unknown correlation id
  kInvalidRequest = 8,     // well-formed frame, unusable request
};

const char* wire_error_name(WireErrorCode c);

/// Map a code back to the exception a local InferenceService would have
/// thrown: kCancelled -> CancelledError, kDeadlineExceeded ->
/// DeadlineExceededError, kAdmissionRejected -> AdmissionRejectedError,
/// kExecutionError -> ExecutionError, kShuttingDown ->
/// ShutdownError (the submit/shutdown race), kUnknownRequest /
/// kInvalidRequest -> std::invalid_argument, kProtocol ->
/// WireProtocolError.
[[noreturn]] void rethrow_wire_error(WireErrorCode code,
                                     const std::string& message);

/// One extracted frame: validated header, raw (not yet decoded) body.
struct WireFrame {
  std::uint8_t version = kWireVersion;
  FrameType type = FrameType::kSubmit;
  std::uint64_t corr = 0;
  std::vector<std::uint8_t> body;
};

/// Decoded response payloads.
struct WireResult {
  std::uint64_t fingerprint = 0;  // InferenceReport::deterministic_fingerprint
  double sim_latency_ms = 0.0;    // simulated accelerator latency
  double server_ms = 0.0;         // submit -> completion on the server
};
struct WireError {
  WireErrorCode code = WireErrorCode::kProtocol;
  std::string message;
};

/// Try to extract one frame from the front of `data[0..size)`. Returns
/// false when more bytes are needed (nothing consumed); on success fills
/// `out`, sets `consumed`, and the caller drops that prefix. Throws
/// WireProtocolError — before allocating anything — on a hostile length
/// prefix (0, > kMaxFramePayload, 2^63...), a bad version byte, or an
/// unknown frame type.
bool try_extract_frame(const std::uint8_t* data, std::size_t size,
                       WireFrame& out, std::size_t& consumed);

// ---- encoders (always produce a complete, length-prefixed frame) -----------

/// SUBMIT carries a StreamRequestSpec (repeat is not transmitted: one
/// frame = one request; spec.repeat must be 1).
std::vector<std::uint8_t> encode_submit(std::uint64_t corr,
                                        const StreamRequestSpec& spec);
std::vector<std::uint8_t> encode_poll(std::uint64_t corr);
std::vector<std::uint8_t> encode_cancel(std::uint64_t corr);
std::vector<std::uint8_t> encode_stats(std::uint64_t corr);
std::vector<std::uint8_t> encode_result(std::uint64_t corr,
                                        const WireResult& result);
/// The message is truncated to kMaxErrorMessageBytes on encode, so a
/// long exception string can never produce an overlong frame.
std::vector<std::uint8_t> encode_error(std::uint64_t corr, WireErrorCode code,
                                       const std::string& message);
std::vector<std::uint8_t> encode_state(std::uint64_t corr, std::uint8_t value);
std::vector<std::uint8_t> encode_stats_reply(std::uint64_t corr,
                                             const std::string& text);

// ---- decoders (validate every field, require exact body consumption) -------

StreamRequestSpec decode_submit(const WireFrame& f);
WireResult decode_result(const WireFrame& f);
WireError decode_error(const WireFrame& f);
std::uint8_t decode_state(const WireFrame& f);
std::string decode_stats_reply(const WireFrame& f);
/// POLL/CANCEL/STATS carry no body; reject trailing bytes.
void decode_empty(const WireFrame& f);

}  // namespace dynasparse
