#pragma once
// The service layer's closed error taxonomy.
//
// src/service and src/net never construct a bare std::runtime_error
// (dynasparse_lint rule [error-taxonomy]): every failure a caller can
// observe has a named type, so the wire layer maps exceptions to
// WireErrorCode deliberately instead of by string-matching what() and a
// new failure mode cannot silently ride an existing catch clause. The
// types still DERIVE from std::runtime_error, so pre-existing
// catch (const std::runtime_error&) sites (CLI drivers, tests) keep
// working unchanged.
//
// The full taxonomy, including members defined next to their subsystems:
//   RequestAbortedError / CancelledError / DeadlineExceededError
//     (util/cancellation.hpp) — the request's own cancellation fired
//   AdmissionRejectedError, ExecutionError (service/inference_service.hpp)
//   ShutdownError, StreamParseError (this header)
//   WireProtocolError (net/wire.hpp), NetError (net/client.hpp),
//   NetSetupError (net/errors.hpp)

#include <stdexcept>

namespace dynasparse {

/// The service is shutting down and refused new work (submit/create_slot
/// after close, a request still queued when the service is destroyed).
/// Maps to WireErrorCode::kShuttingDown.
struct ShutdownError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// A request-stream file or line failed to parse (unknown model kind or
/// strategy, malformed field, unreadable file). The stream reader turns
/// per-line instances into one aggregated usage error.
struct StreamParseError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

}  // namespace dynasparse
