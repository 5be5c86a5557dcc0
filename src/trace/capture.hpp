// Capture instrumentation bridge between the MPI implementation and the
// trace writers.
//
// The writers are the world's observers (core::Observers, passed to the
// SmpiWorld constructor); each scope reads them from the running world. The
// MPI entry points open an ApiScope; only the *outermost* scope on a rank
// records — the collectives, MPI_Finalize, ... are implemented on top of
// other MPI calls, and those inner calls must not be captured (the replay
// re-issues the outer operation through the very same implementation).
// MPI_Startall and the communicator-management calls
// deliberately open no scope: each inner MPI_Start records its own
// activation, and MPI_Comm_dup/split/free's internal world-comm
// allgather/barrier record as the plain collectives they are (on a
// *derived* parent communicator those inner collectives throw, like any
// derived-comm collective under capture).
//
// When the world has no TI writer, Paje writer or span collector (the scope
// also feeds the span layer, see obs/span.hpp), the ApiScope constructor is
// a few loads and a branch, so uninstrumented runs pay nothing measurable
// per MPI call.
#pragma once

#include "trace/record.hpp"

namespace smpi::core {
class Process;
class Request;
}  // namespace smpi::core

namespace smpi::trace {

class ApiScope {
 public:
  // `state` is the Paje state name for this call (also pushed/popped).
  explicit ApiScope(const char* state);
  ~ApiScope();

  ApiScope(const ApiScope&) = delete;
  ApiScope& operator=(const ApiScope&) = delete;

  // True when this scope is the application-level call on this rank and the
  // world has a TI writer — i.e. emit() will actually record.
  bool recording() const { return recording_; }
  void emit(const TiRecord& record);

  // Capture-side request ids (kept on the rank's Process). register_request
  // assigns the next id for this rank and remembers the Request* -> id
  // binding; lookup_request returns -1 for unknown requests and forgets the
  // binding when erase is set (the request has been consumed by a wait and
  // its heap slot may be recycled).
  long long register_request(const core::Request* request);
  long long lookup_request(const core::Request* request, bool erase);

  // Simulated date at scope entry (for recording elapsed-time sleeps of
  // unsuccessful polls).
  double start_time() const { return start_time_; }

 private:
  core::Process* proc_ = nullptr;
  const char* state_;
  bool outer_ = false;
  bool recording_ = false;
  double start_time_ = 0;
};

}  // namespace smpi::trace
