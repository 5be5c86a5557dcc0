#include "trace/capture.hpp"

#include "obs/span.hpp"
#include "smpi/internals.hpp"
#include "trace/paje.hpp"
#include "trace/writer.hpp"
#include "util/check.hpp"

namespace smpi::trace {

ApiScope::ApiScope(const char* state) : state_(state) {
  core::SmpiWorld* world = core::SmpiWorld::instance();
  if (world == nullptr) return;
  const core::Observers& observers = world->observers();
  if (observers.ti == nullptr && observers.paje == nullptr && observers.spans == nullptr) return;
  proc_ = world->current_process();
  if (proc_ == nullptr) return;  // MPI call outside a rank: let the callee complain
  outer_ = ++proc_->trace_depth == 1;
  recording_ = outer_ && observers.ti != nullptr;
  start_time_ = world->engine().now();
  if (outer_) {
    const int rank = proc_->world_rank;
    if (observers.paje != nullptr) observers.paje->push_state(rank, state_, start_time_);
    if (observers.spans != nullptr) observers.spans->on_enter(rank, state_, start_time_);
  }
}

ApiScope::~ApiScope() {
  if (proc_ == nullptr) return;
  if (outer_) {
    // Re-read: the world drops its observers when run() ends, and ranks
    // still parked then unwind through here.
    const core::Observers& observers = proc_->world->observers();
    const double now = proc_->world->engine().now();
    if (observers.paje != nullptr) observers.paje->pop_state(proc_->world_rank, now);
    if (observers.spans != nullptr) observers.spans->on_exit(proc_->world_rank, now);
  }
  --proc_->trace_depth;
}

void ApiScope::emit(const TiRecord& record) {
  if (!recording_) return;
  proc_->world->observers().ti->append(proc_->world_rank, record);
}

long long ApiScope::register_request(const core::Request* request) {
  if (!recording_ || request == nullptr) return -1;
  const long long id = proc_->trace_request_seq++;
  proc_->trace_request_ids[request] = id;
  return id;
}

long long ApiScope::lookup_request(const core::Request* request, bool erase) {
  if (!recording_ || request == nullptr) return -1;
  auto& ids = proc_->trace_request_ids;
  auto it = ids.find(request);
  if (it == ids.end()) return -1;
  const long long id = it->second;
  if (erase) ids.erase(it);
  return id;
}

}  // namespace smpi::trace
