// Point-to-point engine: posting, matching, transfer timing, completion.
//
// Timing model per message (size s, personality P):
//   sender pays P.overhead_send, plus a copy cost for eager buffering;
//   s < P.eager_threshold  — "eager": the data flow starts at send time and
//       the send completes immediately (buffered mode); the receive completes
//       when the flow arrives (plus P.overhead_recv);
//   s >= threshold         — "rendezvous": the data flow starts when both
//       sides are posted (synchronous mode). With
//       P.emulate_protocol_messages the RTS/CTS round-trip is sent as real
//       zero-byte flows first (ground-truth personalities); SMPI mode leaves
//       it folded into the calibrated piece-wise model (§4.1).
//
// Envelopes are enqueued in send order, so MPI's non-overtaking rule holds.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "obs/span.hpp"
#include "smpi/internals.hpp"
#include "trace/capture.hpp"
#include "util/check.hpp"

namespace smpi::core {

namespace {

SmpiConfig const& config() { return SmpiWorld::instance()->config(); }

// Collective-internal messages match in a shadow scope of the communicator.
int scope_key(const Comm* comm, bool coll_scope) {
  return coll_scope ? -(comm->id() + 1) : comm->id();
}

// Would a receive (or probe) of (source, tag) take this envelope?
bool matches(const Envelope& env, int source, int tag) {
  return (source == MPI_ANY_SOURCE || source == env.src_comm_rank) &&
         (tag == MPI_ANY_TAG || tag == env.tag);
}

// The first unexpected envelope a receive of (source, tag) takes: arrival
// order is what MPI's non-overtaking rule needs.
std::vector<std::shared_ptr<Envelope>>::iterator first_match(MatchQueues& queues, int source,
                                                            int tag) {
  return std::find_if(queues.unexpected.begin(), queues.unexpected.end(),
                      [&](const auto& env) { return matches(*env, source, tag); });
}

// Copy the message payload into the receive buffer, honoring datatypes and
// truncation. `packed` is the packed representation when available (eager);
// rendezvous reads straight from the sender's buffer.
void copy_payload_to_receiver(const Envelope& env, Request& recv) {
  const std::size_t capacity = static_cast<std::size_t>(recv.count) * recv.datatype->size();
  const std::size_t bytes = std::min(env.bytes, capacity);
  recv.status_bytes = bytes;
  if (env.bytes > capacity) recv.status_error = MPI_ERR_TRUNCATE;
  if (bytes == 0) return;
  // Payload-free (replay) mode: sizes and statuses are tracked, data never
  // moves — eager envelopes carry no snapshot to read from.
  if (config().payload_free) return;

  if (env.eager_data) {
    recv.datatype->unpack_bytes(env.eager_data.get(), bytes, recv.recv_buf);
    return;
  }
  if (env.zc_src != nullptr) {
    // Zero-copy eager: deliver straight from the sender's stable buffer.
    auto& counters = SmpiWorld::instance()->p2p_raw();
    ++counters.eager_copy_elided;
    counters.bytes_not_copied += bytes;
    recv.datatype->unpack_bytes(env.zc_src, bytes, recv.recv_buf);
    return;
  }
  // Rendezvous: read from the sender's live buffer.
  const Request* send = env.send_request;
  SMPI_ENSURE(send != nullptr, "rendezvous envelope lost its sender");
  if (!send->datatype->needs_packing()) {
    recv.datatype->unpack_bytes(send->send_buf, bytes, recv.recv_buf);
  } else {
    std::vector<unsigned char> packed(env.bytes);
    send->datatype->pack(send->send_buf, send->count, packed.data());
    recv.datatype->unpack_bytes(packed.data(), bytes, recv.recv_buf);
  }
}

void complete_receive_after(Request& recv, double extra_delay,
                            sim::Activity::State state = sim::Activity::State::kDone) {
  if (extra_delay <= 0 || state != sim::Activity::State::kDone) {
    // Failures propagate immediately: the overhead timer models successful
    // delivery work that never happens for a dead transfer.
    recv.token->finish(state);
    return;
  }
  auto* engine = &SmpiWorld::instance()->engine();
  sim::ActivityPtr token = recv.token;
  engine->add_timer(engine->now() + extra_delay,
                    [token = std::move(token)] { token->finish(sim::Activity::State::kDone); });
}

// A rendezvous transfer (or one of its control messages) died: fail both
// sides so the blocked ranks observe the failure at their wait sites.
void fail_rendezvous(Envelope& env, Request& recv, sim::Activity::State state) {
  if (env.send_request != nullptr && env.send_request->token != nullptr) {
    env.send_request->token->finish(state);
  }
  complete_receive_after(recv, 0, state);
}

// Start the rendezvous data transfer once the (possibly emulated) control
// messages are through, then complete both sides.
void start_rendezvous_transfer(std::shared_ptr<Envelope> env, Request& recv) {
  auto* world = SmpiWorld::instance();
  const double o_recv = world->config().personality.overhead_recv_s;
  Request* send = env->send_request;
  SMPI_ENSURE(send != nullptr, "rendezvous transfer without sender");
  auto data_flow = world->network().start_flow(world->process(env->src_world_rank)->node,
                                               world->process(env->dst_world_rank)->node,
                                               static_cast<double>(env->bytes));
  // The flow's callback holds the envelope, so the envelope must not hold
  // the flow: while in flight only the network model owns it, and an abort
  // that freezes the transfer drops the whole chain, unfired, when the
  // model dies with the engine.
  if (world->observers().spans != nullptr) {
    // The rendezvous data transfer begins now, for both blocked sides.
    const double now = world->engine().now();
    send->obs_flow_start = now;
    recv.obs_flow_start = now;
  }
  Request* recv_ptr = &recv;
  data_flow->on_completion([env, recv_ptr, send, o_recv](sim::Activity& flow) {
    // After an abort, Request pointers may reference unwound actor frames;
    // the engine stops dispatching, but guard anyway (defense in depth).
    if (SmpiWorld::instance()->aborted()) return;
    if (flow.state() != sim::Activity::State::kDone) {
      fail_rendezvous(*env, *recv_ptr, flow.state());
      return;
    }
    copy_payload_to_receiver(*env, *recv_ptr);
    send->token->finish(sim::Activity::State::kDone);
    complete_receive_after(*recv_ptr, o_recv);
  });
}

void match(std::shared_ptr<Envelope> env, Request& recv) {
  env->matched = true;
  recv.status_source = env->src_comm_rank;
  recv.status_tag = env->tag;

  auto* world = SmpiWorld::instance();
  const double o_recv = world->config().personality.overhead_recv_s;

  if (world->observers().spans != nullptr) {
    // Receive side: the sender enabled this message when it posted the
    // envelope (for eager, that is also when the data flow started).
    recv.obs_peer_ready = env->obs_post_date;
    recv.obs_peer_world = env->src_world_rank;
    recv.obs_flow_start = env->eager ? env->obs_post_date : -1;
    if (env->send_request != nullptr) {
      // Rendezvous send side: the receiver enabled the transfer by matching.
      env->send_request->obs_peer_ready = world->engine().now();
      env->send_request->obs_peer_world = env->dst_world_rank;
    }
  }

  if (env->eager) {
    // Copy the payload out NOW, at match time — the earliest point the
    // receiver is known. For zero-copy envelopes this is what makes the
    // scheme safe (the collective's causality guarantees the source is
    // unmodified until its receiver matched); for snapshots it returns the
    // staging buffer to the pool one network-latency earlier. The receiver
    // is blocked until the flow completes, so it cannot observe the early
    // write, and simulated time is untouched.
    copy_payload_to_receiver(*env, recv);
    Request* recv_ptr = &recv;
    env->data_flow->on_completion([recv_ptr, o_recv](sim::Activity& flow) {
      if (SmpiWorld::instance()->aborted()) return;  // recv frame may be gone
      complete_receive_after(*recv_ptr, o_recv, flow.state());
    });
    return;
  }
  // Rendezvous: CTS back to the sender (emulated mode), then the data.
  if (world->config().personality.emulate_protocol_messages) {
    Request* recv_ptr = &recv;
    auto after_rts = [env, recv_ptr, world](sim::Activity& rts) {
      if (world->aborted()) return;  // request frames may be gone
      if (rts.state() != sim::Activity::State::kDone) {
        fail_rendezvous(*env, *recv_ptr, rts.state());
        return;
      }
      auto cts = world->network().start_flow(world->process(env->dst_world_rank)->node,
                                             world->process(env->src_world_rank)->node, 0);
      cts->on_completion([env, recv_ptr, world](sim::Activity& done) {
        if (world->aborted()) return;
        if (done.state() != sim::Activity::State::kDone) {
          fail_rendezvous(*env, *recv_ptr, done.state());
          return;
        }
        start_rendezvous_transfer(env, *recv_ptr);
      });
    };
    SMPI_ENSURE(env->rts_flow != nullptr, "emulated rendezvous without RTS");
    // The callback holds the envelope, so the envelope lets go of the RTS
    // first (see start_rendezvous_transfer).
    const sim::ActivityPtr rts = std::move(env->rts_flow);
    rts->on_completion(after_rts);
    return;
  }
  start_rendezvous_transfer(env, recv);
}

void try_match_new_envelope(Process& receiver, std::shared_ptr<Envelope> env) {
  MatchQueues& queues = receiver.match_queues(env->comm_id);
  for (auto it = queues.posted_recvs.begin(); it != queues.posted_recvs.end(); ++it) {
    if (matches(*env, (*it)->peer, (*it)->tag)) {
      Request* recv = *it;
      queues.posted_recvs.erase(it);
      match(std::move(env), *recv);
      return;
    }
  }
  queues.unexpected.push_back(std::move(env));
  receiver.signal_arrival();
}

}  // namespace

void Process::signal_arrival() {
  if (arrival_signal == nullptr) return;  // nobody probing
  auto old = arrival_signal;
  arrival_signal = nullptr;
  old->finish(sim::Activity::State::kDone);
}

namespace {
// Does [begin, begin+bytes) lie fully inside a registered stable range?
bool in_stable_range(const Process& proc, const unsigned char* begin, std::size_t bytes) {
  const unsigned char* end = begin + bytes;
  for (const auto& range : proc.stable_ranges) {
    if (begin >= range.begin && end <= range.end) return true;
  }
  return false;
}

// Degrade the zero-copy proof safely: any envelope this rank posted that is
// still unmatched when its stable scope ends gets a (pooled) snapshot now,
// while the source buffer is guaranteed live — we are still inside the MPI
// call that registered it. Matched envelopes already copied out at match.
void flush_zero_copy(Process& proc) {
  if (proc.zc_outstanding.empty()) return;
  auto* world = proc.world;
  auto& engine = world->engine();
  for (auto& env : proc.zc_outstanding) {
    if (env->matched || env->zc_src == nullptr) continue;
    env->eager_data = engine.pooling() ? engine.buffer_pool().acquire(env->bytes)
                                       : sim::BufferPool::acquire_unpooled(env->bytes);
    std::memcpy(env->eager_data.get(), env->zc_src, env->bytes);
    env->zc_src = nullptr;
    ++world->p2p_raw().eager_flush_snapshots;
  }
  proc.zc_outstanding.clear();
}
}  // namespace

void reserve_coll_queues(Process& proc, Comm* comm, std::size_t messages) {
  MatchQueues& queues = proc.match_queues(scope_key(comm, true));
  queues.unexpected.reserve(messages);
  queues.posted_recvs.reserve(messages);
}

CollSendScope::CollSendScope(Process& proc, const void* begin, std::size_t bytes)
    : proc_(proc) {
  if (begin == nullptr || bytes == 0) return;
  if (!config().zero_copy_eager || config().payload_free) return;
  const auto* base = static_cast<const unsigned char*>(begin);
  proc_.stable_ranges.push_back({base, base + bytes});
  registered_ = true;
}

CollSendScope::~CollSendScope() {
  if (!registered_) return;
  proc_.stable_ranges.pop_back();
  // Conservative under nesting: flushing everything outstanding may
  // snapshot an envelope whose (outer) range is still valid — safe, just a
  // lost elision.
  flush_zero_copy(proc_);
}

void post_send(Request& request) {
  auto* world = SmpiWorld::instance();
  auto& engine = world->engine();
  // Sends that complete inside this call never get a token: a null token
  // reads as completed (Request::completed()), so the eager fast path skips
  // an Activity allocation + finish per message. Only the rendezvous branch
  // below needs a real token to block on.
  request.token = nullptr;
  request.status_error = MPI_SUCCESS;
  request.active = true;

  if (request.peer == MPI_PROC_NULL) return;

  const Personality& personality = config().personality;
  const std::size_t bytes = static_cast<std::size_t>(request.count) * request.datatype->size();
  const bool eager = bytes < personality.eager_threshold;

  // Sender-side software overheads are paid in the sender's own timeline.
  double overhead = personality.overhead_send_s;
  if (eager) overhead += static_cast<double>(bytes) * personality.copy_cost_s_per_byte;
  if (overhead > 0) engine.sleep_for(overhead);

  const int src_world = request.owner->world_rank;
  const int dst_world = request.comm->world_rank(request.peer);
  Process* receiver = world->process(dst_world);

  auto env = engine.pooling() ? std::allocate_shared<Envelope>(
                                    sim::PoolAllocator<Envelope>(&engine.object_pool()))
                              : std::make_shared<Envelope>();
  env->src_comm_rank = request.comm->rank_of_world(src_world);
  env->src_world_rank = src_world;
  env->dst_world_rank = dst_world;
  env->tag = request.tag;
  env->comm_id = scope_key(request.comm, request.coll_scope);
  env->bytes = bytes;
  env->eager = eager;

  if (obs::SpanCollector* spans = world->observers().spans) {
    env->obs_post_date = engine.now();  // for eager, also the flow start date
    request.obs_flow_start = -1;
    request.obs_peer_ready = -1;
    request.obs_peer_world = dst_world;
    if (!request.coll_scope) spans->annotate_peer(src_world, dst_world);
    spans->add_bytes(src_world, bytes);
  }

  if (eager) {
    // Buffered: snapshot the payload and ship it; the send completes now.
    // Payload-free mode ships only the size — no allocation, no copy.
    // Zero-copy: a coll-scope send of basic layout whose bytes sit inside a
    // CollSendScope-registered range skips the snapshot — the payload is
    // read from the source at match time (or snapshotted at scope exit if
    // the receiver never showed up; see flush_zero_copy).
    if (!config().payload_free) {
      const auto* src = static_cast<const unsigned char*>(request.send_buf);
      const bool zero_copy = bytes > 0 && request.coll_scope && config().zero_copy_eager &&
                             !request.datatype->needs_packing() &&
                             in_stable_range(*request.owner, src, bytes);
      if (zero_copy) {
        env->zc_src = src;
        request.owner->zc_outstanding.push_back(env);
      } else {
        env->eager_data = engine.pooling() ? engine.buffer_pool().acquire(bytes)
                                           : sim::BufferPool::acquire_unpooled(bytes);
        request.datatype->pack(request.send_buf, request.count, env->eager_data.get());
        ++world->p2p_raw().eager_snapshots;
      }
    }
    env->data_flow = world->network().start_flow(request.owner->node, receiver->node,
                                                 static_cast<double>(bytes));
  } else {
    request.token = sim::new_activity("send");
    env->send_request = &request;
    if (personality.emulate_protocol_messages) {
      env->rts_flow = world->network().start_flow(request.owner->node, receiver->node, 0);
    }
  }
  try_match_new_envelope(*receiver, std::move(env));
}

void post_recv(Request& request) {
  request.status_error = MPI_SUCCESS;
  request.status_bytes = 0;
  request.active = true;

  if (request.peer == MPI_PROC_NULL) {
    request.token = nullptr;  // null token == already complete
    request.status_source = MPI_PROC_NULL;
    request.status_tag = MPI_ANY_TAG;
    return;
  }
  request.token = sim::new_activity("recv");

  if (obs::SpanCollector* spans = request.owner->world->observers().spans) {
    request.obs_flow_start = -1;  // (re)set before a match can fill them in
    request.obs_peer_ready = -1;
    request.obs_peer_world = -1;
    if (!request.coll_scope) {
      const int rank = request.owner->world_rank;
      if (request.peer >= 0) {
        spans->annotate_peer(rank, request.comm->world_rank(request.peer));
      }
      spans->add_bytes(rank,
                       static_cast<std::uint64_t>(request.count) * request.datatype->size());
    }
  }

  Process& receiver = *request.owner;
  MatchQueues& queues = receiver.match_queues(scope_key(request.comm, request.coll_scope));
  const auto it = first_match(queues, request.peer, request.tag);
  if (it == queues.unexpected.end()) {
    queues.posted_recvs.push_back(&request);
    return;
  }
  auto env = *it;
  queues.unexpected.erase(it);
  match(std::move(env), request);
}

namespace {

void set_status(MPI_Status* status, int source, int tag, int error, std::size_t bytes) {
  if (status == MPI_STATUS_IGNORE) return;
  status->MPI_SOURCE = source;
  status->MPI_TAG = tag;
  status->MPI_ERROR = error;
  status->count_bytes = static_cast<long long>(bytes);
}

// MPI's "empty" status: what completing a null or inactive request returns.
void fill_empty_status(MPI_Status* status) {
  set_status(status, MPI_ANY_SOURCE, MPI_ANY_TAG, MPI_SUCCESS, 0);
}

// A probe of MPI_PROC_NULL returns at once with the status a receive from
// it completes with (post_recv).
void fill_proc_null_status(MPI_Status* status) {
  set_status(status, MPI_PROC_NULL, MPI_ANY_TAG, MPI_SUCCESS, 0);
}

// Post-completion bookkeeping: fills the status, deactivates (persistent) or
// releases (ordinary) the request, and nulls the user handle for ordinary
// requests.
int finalize_completed(Request*& request, MPI_Status* status) {
  set_status(status, request->status_source, request->status_tag, request->status_error,
             request->status_bytes);
  const int rc = request->status_error;
  request->active = false;
  if (!request->persistent) {
    request->released = true;
    Process* owner = request->owner;
    Request* released = request;
    request = MPI_REQUEST_NULL;
    owner->recycle_request(released);
    owner->gc_requests();
  }
  return rc;
}

// Started and not yet completed by a wait or test.
bool is_pending(const MPI_Request& request) {
  return request != MPI_REQUEST_NULL && request->active;
}

// Charges the blocked interval [block_start, now] to `proc`'s blocked_s and,
// when a span collector is attached, records it on the rank's span stream,
// classified late-sender / late-receiver / early-arrival from the request's
// kind and scope.
void record_blocked_wait(Process& proc, const Request& request, double block_start) {
  const double t1 = proc.world->engine().now();
  proc.blocked_s += t1 - block_start;
  obs::SpanCollector* spans = proc.world->observers().spans;
  if (spans == nullptr || t1 <= block_start) return;
  const std::uint64_t bytes =
      request.datatype != nullptr
          ? static_cast<std::uint64_t>(request.count) * request.datatype->size()
          : 0;
  obs::WaitClass cls;
  if (request.coll_scope) {
    cls = obs::WaitClass::kEarlyArrival;
  } else if (request.kind == Request::Kind::kRecv) {
    cls = obs::WaitClass::kLateSender;
  } else {
    cls = obs::WaitClass::kLateReceiver;
  }
  spans->on_blocked(proc.world_rank, block_start, t1, request.obs_flow_start,
                    request.obs_peer_ready, request.obs_peer_world, bytes, cls);
}

// A fresh request of the calling rank for one send or receive of `count`
// elements; `buf` is the send source or the receive destination.
Request* new_p2p_request(Request::Kind kind, const void* buf, int count, Datatype* type,
                         int peer, int tag, Comm* comm, bool coll) {
  Request* req = current_process_checked().new_request();
  req->kind = kind;
  req->coll_scope = coll;
  if (kind == Request::Kind::kSend) {
    req->send_buf = buf;
  } else {
    req->recv_buf = const_cast<void*>(buf);
  }
  req->count = count;
  req->datatype = type;
  req->peer = peer;
  req->tag = tag;
  req->comm = comm;
  return req;
}

}  // namespace

int wait_request(Request*& request, MPI_Status* status) {
  if (!is_pending(request)) {
    fill_empty_status(status);
    return MPI_SUCCESS;
  }
  if (request->token != nullptr) {
    Process& proc = *request->owner;
    const bool is_recv = request->kind == Request::Kind::kRecv;
    const std::size_t bytes =
        request->datatype != nullptr
            ? static_cast<std::size_t>(request->count) * request->datatype->size()
            : 0;
    const double block_start = proc.world->engine().now();
    BlockedOpGuard guard(proc, is_recv ? "recv" : "send", request->peer, request->tag,
                         request->comm != nullptr ? request->comm->id() : 0, bytes);
    request->token->wait();
    record_blocked_wait(proc, *request, block_start);
    if (request->token->state() == sim::Activity::State::kFailed) {
      std::ostringstream os;
      os << "MPI_" << (is_recv ? "Recv" : "Send") << " (peer=" << request->peer
         << ", tag=" << request->tag << ", bytes=" << bytes
         << ") failed: a host or link on the transfer path went down";
      handle_operation_failure(proc, os.str());
    }
  }
  return finalize_completed(request, status);
}

// ---------------------------------------------------------------------------
// Internal helpers for collectives
// ---------------------------------------------------------------------------

int internal_isend(const void* buf, int count, Datatype* type, int dest, int tag, Comm* comm,
                   Request** out, bool coll) {
  Request* req = new_p2p_request(Request::Kind::kSend, buf, count, type, dest, tag, comm, coll);
  post_send(*req);
  *out = req;
  return MPI_SUCCESS;
}

int internal_irecv(void* buf, int count, Datatype* type, int src, int tag, Comm* comm,
                   Request** out, bool coll) {
  Request* req = new_p2p_request(Request::Kind::kRecv, buf, count, type, src, tag, comm, coll);
  post_recv(*req);
  *out = req;
  return MPI_SUCCESS;
}

int internal_wait(Request* request) {
  MPI_Request handle = request;
  return wait_request(handle, MPI_STATUS_IGNORE);
}

int internal_send(const void* buf, int count, Datatype* type, int dest, int tag, Comm* comm,
                  bool coll) {
  Request* req = nullptr;
  const int rc = internal_isend(buf, count, type, dest, tag, comm, &req, coll);
  if (rc != MPI_SUCCESS) return rc;
  return internal_wait(req);
}

int internal_recv(void* buf, int count, Datatype* type, int src, int tag, Comm* comm,
                  MPI_Status* status, bool coll) {
  Request* req = nullptr;
  const int rc = internal_irecv(buf, count, type, src, tag, comm, &req, coll);
  if (rc != MPI_SUCCESS) return rc;
  MPI_Request handle = req;
  return wait_request(handle, status);
}

// ---------------------------------------------------------------------------
// Argument validation
// ---------------------------------------------------------------------------

bool valid_comm(MPI_Comm comm) { return comm != MPI_COMM_NULL; }
bool valid_count(int count) { return count >= 0; }
bool valid_type(MPI_Datatype type) { return type != MPI_DATATYPE_NULL; }

bool valid_rank_or_wildcards(int rank, Comm* comm, bool allow_wildcards) {
  if (rank == MPI_PROC_NULL) return true;
  if (allow_wildcards && rank == MPI_ANY_SOURCE) return true;
  return rank >= 0 && rank < comm->size();
}

bool valid_tag(int tag, bool allow_any) {
  if (allow_any && tag == MPI_ANY_TAG) return true;
  return tag >= 0 && tag <= MPI_TAG_UB;
}

}  // namespace smpi::core

// ---------------------------------------------------------------------------
// C API
// ---------------------------------------------------------------------------

using namespace smpi::core;
namespace sim = smpi::sim;

namespace {

// Simulated cost of one unsuccessful Test/Iprobe poll; keeps tight polling
// loops from freezing virtual time (SimGrid exposes the same knob).
constexpr double kTestPollInterval = 1e-7;
// Back-to-back unsuccessful polls before escalating from per-poll sleep
// timers to a completion subscription.
constexpr int kPollEscalationThreshold = 4;
// Cap on the subscription path's fallback wakeup, bounding how stale a poll
// loop's *non-MPI* exit condition (e.g. a shared-memory flag written by
// another rank) can get.
constexpr double kPollBackoffCap = 1e-3;

// Charge the simulated cost of an unsuccessful poll and return. Occasional
// polls pay a plain sleep (one timer each) — cheap, and exact for apps that
// interleave real work between polls. A *tight* polling loop (polls
// back-to-back with nothing in between) used to burn one timer per 1e-7 s of
// virtual time; after kPollEscalationThreshold consecutive polls we instead
// block on the states the poll is actually watching (`wake_sources`), plus
// an exponentially backed-off fallback timer, then round the wake-up to the
// next poll boundary — so virtual time still advances in whole polls and the
// caller observes the same quantization as real polling.
//
// Resource bounds: each wake source carries at most ONE forwarder for the
// lifetime of the polling loop (deduped through proc.poll_subscribed; the
// forwarder wakes whatever block is current via proc.poll_wait), and at most
// one fallback timer per process is armed at a time. Completion-driven waits
// therefore cost O(polls-until-escalation) timers; only a loop whose exit
// condition is invisible to MPI (a shared-memory flag set by another rank)
// degrades to the fallback heartbeat, 1 kHz at the backoff cap — 10^4 fewer
// timers than per-poll sleeps, with staleness bounded by kPollBackoffCap.
// `collect_wake_sources` is only invoked once the loop escalates, so the
// common interleaved-poll case never pays for building the source list.
template <typename SourceCollector>
void charge_unsuccessful_poll(SourceCollector&& collect_wake_sources) {
  auto& engine = SmpiWorld::instance()->engine();
  Process& proc = current_process_checked();
  const double start = engine.now();
  if (start - proc.last_poll_end <= kTestPollInterval * 0.5) {
    ++proc.poll_streak;
  } else {
    proc.poll_streak = 1;
  }
  const std::vector<sim::ActivityPtr> wake_sources =
      proc.poll_streak < kPollEscalationThreshold ? std::vector<sim::ActivityPtr>{}
                                                  : collect_wake_sources();
  if (wake_sources.empty()) {
    engine.sleep_for(kTestPollInterval);
  } else {
    auto merged = sim::new_activity("poll");
    for (const auto& source : wake_sources) {
      // One forwarder per token, ever: it wakes the *current* block. (If a
      // never-completing token dies and a new one is allocated at the same
      // address, the skipped forwarder is covered by the fallback timer.)
      const sim::Activity* raw = source.get();
      if (proc.poll_subscribed.insert(raw).second) {
        source->on_completion([&proc, raw](sim::Activity&) {
          proc.poll_subscribed.erase(raw);
          if (proc.poll_wait != nullptr) proc.poll_wait->finish(sim::Activity::State::kDone);
        });
      }
    }
    if (proc.poll_timer_deadline <= start) {
      const int doublings = std::min(proc.poll_streak - kPollEscalationThreshold, 40);
      const double backoff =
          std::min(kTestPollInterval * std::ldexp(1.0, doublings), kPollBackoffCap);
      proc.poll_timer_deadline = start + backoff;
      engine.add_timer(proc.poll_timer_deadline, [&proc] {
        proc.poll_timer_deadline = -1;
        if (proc.poll_wait != nullptr) proc.poll_wait->finish(sim::Activity::State::kDone);
      });
    }
    proc.poll_wait = merged;
    {
      BlockedOpGuard guard(proc, "poll");
      merged->wait();
    }
    proc.poll_wait = nullptr;
    // Quantize: the polling loop would only have observed the change at the
    // next multiple of the poll interval (and an unsuccessful poll costs at
    // least one interval).
    const double elapsed = engine.now() - start;
    const double polls = std::max(1.0, std::ceil(elapsed / kTestPollInterval - 1e-9));
    const double target = start + polls * kTestPollInterval;
    if (target > engine.now()) engine.sleep_for(target - engine.now());
  }
  proc.last_poll_end = engine.now();
}

// --- TI capture helpers ----------------------------------------------------
// Peers are recorded as *world* ranks so a trace captured on any communicator
// replays on MPI_COMM_WORLD (tags are preserved; see docs/architecture.md for
// the cross-communicator tag-collision caveat).

long long trace_peer(Comm* comm, int peer) {
  if (peer == MPI_PROC_NULL) return smpi::trace::kPeerNull;
  if (peer == MPI_ANY_SOURCE) return smpi::trace::kPeerAny;
  return comm->world_rank(peer);
}

long long trace_tag(int tag) { return tag == MPI_ANY_TAG ? smpi::trace::kTagAny : tag; }

void emit_p2p(smpi::trace::ApiScope& scope, smpi::trace::TiOp op, Comm* comm, int peer, int count,
              MPI_Datatype type, int tag, long long req = -1) {
  if (!scope.recording()) return;
  smpi::trace::TiRecord r;
  r.op = op;
  r.peer = trace_peer(comm, peer);
  ti_block(count, type, &r.count, &r.elem);
  r.tag = trace_tag(tag);
  r.req = req;
  scope.emit(r);
}

void emit_wait(smpi::trace::ApiScope& scope, long long req) {
  if (req < 0) return;
  smpi::trace::TiRecord r;
  r.op = smpi::trace::TiOp::kWait;
  r.req = req;
  scope.emit(r);
}

// Unsuccessful Test/Iprobe polls are replayed as the simulated time they
// consumed — the one record kind that is not strictly time-independent, but
// the only way a poll loop's clock can be reproduced offline.
void emit_poll_sleep(smpi::trace::ApiScope& scope) {
  if (!scope.recording()) return;
  const double elapsed = SmpiWorld::instance()->engine().now() - scope.start_time();
  if (elapsed <= 0) return;
  smpi::trace::TiRecord r;
  r.op = smpi::trace::TiOp::kSleep;
  r.value = elapsed;
  scope.emit(r);
}

int check_p2p_args(const void* buf, int count, MPI_Datatype type, int peer, int tag, MPI_Comm comm,
                   bool is_recv) {
  if (!valid_comm(comm)) return MPI_ERR_COMM;
  if (!valid_count(count)) return MPI_ERR_COUNT;
  if (!valid_type(type)) return MPI_ERR_TYPE;
  if (buf == nullptr && count > 0 && peer != MPI_PROC_NULL) return MPI_ERR_BUFFER;
  if (!valid_rank_or_wildcards(peer, comm, is_recv)) return MPI_ERR_RANK;
  if (!valid_tag(tag, is_recv)) return MPI_ERR_TAG;
  return MPI_SUCCESS;
}

}  // namespace

int MPI_Send(const void* buf, int count, MPI_Datatype datatype, int dest, int tag,
             MPI_Comm comm) {
  const int rc = check_p2p_args(buf, count, datatype, dest, tag, comm, false);
  if (rc != MPI_SUCCESS) return rc;
  smpi::trace::ApiScope scope("send");
  emit_p2p(scope, smpi::trace::TiOp::kSend, comm, dest, count, datatype, tag);
  return internal_send(buf, count, datatype, dest, tag, comm);
}

int MPI_Recv(void* buf, int count, MPI_Datatype datatype, int source, int tag, MPI_Comm comm,
             MPI_Status* status) {
  const int rc = check_p2p_args(buf, count, datatype, source, tag, comm, true);
  if (rc != MPI_SUCCESS) return rc;
  smpi::trace::ApiScope scope("recv");
  emit_p2p(scope, smpi::trace::TiOp::kRecv, comm, source, count, datatype, tag);
  return internal_recv(buf, count, datatype, source, tag, comm, status);
}

int MPI_Isend(const void* buf, int count, MPI_Datatype datatype, int dest, int tag, MPI_Comm comm,
              MPI_Request* request) {
  if (request == nullptr) return MPI_ERR_REQUEST;
  const int rc = check_p2p_args(buf, count, datatype, dest, tag, comm, false);
  if (rc != MPI_SUCCESS) return rc;
  smpi::trace::ApiScope scope("isend");
  Request* req = nullptr;
  internal_isend(buf, count, datatype, dest, tag, comm, &req);
  emit_p2p(scope, smpi::trace::TiOp::kIsend, comm, dest, count, datatype, tag,
           scope.register_request(req));
  *request = req;
  return MPI_SUCCESS;
}

int MPI_Irecv(void* buf, int count, MPI_Datatype datatype, int source, int tag, MPI_Comm comm,
              MPI_Request* request) {
  if (request == nullptr) return MPI_ERR_REQUEST;
  const int rc = check_p2p_args(buf, count, datatype, source, tag, comm, true);
  if (rc != MPI_SUCCESS) return rc;
  smpi::trace::ApiScope scope("irecv");
  Request* req = nullptr;
  internal_irecv(buf, count, datatype, source, tag, comm, &req);
  emit_p2p(scope, smpi::trace::TiOp::kIrecv, comm, source, count, datatype, tag,
           scope.register_request(req));
  *request = req;
  return MPI_SUCCESS;
}

int MPI_Sendrecv(const void* sendbuf, int sendcount, MPI_Datatype sendtype, int dest, int sendtag,
                 void* recvbuf, int recvcount, MPI_Datatype recvtype, int source, int recvtag,
                 MPI_Comm comm, MPI_Status* status) {
  int rc = check_p2p_args(sendbuf, sendcount, sendtype, dest, sendtag, comm, false);
  if (rc != MPI_SUCCESS) return rc;
  rc = check_p2p_args(recvbuf, recvcount, recvtype, source, recvtag, comm, true);
  if (rc != MPI_SUCCESS) return rc;
  smpi::trace::ApiScope scope("sendrecv");
  if (scope.recording()) {
    smpi::trace::TiRecord r;
    r.op = smpi::trace::TiOp::kSendrecv;
    r.peer = trace_peer(comm, dest);
    ti_block(sendcount, sendtype, &r.count, &r.elem);
    r.tag = trace_tag(sendtag);
    r.peer2 = trace_peer(comm, source);
    ti_block(recvcount, recvtype, &r.count2, &r.elem2);
    r.tag2 = trace_tag(recvtag);
    scope.emit(r);
  }
  Request* rreq = nullptr;
  Request* sreq = nullptr;
  internal_irecv(recvbuf, recvcount, recvtype, source, recvtag, comm, &rreq);
  internal_isend(sendbuf, sendcount, sendtype, dest, sendtag, comm, &sreq);
  MPI_Request rhandle = rreq;
  const int rrc = wait_request(rhandle, status);
  MPI_Request shandle = sreq;
  const int src = wait_request(shandle, MPI_STATUS_IGNORE);
  return rrc != MPI_SUCCESS ? rrc : src;
}

// ---------------------------------------------------------------------------
// Persistent requests
// ---------------------------------------------------------------------------

namespace {

// MPI_Send_init / MPI_Recv_init: an inactive persistent request, activated
// by MPI_Start.
int init_persistent(Request::Kind kind, const void* buf, int count, MPI_Datatype datatype,
                    int peer, int tag, MPI_Comm comm, MPI_Request* request) {
  if (request == nullptr) return MPI_ERR_REQUEST;
  const int rc =
      check_p2p_args(buf, count, datatype, peer, tag, comm, kind == Request::Kind::kRecv);
  if (rc != MPI_SUCCESS) return rc;
  *request = new_p2p_request(kind, buf, count, datatype, peer, tag, comm, false);
  (*request)->persistent = true;
  return MPI_SUCCESS;
}

// The rule for every call that takes a request array: MPI_ERR_COUNT for a
// negative count, MPI_ERR_REQUEST for a missing array.
int check_requests(int count, const MPI_Request requests[]) {
  if (count < 0) return MPI_ERR_COUNT;
  if (count > 0 && requests == nullptr) return MPI_ERR_REQUEST;
  return MPI_SUCCESS;
}

}  // namespace

int MPI_Send_init(const void* buf, int count, MPI_Datatype datatype, int dest, int tag,
                  MPI_Comm comm, MPI_Request* request) {
  return init_persistent(Request::Kind::kSend, buf, count, datatype, dest, tag, comm, request);
}

int MPI_Recv_init(void* buf, int count, MPI_Datatype datatype, int source, int tag, MPI_Comm comm,
                  MPI_Request* request) {
  return init_persistent(Request::Kind::kRecv, buf, count, datatype, source, tag, comm, request);
}

int MPI_Start(MPI_Request* request) {
  if (request == nullptr || *request == MPI_REQUEST_NULL) return MPI_ERR_REQUEST;
  Request* req = *request;
  if (!req->persistent || req->active) return MPI_ERR_REQUEST;
  // A started persistent request is indistinguishable from a fresh
  // nonblocking one for replay purposes; each activation records anew.
  const bool is_send = req->kind == Request::Kind::kSend;
  smpi::trace::ApiScope scope(is_send ? "isend" : "irecv");
  emit_p2p(scope, is_send ? smpi::trace::TiOp::kIsend : smpi::trace::TiOp::kIrecv, req->comm,
           req->peer, req->count, req->datatype, req->tag, scope.register_request(req));
  if (is_send) {
    post_send(*req);
  } else {
    post_recv(*req);
  }
  return MPI_SUCCESS;
}

int MPI_Startall(int count, MPI_Request requests[]) {
  int rc = check_requests(count, requests);
  for (int i = 0; rc == MPI_SUCCESS && i < count; ++i) rc = MPI_Start(&requests[i]);
  return rc;
}

int MPI_Request_free(MPI_Request* request) {
  if (request == nullptr || *request == MPI_REQUEST_NULL) return MPI_ERR_REQUEST;
  Request* req = *request;
  smpi::trace::ApiScope scope("reqfree");
  if (scope.recording()) {
    const long long id = scope.lookup_request(req, true);
    if (id >= 0) {
      smpi::trace::TiRecord r;
      r.op = smpi::trace::TiOp::kReqFree;
      r.req = id;
      scope.emit(r);
    }
  }
  req->released = true;
  *request = MPI_REQUEST_NULL;
  if (!req->active) {
    req->owner->recycle_request(req);
    req->owner->gc_requests();
  }
  return MPI_SUCCESS;
}

// ---------------------------------------------------------------------------
// Wait / Test families
//
// One completion path: a call finds the first completed pending request
// (first_completed), blocks until one completes (wait_any) or charges a
// failed poll (fail_test), and completes a request through
// complete_recorded, which is wait_request plus the call's TI wait record.
// MPI_Waitall and MPI_Testall's all-done branch share emit_waitall and
// complete_all.
// ---------------------------------------------------------------------------

namespace {

// Pending and not yet complete: what a wait blocks on and a poll watches.
bool in_flight(const MPI_Request& request) {
  return is_pending(request) && !request->completed();
}

bool any_in_flight(int count, const MPI_Request requests[]) {
  return std::any_of(requests, requests + count, in_flight);
}

// Index of the first pending request at or after `from` that has completed;
// MPI_UNDEFINED when there is none.
int first_completed(int count, const MPI_Request requests[], int from = 0) {
  for (int i = from; i < count; ++i) {
    if (is_pending(requests[i]) && requests[i]->completed()) return i;
  }
  return MPI_UNDEFINED;
}

// The first completed pending request, blocking until one completes when
// none has yet; MPI_UNDEFINED when no request is pending. The blocked time
// is charged to the request that ended the block.
int wait_any(int count, MPI_Request requests[]) {
  const int done = first_completed(count, requests);
  if (done != MPI_UNDEFINED || !any_in_flight(count, requests)) return done;
  // Block on a fresh merged token finished by whichever request completes
  // first. Late finishes on the same token are harmless (finish is
  // idempotent).
  auto merged = sim::new_activity("waitany");
  for (int i = 0; i < count; ++i) {
    if (in_flight(requests[i])) {
      requests[i]->token->on_completion(
          [merged](sim::Activity&) { merged->finish(sim::Activity::State::kDone); });
    }
  }
  Process& proc = current_process_checked();
  const double block_start = proc.world->engine().now();
  {
    BlockedOpGuard guard(proc, "waitany");
    merged->wait();
  }
  const int woke = first_completed(count, requests);
  SMPI_ENSURE(woke != MPI_UNDEFINED, "waitany woke with no completed request");
  // The wait_request that completes it records nothing (zero-length wait).
  record_blocked_wait(proc, *requests[woke], block_start);
  return woke;
}

// Completes `request`, blocking until it finishes, and records the wait
// that consumed it. The capture id is looked up first: wait_request
// recycles an ordinary request and nulls its handle.
int complete_recorded(smpi::trace::ApiScope& scope, MPI_Request& request, MPI_Status* status) {
  const long long id = scope.lookup_request(request, true);
  const int rc = wait_request(request, status);
  emit_wait(scope, id);
  return rc;
}

MPI_Status* status_at(MPI_Status statuses[], int i) {
  return statuses == MPI_STATUSES_IGNORE ? MPI_STATUS_IGNORE : &statuses[i];
}

// One waitall record naming every captured request the call completes.
void emit_waitall(smpi::trace::ApiScope& scope, int count, const MPI_Request requests[]) {
  if (!scope.recording()) return;
  smpi::trace::TiRecord r;
  r.op = smpi::trace::TiOp::kWaitall;
  for (int i = 0; i < count; ++i) {
    const long long id = scope.lookup_request(requests[i], true);
    if (id >= 0) r.reqs.push_back(id);
  }
  scope.emit(r);
}

// Completes every request in order; MPI_ERR_IN_STATUS when any failed.
int complete_all(int count, MPI_Request requests[], MPI_Status statuses[]) {
  int rc = MPI_SUCCESS;
  for (int i = 0; i < count; ++i) {
    if (wait_request(requests[i], status_at(statuses, i)) != MPI_SUCCESS) rc = MPI_ERR_IN_STATUS;
  }
  return rc;
}

// A test that found nothing to complete: let simulated time advance (a pure
// yield would starve the clock when the poller is the only runnable
// process), woken by any of the requests still in flight.
int fail_test(smpi::trace::ApiScope& scope, int count, const MPI_Request requests[]) {
  charge_unsuccessful_poll([count, requests] {
    std::vector<sim::ActivityPtr> tokens;
    for (int i = 0; i < count; ++i) {
      if (in_flight(requests[i])) tokens.push_back(requests[i]->token);
    }
    return tokens;
  });
  emit_poll_sleep(scope);
  return MPI_SUCCESS;
}

}  // namespace

int MPI_Wait(MPI_Request* request, MPI_Status* status) {
  if (request == nullptr) return MPI_ERR_REQUEST;
  smpi::trace::ApiScope scope("wait");
  return complete_recorded(scope, *request, status);
}

int MPI_Waitany(int count, MPI_Request requests[], int* index, MPI_Status* status) {
  const int rc = check_requests(count, requests);
  if (rc != MPI_SUCCESS) return rc;
  if (index == nullptr) return MPI_ERR_ARG;
  smpi::trace::ApiScope scope("waitany");
  *index = wait_any(count, requests);
  if (*index != MPI_UNDEFINED) return complete_recorded(scope, requests[*index], status);
  fill_empty_status(status);
  return MPI_SUCCESS;
}

int MPI_Waitall(int count, MPI_Request requests[], MPI_Status statuses[]) {
  const int rc = check_requests(count, requests);
  if (rc != MPI_SUCCESS) return rc;
  smpi::trace::ApiScope scope("waitall");
  emit_waitall(scope, count, requests);
  return complete_all(count, requests, statuses);
}

int MPI_Waitsome(int incount, MPI_Request requests[], int* outcount, int indices[],
                 MPI_Status statuses[]) {
  int rc = check_requests(incount, requests);
  if (rc != MPI_SUCCESS) return rc;
  if (outcount == nullptr || (incount > 0 && indices == nullptr)) return MPI_ERR_ARG;
  smpi::trace::ApiScope scope("waitsome");
  int done = wait_any(incount, requests);
  if (done == MPI_UNDEFINED) {
    *outcount = MPI_UNDEFINED;
    return MPI_SUCCESS;
  }
  // One wait record per returned index: the first blocks until its date,
  // the rest were already complete and replay as zero-time waits.
  for (*outcount = 0; done != MPI_UNDEFINED;
       done = first_completed(incount, requests, done + 1)) {
    if (complete_recorded(scope, requests[done], status_at(statuses, *outcount)) !=
        MPI_SUCCESS) {
      rc = MPI_ERR_IN_STATUS;
    }
    indices[(*outcount)++] = done;
  }
  return rc;
}

int MPI_Test(MPI_Request* request, int* flag, MPI_Status* status) {
  if (request == nullptr || flag == nullptr) return MPI_ERR_ARG;
  smpi::trace::ApiScope scope("test");
  *flag = in_flight(*request) ? 0 : 1;
  if (*flag != 0) return complete_recorded(scope, *request, status);
  return fail_test(scope, 1, request);
}

int MPI_Testany(int count, MPI_Request requests[], int* index, int* flag, MPI_Status* status) {
  const int rc = check_requests(count, requests);
  if (rc != MPI_SUCCESS) return rc;
  if (index == nullptr || flag == nullptr) return MPI_ERR_ARG;
  smpi::trace::ApiScope scope("testany");
  *index = first_completed(count, requests);
  *flag = *index != MPI_UNDEFINED || !any_in_flight(count, requests) ? 1 : 0;
  if (*index != MPI_UNDEFINED) return complete_recorded(scope, requests[*index], status);
  if (*flag == 0) return fail_test(scope, count, requests);
  fill_empty_status(status);
  return MPI_SUCCESS;
}

int MPI_Testall(int count, MPI_Request requests[], int* flag, MPI_Status statuses[]) {
  const int rc = check_requests(count, requests);
  if (rc != MPI_SUCCESS) return rc;
  if (flag == nullptr) return MPI_ERR_ARG;
  smpi::trace::ApiScope scope("testall");
  *flag = any_in_flight(count, requests) ? 0 : 1;
  if (*flag == 0) return fail_test(scope, count, requests);
  emit_waitall(scope, count, requests);
  return complete_all(count, requests, statuses);
}

// ---------------------------------------------------------------------------
// Probe
// ---------------------------------------------------------------------------

int MPI_Iprobe(int source, int tag, MPI_Comm comm, int* flag, MPI_Status* status) {
  if (!valid_comm(comm)) return MPI_ERR_COMM;
  if (flag == nullptr) return MPI_ERR_ARG;
  if (!valid_rank_or_wildcards(source, comm, true)) return MPI_ERR_RANK;
  if (!valid_tag(tag, true)) return MPI_ERR_TAG;
  smpi::trace::ApiScope scope("iprobe");
  if (source == MPI_PROC_NULL) {
    *flag = 1;
    fill_proc_null_status(status);
    return MPI_SUCCESS;
  }
  Process& proc = current_process_checked();
  MatchQueues& queues = proc.match_queues(comm->id());
  const auto found = first_match(queues, source, tag);
  if (found != queues.unexpected.end()) {
    *flag = 1;
    set_status(status, (*found)->src_comm_rank, (*found)->tag, MPI_SUCCESS, (*found)->bytes);
    // Successful probes consume neither time nor messages: nothing to replay.
  } else {
    *flag = 0;
    // The next thing that can change the answer is an envelope arrival.
    charge_unsuccessful_poll([&proc] {
      if (proc.arrival_signal == nullptr) {
        proc.arrival_signal = sim::new_activity("probe");
      }
      return std::vector<sim::ActivityPtr>{proc.arrival_signal};
    });
    emit_poll_sleep(scope);
  }
  return MPI_SUCCESS;
}

int MPI_Probe(int source, int tag, MPI_Comm comm, MPI_Status* status) {
  if (!valid_comm(comm)) return MPI_ERR_COMM;
  if (!valid_rank_or_wildcards(source, comm, true)) return MPI_ERR_RANK;
  if (!valid_tag(tag, true)) return MPI_ERR_TAG;
  smpi::trace::ApiScope scope("probe");
  if (scope.recording()) {
    smpi::trace::TiRecord r;
    r.op = smpi::trace::TiOp::kProbe;
    r.peer = trace_peer(comm, source);
    r.tag = trace_tag(tag);
    scope.emit(r);
  }
  if (source == MPI_PROC_NULL) {
    fill_proc_null_status(status);
    return MPI_SUCCESS;
  }
  Process& proc = current_process_checked();
  MatchQueues& queues = proc.match_queues(comm->id());
  const double block_start = proc.world->engine().now();
  while (true) {
    const auto found = first_match(queues, source, tag);
    if (found != queues.unexpected.end()) {
      const Envelope& env = **found;
      const double now = proc.world->engine().now();
      proc.blocked_s += now - block_start;
      smpi::obs::SpanCollector* spans = proc.world->observers().spans;
      if (spans != nullptr && now > block_start) {
        // Pure wait-for-arrival: no transfer happens inside a probe.
        spans->on_blocked(proc.world_rank, block_start, now, /*flow_start=*/now,
                          env.obs_post_date, env.src_world_rank, env.bytes,
                          smpi::obs::WaitClass::kLateSender);
      }
      set_status(status, env.src_comm_rank, env.tag, MPI_SUCCESS, env.bytes);
      return MPI_SUCCESS;
    }
    if (proc.arrival_signal == nullptr) {
      proc.arrival_signal = sim::new_activity("probe");
    }
    // Hold the signal: the arrival that finishes it also drops the
    // process's reference before this wait returns.
    const sim::ActivityPtr arrival = proc.arrival_signal;
    BlockedOpGuard guard(proc, "probe", source, tag, comm->id());
    arrival->wait();
  }
}

int MPI_Get_count(const MPI_Status* status, MPI_Datatype datatype, int* count) {
  if (status == nullptr || count == nullptr) return MPI_ERR_ARG;
  if (!valid_type(datatype)) return MPI_ERR_TYPE;
  if (datatype->size() == 0) {
    *count = status->count_bytes == 0 ? 0 : MPI_UNDEFINED;
    return MPI_SUCCESS;
  }
  const auto bytes = static_cast<std::size_t>(status->count_bytes);
  if (bytes % datatype->size() != 0) {
    *count = MPI_UNDEFINED;
  } else {
    *count = static_cast<int>(bytes / datatype->size());
  }
  return MPI_SUCCESS;
}
