// Internal object model behind the MPI handles. Everything here lives in the
// single simulator process; MPI processes are sim::Actors and share this
// address space — which is precisely what enables the RAM-folding techniques
// of §3.2.
#pragma once

#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <limits>
#include <list>
#include <memory>
#include <string>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sim/activity.hpp"
#include "sim/pool.hpp"
#include "smpi/mpi.h"
#include "smpi/smpi.hpp"

namespace smpi::core {

// ---------------------------------------------------------------------------
// Datatype
// ---------------------------------------------------------------------------

enum class BasicType {
  kChar,
  kSignedChar,
  kUnsignedChar,
  kByte,
  kShort,
  kUnsignedShort,
  kInt,
  kUnsigned,
  kLong,
  kUnsignedLong,
  kLongLong,
  kUnsignedLongLong,
  kFloat,
  kDouble,
  kLongDouble,
  kDerived,
};

class Datatype {
 public:
  // Basic type.
  Datatype(BasicType basic, std::size_t size, std::string name);
  // Contiguous derived type.
  static Datatype* contiguous(int count, Datatype* oldtype);
  // Vector derived type: count blocks of blocklength elements, block starts
  // stride elements apart.
  static Datatype* vector(int count, int blocklength, int stride, Datatype* oldtype);

  std::size_t size() const { return size_; }       // payload bytes
  std::size_t extent() const { return extent_; }   // memory span in bytes
  BasicType basic() const { return basic_; }
  // The element type reduction operators apply to.
  BasicType element_type() const { return element_type_; }
  std::size_t element_size() const { return element_size_; }
  std::size_t element_count() const { return size_ / element_size_; }
  bool is_basic() const { return basic_ != BasicType::kDerived; }
  bool committed() const { return committed_; }
  void commit() { committed_ = true; }
  const std::string& name() const { return name_; }

  // (Un)marshal `count` items between user layout and a contiguous buffer.
  void pack(const void* user_buffer, int count, void* packed) const;
  void unpack(const void* packed, int count, void* user_buffer) const;
  // Partial unpack (truncated receives): consume at most `nbytes`.
  void unpack_bytes(const void* packed, std::size_t nbytes, void* user_buffer) const;
  bool needs_packing() const { return size_ != extent_; }

 private:
  Datatype() = default;
  BasicType basic_ = BasicType::kDerived;
  BasicType element_type_ = BasicType::kByte;
  std::size_t element_size_ = 1;
  std::size_t size_ = 0;
  std::size_t extent_ = 0;
  std::string name_;
  bool committed_ = true;
  // Flattened layout: (offset, length) byte runs within one extent.
  std::vector<std::pair<std::size_t, std::size_t>> blocks_;
};

// ---------------------------------------------------------------------------
// Reduction operators
// ---------------------------------------------------------------------------

class Op {
 public:
  using BuiltinKind = int;  // index into the builtin table
  explicit Op(BuiltinKind builtin, std::string name);
  Op(MPI_User_function* user_fn, bool commutative);

  bool commutative() const { return commutative_; }
  const std::string& name() const { return name_; }
  // Bitwise builtins are invalid on floating-point element types.
  bool valid_for(const Datatype& datatype) const;
  // in (+) inout -> inout, elementwise over count elements of datatype.
  void apply(const void* in, void* inout, int count, Datatype* datatype) const;

 private:
  BuiltinKind builtin_ = -1;
  MPI_User_function* user_fn_ = nullptr;
  bool commutative_ = true;
  std::string name_;
};

// ---------------------------------------------------------------------------
// Groups and communicators
// ---------------------------------------------------------------------------

class Group {
 public:
  explicit Group(std::vector<int> world_ranks);
  int size() const { return static_cast<int>(world_ranks_.size()); }
  int world_rank(int group_rank) const { return world_ranks_[static_cast<std::size_t>(group_rank)]; }
  // MPI_UNDEFINED when absent. O(1): the reverse lookup runs once per
  // message (post_send), which made a linear scan quadratic in ranks over a
  // large collective.
  int rank_of_world(int world_rank) const;
  const std::vector<int>& world_ranks() const { return world_ranks_; }

 private:
  std::vector<int> world_ranks_;
  bool identity_ = false;                 // world_ranks_[i] == i (MPI_COMM_WORLD)
  std::unordered_map<int, int> reverse_;  // built once when not the identity
};

class Comm {
 public:
  Comm(int id, Group group) : id_(id), group_(std::move(group)) {}
  int id() const { return id_; }
  const Group& group() const { return group_; }
  int size() const { return group_.size(); }
  int world_rank(int comm_rank) const { return group_.world_rank(comm_rank); }
  int rank_of_world(int world_rank) const { return group_.rank_of_world(world_rank); }

  // Collective-creation support: deterministic slot shared by all members.
  // Each member arriving at the k-th communicator-creating collective on this
  // comm agrees on k; the first to arrive builds the communicators, one per
  // color (split builds one per color, dup and create one), and the last
  // to fetch its own retires the slot. epoch -> (color -> comm, fetch count).
  std::unordered_map<std::uint64_t, std::pair<std::map<int, Comm*>, int>> pending_creations;
  std::unordered_map<int, std::uint64_t> creation_epoch;  // per member world rank

 private:
  int id_;
  Group group_;
};

// ---------------------------------------------------------------------------
// Requests and matching
// ---------------------------------------------------------------------------

class Process;

// A message in flight from sender to receiver (one per send request).
// Envelopes are enqueued at the receiver in send order, which preserves the
// MPI non-overtaking guarantee even when rendezvous control messages are
// emulated (their latency delays the data transfer, not the matching).
struct Envelope {
  int src_comm_rank = 0;  // rank in the communicator
  int src_world_rank = 0;
  int dst_world_rank = 0;
  int tag = 0;
  int comm_id = 0;
  std::size_t bytes = 0;
  bool eager = true;
  // Eager snapshot: owned (pooled) copy of the packed payload. Null for
  // zero-copy eager sends (payload read from `zc_src` at match time) and
  // for rendezvous (payload read from the sender's buffer at transfer end).
  sim::BufferPool::Buffer eager_data;
  // Zero-copy eager: the sender's source bytes, proven stable for the
  // enclosing collective scope (see CollSendScope). The payload is copied
  // out at match time — the earliest point the receiver is known — which by
  // the collective's own send/recv causality precedes any later overwrite.
  const unsigned char* zc_src = nullptr;
  Request* send_request = nullptr;  // rendezvous back-pointer
  sim::ActivityPtr data_flow;       // eager: started at send time
  sim::ActivityPtr rts_flow;        // rendezvous protocol emulation, until matched
  bool matched = false;
  // Observability (set only while obs spans are enabled): the simulated date
  // the sender posted this envelope — for eager sends, also when the data
  // flow started.
  double obs_post_date = -1;
};

class Request {
 public:
  enum class Kind { kSend, kRecv };

  Kind kind = Kind::kSend;
  bool persistent = false;
  bool active = false;       // between Start and completion
  bool released = false;     // user freed the handle
  bool recycled = false;     // parked on the owner's free list

  // Parameters (retained for persistent restart).
  const void* send_buf = nullptr;
  void* recv_buf = nullptr;
  int count = 0;
  Datatype* datatype = nullptr;
  int peer = MPI_PROC_NULL;  // dest (send) or source (recv); comm rank or wildcards
  int tag = 0;
  Comm* comm = nullptr;
  Process* owner = nullptr;
  // Collective-internal traffic matches in a shadow scope of the
  // communicator so it can never cross-match application point-to-points.
  bool coll_scope = false;

  // Completion state.
  sim::ActivityPtr token;  // fresh per activation; finished == request complete
  int status_source = MPI_ANY_SOURCE;
  int status_tag = MPI_ANY_TAG;
  int status_error = MPI_SUCCESS;
  std::size_t status_bytes = 0;

  // For rendezvous sends: the envelope we posted (until matched).
  Envelope* pending_envelope = nullptr;

  // Observability timestamps (set only while obs spans are enabled; reset
  // per activation). `obs_flow_start` is when the data flow for this
  // request's message began; `obs_peer_ready` is when the peer performed the
  // action that enabled the transfer (posted the envelope for a recv,
  // matched the rendezvous for a send) — the critical-path dependency edge.
  double obs_flow_start = -1;
  double obs_peer_ready = -1;
  int obs_peer_world = -1;

  bool completed() const { return token == nullptr || token->completed(); }
};

// Vectors, not lists: the queues are almost always short (matching hits the
// front), and erase-at-position preserves arrival order, which is what the
// MPI non-overtaking guarantee needs. A list costs a malloc/free per message.
struct MatchQueues {
  std::vector<std::shared_ptr<Envelope>> unexpected;  // posted sends, not yet matched
  std::vector<Request*> posted_recvs;                 // receives waiting for a sender
};

// ---------------------------------------------------------------------------
// Failure propagation (fault model + deadlock diagnostics)
// ---------------------------------------------------------------------------

// Thrown into a rank whose blocked operation failed under the abort policy
// (sim::FailurePolicy::kAbort); unwinds the rank like MPI_Abort, carrying a
// resource diagnostic the driver prints.
struct FaultError {
  std::string message;
};

// What a rank is blocked on right now — maintained by the wait sites so the
// simulated-deadlock detector can report a per-rank wait-for state instead
// of just actor names. op == nullptr means "not blocked inside MPI".
struct BlockedOp {
  const char* op = nullptr;  // "recv", "send", "waitany", "probe", "poll", "compute"
  int peer = -1;             // comm rank, MPI_ANY_SOURCE, or -1 when n/a
  int tag = -1;
  int comm_id = 0;           // 0 when n/a
  std::size_t bytes = 0;
};

// ---------------------------------------------------------------------------
// Sampling (§3.1) and memory tracking (§3.2)
// ---------------------------------------------------------------------------

struct SampleSite {
  int target_iterations = 0;
  int executed = 0;   // measurement slots claimed (bursts that will run)
  int completed = 0;  // measurements finished
  double sum_host_seconds = 0;
  double sum_sq_host_seconds = 0;
  // Adaptive mode (SMPI_SAMPLE_*_AUTO): stop sampling once the coefficient
  // of variation falls below `precision` (0 = fixed-count mode).
  double precision = 0;
  double mean_host_seconds() const {
    return completed == 0 ? 0 : sum_host_seconds / completed;
  }
  double coefficient_of_variation() const;
  bool converged() const;
};

// Per-rank activation of a sample block. Kept on the process (not the site):
// with SMPI_SAMPLE_GLOBAL several ranks can be inside the same site at once,
// e.g. while one of them is blocked injecting its folded delay.
struct SampleActivation {
  bool global = false;
  bool executing = false;
  double enter_host_time = 0;
};

class MemoryTracker {
 public:
  explicit MemoryTracker(int nranks, std::uint64_t budget_bytes);

  void allocate(int rank, std::uint64_t bytes, bool folded_already_counted);
  void release(int rank, std::uint64_t bytes, bool folded_already_counted);

  // Folded = bytes physically allocated by the simulation (shared blocks
  // once); unfolded = what every rank having a private copy would cost.
  std::uint64_t folded_current() const { return folded_current_; }
  std::uint64_t folded_peak() const { return folded_peak_; }
  std::uint64_t unfolded_current() const { return unfolded_current_; }
  std::uint64_t unfolded_peak() const { return unfolded_peak_; }
  std::uint64_t rank_peak(int rank) const;
  std::uint64_t max_rank_peak() const;
  bool over_budget() const { return unfolded_peak_ > budget_; }

 private:
  std::vector<std::uint64_t> rank_current_;
  std::vector<std::uint64_t> rank_peak_;
  std::uint64_t folded_current_ = 0;
  std::uint64_t folded_peak_ = 0;
  std::uint64_t unfolded_current_ = 0;
  std::uint64_t unfolded_peak_ = 0;
  std::uint64_t budget_ = 0;
};

struct SharedBlock {
  void* ptr = nullptr;
  std::size_t size = 0;
  int refcount = 0;
  std::string site;
};

// State the ranks of one world share through the MPI extensions; it dies
// with the world, so one run's folded state never leaks into the next.
struct RunTables {
  // SMPI_SAMPLE_GLOBAL sites ("file:line"): measurements pooled across ranks.
  std::unordered_map<std::string, SampleSite> sample_sites;
  // SMPI_SHARED_MALLOC blocks by "file:line:size", and block -> its key.
  std::unordered_map<std::string, SharedBlock> shared;
  std::unordered_map<void*, std::string> shared_keys;

  RunTables() = default;
  RunTables(const RunTables&) = delete;
  RunTables& operator=(const RunTables&) = delete;
  ~RunTables();
};

// ---------------------------------------------------------------------------
// Per-rank process state
// ---------------------------------------------------------------------------

class Process {
 public:
  Process(SmpiWorld* world, int world_rank, int node);
  ~Process();

  SmpiWorld* world;
  int world_rank;
  int node;
  sim::Actor* actor = nullptr;

  bool initialized = false;
  bool finalized = false;

  // Receiver-side matching state, keyed by communicator id.
  std::unordered_map<int, MatchQueues> matching;
  // One-entry lookup cache: collective traffic hits the same (comm, scope)
  // key for every message, and map entries are never erased, so the cached
  // pointer stays valid for the process lifetime (unordered_map values are
  // node-stable across rehashes).
  MatchQueues& match_queues(int key) {
    if (key != match_cache_key_) {
      match_cache_key_ = key;
      match_cache_ = &matching[key];
    }
    return *match_cache_;
  }
  // Completed & replaced whenever a new envelope arrives (MPI_Probe wakes on it).
  sim::ActivityPtr arrival_signal;
  void signal_arrival();

  // Wait-for bookkeeping for the deadlock detector (see BlockedOp).
  BlockedOp blocked;
  // The rank's time account, kept for every run: simulated seconds spent
  // blocked on a peer or the wire (summed by record_blocked_wait and the
  // MPI_Probe loop), and the date its main returned (-1 until it does).
  double blocked_s = 0;
  double end_date = -1;

  // Unsuccessful-poll accounting (MPI_Test/Testany/Testall/Iprobe): a tight
  // polling loop is detected by back-to-back polls and escalated from
  // one-timer-per-poll sleeps to a completion subscription (see p2p.cpp).
  double last_poll_end = -1;
  int poll_streak = 0;
  // Escalated-poll state: the activity the current block waits on, the
  // deadline of the single armed fallback timer (-1 when none), and the
  // wake sources that already carry a forwarder — one subscription per
  // token for the whole polling loop, not one per round.
  sim::ActivityPtr poll_wait;
  double poll_timer_deadline = -1;
  std::unordered_set<const sim::Activity*> poll_subscribed;

  // Trace-capture nesting depth: >0 while inside an instrumented MPI entry
  // point, so the collectives' internal sends never double-record (see
  // trace/capture.hpp).
  int trace_depth = 0;
  // Capture-side request ids: Request* -> id, and the next id to hand out.
  // Request objects are pooled and their addresses recycled, so a binding
  // is erased when a wait consumes it.
  std::unordered_map<const Request*, long long> trace_request_ids;
  long long trace_request_seq = 0;

  // Local sampling sites ("file:line"); global sites live on the world.
  std::unordered_map<std::string, SampleSite> local_samples;
  // Sites this rank is currently inside (nesting detector + timer state).
  std::unordered_map<std::string, SampleActivation> active_samples;

  // Allocations owned by this rank (smpi_malloc bookkeeping).
  std::unordered_map<void*, std::size_t> allocations;

  // Objects created by this rank through the C API, freed with the process.
  std::vector<std::unique_ptr<Datatype>> datatypes;
  std::vector<std::unique_ptr<Op>> ops;
  std::vector<std::unique_ptr<Group>> groups;

  // Derived communicators are shared; the creating rank owns them.
  std::vector<std::unique_ptr<Comm>> owned_comms;

  std::vector<std::unique_ptr<Request>> owned_requests;
  // Requests reclaimed by gc_requests, handed back (reset) by new_request:
  // steady state reuses slots instead of growing/erasing owned_requests.
  std::vector<Request*> free_requests;
  Request* new_request();
  // Reclaims completed+released requests onto the free list. Batched: the
  // linear sweep runs once per kGcBatch releases, not per release — a root
  // waiting out 1024 scatter sends otherwise rescans its request table per
  // completion.
  void gc_requests();
  // Parks one completed+released request on the free list immediately (the
  // common case at wait/free sites; no table scan).
  void recycle_request(Request* r);

  // --- zero-copy eager state (see CollSendScope in p2p.cpp) ---------------
  // Source byte ranges registered as stable by the collective algorithm
  // currently running on this rank (a stack: scopes nest conservatively).
  struct StableRange {
    const unsigned char* begin = nullptr;
    const unsigned char* end = nullptr;
  };
  std::vector<StableRange> stable_ranges;
  // Zero-copy envelopes posted by this rank since the outermost scope was
  // entered. Any still unmatched at scope exit is snapshotted into a pooled
  // buffer (the source is still live inside the MPI call), so the proof
  // degrades safely instead of dangling.
  std::vector<std::shared_ptr<Envelope>> zc_outstanding;

  // Per-rank collective scratch, cleared per call but never freed: the
  // steady-state collective loop must not touch the heap (asserted by
  // test_p2p_pool). Safe to share across algorithms because exactly one
  // collective runs on a rank at a time and none recurses into another
  // while its own scratch is live.
  std::vector<std::size_t> coll_displs;
  std::vector<Request*> coll_requests;

 private:
  static constexpr int kGcBatch = 64;
  int gc_pending_ = 0;
  int match_cache_key_ = std::numeric_limits<int>::min();
  MatchQueues* match_cache_ = nullptr;
};

// RAII registration of a stable send-source range for zero-copy eager mode.
// A collective algorithm wraps the region its internal sends read from —
// after any initial pack/copy into it — in one of these; eager coll-scope
// sends of basic (non-packing) layout whose bytes lie inside a registered
// range then skip the snapshot copy and deliver from the source at match
// time. Destruction unregisters the range and snapshots every still-
// unmatched zero-copy envelope of the rank.
class CollSendScope {
 public:
  CollSendScope(Process& proc, const void* begin, std::size_t bytes);
  ~CollSendScope();
  CollSendScope(const CollSendScope&) = delete;
  CollSendScope& operator=(const CollSendScope&) = delete;

 private:
  Process& proc_;
  bool registered_ = false;
};

// ---------------------------------------------------------------------------
// Internal entry points shared between the API translation units
// ---------------------------------------------------------------------------

// Current process; never null inside a rank (checked).
Process& current_process_checked();

// RAII: marks what the current rank is blocked on for the duration of a
// wait, so the deadlock reporter can name the operation.
class BlockedOpGuard {
 public:
  BlockedOpGuard(Process& proc, const char* op, int peer = -1, int tag = -1, int comm_id = 0,
                 std::size_t bytes = 0)
      : proc_(proc), saved_(proc.blocked) {
    proc.blocked = BlockedOp{op, peer, tag, comm_id, bytes};
  }
  ~BlockedOpGuard() { proc_.blocked = saved_; }
  BlockedOpGuard(const BlockedOpGuard&) = delete;
  BlockedOpGuard& operator=(const BlockedOpGuard&) = delete;

 private:
  Process& proc_;
  BlockedOp saved_;  // waits nest (waitany -> wait_request): restore, not clear
};

// A blocked operation observed a kFailed activity. Applies the configured
// failure policy: abort -> throws FaultError (never returns); detect ->
// parks the rank on a never-finishing activity so the deadlock detector
// reports the stranded rank (never returns either).
[[noreturn]] void handle_operation_failure(Process& proc, const std::string& what);

// True when the current world runs payload-free (offline replay): sizes
// drive timing, payload bytes never move, and buffers passed to the
// transfer engine are never dereferenced (datatype.cpp).
bool payload_free_mode();

// The TI capture rule for `count` elements of `type` (trace/record.hpp): an
// element count and size, never a flat byte count, so a >2 GiB message
// replays within the int counts the MPI entry points take. A null or
// zero-size type records zero elements of one byte, the zero bytes the call
// moves.
inline void ti_block(long long count, MPI_Datatype type, long long* out_count,
                     long long* out_elem) {
  const bool empty = type == MPI_DATATYPE_NULL || type->size() == 0;
  *out_count = empty ? 0 : count;
  *out_elem = empty ? 1 : static_cast<long long>(type->size());
}

// The same rule for a side whose counts are recorded as an array, one per
// rank of the communicator (`n` >= 1): each count is recorded by ti_block.
inline void ti_counts(const int* counts, int n, MPI_Datatype type,
                      std::vector<long long>* out_counts, long long* out_elem) {
  out_counts->resize(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) ti_block(counts[r], type, &(*out_counts)[r], out_elem);
}

// Core transfer engine (p2p.cpp).
void post_send(Request& request);
void post_recv(Request& request);
// Wait for a single request's token from the calling rank.
int wait_request(Request*& request, MPI_Status* status);

// Collective building blocks shared with coll.cpp. `coll` selects the shadow
// matching scope used by collective algorithms.
int internal_send(const void* buf, int count, Datatype* type, int dest, int tag, Comm* comm,
                  bool coll = false);
int internal_recv(void* buf, int count, Datatype* type, int src, int tag, Comm* comm,
                  MPI_Status* status, bool coll = false);
int internal_isend(const void* buf, int count, Datatype* type, int dest, int tag, Comm* comm,
                   Request** out, bool coll = false);
int internal_irecv(void* buf, int count, Datatype* type, int src, int tag, Comm* comm,
                   Request** out, bool coll = false);
int internal_wait(Request* request);

// Pre-size this rank's coll-scope match queues for a collective expecting up
// to `messages` concurrently unmatched envelopes / posted recvs. reserve()
// is a no-op once warm, so steady-state rounds stay off the heap even when
// a late interleaving peaks above every earlier round's high-water mark.
void reserve_coll_queues(Process& proc, Comm* comm, std::size_t messages);

// Argument validation helpers.
bool valid_comm(MPI_Comm comm);
bool valid_count(int count);
bool valid_type(MPI_Datatype type);
bool valid_rank_or_wildcards(int rank, Comm* comm, bool allow_wildcards);
bool valid_tag(int tag, bool allow_any);

}  // namespace smpi::core
