// The simulation-side API of SMPI: configure a target platform + model,
// then run an MPI program (a plain function using smpi/mpi.h) over N
// simulated processes inside this single OS process.
//
//   auto platform = smpi::platform::build_griffon();
//   smpi::core::SmpiConfig config;                 // flow model, SMPI defaults
//   smpi::core::SmpiWorld world(platform, config);
//   world.run(16, my_mpi_main);
//   double t = world.simulated_time();
//
// Ground-truth mode (the paper's "OpenMPI"/"MPICH2" real runs) is the same
// call with config.backend = kPacket and a personality.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "noise/noise.hpp"
#include "obs/analysis.hpp"
#include "platform/platform.hpp"
#include "pnet/packetnet.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"
#include "surf/cpu.hpp"
#include "surf/network.hpp"

namespace smpi::trace {
class TiWriter;
class PajeWriter;
}  // namespace smpi::trace

namespace smpi::obs {
class SpanCollector;
class ResourceCollector;
}  // namespace smpi::obs

namespace smpi::core {

class Process;
class Comm;
class Group;
class MemoryTracker;
struct RunTables;

// Models how a concrete MPI implementation moves one message: protocol
// switch point, per-message software overheads, and whether the rendezvous
// control messages are sent for real (ground-truth mode) or folded into the
// calibrated piece-wise model (SMPI mode).
struct Personality {
  std::string name = "smpi";
  std::uint64_t eager_threshold = 64 * 1024;
  double overhead_send_s = 0;       // sender-side per-message CPU cost
  double overhead_recv_s = 0;       // receiver-side per-message CPU cost
  double copy_cost_s_per_byte = 0;  // eager buffering memcpy cost
  bool emulate_protocol_messages = false;  // explicit RTS/CTS round-trip

  static Personality smpi();     // everything folded into the network model
  static Personality openmpi();  // ground-truth personality A
  static Personality mpich2();   // ground-truth personality B
};

// Collective-algorithm selection. "auto" keeps the built-in size-based
// dispatch (the MPICH2-style §5.3 rules); naming a variant forces it for
// every call, which is how what-if campaigns sweep over algorithm choices.
// A forced variant must still satisfy its own preconditions (e.g.
// recursive doubling needs a power-of-two size) — violating them is a hard
// error, not a silent fallback. The names are the variant tables in
// smpi/coll.cpp (smpi::coll::variant_names); an unknown one is an error.
struct CollSelection {
  std::string bcast = "auto";      // binomial | scatter_ring_allgather
  std::string alltoall = "auto";   // bruck | basic | pairwise
  std::string allreduce = "auto";  // recursive_doubling | rabenseifner | reduce_bcast
  std::string allgather = "auto";  // recursive_doubling | ring
};

struct SmpiConfig {
  enum class Backend { kFlow, kPacket };
  Backend backend = Backend::kFlow;
  surf::NetworkConfig network;   // used when backend == kFlow
  pnet::PacketNetConfig packet;  // used when backend == kPacket
  Personality personality = Personality::smpi();
  sim::EngineConfig engine;

  // Host node performance (flop/s) used to convert measured CPU-burst
  // durations into target flops (§3.1/§6), and an additional user scale
  // factor for "what if the target nodes were k x faster" studies.
  double host_speed_flops = 1e9;
  double cpu_scale = 1.0;

  // Simulated-host RAM budget; the memory tracker flags configurations whose
  // unfolded footprint would not fit (the "OM" labels of Figure 16).
  std::uint64_t host_ram_budget_bytes = 16ull << 30;

  // Rank placement: rank r runs on node placement[r] when `placement` is
  // non-empty, otherwise on node r % host_count.
  std::vector<int> placement;

  // Forced collective-algorithm variants (campaign what-ifs); see above.
  CollSelection coll;

  // Zero-copy eager mode: collective-internal eager sends whose source
  // buffer is registered as stable for the enclosing algorithm skip the
  // snapshot copy and deliver straight from the user buffer at match time.
  // Timing is unaffected (the copy is modeled via copy_cost_s_per_byte
  // either way); this only changes how payload bytes move through the
  // simulator. Off = always snapshot (reference arm for equivalence tests).
  bool zero_copy_eager = true;

  // Failure model (sim/fault.hpp): host crashes / link faults scheduled at
  // simulated dates, plus seeded-random generation. An empty spec builds no
  // fault machinery at all, so all simulated times stay bit-identical to a
  // fault-free run. Faults require the flow backend. The spec's policy
  // decides what a rank does when a blocked operation fails: abort the rank
  // with a diagnostic, or hang so the deadlock detector reports the
  // wait-for state.
  sim::FaultSpec faults;

  // Noise model (noise/noise.hpp): the `message_jitter` channel adds a
  // seeded per-message delay at flow creation (requires the flow backend).
  // Static channels (host_speed / link_*) are applied to the Platform
  // *before* world construction — by campaign materialization or smpirun —
  // not here. An empty or identity spec installs nothing: the simulation is
  // bit-identical to a noise-free run. `noise.seed` should already carry the
  // replication sub-seed (noise::replication_seed) when campaigns replicate.
  noise::NoiseSpec noise;

  // Payload-free mode (offline trace replay): message *sizes* drive all
  // timing but payload bytes are never materialized — eager sends skip the
  // snapshot copy, receives skip the unpack, datatype pack/unpack and
  // reduction operators become no-ops. Buffers passed to MPI calls are only
  // used for size/offset arithmetic, so one shared scratch arena can serve
  // every rank.
  bool payload_free = false;
};

struct MemoryReport {
  std::uint64_t folded_peak_bytes = 0;    // what the simulation really allocates
  std::uint64_t unfolded_peak_bytes = 0;  // what m processes would have used
  std::uint64_t max_rank_peak_bytes = 0;  // largest single-rank footprint
  bool over_budget = false;               // unfolded footprint exceeds the host budget
};

// Hot-path accounting for the p2p transfer engine: how well the free-list
// pools recycle (hits vs heap fallbacks), and how often the zero-copy eager
// path elided the snapshot memcpy. `bytes_not_copied` is the payload volume
// that never went through an eager staging buffer.
struct P2pCounters {
  std::uint64_t pool_hits = 0;             // engine pools: block + buffer reuse
  std::uint64_t pool_misses = 0;           // engine pools: fresh heap allocations
  std::uint64_t eager_snapshots = 0;       // eager sends that copied into a staging buffer
  std::uint64_t eager_copy_elided = 0;     // eager sends proven stable: no snapshot taken
  std::uint64_t eager_flush_snapshots = 0; // zero-copy envelopes snapshotted at scope exit
  std::uint64_t bytes_not_copied = 0;      // payload bytes delivered without staging
};

// What a run writes besides its simulated time: the TI trace, the Paje
// timeline, the per-call span stream and the resource timelines. Each is
// owned by the caller and may be null; the world drives their whole
// lifecycle (see SmpiWorld::run). Not a SmpiConfig field: configs describe
// the model and are copied into campaign setups, observers are one run's
// outputs.
struct Observers {
  trace::TiWriter* ti = nullptr;
  trace::PajeWriter* paje = nullptr;
  obs::SpanCollector* spans = nullptr;
  obs::ResourceCollector* resources = nullptr;
};

// The record of one run: what SmpiWorld::run leaves behind besides its
// observers' own outputs. The world fills it once the run returns (an abort
// included); a run that throws leaves it partial. trace::ReplayResult
// derives from it and campaign rows derive from that, so online runs,
// replays, campaign rows and smpirun's reports all read this one record.
struct RunResult {
  double simulated_time = 0;
  int ranks = 0;
  // Set when a rank aborted the run (MPI_Abort, or a resource failure under
  // the fault model's abort policy). `failure` carries the first fault
  // diagnostic when the abort came from the failure model.
  bool aborted = false;
  int abort_code = 0;
  std::string failure;
  // Cumulative max-min work over the flow network (none under the packet
  // backend) and the CPU model.
  std::uint64_t solver_solves = 0;
  std::uint64_t solver_vars_touched = 0;
  std::uint64_t solver_cons_touched = 0;
  // surf.* observation counters summed over the same solvers.
  surf::MaxMinSystem::ObserveCounters surf_observe;
  // Hot-path accounting (see P2pCounters). In payload-free replay the
  // eager copy counters stay zero by construction: no payload moves.
  P2pCounters p2p;
  // Per-rank simulated-time split, indexed by world rank and filled for
  // every run, observed or not: comm is the time the rank sat blocked on a
  // peer or the wire (MPI waits and probes), compute is the rest of its
  // life up to the date its main returned, MPI software overheads (send
  // overhead, eager copy cost) included.
  std::vector<double> rank_compute_s;
  std::vector<double> rank_comm_s;
  // Filled only when `analyzed`: the span layer's split of each rank's
  // comm into time waiting for a peer (wait) and time the wire was busy
  // (transfer); wait + transfer == comm up to rounding.
  std::vector<double> rank_wait_s;
  std::vector<double> rank_transfer_s;
  // Wait-state / critical-path analysis of the run's spans; only meaningful
  // when `analyzed` is set (the run had a span collector).
  bool analyzed = false;
  obs::AnalysisResult analysis;
  // Resource-utilization summary of the run's resource collector: the
  // dominant bottleneck by saturated time (empty name: nothing ever
  // saturated) and the peak link utilization. Only meaningful when
  // `resources_analyzed` is set; the full timelines and saturation ledger
  // stay on the collector.
  bool resources_analyzed = false;
  std::string top_bottleneck;
  double bottleneck_saturated_s = 0;
  double max_link_utilization = 0;
};

using MpiMain = std::function<void(int argc, char** argv)>;

class SmpiWorld {
 public:
  // `observers` must outlive run(); the world never touches them after run()
  // returns or throws, so they may die before the world does.
  SmpiWorld(const platform::Platform& platform, SmpiConfig config, Observers observers = {});
  ~SmpiWorld();

  SmpiWorld(const SmpiWorld&) = delete;
  SmpiWorld& operator=(const SmpiWorld&) = delete;

  // Runs `app` as `nprocs` MPI processes; returns when all have finished.
  // argv[0] is `app_name`, followed by `args`. The Paje timeline begins
  // with the run. When run() returns (an abort included) the models' last
  // resource observations are flushed, then the resource collector is
  // finalized and the Paje and TI writers finished, all at the makespan,
  // and result() is filled; when it throws, the observers are left as they
  // are.
  void run(int nprocs, MpiMain app, std::vector<std::string> args = {},
           std::string app_name = "smpi_app");

  const RunResult& result() const { return result_; }
  double simulated_time() const { return result_.simulated_time; }
  MemoryReport memory_report() const;
  // Hot-path accounting: smpi-layer counters merged with the engine's pool
  // statistics (valid for the lifetime of the world).
  P2pCounters p2p_counters() const;
  bool aborted() const { return result_.aborted; }
  int abort_code() const { return result_.abort_code; }
  // The per-rank wait-for state (blocked operation + unmatched queues) the
  // deadlock detector appends to DeadlockError; also usable directly.
  std::string wait_for_diagnostic() const;

  sim::Engine& engine() { return *engine_; }
  const platform::Platform& platform() const { return platform_; }
  const SmpiConfig& config() const { return config_; }
  // This run's observers; all null once the simulation in run() has ended.
  const Observers& observers() const { return observers_; }
  sim::NetworkBackend& network() { return *network_; }
  surf::CpuModel& cpu() { return *cpu_; }

  // --- internal services (used by the MPI call implementations) -----------
  static SmpiWorld* instance();
  Process* current_process();           // nullptr outside MPI ranks
  Process* process(int world_rank);
  int world_size() const { return static_cast<int>(processes_.size()); }
  Comm* world_comm() { return world_comm_; }
  Group* empty_group() { return empty_group_; }
  MemoryTracker& memory() { return *memory_; }
  void record_abort(int code);
  // Records the first fault diagnostic (abort policy) alongside the abort.
  void record_failure(const std::string& diagnostic);
  int next_comm_id() { return next_comm_id_++; }
  P2pCounters& p2p_raw() { return p2p_counters_; }  // smpi-layer increments
  // SMPI_SAMPLE_GLOBAL sites and SMPI_SHARED_MALLOC blocks of this run.
  RunTables& tables() { return *tables_; }

 private:
  void finish_run();

  const platform::Platform& platform_;
  SmpiConfig config_;
  Observers observers_;
  std::unique_ptr<sim::Engine> engine_;
  std::shared_ptr<surf::CpuModel> cpu_;
  sim::NetworkBackend* network_ = nullptr;
  surf::FlowNetworkModel* flow_network_ = nullptr;  // null with the packet backend
  std::vector<std::unique_ptr<Process>> processes_;
  Comm* world_comm_ = nullptr;
  Group* empty_group_ = nullptr;
  std::unique_ptr<MemoryTracker> memory_;
  std::unique_ptr<RunTables> tables_;
  std::vector<std::unique_ptr<Comm>> static_comms_;
  std::vector<std::unique_ptr<Group>> static_groups_;
  std::exception_ptr first_exception_;
  std::vector<std::string> argv_storage_;
  std::vector<char*> argv_pointers_;
  P2pCounters p2p_counters_;  // pool fields filled from the engine on read
  std::unique_ptr<noise::MessageJitter> jitter_;  // null when no live jitter channel
  RunResult result_;
  int next_comm_id_ = 1;
};

// Convenience wrapper: build world, run, return simulated time.
double run_simulation(const platform::Platform& platform, const SmpiConfig& config, int nprocs,
                      MpiMain app, std::vector<std::string> args = {});

}  // namespace smpi::core
