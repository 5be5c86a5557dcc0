// CPU-burst folding (§3.1, Figure 2).
//
// SMPI_SAMPLE_LOCAL(n)  — each process executes & times the burst n times,
//                         then replays the mean as a simulated delay;
// SMPI_SAMPLE_GLOBAL(n) — n measurements total across all processes;
// SMPI_SAMPLE_DELAY(f)  — the burst never runs; f flops are injected.
//
// When a burst *does* execute, the measured host wall-clock time is
// converted into target flops through config.host_speed_flops and injected
// into the simulated timeline, so executed and folded iterations cost
// simulated time consistently. Sites are identified by file:line, the same
// hash-table scheme the paper describes (§5.2).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <string>

#include "smpi/internals.hpp"
#include "trace/capture.hpp"
#include "util/check.hpp"

namespace smpi::core {
namespace {

std::string site_key(const char* file, int line) {
  return std::string(file) + ":" + std::to_string(line);
}

// SMPI_SAMPLE_GLOBAL sites live on the world and pool measurements across
// ranks; local sites live on the calling rank.
SampleSite& lookup_site(const char* file, int line, bool global) {
  const std::string key = site_key(file, line);
  Process& proc = current_process_checked();
  if (global) return proc.world->tables().sample_sites[key];
  return proc.local_samples[key];
}

double host_seconds_now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void inject_host_seconds(double host_seconds) {
  if (host_seconds <= 0) return;
  smpi_execute_host_seconds(host_seconds);
}

}  // namespace

double SampleSite::coefficient_of_variation() const {
  if (completed < 2) return std::numeric_limits<double>::infinity();
  const double mean = mean_host_seconds();
  if (mean <= 0) return 0;
  const double variance =
      std::max(0.0, sum_sq_host_seconds / completed - mean * mean);
  return std::sqrt(variance) / mean;
}

bool SampleSite::converged() const {
  if (precision <= 0) return false;  // fixed-count mode
  return completed >= 2 && coefficient_of_variation() <= precision;
}

}  // namespace smpi::core

using namespace smpi::core;

void smpi_execute_flops(double flops) {
  SMPI_REQUIRE(flops >= 0, "negative flops");
  Process& proc = current_process_checked();
  // The single funnel for simulated compute: executed SMPI_SAMPLE bursts,
  // folded replays, and explicit injections all arrive here, so one capture
  // point records every flop the rank burns between its MPI calls.
  smpi::trace::ApiScope scope("computing");
  if (scope.recording() && flops > 0) {
    smpi::trace::TiRecord r;
    r.op = smpi::trace::TiOp::kCompute;
    r.value = flops;
    scope.emit(r);
  }
  smpi::sim::ActivityPtr exec = proc.world->cpu().execute(proc.node, flops);
  {
    BlockedOpGuard guard(proc, "compute");
    exec->wait();
  }
  if (exec->state() == smpi::sim::Activity::State::kFailed) {
    handle_operation_failure(proc, "compute burst failed: host went down");
  }
}

void smpi_execute_host_seconds(double host_seconds) {
  SMPI_REQUIRE(host_seconds >= 0, "negative duration");
  Process& proc = current_process_checked();
  const SmpiConfig& config = proc.world->config();
  const double flops = host_seconds * config.host_speed_flops * config.cpu_scale;
  smpi_execute_flops(flops);
}

void smpi_sleep(double seconds) {
  SMPI_REQUIRE(seconds >= 0, "negative sleep");
  Process& proc = current_process_checked();
  smpi::trace::ApiScope scope("sleeping");
  if (scope.recording() && seconds > 0) {
    smpi::trace::TiRecord r;
    r.op = smpi::trace::TiOp::kSleep;
    r.value = seconds;
    scope.emit(r);
  }
  proc.world->engine().sleep_for(seconds);
}

int smpi_sample_enter(const char* file, int line, int global, int iterations, double flops) {
  Process& proc = current_process_checked();
  const std::string key = site_key(file, line);
  SMPI_REQUIRE(proc.active_samples.find(key) == proc.active_samples.end(),
               "SMPI_SAMPLE blocks must not nest on the same site");
  SampleActivation& activation = proc.active_samples[key];
  activation.global = global != 0;

  if (flops >= 0) {
    // SMPI_SAMPLE_DELAY: never execute, always inject.
    activation.executing = false;
    smpi_execute_flops(flops);
    return 0;
  }
  SampleSite& site = lookup_site(file, line, global != 0);
  site.target_iterations = iterations;
  if (site.executed < site.target_iterations && !site.converged()) {
    // Claim a measurement slot before running: with SMPI_SAMPLE_GLOBAL other
    // ranks may enter while we execute, and the budget is collective.
    site.executed += 1;
    activation.executing = true;
    activation.enter_host_time = host_seconds_now();
  } else {
    // Folded: replay the mean measured duration.
    activation.executing = false;
    inject_host_seconds(site.mean_host_seconds());
  }
  return 0;
}

int smpi_sample_enter_auto(const char* file, int line, int global, int max_iterations,
                           double precision) {
  SMPI_REQUIRE(max_iterations >= 2, "adaptive sampling needs at least two iterations");
  SMPI_REQUIRE(precision > 0, "adaptive sampling needs a positive precision");
  // Record the convergence target, then reuse the fixed-count machinery with
  // max_iterations as the hard cap.
  lookup_site(file, line, global != 0).precision = precision;
  return smpi_sample_enter(file, line, global, max_iterations, -1);
}

int smpi_sample_continue(const char* file, int line, int global) {
  (void)global;
  Process& proc = current_process_checked();
  const std::string key = site_key(file, line);
  auto it = proc.active_samples.find(key);
  SMPI_REQUIRE(it != proc.active_samples.end(), "SMPI_SAMPLE continue without enter");
  if (it->second.executing) return 1;  // run the block (exit() will stop the clock)
  proc.active_samples.erase(it);       // folded or delay-only: skip the block
  return 0;
}

void smpi_sample_exit(const char* file, int line, int global) {
  Process& proc = current_process_checked();
  const std::string key = site_key(file, line);
  auto it = proc.active_samples.find(key);
  SMPI_REQUIRE(it != proc.active_samples.end() && it->second.executing,
               "SMPI_SAMPLE exit without executing enter");
  const double elapsed = host_seconds_now() - it->second.enter_host_time;
  SampleSite& site = lookup_site(file, line, global != 0);
  site.sum_host_seconds += elapsed;  // slot was claimed in enter()
  site.sum_sq_host_seconds += elapsed * elapsed;
  site.completed += 1;
  it->second.executing = false;
  // The executed burst also advances simulated time.
  inject_host_seconds(elapsed);
}
