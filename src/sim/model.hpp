// Resource-model plug-in interfaces.
//
// The engine is event-driven: models push the dates of their next internal
// state changes into the engine's shared EventCalendar, and the engine calls
// on_calendar_event() when such a date is reached. Models reschedule entries
// whenever an allocation change moves a completion date — only the
// activities whose rates changed are touched. The flow-level network model
// (surf), the CPU model, and the packet-level ground-truth network (pnet)
// all implement Model.
//
// NetworkBackend is the transfer service the MPI layer uses; having both the
// analytical and the packet-level simulators behind it is what lets the
// *same* application run against either — the paper's methodology of
// comparing SMPI to a real testbed.
#pragma once

#include <cstdint>
#include <limits>

#include "sim/activity.hpp"
#include "sim/calendar.hpp"

namespace smpi::sim {

class Engine;

constexpr double kNever = std::numeric_limits<double>::infinity();

class Model {
 public:
  virtual ~Model() = default;
  // A calendar entry scheduled by this model fired: virtual time reached the
  // entry's date. `tag` is the payload passed to EventCalendar::schedule().
  virtual void on_calendar_event(double now, std::uint64_t tag) = 0;
  // Deferred-update hook: runs once before the engine next advances time,
  // if the model called request_settle() since the last settle.
  virtual void on_settle(double /*now*/) {}

 protected:
  // The engine's shared calendar; bound by Engine::add_model().
  EventCalendar& calendar() const;
  // Coalesces allocation updates: however many activities arrive or finish
  // at one virtual instant, the engine calls on_settle() exactly once before
  // computing the next event date — one re-solve per batch, not per change.
  void request_settle();

 private:
  friend class Engine;
  Engine* engine_ = nullptr;
  EventCalendar* calendar_ = nullptr;
  bool settle_pending_ = false;
};

class NetworkBackend {
 public:
  virtual ~NetworkBackend() = default;
  // Start moving `bytes` from node src to node dst; the returned activity
  // completes when the last byte arrives.
  virtual ActivityPtr start_flow(int src_node, int dst_node, double bytes) = 0;
};

}  // namespace smpi::sim
