#include "trace/record.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace smpi::trace {

namespace {

struct OpName {
  TiOp op;
  std::string_view name;
};

constexpr OpName kOpNames[] = {
    {TiOp::kInit, "init"},
    {TiOp::kFinalize, "finalize"},
    {TiOp::kCompute, "compute"},
    {TiOp::kSleep, "sleep"},
    {TiOp::kSend, "send"},
    {TiOp::kIsend, "isend"},
    {TiOp::kRecv, "recv"},
    {TiOp::kIrecv, "irecv"},
    {TiOp::kWait, "wait"},
    {TiOp::kWaitall, "waitall"},
    {TiOp::kReqFree, "reqfree"},
    {TiOp::kProbe, "probe"},
    {TiOp::kSendrecv, "sendrecv"},
    {TiOp::kBarrier, "barrier"},
    {TiOp::kBcast, "bcast"},
    {TiOp::kReduce, "reduce"},
    {TiOp::kAllreduce, "allreduce"},
    {TiOp::kScan, "scan"},
    {TiOp::kGather, "gather"},
    {TiOp::kGatherv, "gatherv"},
    {TiOp::kScatter, "scatter"},
    {TiOp::kScatterv, "scatterv"},
    {TiOp::kAllgather, "allgather"},
    {TiOp::kAllgatherv, "allgatherv"},
    {TiOp::kAlltoall, "alltoall"},
    {TiOp::kAlltoallv, "alltoallv"},
    {TiOp::kReduceScatter, "reducescatter"},
};

void append_double(std::string& out, double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), " %.17g", value);
  out += buf;
}

void append_ll(std::string& out, long long value) {
  out += ' ';
  out += std::to_string(value);
}

void append_list(std::string& out, const std::vector<long long>& values) {
  append_ll(out, static_cast<long long>(values.size()));
  for (long long v : values) append_ll(out, v);
}

// Reads one record line token by token. Tokens are separated by spaces,
// tabs or carriage returns, and a number must fill its whole token: `0x10`,
// `1.5abc` and `4.5` (where an integer is due) are rejected, not truncated.
class Cursor {
 public:
  explicit Cursor(std::string_view line) : pos_(line.data()), end_(line.data() + line.size()) {}

  std::string_view token() {
    skip_blanks();
    const char* start = pos_;
    while (pos_ != end_ && !is_blank(*pos_)) ++pos_;
    return {start, static_cast<std::size_t>(pos_ - start)};
  }

  bool read(long long* out) { return read_number(out); }

  // Doubles are %.17g text; from_chars is correctly rounded, so they
  // round-trip bit-exactly. inf, nan and overflow are rejected.
  bool read(double* out) { return read_number(out) && std::isfinite(*out); }

  // `<k> <v1> ... <vk>`. Each element needs at least a separator and a
  // digit, so a k the rest of the line cannot hold is rejected before
  // anything is allocated.
  bool read(std::vector<long long>* out) {
    long long k = 0;
    if (!read(&k) || k < 0 || k > (end_ - pos_) / 2) return false;
    out->resize(static_cast<std::size_t>(k));
    for (long long& v : *out) {
      if (!read(&v)) return false;
    }
    return true;
  }

  bool at_end() {
    skip_blanks();
    return pos_ == end_;
  }

 private:
  static bool is_blank(char c) { return c == ' ' || c == '\t' || c == '\r'; }

  void skip_blanks() {
    while (pos_ != end_ && is_blank(*pos_)) ++pos_;
  }

  template <typename T>
  bool read_number(T* out) {
    skip_blanks();
    const auto [next, ec] = std::from_chars(pos_, end_, *out);
    if (ec != std::errc() || (next != end_ && !is_blank(*next))) return false;
    pos_ = next;
    return true;
  }

  const char* pos_;
  const char* end_;
};

// Reads the fields of `r->op` in their serialized order; the commutativity
// flag of the reductions goes to `*flag`.
bool read_fields(Cursor& in, TiRecord* r, long long* flag) {
  switch (r->op) {
    case TiOp::kInit:
    case TiOp::kFinalize:
    case TiOp::kBarrier:
      return true;
    case TiOp::kCompute:
    case TiOp::kSleep:
      return in.read(&r->value);
    case TiOp::kSend:
    case TiOp::kRecv:
      return in.read(&r->peer) && in.read(&r->count) && in.read(&r->elem) &&
             in.read(&r->tag);
    case TiOp::kIsend:
    case TiOp::kIrecv:
      return in.read(&r->peer) && in.read(&r->count) && in.read(&r->elem) &&
             in.read(&r->tag) && in.read(&r->req);
    case TiOp::kWait:
    case TiOp::kReqFree:
      return in.read(&r->req);
    case TiOp::kWaitall:
      return in.read(&r->reqs);
    case TiOp::kProbe:
      return in.read(&r->peer) && in.read(&r->tag);
    case TiOp::kSendrecv:
      return in.read(&r->peer) && in.read(&r->count) && in.read(&r->elem) &&
             in.read(&r->tag) && in.read(&r->peer2) && in.read(&r->count2) &&
             in.read(&r->elem2) && in.read(&r->tag2);
    case TiOp::kBcast:
      return in.read(&r->count) && in.read(&r->elem) && in.read(&r->peer);
    case TiOp::kReduce:
      return in.read(&r->count) && in.read(&r->elem) && in.read(&r->peer) && in.read(flag);
    case TiOp::kAllreduce:
    case TiOp::kScan:
      return in.read(&r->count) && in.read(&r->elem) && in.read(flag);
    case TiOp::kGather:
    case TiOp::kScatter:
      return in.read(&r->count) && in.read(&r->elem) && in.read(&r->count2) &&
             in.read(&r->elem2) && in.read(&r->peer);
    case TiOp::kAllgather:
    case TiOp::kAlltoall:
      return in.read(&r->count) && in.read(&r->elem) && in.read(&r->count2) &&
             in.read(&r->elem2);
    case TiOp::kGatherv:
      return in.read(&r->count) && in.read(&r->elem) && in.read(&r->elem2) &&
             in.read(&r->peer) && in.read(&r->counts);
    case TiOp::kScatterv:
      return in.read(&r->count2) && in.read(&r->elem2) && in.read(&r->elem) &&
             in.read(&r->peer) && in.read(&r->counts);
    case TiOp::kAllgatherv:
      return in.read(&r->count) && in.read(&r->elem) && in.read(&r->elem2) &&
             in.read(&r->counts);
    case TiOp::kAlltoallv:
      return in.read(&r->elem) && in.read(&r->elem2) && in.read(&r->counts) &&
             in.read(&r->counts2);
    case TiOp::kReduceScatter:
      return in.read(&r->elem) && in.read(flag) && in.read(&r->counts);
  }
  return false;
}

}  // namespace

const char* ti_op_name(TiOp op) {
  for (const auto& entry : kOpNames) {
    if (entry.op == op) return entry.name.data();
  }
  return "?";
}

bool ti_op_from_name(std::string_view name, TiOp* out) {
  for (const auto& entry : kOpNames) {
    if (name == entry.name) {
      *out = entry.op;
      return true;
    }
  }
  return false;
}

std::string serialize_record(const TiRecord& r) {
  std::string out = ti_op_name(r.op);
  switch (r.op) {
    case TiOp::kInit:
    case TiOp::kFinalize:
    case TiOp::kBarrier:
      break;
    case TiOp::kCompute:
    case TiOp::kSleep:
      append_double(out, r.value);
      break;
    case TiOp::kSend:
    case TiOp::kRecv:
      append_ll(out, r.peer);
      append_ll(out, r.count);
      append_ll(out, r.elem);
      append_ll(out, r.tag);
      break;
    case TiOp::kIsend:
    case TiOp::kIrecv:
      append_ll(out, r.peer);
      append_ll(out, r.count);
      append_ll(out, r.elem);
      append_ll(out, r.tag);
      append_ll(out, r.req);
      break;
    case TiOp::kWait:
    case TiOp::kReqFree:
      append_ll(out, r.req);
      break;
    case TiOp::kWaitall:
      append_list(out, r.reqs);
      break;
    case TiOp::kProbe:
      append_ll(out, r.peer);
      append_ll(out, r.tag);
      break;
    case TiOp::kSendrecv:
      append_ll(out, r.peer);
      append_ll(out, r.count);
      append_ll(out, r.elem);
      append_ll(out, r.tag);
      append_ll(out, r.peer2);
      append_ll(out, r.count2);
      append_ll(out, r.elem2);
      append_ll(out, r.tag2);
      break;
    case TiOp::kBcast:
      append_ll(out, r.count);
      append_ll(out, r.elem);
      append_ll(out, r.peer);
      break;
    case TiOp::kReduce:
      append_ll(out, r.count);
      append_ll(out, r.elem);
      append_ll(out, r.peer);
      append_ll(out, r.commutative ? 1 : 0);
      break;
    case TiOp::kAllreduce:
    case TiOp::kScan:
      append_ll(out, r.count);
      append_ll(out, r.elem);
      append_ll(out, r.commutative ? 1 : 0);
      break;
    case TiOp::kGather:
    case TiOp::kScatter:
      append_ll(out, r.count);
      append_ll(out, r.elem);
      append_ll(out, r.count2);
      append_ll(out, r.elem2);
      append_ll(out, r.peer);
      break;
    case TiOp::kAllgather:
    case TiOp::kAlltoall:
      append_ll(out, r.count);
      append_ll(out, r.elem);
      append_ll(out, r.count2);
      append_ll(out, r.elem2);
      break;
    case TiOp::kGatherv:
      append_ll(out, r.count);
      append_ll(out, r.elem);
      append_ll(out, r.elem2);
      append_ll(out, r.peer);
      append_list(out, r.counts);
      break;
    case TiOp::kScatterv:
      append_ll(out, r.count2);
      append_ll(out, r.elem2);
      append_ll(out, r.elem);
      append_ll(out, r.peer);
      append_list(out, r.counts);
      break;
    case TiOp::kAllgatherv:
      append_ll(out, r.count);
      append_ll(out, r.elem);
      append_ll(out, r.elem2);
      append_list(out, r.counts);
      break;
    case TiOp::kAlltoallv:
      append_ll(out, r.elem);
      append_ll(out, r.elem2);
      append_list(out, r.counts);
      append_list(out, r.counts2);
      break;
    case TiOp::kReduceScatter:
      append_ll(out, r.elem);
      append_ll(out, r.commutative ? 1 : 0);
      append_list(out, r.counts);
      break;
  }
  return out;
}

bool parse_record(std::string_view line, TiRecord* out) {
  Cursor in(line);
  *out = TiRecord{};
  if (!ti_op_from_name(in.token(), &out->op)) return false;
  long long flag = 1;
  if (!read_fields(in, out, &flag)) return false;
  out->commutative = flag != 0;
  return in.at_end();
}

}  // namespace smpi::trace
