// Groups (local objects) and communicators (shared objects created
// collectively). Because all ranks share one address space, a communicator
// is a single object: the first rank reaching the k-th communicator-creating
// collective on a parent communicator builds it, the others fetch it from a
// deterministic slot — the shared-memory equivalent of a context-id
// agreement protocol.
#include <algorithm>
#include <set>

#include "smpi/internals.hpp"
#include "util/check.hpp"

namespace smpi::core {

Group::Group(std::vector<int> world_ranks) : world_ranks_(std::move(world_ranks)) {
  identity_ = true;
  for (std::size_t i = 0; i < world_ranks_.size(); ++i) {
    if (world_ranks_[i] != static_cast<int>(i)) {
      identity_ = false;
      break;
    }
  }
  if (!identity_) {
    reverse_.reserve(world_ranks_.size());
    for (std::size_t i = 0; i < world_ranks_.size(); ++i) {
      reverse_.emplace(world_ranks_[i], static_cast<int>(i));
    }
  }
}

int Group::rank_of_world(int world_rank) const {
  if (identity_) {
    return world_rank >= 0 && world_rank < size() ? world_rank : MPI_UNDEFINED;
  }
  auto it = reverse_.find(world_rank);
  return it == reverse_.end() ? MPI_UNDEFINED : it->second;
}

namespace {

Group* adopt_group(std::vector<int> world_ranks) {
  Process& proc = current_process_checked();
  proc.groups.push_back(std::make_unique<Group>(std::move(world_ranks)));
  return proc.groups.back().get();
}

Comm* adopt_comm(std::vector<int> world_ranks) {
  Process& proc = current_process_checked();
  proc.owned_comms.push_back(
      std::make_unique<Comm>(proc.world->next_comm_id(), Group(std::move(world_ranks))));
  return proc.owned_comms.back().get();
}

// Fetch-or-build the communicators of the current creation collective on
// `parent`. `build` runs on the first arriving member only and returns one
// communicator per color; each member takes the one of its `color`
// (MPI_COMM_NULL for MPI_UNDEFINED), and the last one retires the slot.
Comm* creation_slot_fetch(Comm* parent, int color,
                          const std::function<std::map<int, Comm*>()>& build) {
  Process& proc = current_process_checked();
  const std::uint64_t epoch = parent->creation_epoch[proc.world_rank]++;
  auto it = parent->pending_creations.find(epoch);
  if (it == parent->pending_creations.end()) {
    it = parent->pending_creations.emplace(epoch, std::make_pair(build(), 0)).first;
  }
  auto& [comms, fetched] = it->second;
  Comm* result = MPI_COMM_NULL;
  if (color != MPI_UNDEFINED) {
    auto found = comms.find(color);
    SMPI_ENSURE(found != comms.end(), "creation slot missing this color");
    result = found->second;
  }
  if (++fetched == parent->size()) parent->pending_creations.erase(it);
  return result;
}

}  // namespace
}  // namespace smpi::core

using namespace smpi::core;

// ---------------------------------------------------------------------------
// Groups
// ---------------------------------------------------------------------------

int MPI_Group_size(MPI_Group group, int* size) {
  if (group == MPI_GROUP_NULL || size == nullptr) return MPI_ERR_GROUP;
  *size = group->size();
  return MPI_SUCCESS;
}

int MPI_Group_rank(MPI_Group group, int* rank) {
  if (group == MPI_GROUP_NULL || rank == nullptr) return MPI_ERR_GROUP;
  *rank = group->rank_of_world(current_process_checked().world_rank);
  return MPI_SUCCESS;
}

int MPI_Group_incl(MPI_Group group, int n, const int ranks[], MPI_Group* newgroup) {
  if (group == MPI_GROUP_NULL || newgroup == nullptr) return MPI_ERR_GROUP;
  if (n < 0 || n > group->size()) return MPI_ERR_ARG;
  if (n > 0 && ranks == nullptr) return MPI_ERR_ARG;
  std::vector<int> members;
  members.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    if (ranks[i] < 0 || ranks[i] >= group->size()) return MPI_ERR_RANK;
    members.push_back(group->world_rank(ranks[i]));
  }
  *newgroup = adopt_group(std::move(members));
  return MPI_SUCCESS;
}

int MPI_Group_excl(MPI_Group group, int n, const int ranks[], MPI_Group* newgroup) {
  if (group == MPI_GROUP_NULL || newgroup == nullptr) return MPI_ERR_GROUP;
  if (n < 0 || n > group->size()) return MPI_ERR_ARG;
  if (n > 0 && ranks == nullptr) return MPI_ERR_ARG;
  std::set<int> excluded;
  for (int i = 0; i < n; ++i) {
    if (ranks[i] < 0 || ranks[i] >= group->size()) return MPI_ERR_RANK;
    excluded.insert(ranks[i]);
  }
  std::vector<int> members;
  for (int r = 0; r < group->size(); ++r) {
    if (excluded.find(r) == excluded.end()) members.push_back(group->world_rank(r));
  }
  *newgroup = adopt_group(std::move(members));
  return MPI_SUCCESS;
}

int MPI_Group_union(MPI_Group group1, MPI_Group group2, MPI_Group* newgroup) {
  if (group1 == MPI_GROUP_NULL || group2 == MPI_GROUP_NULL || newgroup == nullptr) {
    return MPI_ERR_GROUP;
  }
  std::vector<int> members = group1->world_ranks();
  for (int w : group2->world_ranks()) {
    if (group1->rank_of_world(w) == MPI_UNDEFINED) members.push_back(w);
  }
  *newgroup = adopt_group(std::move(members));
  return MPI_SUCCESS;
}

int MPI_Group_intersection(MPI_Group group1, MPI_Group group2, MPI_Group* newgroup) {
  if (group1 == MPI_GROUP_NULL || group2 == MPI_GROUP_NULL || newgroup == nullptr) {
    return MPI_ERR_GROUP;
  }
  std::vector<int> members;
  for (int w : group1->world_ranks()) {
    if (group2->rank_of_world(w) != MPI_UNDEFINED) members.push_back(w);
  }
  *newgroup = adopt_group(std::move(members));
  return MPI_SUCCESS;
}

int MPI_Group_difference(MPI_Group group1, MPI_Group group2, MPI_Group* newgroup) {
  if (group1 == MPI_GROUP_NULL || group2 == MPI_GROUP_NULL || newgroup == nullptr) {
    return MPI_ERR_GROUP;
  }
  std::vector<int> members;
  for (int w : group1->world_ranks()) {
    if (group2->rank_of_world(w) == MPI_UNDEFINED) members.push_back(w);
  }
  *newgroup = adopt_group(std::move(members));
  return MPI_SUCCESS;
}

int MPI_Group_translate_ranks(MPI_Group group1, int n, const int ranks1[], MPI_Group group2,
                              int ranks2[]) {
  if (group1 == MPI_GROUP_NULL || group2 == MPI_GROUP_NULL) return MPI_ERR_GROUP;
  if (n < 0) return MPI_ERR_ARG;
  if (n > 0 && (ranks1 == nullptr || ranks2 == nullptr)) return MPI_ERR_ARG;
  for (int i = 0; i < n; ++i) {
    if (ranks1[i] == MPI_PROC_NULL) {
      ranks2[i] = MPI_PROC_NULL;
      continue;
    }
    if (ranks1[i] < 0 || ranks1[i] >= group1->size()) return MPI_ERR_RANK;
    ranks2[i] = group2->rank_of_world(group1->world_rank(ranks1[i]));
  }
  return MPI_SUCCESS;
}

int MPI_Group_compare(MPI_Group group1, MPI_Group group2, int* result) {
  if (group1 == MPI_GROUP_NULL || group2 == MPI_GROUP_NULL || result == nullptr) {
    return MPI_ERR_GROUP;
  }
  if (group1->world_ranks() == group2->world_ranks()) {
    *result = MPI_IDENT;
    return MPI_SUCCESS;
  }
  std::vector<int> a = group1->world_ranks();
  std::vector<int> b = group2->world_ranks();
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  *result = (a == b) ? MPI_SIMILAR : MPI_UNEQUAL;
  return MPI_SUCCESS;
}

int MPI_Group_free(MPI_Group* group) {
  if (group == nullptr || *group == MPI_GROUP_NULL) return MPI_ERR_GROUP;
  *group = MPI_GROUP_NULL;  // storage reclaimed with the owning process
  return MPI_SUCCESS;
}

// ---------------------------------------------------------------------------
// Communicators
// ---------------------------------------------------------------------------

int MPI_Comm_rank(MPI_Comm comm, int* rank) {
  if (!valid_comm(comm) || rank == nullptr) return MPI_ERR_COMM;
  const int r = comm->rank_of_world(current_process_checked().world_rank);
  if (r == MPI_UNDEFINED) return MPI_ERR_COMM;
  *rank = r;
  return MPI_SUCCESS;
}

int MPI_Comm_size(MPI_Comm comm, int* size) {
  if (!valid_comm(comm) || size == nullptr) return MPI_ERR_COMM;
  *size = comm->size();
  return MPI_SUCCESS;
}

int MPI_Comm_group(MPI_Comm comm, MPI_Group* group) {
  if (!valid_comm(comm) || group == nullptr) return MPI_ERR_COMM;
  *group = adopt_group(comm->group().world_ranks());
  return MPI_SUCCESS;
}

int MPI_Comm_dup(MPI_Comm comm, MPI_Comm* newcomm) {
  if (!valid_comm(comm) || newcomm == nullptr) return MPI_ERR_COMM;
  *newcomm = creation_slot_fetch(comm, 0, [&] {
    return std::map<int, Comm*>{{0, adopt_comm(comm->group().world_ranks())}};
  });
  return MPI_Barrier(comm);
}

int MPI_Comm_create(MPI_Comm comm, MPI_Group group, MPI_Comm* newcomm) {
  if (!valid_comm(comm) || newcomm == nullptr) return MPI_ERR_COMM;
  if (group == MPI_GROUP_NULL) return MPI_ERR_GROUP;
  Comm* created = creation_slot_fetch(comm, 0, [&] {
    return std::map<int, Comm*>{{0, adopt_comm(group->world_ranks())}};
  });
  const int rc = MPI_Barrier(comm);
  *newcomm = created->rank_of_world(current_process_checked().world_rank) == MPI_UNDEFINED
                 ? MPI_COMM_NULL
                 : created;
  return rc;
}

int MPI_Comm_split(MPI_Comm comm, int color, int key, MPI_Comm* newcomm) {
  if (!valid_comm(comm) || newcomm == nullptr) return MPI_ERR_COMM;
  if (color < 0 && color != MPI_UNDEFINED) return MPI_ERR_ARG;
  const int size = comm->size();

  // Everyone learns everyone's (color, key).
  std::vector<int> mine{color, key};
  std::vector<int> all(static_cast<std::size_t>(size) * 2);
  const int rc = MPI_Allgather(mine.data(), 2, MPI_INT, all.data(), 2, MPI_INT, comm);
  if (rc != MPI_SUCCESS) return rc;

  // The first arriving member builds one communicator per color; everyone
  // fetches theirs.
  *newcomm = creation_slot_fetch(comm, color, [&] {
    std::map<int, std::vector<std::pair<int, int>>> members;  // color -> [(key, old rank)]
    for (int r = 0; r < size; ++r) {
      const int c = all[static_cast<std::size_t>(2 * r)];
      if (c == MPI_UNDEFINED) continue;
      members[c].emplace_back(all[static_cast<std::size_t>(2 * r + 1)], r);
    }
    std::map<int, Comm*> comms;
    for (auto& [c, ranks] : members) {
      std::sort(ranks.begin(), ranks.end());  // by (key, old rank)
      std::vector<int> world_ranks;
      world_ranks.reserve(ranks.size());
      for (const auto& [k, r] : ranks) {
        (void)k;
        world_ranks.push_back(comm->world_rank(r));
      }
      comms.emplace(c, adopt_comm(std::move(world_ranks)));
    }
    return comms;
  });
  return MPI_Barrier(comm);
}

int MPI_Comm_compare(MPI_Comm comm1, MPI_Comm comm2, int* result) {
  if (!valid_comm(comm1) || !valid_comm(comm2) || result == nullptr) return MPI_ERR_COMM;
  if (comm1 == comm2) {
    *result = MPI_IDENT;
    return MPI_SUCCESS;
  }
  int group_result = MPI_UNEQUAL;
  MPI_Group g1 = nullptr;
  MPI_Group g2 = nullptr;
  MPI_Comm_group(comm1, &g1);
  MPI_Comm_group(comm2, &g2);
  MPI_Group_compare(g1, g2, &group_result);
  if (group_result == MPI_IDENT) {
    *result = MPI_CONGRUENT;
  } else {
    *result = group_result;  // SIMILAR or UNEQUAL
  }
  return MPI_SUCCESS;
}

int MPI_Comm_free(MPI_Comm* comm) {
  if (comm == nullptr || *comm == MPI_COMM_NULL) return MPI_ERR_COMM;
  if (*comm == current_process_checked().world->world_comm()) return MPI_ERR_COMM;
  *comm = MPI_COMM_NULL;  // storage reclaimed with the owning process
  return MPI_SUCCESS;
}
