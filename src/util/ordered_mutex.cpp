#include "util/ordered_mutex.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace dynasparse {

const char* lock_rank_name(LockRank r) {
  switch (r) {
    case LockRank::kNetServerLifecycle: return "kNetServerLifecycle";
    case LockRank::kNetClientSend: return "kNetClientSend";
    case LockRank::kNetClientRecv: return "kNetClientRecv";
    case LockRank::kServiceWorkers: return "kServiceWorkers";
    case LockRank::kServiceSlots: return "kServiceSlots";
    case LockRank::kBatchGroups: return "kBatchGroups";
    case LockRank::kWorkQueue: return "kWorkQueue";
    case LockRank::kResultCache: return "kResultCache";
    case LockRank::kCompileCache: return "kCompileCache";
    case LockRank::kPlanStore: return "kPlanStore";
    case LockRank::kTilePool: return "kTilePool";
    case LockRank::kPoolDeque: return "kPoolDeque";
    case LockRank::kPoolIdle: return "kPoolIdle";
    case LockRank::kPoolJoin: return "kPoolJoin";
    case LockRank::kPoolError: return "kPoolError";
    case LockRank::kMemoryBudget: return "kMemoryBudget";
    case LockRank::kFaultInjector: return "kFaultInjector";
    case LockRank::kNetServerStats: return "kNetServerStats";
  }
  return "rank(?)";
}

namespace {

struct Held {
  const void* mu;
  LockRank rank;
};

/// Per-thread held-lock stack. Deliberately a trivially-destructible
/// fixed array, NOT a vector: a thread_local with a destructor is torn
/// down by __call_tls_dtors BEFORE exit() runs static destructors, and a
/// static object whose destructor takes an OrderedMutex (a service
/// shutting down at exit, the pool singleton joining its workers) would
/// then write into freed storage. Trivial TLS registers no destructor,
/// so the storage stays valid for the whole thread lifetime. Depth 16
/// dwarfs the deepest real chain (3); overflow entries are not recorded
/// (the rank CHECK still runs against everything that is).
struct HeldStack {
  Held items[16];
  int size = 0;
};

HeldStack& held_stack() {
  thread_local HeldStack stack;
  return stack;
}

/// One observed "held `from` while acquiring `to`" edge, with the first
/// full chain (and thread) that recorded it — the "other stack" an
/// inversion report shows.
struct EdgeRecord {
  std::string chain;
  std::string thread;
};

// Immortal (intentionally leaked) so locks taken from static
// destructors can still consult the graph safely.
std::mutex& graph_mu() {
  static std::mutex* mu = new std::mutex;
  return *mu;
}

std::map<std::pair<int, int>, EdgeRecord>& graph() {
  static auto* g = new std::map<std::pair<int, int>, EdgeRecord>;
  return *g;
}

std::string thread_desc() {
  std::ostringstream os;
  os << std::this_thread::get_id();
  return os.str();
}

std::string rank_desc(LockRank r) {
  std::ostringstream os;
  os << lock_rank_name(r) << "(" << static_cast<int>(r) << ")";
  return os.str();
}

std::string chain_desc(const HeldStack& held, LockRank acquiring) {
  std::ostringstream os;
  for (int i = 0; i < held.size; ++i) os << rank_desc(held.items[i].rank) << " -> ";
  os << "ACQUIRING " << rank_desc(acquiring);
  return os.str();
}

void default_handler(const LockOrderViolation& v) {
  std::fprintf(stderr, "%s\n", v.report);
  std::fflush(stderr);
  std::abort();
}

std::atomic<LockOrderHandler> g_handler{&default_handler};

/// DFS helper for find_path; graph_mu() held. `path` holds the nodes
/// from the search root to `node` inclusive.
bool dfs_path(int node, int to, std::vector<int>& path,
              std::vector<int>& visited) {
  if (node == to) return true;
  const auto& g = graph();
  for (auto it = g.lower_bound({node, 0});
       it != g.end() && it->first.first == node; ++it) {
    const int child = it->first.second;
    bool seen = false;
    for (int v : visited)
      if (v == child) { seen = true; break; }
    if (seen) continue;
    visited.push_back(child);
    path.push_back(child);
    if (dfs_path(child, to, path, visited)) return true;
    path.pop_back();
  }
  return false;
}

/// Path `from` ~> `to` through the recorded acquisition graph (both
/// endpoints included), or empty when unreachable. graph_mu() held.
std::vector<int> find_path(int from, int to) {
  std::vector<int> path{from};
  std::vector<int> visited{from};
  if (dfs_path(from, to, path, visited)) return path;
  return {};
}

}  // namespace

LockOrderHandler set_lock_order_handler(LockOrderHandler h) {
  return g_handler.exchange(h ? h : &default_handler);
}

void reset_lock_order_graph() {
  std::lock_guard<std::mutex> g(graph_mu());
  graph().clear();
}

namespace detail {

void lock_order_check_acquire(const void* mu, LockRank rank) {
  HeldStack& held = held_stack();
  if (held.size == 0) return;

  const std::string this_chain = chain_desc(held, rank);
  const std::string this_thread = thread_desc();

  struct Pending {
    LockOrderViolation::Kind kind;
    std::string report;
  };
  std::vector<Pending> violations;

  {
    std::lock_guard<std::mutex> g(graph_mu());
    bool well_ordered = true;
    for (int i = 0; i < held.size; ++i)
      well_ordered &= static_cast<int>(held.items[i].rank) < static_cast<int>(rank);
    // Only well-ordered acquisitions enter the graph: a violating edge is
    // reported right here, and recording it would make every LATER legal
    // use of the correct order re-report the same bug as a 2-cycle.
    if (well_ordered) {
      for (int i = 0; i < held.size; ++i) {
        const Held& h = held.items[i];
        EdgeRecord& e = graph()[{static_cast<int>(h.rank), static_cast<int>(rank)}];
        if (e.chain.empty()) {
          e.chain = this_chain;
          e.thread = this_thread;
        }
      }
    }

    for (int i = 0; i < held.size; ++i) {
      const Held& h = held.items[i];
      if (static_cast<int>(h.rank) < static_cast<int>(rank)) continue;
      std::ostringstream os;
      if (h.rank == rank && h.mu == mu) {
        os << "lock-order violation: re-acquiring " << rank_desc(rank)
           << " already held by this thread (non-recursive mutex)\n";
      } else {
        os << "lock-order violation: acquiring " << rank_desc(rank)
           << " while holding " << rank_desc(h.rank) << "\n";
      }
      os << "  this thread " << this_thread << ": " << this_chain;
      auto rev = graph().find({static_cast<int>(rank), static_cast<int>(h.rank)});
      if (rev != graph().end()) {
        os << "\n  opposite order recorded by thread " << rev->second.thread
           << ": " << rev->second.chain;
      }
      violations.push_back({LockOrderViolation::Kind::kRankOrder, os.str()});
      break;  // one rank report per acquisition is enough
    }

    // Cycle check: holding h while acquiring `rank` is an implicit
    // h -> rank edge; a recorded path rank ~> h closes a cycle. Paths of
    // length 2 (a direct rank -> h edge) are just the mirror of a plain
    // inversion — the rank check above already reported those — so only
    // genuine multi-edge cycles (3+ ranks) report here.
    for (int i = 0; i < held.size; ++i) {
      const Held& h = held.items[i];
      if (h.rank == rank) continue;
      std::vector<int> path =
          find_path(static_cast<int>(rank), static_cast<int>(h.rank));
      if (path.size() < 3) continue;
      std::ostringstream os;
      os << "lock-order cycle in the observed acquisition graph: ";
      for (int r : path) os << rank_desc(static_cast<LockRank>(r)) << " -> ";
      os << rank_desc(rank) << "\n";
      for (std::size_t p = 0; p + 1 < path.size(); ++p) {
        auto e = graph().find({path[p], path[p + 1]});
        if (e != graph().end())
          os << "  edge " << rank_desc(static_cast<LockRank>(path[p])) << " -> "
             << rank_desc(static_cast<LockRank>(path[p + 1])) << " recorded by thread "
             << e->second.thread << ": " << e->second.chain << "\n";
      }
      os << "  closing edge recorded by this thread " << this_thread << ": "
         << this_chain;
      violations.push_back({LockOrderViolation::Kind::kCycle, os.str()});
      break;
    }
  }

  LockOrderHandler handler = g_handler.load();
  for (const Pending& p : violations) {
    LockOrderViolation v;
    v.kind = p.kind;
    v.acquiring = rank;
    v.report = p.report.c_str();
    handler(v);  // may throw (tests) or abort (default)
  }
}

void lock_order_note_acquired(const void* mu, LockRank rank) {
  HeldStack& held = held_stack();
  if (held.size < static_cast<int>(sizeof(held.items) / sizeof(held.items[0])))
    held.items[held.size++] = {mu, rank};
}

void lock_order_note_released(const void* mu) {
  HeldStack& held = held_stack();
  for (int i = held.size - 1; i >= 0; --i) {
    if (held.items[i].mu == mu) {
      for (int j = i; j + 1 < held.size; ++j) held.items[j] = held.items[j + 1];
      --held.size;
      return;
    }
  }
}

}  // namespace detail

}  // namespace dynasparse
