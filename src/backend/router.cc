#include "backend/router.h"

#include <algorithm>

#include "common/fault.h"

namespace hyperq::backend {

namespace {
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}
}  // namespace

Result<RouteDecision> Router::Pick(const RouteConstraints& constraints) {
  HQ_RETURN_IF_ERROR(FaultInjector::Global()
                         .Check(faultpoints::kRouterPick)
                         .WithContext("router"));

  struct Candidate {
    int index;
    BackendHealth health;
  };
  std::vector<Candidate> eligible;
  int fallback = -1;  // an EJECTED but not killed backend; last resort
  bool digest_blocked_live_backend = false;
  for (size_t i = 0; i < pool_->size(); ++i) {
    int idx = static_cast<int>(i);
    if (std::find(constraints.exclude.begin(), constraints.exclude.end(),
                  idx) != constraints.exclude.end()) {
      continue;
    }
    BackendHealth h = pool_->health(i);
    bool ejected = h == BackendHealth::kEjected;
    if (ejected && pool_->killed(i)) continue;
    if (constraints.emitted != nullptr &&
        !pool_->CanServe(i, *constraints.emitted)) {
      continue;
    }
    if (constraints.require_profile_digest &&
        pool_->profile_digest(i) != constraints.profile_digest) {
      // Alive and capable, rejected only because it cannot honor the
      // session's journaled state — remember that for the error taxonomy.
      if (!ejected) digest_blocked_live_backend = true;
      continue;
    }
    if (ejected) {
      if (fallback < 0 || idx == constraints.sticky) fallback = idx;
      continue;
    }
    eligible.push_back({idx, h});
  }

  if (eligible.empty()) {
    if (fallback >= 0) return RouteDecision{fallback, "fallback"};
    if (digest_blocked_live_backend) {
      return Status::Unavailable(
                 "no replica matches the session's backend profile "
                 "digest ",
                 constraints.profile_digest,
                 "; journaled SET SESSION state cannot be replayed "
                 "elsewhere")
          .WithDetail(StatusDetail::kFailoverIncompatible);
    }
    return Status::Unavailable("no live backend in the pool")
        .WithDetail(StatusDetail::kBackendDown);
  }

  // Stickiness: keep the session where its state lives.
  for (const Candidate& c : eligible) {
    if (c.index == constraints.sticky) {
      return RouteDecision{c.index, "sticky"};
    }
  }
  if (eligible.size() == 1) {
    return RouteDecision{eligible[0].index, "only"};
  }

  // Healthiest tier first: HEALTHY backends take all traffic while any
  // exist; DEGRADED ones only serve as probation fallback.
  std::vector<Candidate> tier;
  for (const Candidate& c : eligible) {
    if (c.health == BackendHealth::kHealthy) tier.push_back(c);
  }
  const char* reason = "p2c";
  if (tier.empty()) {
    tier = eligible;
    reason = "probation";
  }
  if (tier.size() == 1) {
    return RouteDecision{tier[0].index, reason};
  }

  // Power-of-two-choices on a deterministic PRNG: one mixed word yields
  // both picks, so a given (seed, pick ordinal) always routes identically.
  uint64_t r = Mix64(seed_ + seq_.fetch_add(1, std::memory_order_relaxed));
  size_t a = static_cast<size_t>(r % tier.size());
  size_t b = static_cast<size_t>((r >> 32) % tier.size());
  int load_a = pool_->in_flight(tier[a].index);
  int load_b = pool_->in_flight(tier[b].index);
  size_t pick = a;
  if (load_b < load_a || (load_b == load_a && tier[b].index < tier[a].index)) {
    pick = b;
  }
  return RouteDecision{tier[pick].index, reason};
}

}  // namespace hyperq::backend
