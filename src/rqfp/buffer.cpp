#include "rqfp/buffer.hpp"

#include <algorithm>

#include "obs/span.hpp"

namespace rcgp::rqfp {

namespace {

const char* schedule_name(BufferSchedule s) {
  switch (s) {
  case BufferSchedule::kAsap:
    return "asap";
  case BufferSchedule::kAlap:
    return "alap";
  case BufferSchedule::kBest:
    return "best";
  case BufferSchedule::kOptimized:
    return "optimized";
  }
  return "?";
}

/// True when gate g participates in the schedule. A null mask means every
/// gate does (the historical plan_buffers semantics for raw netlists).
inline bool is_live(const std::uint8_t* live, std::uint32_t g) {
  return live == nullptr || live[g] != 0;
}

/// Buffer plan for an explicit level assignment (must satisfy the
/// one-stage-ahead constraints).
BufferPlan plan_for_levels(const Netlist& net,
                           const std::vector<std::uint32_t>& level,
                           std::uint32_t depth) {
  BufferPlan plan;
  plan.depth = depth;
  plan.gate_edges.assign(net.num_gates(), {0, 0, 0});
  for (std::uint32_t g = 0; g < net.num_gates(); ++g) {
    for (unsigned i = 0; i < 3; ++i) {
      const Port p = net.gate(g).in[i];
      if (net.is_const_port(p)) {
        continue;
      }
      const std::uint32_t src =
          net.is_gate_port(p) ? level[net.gate_of_port(p)] : 0;
      plan.gate_edges[g][i] = level[g] - 1 - src;
      plan.total += plan.gate_edges[g][i];
    }
  }
  plan.po_edges.assign(net.num_pos(), 0);
  for (std::uint32_t o = 0; o < net.num_pos(); ++o) {
    const Port p = net.po_at(o);
    if (net.is_const_port(p)) {
      continue;
    }
    const std::uint32_t src =
        net.is_gate_port(p) ? level[net.gate_of_port(p)] : 0;
    plan.po_edges[o] = depth - src;
    plan.total += plan.po_edges[o];
  }
  return plan;
}

} // namespace

std::uint32_t BufferScheduler::total_for(
    const Netlist& net, const std::uint8_t* live,
    const std::vector<std::uint32_t>& level, std::uint32_t depth) const {
  std::uint32_t total = 0;
  for (std::uint32_t g = 0; g < net.num_gates(); ++g) {
    if (!is_live(live, g)) {
      continue;
    }
    for (const Port p : net.gate(g).in) {
      if (net.is_const_port(p)) {
        continue;
      }
      const std::uint32_t src =
          net.is_gate_port(p) ? level[net.gate_of_port(p)] : 0;
      total += level[g] - 1 - src;
    }
  }
  for (std::uint32_t o = 0; o < net.num_pos(); ++o) {
    const Port p = net.po_at(o);
    if (net.is_const_port(p)) {
      continue;
    }
    const std::uint32_t src =
        net.is_gate_port(p) ? level[net.gate_of_port(p)] : 0;
    total += depth - src;
  }
  return total;
}

void BufferScheduler::alap_levels(const Netlist& net,
                                  const std::uint8_t* live,
                                  const std::vector<std::uint32_t>& level,
                                  std::uint32_t depth) {
  const std::uint32_t n = net.num_gates();
  latest_.assign(n, 0);
  constrained_.assign(n, 0);
  alap_.resize(n);
  if (n == 0) {
    return;
  }
  // Latest stage each gate may occupy: one before its earliest consumer;
  // PO drivers may sit at the final stage.
  for (std::uint32_t i = 0; i < net.num_pos(); ++i) {
    const Port p = net.po_at(i);
    if (net.is_gate_port(p)) {
      const std::uint32_t g = net.gate_of_port(p);
      latest_[g] = constrained_[g] ? std::min(latest_[g], depth) : depth;
      constrained_[g] = 1;
    }
  }
  for (std::uint32_t g = n; g-- > 0;) {
    if (!is_live(live, g)) {
      continue; // dead gates constrain nothing under a mask
    }
    const std::uint32_t self =
        constrained_[g] ? latest_[g] : level[g]; // dead gates keep ASAP
    for (const Port p : net.gate(g).in) {
      if (!net.is_gate_port(p)) {
        continue;
      }
      const std::uint32_t src = net.gate_of_port(p);
      const std::uint32_t bound = self - 1;
      latest_[src] = constrained_[src] ? std::min(latest_[src], bound) : bound;
      constrained_[src] = 1;
    }
  }
  for (std::uint32_t g = 0; g < n; ++g) {
    // Slack is non-negative for live gates, so the latest stage is never
    // earlier than ASAP; unconstrained (dead) gates keep their ASAP level.
    alap_[g] = constrained_[g] ? std::max(level[g], latest_[g]) : level[g];
  }
}

std::uint32_t BufferScheduler::alap_total(
    const Netlist& net, const std::uint8_t* live,
    const std::vector<std::uint32_t>& level, std::uint32_t depth) {
  const std::uint32_t n = net.num_gates();
  latest_.assign(n, 0);
  constrained_.assign(n, 0);
  alap_.resize(n);
  std::uint32_t total = 0;
  if (n == 0) {
    for (std::uint32_t o = 0; o < net.num_pos(); ++o) {
      if (!net.is_const_port(net.po_at(o))) {
        total += depth; // PI-bound POs buffer down from stage 0
      }
    }
    return total;
  }
  for (std::uint32_t i = 0; i < net.num_pos(); ++i) {
    const Port p = net.po_at(i);
    if (net.is_gate_port(p)) {
      const std::uint32_t g = net.gate_of_port(p);
      latest_[g] = constrained_[g] ? std::min(latest_[g], depth) : depth;
      constrained_[g] = 1;
    }
  }
  for (std::uint32_t g = n; g-- > 0;) {
    if (!is_live(live, g)) {
      continue;
    }
    const std::uint32_t self = constrained_[g] ? latest_[g] : level[g];
    for (const Port p : net.gate(g).in) {
      if (!net.is_gate_port(p)) {
        continue;
      }
      const std::uint32_t src = net.gate_of_port(p);
      const std::uint32_t bound = self - 1;
      latest_[src] = constrained_[src] ? std::min(latest_[src], bound) : bound;
      constrained_[src] = 1;
    }
  }
  // Final levels and the buffer total in one ascending pass: feed-forward
  // ordering makes each gate's sources final before the gate is priced.
  for (std::uint32_t g = 0; g < n; ++g) {
    alap_[g] = constrained_[g] ? std::max(level[g], latest_[g]) : level[g];
    if (!is_live(live, g)) {
      continue;
    }
    for (const Port p : net.gate(g).in) {
      if (net.is_const_port(p)) {
        continue;
      }
      const std::uint32_t src =
          net.is_gate_port(p) ? alap_[net.gate_of_port(p)] : 0;
      total += alap_[g] - 1 - src;
    }
  }
  for (std::uint32_t o = 0; o < net.num_pos(); ++o) {
    const Port p = net.po_at(o);
    if (net.is_const_port(p)) {
      continue;
    }
    const std::uint32_t src =
        net.is_gate_port(p) ? alap_[net.gate_of_port(p)] : 0;
    total += depth - src;
  }
  return total;
}

void BufferScheduler::build_consumers(const Netlist& net,
                                      const std::uint8_t* live) {
  const std::uint32_t n = net.num_gates();
  consumer_off_.assign(n + 1, 0);
  po_fanin_.assign(n, 0);
  slope_.assign(n, 0); // accumulates non-constant input counts first
  for (std::uint32_t g = 0; g < n; ++g) {
    if (!is_live(live, g)) {
      continue; // a live gate may feed a dead one; that edge is unpriced
    }
    for (const Port p : net.gate(g).in) {
      if (!net.is_const_port(p)) {
        ++slope_[g];
      }
      if (net.is_gate_port(p)) {
        ++consumer_off_[net.gate_of_port(p) + 1];
      }
    }
  }
  for (std::uint32_t g = 0; g < n; ++g) {
    consumer_off_[g + 1] += consumer_off_[g];
  }
  // Every gate input is at most one edge: reserving for all of them keeps
  // later (denser) live subnetworks of the same shape allocation-free.
  consumers_.reserve(3 * std::size_t{n});
  consumers_.resize(consumer_off_[n]);
  cursor_.assign(consumer_off_.begin(), consumer_off_.end() - 1);
  for (std::uint32_t g = 0; g < n; ++g) {
    if (!is_live(live, g)) {
      continue;
    }
    for (const Port p : net.gate(g).in) {
      if (net.is_gate_port(p)) {
        consumers_[cursor_[net.gate_of_port(p)]++] = g;
      }
    }
  }
  for (std::uint32_t o = 0; o < net.num_pos(); ++o) {
    const Port p = net.po_at(o);
    if (net.is_gate_port(p)) {
      ++po_fanin_[net.gate_of_port(p)];
    }
  }
  // Descent cost slope: +1 per non-constant input per stage later, -1 per
  // consumer edge and per bound PO. Invariant across descent rounds, so it
  // is computed once here rather than per evaluation.
  for (std::uint32_t g = 0; g < n; ++g) {
    slope_[g] -= static_cast<std::int32_t>(consumer_off_[g + 1] -
                                           consumer_off_[g]) +
                 static_cast<std::int32_t>(po_fanin_[g]);
  }
}

std::int64_t BufferScheduler::optimized_levels(
    const Netlist& net, const std::uint8_t* live,
    const std::vector<std::uint32_t>& level, std::uint32_t depth) {
  const std::uint32_t n = net.num_gates();
  opt_.assign(level.begin(), level.end()); // ASAP start
  // Coordinate descent: each gate moves within [earliest, latest] given
  // its neighbours' current levels; the incident-buffer cost is linear in
  // the gate's level (coefficient slope_), so the optimum is at one of the
  // two bounds, and each accepted move shifts the buffer total by exactly
  // slope_ * (target - current) — accumulated below instead of re-priced.
  //
  // An evaluation is a guaranteed no-op when no neighbour moved since the
  // gate was last evaluated (same bounds, same precomputed slope, same
  // decision), and slope-0 gates never move at all — both are skipped
  // outright. From an ASAP start a slope>0 gate's target *is* its current
  // level (earliest == ASAP), so only slope<0 gates seed the dirty set.
  // The ascending in-round order over the remaining gates is the
  // historical one, so the produced levels are bit-identical.
  std::int64_t total_delta = 0;
  dirty_.resize(n);
  for (std::uint32_t g = 0; g < n; ++g) {
    dirty_[g] = slope_[g] < 0 ? 1 : 0;
  }
  for (unsigned round = 0; round < 16; ++round) {
    bool changed = false;
    for (std::uint32_t g = 0; g < n; ++g) {
      if (!dirty_[g] || slope_[g] == 0 || !is_live(live, g)) {
        continue;
      }
      dirty_[g] = 0;
      std::uint32_t earliest = 1;
      for (const Port p : net.gate(g).in) {
        // PI and constant ports pin nothing beyond stage 1.
        if (net.is_gate_port(p)) {
          earliest = std::max(earliest, opt_[net.gate_of_port(p)] + 1);
        }
      }
      const std::uint32_t ncons = consumer_off_[g + 1] - consumer_off_[g];
      std::uint32_t latest =
          po_fanin_[g] > 0 || ncons == 0 ? depth : 0xFFFFFFFFu;
      for (std::uint32_t i = consumer_off_[g]; i < consumer_off_[g + 1];
           ++i) {
        latest = std::min(latest, opt_[consumers_[i]] - 1);
      }
      const std::uint32_t target = slope_[g] > 0 ? earliest : latest;
      if (target != opt_[g] && target >= earliest && target <= latest) {
        total_delta += static_cast<std::int64_t>(slope_[g]) *
                       (static_cast<std::int64_t>(target) -
                        static_cast<std::int64_t>(opt_[g]));
        opt_[g] = target;
        changed = true;
        // Only this gate's producers and consumers see different bounds
        // from here on.
        for (const Port p : net.gate(g).in) {
          if (net.is_gate_port(p)) {
            dirty_[net.gate_of_port(p)] = 1;
          }
        }
        for (std::uint32_t i = consumer_off_[g]; i < consumer_off_[g + 1];
             ++i) {
          dirty_[consumers_[i]] = 1;
        }
      }
    }
    if (!changed) {
      break;
    }
  }
  return total_delta;
}

BufferPlan BufferScheduler::plan(const Netlist& net, BufferSchedule schedule) {
  obs::Span span("buffer.plan");
  span.arg("schedule", schedule_name(schedule))
      .arg("gates", net.num_gates());
  net.gate_levels(asap_);
  const std::uint32_t depth = net.depth(asap_);
  switch (schedule) {
  case BufferSchedule::kAsap:
    return plan_for_levels(net, asap_, depth);
  case BufferSchedule::kAlap:
    alap_levels(net, nullptr, asap_, depth);
    return plan_for_levels(net, alap_, depth);
  case BufferSchedule::kBest: {
    const std::uint32_t asap_total = total_for(net, nullptr, asap_, depth);
    alap_levels(net, nullptr, asap_, depth);
    const std::uint32_t alap_total = total_for(net, nullptr, alap_, depth);
    // Tie-break: ASAP wins ties (strict `<`), as plan_buffers always has.
    return plan_for_levels(net, alap_total < asap_total ? alap_ : asap_,
                           depth);
  }
  case BufferSchedule::kOptimized:
    break;
  }
  // kOptimized: the ALAP bounds, consumer CSR, and PO-fanin counts are
  // each built once and shared between the kBest baseline and the
  // coordinate-descent pass.
  const std::uint32_t asap_total = total_for(net, nullptr, asap_, depth);
  alap_levels(net, nullptr, asap_, depth);
  const std::uint32_t alap_total = total_for(net, nullptr, alap_, depth);
  const std::vector<std::uint32_t>& best_lv =
      alap_total < asap_total ? alap_ : asap_;
  const std::uint32_t best_total = std::min(asap_total, alap_total);
  build_consumers(net, nullptr);
  const std::int64_t descent_delta = optimized_levels(net, nullptr, asap_, depth);
  const std::uint32_t opt_total =
      static_cast<std::uint32_t>(asap_total + descent_delta);
  return plan_for_levels(net, opt_total < best_total ? opt_ : best_lv, depth);
}

std::uint32_t BufferScheduler::masked_total(
    const Netlist& net, const std::vector<std::uint8_t>& live,
    const std::vector<std::uint32_t>& level, std::uint32_t depth,
    BufferSchedule schedule) {
  const std::uint8_t* mask = live.data();
  switch (schedule) {
  case BufferSchedule::kAsap:
    return total_for(net, mask, level, depth);
  case BufferSchedule::kAlap:
    return alap_total(net, mask, level, depth);
  case BufferSchedule::kBest:
    return std::min(total_for(net, mask, level, depth),
                    alap_total(net, mask, level, depth));
  case BufferSchedule::kOptimized:
    break;
  }
  const std::uint32_t asap_t = total_for(net, mask, level, depth);
  const std::uint32_t alap_t = alap_total(net, mask, level, depth);
  build_consumers(net, mask);
  const std::uint32_t opt_t = static_cast<std::uint32_t>(
      asap_t + optimized_levels(net, mask, level, depth));
  return std::min(opt_t, std::min(asap_t, alap_t));
}

std::size_t BufferScheduler::scratch_bytes() const {
  return (asap_.capacity() + alap_.capacity() + opt_.capacity() +
          latest_.capacity() + consumer_off_.capacity() +
          consumers_.capacity() + cursor_.capacity() + po_fanin_.capacity()) *
             sizeof(std::uint32_t) +
         slope_.capacity() * sizeof(std::int32_t) +
         (constrained_.capacity() + dirty_.capacity()) * sizeof(std::uint8_t);
}

BufferPlan plan_buffers(const Netlist& net, BufferSchedule schedule) {
  BufferScheduler scheduler;
  return scheduler.plan(net, schedule);
}

std::uint32_t count_buffers(const Netlist& net, BufferSchedule schedule) {
  return plan_buffers(net, schedule).total;
}

} // namespace rcgp::rqfp
