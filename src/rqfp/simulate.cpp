#include "rqfp/simulate.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "rqfp/simd.hpp"

namespace rcgp::rqfp {

namespace {

/// Shared PI/constant-port initialisation of every exhaustive-simulation
/// entry point: arity check, one all-zero table per port, constant-1 on
/// kConstPort and a projection per PI. Returns the number of PIs.
unsigned init_port_tables(const Netlist& net,
                          std::vector<tt::TruthTable>& port,
                          const char* who) {
  const unsigned nv = net.num_pis();
  if (nv > tt::TruthTable::kMaxVars) {
    throw std::invalid_argument(std::string(who) + ": too many PIs");
  }
  port.assign(net.first_free_port(), tt::TruthTable(nv));
  port[kConstPort] = tt::TruthTable::constant(nv, true);
  for (unsigned i = 0; i < nv; ++i) {
    port[1 + i] = tt::TruthTable::projection(nv, i);
  }
  return nv;
}

/// Words one truth table over `nv` variables occupies.
std::size_t table_words(unsigned nv) {
  return nv >= 6 ? std::size_t{1} << (nv - 6) : 1;
}

/// Words the last exhaustive pass pushed through the gate kernels —
/// 3 output tables per evaluated gate (docs/SIMD.md digest).
void count_sim_words(std::uint64_t gates_evaluated, std::size_t words) {
  static obs::Counter& c = obs::registry().counter("sim.words");
  c.inc(3 * gates_evaluated * words);
}

/// Valid bits of the (only) word of a table over `nv` < 6 variables;
/// all ones from 6 variables up.
std::uint64_t top_word_mask(unsigned nv) {
  return nv >= 6 ? ~std::uint64_t{0}
                 : (std::uint64_t{1} << (std::uint64_t{1} << nv)) - 1;
}

/// One gate over flat rows of `words` words: inline for one word (masked
/// to the table width, as TruthTable keeps it), the SIMD gate3 kernel
/// otherwise — multi-word tables have no unused bits. Outputs must not
/// alias the inputs.
inline void eval_gate_rows(const simd::Kernels& kernels, InvConfig config,
                           const std::uint64_t* a, const std::uint64_t* b,
                           const std::uint64_t* c, std::uint64_t* o0,
                           std::uint64_t* o1, std::uint64_t* o2,
                           std::size_t words, std::uint64_t mask) {
  if (words == 1) {
    const auto o = eval_gate_words(config, *a, *b, *c);
    *o0 = o[0] & mask;
    *o1 = o[1] & mask;
    *o2 = o[2] & mask;
  } else {
    kernels.gate3(config.bits(), a, b, c, o0, o1, o2, words);
  }
}

bool rows_equal(const std::uint64_t* a, const std::uint64_t* b,
                std::size_t words) {
  return words == 1 ? *a == *b : std::equal(a, a + words, b);
}

} // namespace

std::vector<tt::TruthTable> simulate_ports(const Netlist& net) {
  std::vector<tt::TruthTable> port;
  init_port_tables(net, port, "rqfp::simulate");
  for (std::uint32_t g = 0; g < net.num_gates(); ++g) {
    const auto& gate = net.gate(g);
    // Gate outputs are always-fresh ports, so writing them in place never
    // aliases the (earlier) input ports.
    eval_gate_tables_into(gate.config, port[gate.in[0]], port[gate.in[1]],
                          port[gate.in[2]], port[net.port_of(g, 0)],
                          port[net.port_of(g, 1)], port[net.port_of(g, 2)]);
  }
  count_sim_words(net.num_gates(), table_words(net.num_pis()));
  return port;
}

std::vector<tt::TruthTable> simulate(const Netlist& net) {
  const auto port = simulate_ports(net);
  std::vector<tt::TruthTable> out;
  out.reserve(net.num_pos());
  for (std::uint32_t i = 0; i < net.num_pos(); ++i) {
    out.push_back(port[net.po_at(i)]);
  }
  return out;
}

std::vector<tt::TruthTable> simulate_live(const Netlist& net) {
  const auto live = net.live_gates();
  std::vector<tt::TruthTable> port;
  init_port_tables(net, port, "rqfp::simulate_live");
  std::uint64_t evaluated = 0;
  for (std::uint32_t g = 0; g < net.num_gates(); ++g) {
    if (!live[g]) {
      continue;
    }
    const auto& gate = net.gate(g);
    eval_gate_tables_into(gate.config, port[gate.in[0]], port[gate.in[1]],
                          port[gate.in[2]], port[net.port_of(g, 0)],
                          port[net.port_of(g, 1)], port[net.port_of(g, 2)]);
    ++evaluated;
  }
  count_sim_words(evaluated, table_words(net.num_pis()));
  std::vector<tt::TruthTable> out;
  out.reserve(net.num_pos());
  for (std::uint32_t i = 0; i < net.num_pos(); ++i) {
    out.push_back(port[net.po_at(i)]);
  }
  return out;
}

void build_sim_cache(const Netlist& net, SimCache& cache) {
  const unsigned nv = net.num_pis();
  if (nv > tt::TruthTable::kMaxVars) {
    throw std::invalid_argument("rqfp::build_sim_cache: too many PIs");
  }
  const std::size_t words = table_words(nv);
  const std::uint64_t mask = top_word_mask(nv);
  const auto& kernels = simd::kernels();
  cache.num_pis = nv;
  cache.num_gates = net.num_gates();
  cache.words = words;
  cache.values.assign(net.first_free_port() * words, 0);
  std::fill_n(cache.row(kConstPort), words, mask);
  for (unsigned i = 0; i < nv; ++i) {
    const auto proj = tt::TruthTable::projection(nv, i);
    std::copy_n(proj.data(), words, cache.row(1 + i));
  }
  for (std::uint32_t g = 0; g < net.num_gates(); ++g) {
    const auto& gate = net.gate(g);
    eval_gate_rows(kernels, gate.config, cache.row(gate.in[0]),
                   cache.row(gate.in[1]), cache.row(gate.in[2]),
                   cache.row(net.port_of(g, 0)), cache.row(net.port_of(g, 1)),
                   cache.row(net.port_of(g, 2)), words, mask);
  }
  count_sim_words(net.num_gates(), words);
}

namespace {

void check_delta_shape(const Netlist& base, const Netlist& child,
                       const SimCache& cache, const char* who) {
  if (base.num_pis() != cache.num_pis ||
      base.num_gates() != cache.num_gates) {
    throw std::invalid_argument(std::string(who) +
                                ": cache was built from a different netlist "
                                "shape");
  }
  if (child.num_pis() != base.num_pis() ||
      child.num_gates() != base.num_gates()) {
    throw std::invalid_argument(std::string(who) +
                                ": netlist shapes differ (PI or gate count)");
  }
}

} // namespace

void update_sim_cache(const Netlist& from, const Netlist& to,
                      SimCache& cache) {
  check_delta_shape(from, to, cache, "rqfp::update_sim_cache");
  const std::size_t words = cache.words;
  const std::uint64_t mask = top_word_mask(cache.num_pis);
  const auto& kernels = simd::kernels();
  cache.dirty.assign(to.first_free_port(), 0);
  cache.gate_out.resize(3 * words);
  std::uint64_t* const out = cache.gate_out.data();
  std::uint64_t evaluated = 0;
  for (std::uint32_t g = 0; g < to.num_gates(); ++g) {
    const auto& tg = to.gate(g);
    const bool gene_changed = !(tg == from.gate(g));
    const bool input_dirty = cache.dirty[tg.in[0]] != 0 ||
                             cache.dirty[tg.in[1]] != 0 ||
                             cache.dirty[tg.in[2]] != 0;
    if (!gene_changed && !input_dirty) {
      continue;
    }
    // Into scratch first: the cut-off compares against the old value.
    eval_gate_rows(kernels, tg.config, cache.row(tg.in[0]),
                   cache.row(tg.in[1]), cache.row(tg.in[2]), out, out + words,
                   out + 2 * words, words, mask);
    ++evaluated;
    for (unsigned k = 0; k < 3; ++k) {
      const Port p = to.port_of(g, k);
      const std::uint64_t* v = out + k * words;
      if (!rows_equal(v, cache.row(p), words)) {
        std::copy_n(v, words, cache.row(p));
        cache.dirty[p] = 1;
      }
    }
  }
  if (evaluated != 0) {
    count_sim_words(evaluated, words);
  }
}

namespace {

/// Fills ch.po_order with `net`'s POs in screening order: by the gate
/// that drives them, POs on a PI or the constant port first.
void order_pos_by_driver(const Netlist& net, DeltaBatch::Child& ch) {
  ch.po_order.resize(net.num_pos());
  for (std::uint32_t i = 0; i < net.num_pos(); ++i) {
    const Port p = net.po_at(i);
    ch.po_order[i] = {net.is_gate_port(p) ? net.gate_of_port(p) + 1 : 0, i};
  }
  std::sort(ch.po_order.begin(), ch.po_order.end());
}

} // namespace

void simulate_delta_batch(const Netlist& base,
                          const std::vector<const Netlist*>& children,
                          const SimCache& cache, DeltaBatch& batch,
                          std::span<const tt::TruthTable> spec) {
  // Everything is validated before the screen reads a single row.
  for (const Netlist* child : children) {
    check_delta_shape(base, *child, cache, "rqfp::simulate_delta_batch");
    if (spec.size() != child->num_pos()) {
      throw std::invalid_argument(
          "rqfp::simulate_delta_batch: spec has " +
          std::to_string(spec.size()) + " tables for " +
          std::to_string(child->num_pos()) + " POs");
    }
  }
  for (const auto& table : spec) {
    if (table.num_vars() != cache.num_pis) {
      throw std::invalid_argument(
          "rqfp::simulate_delta_batch: spec table over " +
          std::to_string(table.num_vars()) + " variables, netlist has " +
          std::to_string(cache.num_pis) + " PIs");
    }
  }
  if (batch.children.size() < children.size()) {
    batch.children.resize(children.size());
  }
  const Port num_ports = base.first_free_port();
  const std::size_t words = cache.words;
  const std::uint64_t mask = top_word_mask(cache.num_pis);
  const auto& kernels = simd::kernels();
  const auto in_pass = [](const DeltaBatch::Child& ch) {
    return !ch.rejected && ch.screened < ch.po_order.size();
  };
  // Screens the child's POs that are final once `ready` gates have run;
  // false at the first one that differs from the spec.
  const auto screen_ready = [&](DeltaBatch::Child& ch, const Netlist& net,
                                std::uint32_t ready) {
    for (; ch.screened < ch.po_order.size() &&
           ch.po_order[ch.screened].first == ready;
         ++ch.screened) {
      const std::uint32_t i = ch.po_order[ch.screened].second;
      const Port p = net.po_at(i);
      const std::uint64_t* v =
          ch.dirty[p] != 0 ? ch.overlay.data() + p * words : cache.row(p);
      if (!rows_equal(v, spec[i].data(), words)) {
        return false;
      }
    }
    return true;
  };

  std::size_t live = 0;
  for (std::size_t c = 0; c < children.size(); ++c) {
    auto& ch = batch.children[c];
    // Sized whatever the screen decides, so that a warm call allocates
    // nothing. Rows are never cleared: a row is read only after the pass
    // wrote it.
    ch.po.reserve(children[c]->num_pos());
    ch.dirty.assign(num_ports, 0);
    if (ch.overlay.size() < num_ports * words) {
      ch.overlay.resize(num_ports * words);
    }
    order_pos_by_driver(*children[c], ch);
    ch.screened = 0;
    ch.rejected = !screen_ready(ch, *children[c], 0);
    live += in_pass(ch) ? 1 : 0;
  }

  std::uint64_t evaluated = 0;
  // Gate-major: each gate's base rows are touched once for the whole
  // λ-block. Per child, a port reads its overlay row when dirty and the
  // shared (read-only) base row otherwise, in topological order. A child
  // leaves the pass when rejected or once all its POs are screened (later
  // gates feed none of them).
  for (std::uint32_t g = 0; g < base.num_gates() && live != 0; ++g) {
    const auto& bg = base.gate(g);
    const Port out0 = base.port_of(g, 0);
    for (std::size_t c = 0; c < children.size(); ++c) {
      auto& ch = batch.children[c];
      if (!in_pass(ch)) {
        continue;
      }
      const auto& tg = children[c]->gate(g);
      const bool gene_changed = !(tg == bg);
      const bool input_dirty = ch.dirty[tg.in[0]] != 0 ||
                               ch.dirty[tg.in[1]] != 0 ||
                               ch.dirty[tg.in[2]] != 0;
      if (gene_changed || input_dirty) {
        std::uint64_t* const over = ch.overlay.data();
        const auto in = [&](Port p) -> const std::uint64_t* {
          return ch.dirty[p] != 0 ? over + p * words : cache.row(p);
        };
        // Straight into the overlay rows of the gate's (fresh) output
        // ports; they only become visible once marked dirty below.
        eval_gate_rows(kernels, tg.config, in(tg.in[0]), in(tg.in[1]),
                       in(tg.in[2]), over + out0 * words,
                       over + (out0 + 1) * words, over + (out0 + 2) * words,
                       words, mask);
        ++evaluated;
        for (unsigned k = 0; k < 3; ++k) {
          const Port p = out0 + k;
          if (!rows_equal(over + p * words, cache.row(p), words)) {
            ch.dirty[p] = 1;
          }
        }
      }
      ch.rejected = !screen_ready(ch, *children[c], g + 1);
      live -= in_pass(ch) ? 0 : 1;
    }
  }
  if (evaluated != 0) {
    count_sim_words(evaluated, words);
  }

  std::uint64_t rejects = 0;
  for (std::size_t c = 0; c < children.size(); ++c) {
    auto& ch = batch.children[c];
    if (ch.rejected) {
      ch.po.clear();
      ++rejects;
      continue;
    }
    const Netlist& net = *children[c];
    ch.po.resize(net.num_pos());
    for (std::uint32_t i = 0; i < net.num_pos(); ++i) {
      const Port p = net.po_at(i);
      ch.po[i] = ch.dirty[p] != 0 ? ch.overlay.data() + p * words
                                  : cache.row(p);
    }
  }
  if (rejects != 0) {
    // Once per block, like the other per-offspring counters.
    static obs::Counter& c_rejects =
        obs::registry().counter("sim.screen_rejects");
    c_rejects.inc(rejects);
  }
}

void simulate_patterns(const Netlist& net, const SimBatch& pi, SimBatch& po,
                       SimBatch& scratch) {
  if (pi.rows() != net.num_pis()) {
    throw std::invalid_argument(
        "rqfp::simulate_patterns: netlist has " +
        std::to_string(net.num_pis()) + " PIs but the batch has " +
        std::to_string(pi.rows()) + " rows");
  }
  const std::size_t words = pi.words();
  const auto& kernels = simd::kernels();
  scratch.resize(net.first_free_port(), words);
  scratch.fill_row(kConstPort, ~std::uint64_t{0});
  for (unsigned i = 0; i < net.num_pis(); ++i) {
    std::copy(pi.row(i), pi.row(i) + words, scratch.row(1 + i));
  }
  for (std::uint32_t g = 0; g < net.num_gates(); ++g) {
    const auto& gate = net.gate(g);
    kernels.gate3(gate.config.bits(), scratch.row(gate.in[0]),
                  scratch.row(gate.in[1]), scratch.row(gate.in[2]),
                  scratch.row(net.port_of(g, 0)),
                  scratch.row(net.port_of(g, 1)),
                  scratch.row(net.port_of(g, 2)), words);
  }
  count_sim_words(net.num_gates(), words);
  po.resize(net.num_pos(), words);
  for (std::uint32_t i = 0; i < net.num_pos(); ++i) {
    const std::uint64_t* src = scratch.row(net.po_at(i));
    std::copy(src, src + words, po.row(i));
  }
}

void simulate_patterns(const Netlist& net, const SimBatch& pi, SimBatch& po) {
  SimBatch scratch;
  simulate_patterns(net, pi, po, scratch);
}

std::vector<bool> evaluate(const Netlist& net, std::uint64_t assignment) {
  std::vector<std::uint64_t> port(net.first_free_port(), 0);
  port[kConstPort] = 1;
  for (unsigned i = 0; i < net.num_pis(); ++i) {
    port[1 + i] = (assignment >> i) & 1;
  }
  for (std::uint32_t g = 0; g < net.num_gates(); ++g) {
    const auto& gate = net.gate(g);
    const auto out =
        eval_gate_words(gate.config, port[gate.in[0]] ? ~std::uint64_t{0} : 0,
                        port[gate.in[1]] ? ~std::uint64_t{0} : 0,
                        port[gate.in[2]] ? ~std::uint64_t{0} : 0);
    for (unsigned k = 0; k < 3; ++k) {
      port[net.port_of(g, k)] = out[k] & 1;
    }
  }
  std::vector<bool> result;
  result.reserve(net.num_pos());
  for (std::uint32_t i = 0; i < net.num_pos(); ++i) {
    result.push_back(port[net.po_at(i)] != 0);
  }
  return result;
}

} // namespace rcgp::rqfp
