#include "research/bayes_net.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <queue>
#include <set>

#include "common/string_util.h"

namespace mosaic {
namespace stats {

namespace {

/// Binning for one table column: categorical for strings/ints/bools,
/// equi-width for doubles.
[[nodiscard]] Result<AttributeBinning> BinningForColumn(const Table& data, size_t col,
                                          size_t continuous_bins) {
  const Column& c = data.column(col);
  const std::string& name = data.schema().column(col).name;
  if (c.type() == DataType::kDouble) {
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    for (size_t r = 0; r < c.size(); ++r) {
      double x = *c.GetDouble(r);
      lo = std::min(lo, x);
      hi = std::max(hi, x);
    }
    if (hi <= lo) hi = lo + 1.0;
    return AttributeBinning::Continuous(name, lo, hi, continuous_bins);
  }
  std::set<Value> distinct;
  for (size_t r = 0; r < c.size(); ++r) distinct.insert(c.GetValue(r));
  if (distinct.empty()) {
    return Status::InvalidArgument("empty column '" + name + "'");
  }
  return AttributeBinning::Categorical(
      name, std::vector<Value>(distinct.begin(), distinct.end()));
}

}  // namespace

Result<ChowLiuTree> ChowLiuTree::Fit(const Table& data,
                                     const std::string& weight_column,
                                     const BayesNetOptions& options) {
  if (data.num_rows() == 0) {
    return Status::InvalidArgument("cannot fit BN to empty data");
  }
  // Nodes = all columns except the weight column.
  std::vector<size_t> node_cols;
  std::optional<size_t> weight_idx;
  for (size_t c = 0; c < data.num_columns(); ++c) {
    if (!weight_column.empty() &&
        EqualsIgnoreCase(data.schema().column(c).name, weight_column)) {
      weight_idx = c;
      continue;
    }
    node_cols.push_back(c);
  }
  if (node_cols.size() < 1) {
    return Status::InvalidArgument("BN needs at least one attribute");
  }

  ChowLiuTree tree;
  tree.nodes_.resize(node_cols.size());
  for (size_t i = 0; i < node_cols.size(); ++i) {
    MOSAIC_ASSIGN_OR_RETURN(
        tree.nodes_[i].binning,
        BinningForColumn(data, node_cols[i], options.continuous_bins));
    tree.nodes_[i].original_type =
        data.schema().column(node_cols[i]).type;
  }

  // Discretize all rows once.
  size_t n = data.num_rows();
  size_t d = node_cols.size();
  std::vector<std::vector<size_t>> bins(d, std::vector<size_t>(n));
  for (size_t i = 0; i < d; ++i) {
    const Column& col = data.column(node_cols[i]);
    for (size_t r = 0; r < n; ++r) {
      MOSAIC_ASSIGN_OR_RETURN(bins[i][r],
                              tree.nodes_[i].binning.BinOf(col.GetValue(r)));
    }
  }
  std::vector<double> w(n, 1.0);
  if (weight_idx) {
    const Column& wc = data.column(*weight_idx);
    for (size_t r = 0; r < n; ++r) {
      MOSAIC_ASSIGN_OR_RETURN(w[r], wc.GetDouble(r));
    }
  }

  // Pairwise mutual information.
  auto mutual_information = [&](size_t a, size_t b) {
    size_t ka = tree.nodes_[a].binning.num_bins();
    size_t kb = tree.nodes_[b].binning.num_bins();
    std::vector<double> joint(ka * kb, options.smoothing);
    std::vector<double> pa(ka, 0.0), pb(kb, 0.0);
    double total = options.smoothing * static_cast<double>(ka * kb);
    for (size_t r = 0; r < n; ++r) {
      joint[bins[a][r] * kb + bins[b][r]] += w[r];
      total += w[r];
    }
    for (size_t i = 0; i < ka; ++i) {
      for (size_t j = 0; j < kb; ++j) {
        joint[i * kb + j] /= total;
        pa[i] += joint[i * kb + j];
        pb[j] += joint[i * kb + j];
      }
    }
    double mi = 0.0;
    for (size_t i = 0; i < ka; ++i) {
      for (size_t j = 0; j < kb; ++j) {
        double p = joint[i * kb + j];
        if (p > 0.0 && pa[i] > 0.0 && pb[j] > 0.0) {
          mi += p * std::log(p / (pa[i] * pb[j]));
        }
      }
    }
    return mi;
  };

  // Prim's maximum spanning tree over MI; node 0 is the root.
  std::vector<bool> in_tree(d, false);
  std::vector<double> best_mi(d, -1.0);
  std::vector<int> best_parent(d, -1);
  in_tree[0] = true;
  for (size_t i = 1; i < d; ++i) {
    best_mi[i] = mutual_information(0, i);
    best_parent[i] = 0;
  }
  for (size_t added = 1; added < d; ++added) {
    int pick = -1;
    double pick_mi = -1.0;
    for (size_t i = 0; i < d; ++i) {
      if (!in_tree[i] && best_mi[i] > pick_mi) {
        pick = static_cast<int>(i);
        pick_mi = best_mi[i];
      }
    }
    assert(pick >= 0);
    in_tree[static_cast<size_t>(pick)] = true;
    tree.nodes_[static_cast<size_t>(pick)].parent = best_parent[pick];
    for (size_t i = 0; i < d; ++i) {
      if (!in_tree[i]) {
        double mi = mutual_information(static_cast<size_t>(pick), i);
        if (mi > best_mi[i]) {
          best_mi[i] = mi;
          best_parent[i] = pick;
        }
      }
    }
  }

  // Topological order (parents first) by BFS from the root.
  tree.topo_order_.clear();
  std::queue<size_t> frontier;
  frontier.push(0);
  while (!frontier.empty()) {
    size_t v = frontier.front();
    frontier.pop();
    tree.topo_order_.push_back(v);
    for (size_t i = 0; i < d; ++i) {
      if (tree.nodes_[i].parent == static_cast<int>(v)) frontier.push(i);
    }
  }

  // CPTs with Laplace smoothing.
  for (size_t i = 0; i < d; ++i) {
    Node& node = tree.nodes_[i];
    size_t k = node.binning.num_bins();
    node.parent_bins =
        node.parent < 0
            ? 1
            : tree.nodes_[static_cast<size_t>(node.parent)].binning.num_bins();
    node.cpt.assign(node.parent_bins * k, options.smoothing);
    for (size_t r = 0; r < n; ++r) {
      size_t pb = node.parent < 0
                      ? 0
                      : bins[static_cast<size_t>(node.parent)][r];
      node.cpt[pb * k + bins[i][r]] += w[r];
    }
    for (size_t pb = 0; pb < node.parent_bins; ++pb) {
      double row_total = 0.0;
      for (size_t b = 0; b < k; ++b) row_total += node.cpt[pb * k + b];
      for (size_t b = 0; b < k; ++b) node.cpt[pb * k + b] /= row_total;
    }
  }
  return tree;
}

const std::string& ChowLiuTree::attribute(size_t node) const {
  return nodes_[node].binning.attr();
}

const AttributeBinning& ChowLiuTree::binning(size_t node) const {
  return nodes_[node].binning;
}

Result<size_t> ChowLiuTree::NodeIndex(const std::string& attr) const {
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (EqualsIgnoreCase(nodes_[i].binning.attr(), attr)) return i;
  }
  return Status::NotFound("no BN node for attribute '" + attr + "'");
}

double ChowLiuTree::Probability(const std::vector<size_t>& bins) const {
  assert(bins.size() == nodes_.size());
  double p = 1.0;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    size_t pb = nodes_[i].parent < 0
                    ? 0
                    : bins[static_cast<size_t>(nodes_[i].parent)];
    p *= CptEntry(nodes_[i], pb, bins[i]);
  }
  return p;
}

Result<double> ChowLiuTree::MarginalProbability(
    const std::vector<std::vector<size_t>>& allowed_bins) const {
  if (allowed_bins.size() != nodes_.size()) {
    return Status::InvalidArgument(
        "allowed_bins must have one entry per node");
  }
  // Upward (child -> parent) message passing in reverse topo order.
  // message[v][pb] = sum over allowed bins b of v of
  //     p(b | pb) * prod_{c child of v} message[c][b]
  std::vector<std::vector<double>> messages(nodes_.size());
  for (size_t idx = topo_order_.size(); idx-- > 0;) {
    size_t v = topo_order_[idx];
    const Node& node = nodes_[v];
    size_t k = node.binning.num_bins();
    // Children messages indexed by this node's bin.
    std::vector<double> child_prod(k, 1.0);
    for (size_t c = 0; c < nodes_.size(); ++c) {
      if (nodes_[c].parent == static_cast<int>(v)) {
        for (size_t b = 0; b < k; ++b) child_prod[b] *= messages[c][b];
      }
    }
    const std::vector<size_t>& allowed = allowed_bins[v];
    auto bin_allowed = [&](size_t b) {
      return allowed.empty() ||
             std::find(allowed.begin(), allowed.end(), b) != allowed.end();
    };
    std::vector<double> msg(node.parent_bins, 0.0);
    for (size_t pb = 0; pb < node.parent_bins; ++pb) {
      double acc = 0.0;
      for (size_t b = 0; b < k; ++b) {
        if (!bin_allowed(b)) continue;
        acc += CptEntry(node, pb, b) * child_prod[b];
      }
      msg[pb] = acc;
    }
    messages[v] = std::move(msg);
  }
  // Root message has parent_bins == 1.
  return messages[topo_order_[0]][0];
}

Result<double> ChowLiuTree::EstimateCount(
    const std::vector<std::vector<size_t>>& allowed_bins,
    double population_size) const {
  MOSAIC_ASSIGN_OR_RETURN(double p, MarginalProbability(allowed_bins));
  return p * population_size;
}

Result<Table> ChowLiuTree::SampleRows(size_t n, Rng* rng) const {
  Schema schema;
  for (const auto& node : nodes_) {
    MOSAIC_RETURN_IF_ERROR(schema.AddColumn(
        ColumnDef{node.binning.attr(), node.original_type}));
  }
  Table out(schema);
  out.Reserve(n);
  std::vector<size_t> bins(nodes_.size());
  std::vector<Value> row(nodes_.size());
  for (size_t i = 0; i < n; ++i) {
    for (size_t v : topo_order_) {
      const Node& node = nodes_[v];
      size_t k = node.binning.num_bins();
      size_t pb =
          node.parent < 0 ? 0 : bins[static_cast<size_t>(node.parent)];
      std::vector<double> probs(k);
      for (size_t b = 0; b < k; ++b) probs[b] = CptEntry(node, pb, b);
      bins[v] = rng->Categorical(probs);
      if (node.binning.is_categorical()) {
        row[v] = node.binning.BinRepresentative(bins[v]);
      } else {
        double x = rng->Uniform(node.binning.BinLo(bins[v]),
                                node.binning.BinHi(bins[v]));
        row[v] = Value(x);
      }
    }
    MOSAIC_RETURN_IF_ERROR(out.AppendRow(row));
  }
  return out;
}

}  // namespace stats
}  // namespace mosaic
