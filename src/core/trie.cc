#include "core/trie.h"

#include <algorithm>
#include <utility>

namespace apo::core {

CandidateTrie::CandidateTrie()
{
    nodes_.emplace_back();  // the root, id 0
}

std::size_t
CandidateTrie::Probe(std::uint32_t parent, rt::TokenHash token) const
{
    // Token hashes are already well mixed; fold the parent in and mix
    // once more so small token values, and siblings of different
    // parents that share a token, still spread over the table.
    std::uint64_t h = token ^ (parent * 0x9e3779b97f4a7c15ULL);
    h = (h ^ (h >> 32)) * 0xd6e8feb86659fd93ULL;
    h ^= h >> 32;
    const std::size_t mask = extra_edges_.size() - 1;
    for (std::size_t i = h & mask;; i = (i + 1) & mask) {
        const Edge& slot = extra_edges_[i];
        if (slot.child == 0 ||
            (slot.parent == parent && slot.token == token)) {
            return i;
        }
    }
}

void
CandidateTrie::AddEdge(Node& node, rt::TokenHash token, std::uint32_t child)
{
    node.num_children += 1;
    if (node.first_child == 0) {
        node.first_token = token;
        node.first_child = child;
        return;
    }
    if (2 * (num_extra_edges_ + 1) > extra_edges_.size()) {
        // Double (from 16) and re-place every edge: load stays <= 1/2.
        std::vector<Edge> old = std::move(extra_edges_);
        extra_edges_.assign(std::max<std::size_t>(16, 2 * old.size()),
                            Edge{});
        for (const Edge& edge : old) {
            if (edge.child != 0) {
                extra_edges_[Probe(edge.parent, edge.token)] = edge;
            }
        }
    }
    extra_edges_[Probe(node.id, token)] = Edge{token, node.id, child};
    num_extra_edges_ += 1;
}

CandidateTrie::Node*
CandidateTrie::WalkOrCreate(std::span<const rt::TokenHash> tokens)
{
    Node* node = &nodes_.front();
    for (rt::TokenHash t : tokens) {
        if (const Node* child = Step(node, t)) {
            node = &nodes_[child->id];
            continue;
        }
        const auto id = static_cast<std::uint32_t>(nodes_.size());
        Node& child = nodes_.emplace_back();
        child.id = id;
        child.depth = node->depth + 1;
        AddEdge(*node, t, id);
        node = &child;
    }
    return node;
}

CandidateStats&
CandidateTrie::Insert(const std::vector<rt::TokenHash>& tokens,
                      double occurrences, std::uint64_t now,
                      double half_life)
{
    Node* node = WalkOrCreate(tokens);
    if (!node->candidate) {
        node->candidate = std::make_unique<CandidateStats>();
        node->candidate->id = next_id_++;
        node->candidate->length = tokens.size();
        ++num_candidates_;
    }
    // Refresh: decay the old count to `now`, then add the sightings.
    CandidateStats& stats = *node->candidate;
    stats.count = stats.Appearances(now, half_life) + occurrences;
    stats.last_seen = now;
    return stats;
}

void
CandidateTrie::SaveState(fault::CheckpointWriter& writer) const
{
    // Nodes carry no parent back-pointers; invert both edge levels
    // once so each candidate's token path reads off by walking up.
    std::vector<std::pair<std::uint32_t, rt::TokenHash>> up(nodes_.size());
    for (const Node& node : nodes_) {
        if (node.first_child != 0) {
            up[node.first_child] = {node.id, node.first_token};
        }
    }
    for (const Edge& edge : extra_edges_) {
        if (edge.child != 0) {
            up[edge.child] = {edge.parent, edge.token};
        }
    }
    writer.BeginSection(fault::SectionTag::kCandidateTrie);
    writer.U64(next_id_);
    writer.U64(num_candidates_);
    std::vector<rt::TokenHash> path;
    for (const Node& node : nodes_) {
        if (!node.candidate) {
            continue;
        }
        path.clear();
        for (std::uint32_t id = node.id; id != 0; id = up[id].first) {
            path.push_back(up[id].second);
        }
        std::reverse(path.begin(), path.end());
        writer.VecU64(path);
        const CandidateStats& stats = *node.candidate;
        writer.U64(stats.id);
        writer.U64(stats.length);
        writer.F64(stats.count);
        writer.U64(stats.last_seen);
        writer.U64(stats.trace_id);
        writer.U64(stats.replays);
    }
    writer.EndSection();
}

void
CandidateTrie::LoadState(fault::CheckpointReader& reader)
{
    if (nodes_.size() != 1 || num_candidates_ != 0) {
        throw fault::CheckpointError(
            "CandidateTrie::LoadState requires an empty trie");
    }
    reader.BeginSection(fault::SectionTag::kCandidateTrie);
    next_id_ = reader.U64();
    const std::uint64_t candidates = reader.U64();
    for (std::uint64_t i = 0; i < candidates; ++i) {
        const std::vector<rt::TokenHash> path = reader.VecU64();
        Node* node = WalkOrCreate(path);
        if (node->candidate != nullptr) {
            throw fault::CheckpointError(
                "checkpoint trie repeats a candidate path");
        }
        node->candidate = std::make_unique<CandidateStats>();
        CandidateStats& stats = *node->candidate;
        stats.id = reader.U64();
        stats.length = reader.U64();
        stats.count = reader.F64();
        stats.last_seen = reader.U64();
        stats.trace_id = reader.U64();
        stats.replays = reader.U64();
        ++num_candidates_;
    }
    reader.EndSection();
}

}  // namespace apo::core
