// The reconfiguration coordinator: one logical transition across N nodes.
//
// The coordinator owns the cluster-level half of the protocol
// (docs/PROTOCOL.md):
//
//   1. *Plan.* A coordinated reload validates the global target
//      architecture with the full rule engine plus the DIST-* cut rules,
//      slices it per node (dist/slice.hpp), and diffs every slice against
//      its view of that node's running snapshot. The canonical plan and
//      delta encodings (dist/plan_codec.hpp) are the unit of agreement.
//   2. *Prepare.* Every node receives its slice + delta + the post-commit
//      route table, re-validates the delta locally (DELTA-* rules, the
//      byte-exact agreement check), parks its executive at the quiescence
//      rendezvous, and votes. A PREPARE_FAIL or a straggler that misses
//      `Options::prepare_timeout` turns the transition into a clean
//      global abort — every prepared node releases with its old epoch.
//   3. *Decide.* On unanimous PREPARE_OK the coordinator commits: each
//      node applies its slice on the decision thread while its workers
//      stay parked, reports its drain audit and epoch, and resumes. The
//      coordinator's per-node snapshots advance only on COMMITTED.
//
// Coordinated *mode transitions* ride the same two-phase machinery with a
// mode name instead of a slice (a node whose filtered mode has no local
// components quiesces everything it manages — how a cluster demotion
// shuts down a whole node). DEMOTE_REQUEST frames from overloaded nodes
// are queued during waits and surfaced via poll_demote_request().
//
// Live membership (docs/MEMBERSHIP.md) rides the same machinery too: the
// coordinator holds an epoch-versioned validate::MembershipView instead
// of a frozen NodeMap, admits a joiner by re-slicing under the proposed
// map and driving an ordinary two-phase reload (the joiner's baseline is
// the empty slice), and drains a leaver symmetrically. Every decision is
// streamed as a durable STANDBY_SYNC record *before* the decision frames
// go out, so a promoted standby can redrive the last decision under a
// raised coordinator epoch; nodes fence anything older.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "comm/channel.hpp"
#include "dist/protocol.hpp"
#include "model/assembly_plan.hpp"
#include "model/metamodel.hpp"
#include "validate/distribution.hpp"
#include "validate/report.hpp"

namespace rtcf::dist {

/// Runs two-phase transitions across the attached nodes.
class ReconfigCoordinator {
 public:
  /// Coordinator knobs.
  struct Options {
    /// PREPARE phase deadline: a node that has not voted by then is a
    /// straggler and the transition aborts globally.
    rtsj::RelativeTime prepare_timeout =
        rtsj::RelativeTime::milliseconds(1000);
    /// COMMIT/ABORT acknowledgement deadline (bookkeeping only — the
    /// decision is already durable when it is sent).
    rtsj::RelativeTime decision_timeout =
        rtsj::RelativeTime::milliseconds(1000);
  };

  /// One node's verdict inside an Outcome.
  struct NodeResult {
    std::string node;          ///< Node name.
    bool prepared = false;     ///< Voted PREPARE_OK.
    bool committed = false;    ///< Acknowledged COMMIT.
    std::uint64_t epoch = 0;   ///< Node plan epoch after the transition.
    std::uint64_t drained = 0; ///< Apply-time drain audit (reloads).
    std::int64_t latency_ns = 0;  ///< Prepare-to-commit latency.
    std::string detail;        ///< Failure reason / abort acknowledgement.
  };

  /// The result of one coordinated transition.
  struct Outcome {
    bool committed = false;    ///< True when every node committed.
    std::uint64_t txn = 0;     ///< Transaction id.
    std::string reason;        ///< Why the transition aborted (when it did).
    validate::Report report;   ///< Global validation (reloads).
    std::vector<NodeResult> nodes;  ///< Per-node results, cluster order.
  };

  /// A cluster over `map` with default options (every map node must be
  /// attached before the first transition).
  explicit ReconfigCoordinator(validate::NodeMap map);
  /// A cluster over `map` with explicit options.
  ReconfigCoordinator(validate::NodeMap map, Options options);

  /// Attaches `node`'s control channel and records its launch-time
  /// snapshot: the slice of `global` assembled when the node started
  /// (the baseline every later reload is diffed against).
  void attach(const std::string& node, std::shared_ptr<comm::Channel> channel,
              const model::Architecture& global);

  /// Coordinates one atomic cluster reload onto `global_target`. Returns
  /// without touching any node when global validation (rule engine +
  /// DIST-* rules) fails or a slice has no delta *anywhere* (a cluster
  /// no-op).
  Outcome coordinate_reload(const model::Architecture& global_target);

  /// Coordinates one atomic cluster mode transition.
  Outcome coordinate_transition(const std::string& mode);

  /// Fault-injection points for the adversity drills. Each hook is
  /// consulted immediately before the named frame is sent; returning
  /// false simulates the coordinator process dying at that instant — no
  /// further frames are sent and no replies are awaited for the rest of
  /// the transition (the next coordinate_* call acts as the restarted
  /// coordinator, which must resynchronize diverged nodes via attach()).
  struct FaultHooks {
    /// Before PREPARE is sent to `node` for transaction `txn`.
    std::function<bool(const std::string& node, std::uint64_t txn)>
        before_prepare;
    /// Before the decision frame is sent to `node`; `commit` says which
    /// verdict is being distributed.
    std::function<bool(const std::string& node, std::uint64_t txn,
                       bool commit)>
        before_decision;
  };

  /// Installs (nullptr clears) the fault hooks; the pointee must outlive
  /// every coordinate_* call made while installed. When unset, the send
  /// paths pay exactly one raw-pointer null check and nothing else —
  /// audited by bench_dist_reconfig_latency.
  void set_fault_hooks(FaultHooks* hooks) noexcept { hooks_ = hooks; }

  /// Returns the oldest queued DEMOTE_REQUEST (scanning the channels for
  /// up to `wait`), or nullopt. The caller answers it with
  /// coordinate_transition(payload.mode).
  std::optional<DemotePayload> poll_demote_request(rtsj::RelativeTime wait);

  /// One queued membership request: a candidate's JOIN or a member's
  /// LEAVE, surfaced by poll_membership_request().
  struct MembershipRequest {
    bool join = false;              ///< True for JOIN, false for LEAVE.
    std::string node;               ///< Requesting node.
    std::uint64_t resync_epoch = 0; ///< JOIN: the joiner's snapshot epoch.
    std::string reason;             ///< LEAVE: operator-visible reason.
  };

  /// Registers a not-yet-admitted node's control channel so its JOIN can
  /// be received; admit_node() adopts the channel on admission.
  void stage_candidate(const std::string& node,
                       std::shared_ptr<comm::Channel> channel);

  /// Returns the oldest queued JOIN/LEAVE (scanning member and candidate
  /// channels for up to `wait`), or nullopt. The caller answers a JOIN
  /// with admit_node() and a LEAVE with drain_node().
  std::optional<MembershipRequest> poll_membership_request(
      rtsj::RelativeTime wait);

  /// Admits a staged candidate: validates the single-step membership
  /// transition (MEMBER-* rules), adopts the candidate's channel with an
  /// empty-slice baseline, then drives an ordinary two-phase reload of
  /// `global_target` under `target_map` (which may assign components to
  /// the joiner — the re-shard). The membership view advances even when
  /// the re-shard aborts: the node is then a member holding the empty
  /// slice, and a later reload re-shards onto it.
  Outcome admit_node(const std::string& node,
                     const model::Architecture& global_target,
                     validate::NodeMap target_map);

  /// Drains a member out of the cluster: two-phase reload of
  /// `global_target` under `drained_map` — which must still declare the
  /// node but assign it nothing — then, on commit, evicts the node from
  /// the membership view and detaches it. On abort the node keeps its
  /// slice and its membership.
  Outcome drain_node(const std::string& node,
                     const model::Architecture& global_target,
                     validate::NodeMap drained_map);

  /// Re-shards the cluster onto `target_map` (same member set) with a
  /// two-phase reload of `global_target`; the membership epoch advances
  /// only on commit.
  Outcome reshard(const model::Architecture& global_target,
                  validate::NodeMap target_map);

  /// Re-attaches a restarted node from its replicated canonical snapshot
  /// (dist/plan_codec bytes, decoded by the caller): the decoded plan
  /// becomes the diff baseline and `resync_epoch` (from the node's HELLO)
  /// its epoch. The resync path of docs/MEMBERSHIP.md §3.
  void resync(const std::string& node, std::shared_ptr<comm::Channel> channel,
              model::AssemblyPlan snapshot, std::uint64_t resync_epoch);

  /// Attaches the standby coordinator's feed channel. Every decision is
  /// streamed to it as a STANDBY_SYNC record before the decision frames
  /// go out (decision durable first).
  void attach_standby(std::shared_ptr<comm::Channel> channel);

  /// Fences every older coordinator: sends TAKEOVER carrying this
  /// coordinator's epoch to all attached nodes and adopts the resync
  /// epoch each node answers with (HELLO), waiting up to `wait` per node.
  /// Called by a promoted standby before redriving the last decision.
  void announce_takeover(const std::string& name, rtsj::RelativeTime wait);

  /// Re-distributes a durable decision after fail-over (presumed-abort
  /// recovery): sends COMMIT/ABORT for `txn` to every node and collects
  /// acknowledgements. Nodes that already handled or presumed-aborted the
  /// transaction answer Aborted("no such prepared transaction") — the
  /// idempotent absorb.
  Outcome redrive_decision(std::uint64_t txn, bool commit,
                           const std::string& reason);

  /// The coordinator's view of `node`'s running snapshot (advanced on
  /// COMMITTED). Exposed for tests and tooling.
  const model::AssemblyPlan& node_snapshot(const std::string& node) const;

  /// The node map this cluster currently agrees on.
  const validate::NodeMap& node_map() const noexcept { return view_.map; }

  /// The epoch-versioned membership view (docs/MEMBERSHIP.md §1).
  const validate::MembershipView& membership() const noexcept {
    return view_;
  }

  /// This coordinator's fencing epoch, stamped into every PREPARE and
  /// decision frame.
  std::uint64_t coord_epoch() const noexcept { return coord_epoch_; }
  /// Raises the fencing epoch — the promotion step of a standby takeover.
  void set_coord_epoch(std::uint64_t epoch) noexcept { coord_epoch_ = epoch; }
  /// Continues the transaction sequence of a failed predecessor.
  void set_next_txn(std::uint64_t txn) noexcept { next_txn_ = txn; }
  /// Replaces the membership view — a promoted standby installs the view
  /// from the last durable decision record.
  void set_membership(validate::MembershipView view) {
    view_ = std::move(view);
  }

 private:
  struct Peer {
    std::shared_ptr<comm::Channel> channel;
    model::AssemblyPlan snapshot;   ///< Last committed slice snapshot.
    std::uint64_t epoch = 0;        ///< Last epoch the node reported.
  };

  /// The shared two-phase body: slice `global_target` under `map`, diff,
  /// PREPARE, decide. When `adopt_on_commit` is set, the committed
  /// transition installs it as the new membership view.
  Outcome reload_under(const model::Architecture& global_target,
                       const validate::NodeMap& map,
                       const std::optional<validate::MembershipView>&
                           adopt_on_commit);
  /// Runs the decision phase shared by reloads and transitions: collects
  /// PREPARE votes until `deadline`, then commits or aborts everywhere.
  void decide(Outcome& outcome,
              const std::vector<std::string>& participants);
  /// Streams the decided verdict to the standby feed (no-op when none).
  void stream_decision(const Outcome& outcome, bool commit,
                       const std::vector<std::string>& participants);
  /// Receives the next reply for transaction `txn` from `node` (stashing
  /// demote and membership requests, dropping replies of earlier
  /// transactions) until `deadline`; false on timeout.
  bool await_reply(const std::string& node, std::uint64_t txn,
                   NodeReplyPayload& payload, std::uint16_t& type,
                   rtsj::AbsoluteTime deadline);

  validate::MembershipView view_;
  Options options_;
  std::map<std::string, Peer> peers_;
  /// Not-yet-admitted candidates' control channels (stage_candidate).
  std::map<std::string, std::shared_ptr<comm::Channel>> candidates_;
  std::deque<DemotePayload> demote_queue_;
  std::deque<MembershipRequest> membership_queue_;
  /// The standby coordinator's feed; null when no standby shadows us.
  std::shared_ptr<comm::Channel> standby_;
  std::uint64_t next_txn_ = 1;
  /// Fencing epoch (docs/MEMBERSHIP.md §5); the first coordinator of a
  /// cluster is epoch 1, every promotion claims a higher one.
  std::uint64_t coord_epoch_ = 1;
  /// Unset in production: the send paths only null-check it.
  FaultHooks* hooks_ = nullptr;
  /// A hook reported the coordinator dead mid-transition; cleared when
  /// the next transition starts (= coordinator restart).
  bool crashed_ = false;
  /// Staged post-commit snapshots of the transition in flight.
  std::map<std::string, model::AssemblyPlan> staged_;
  /// Membership view the in-flight transition installs on commit.
  std::optional<validate::MembershipView> staged_view_;
  /// Assignment the in-flight transition runs under (for STANDBY_SYNC).
  const validate::NodeMap* txn_map_ = nullptr;
};

}  // namespace rtcf::dist
