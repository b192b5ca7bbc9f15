#include "dist/coordinator.hpp"

#include <chrono>
#include <stdexcept>
#include <thread>

#include "dist/plan_codec.hpp"
#include "dist/slice.hpp"
#include "reconfig/plan_delta.hpp"
#include "soleil/plan.hpp"
#include "validate/validator.hpp"

namespace rtcf::dist {

using model::AssemblyPlan;
using validate::NodeMap;
using validate::Severity;

ReconfigCoordinator::ReconfigCoordinator(NodeMap map)
    : ReconfigCoordinator(std::move(map), Options()) {}

ReconfigCoordinator::ReconfigCoordinator(NodeMap map, Options options)
    : options_(std::move(options)) {
  view_.map = std::move(map);
}

void ReconfigCoordinator::attach(const std::string& node,
                                 std::shared_ptr<comm::Channel> channel,
                                 const model::Architecture& global) {
  if (!view_.map.has_node(node)) {
    throw std::invalid_argument("attach: undeclared node '" + node + "'");
  }
  Peer peer;
  peer.channel = std::move(channel);
  peer.snapshot =
      soleil::snapshot_assembly(slice_architecture(global, view_.map, node),
                                /*partitions=*/1);
  peers_[node] = std::move(peer);
}

void ReconfigCoordinator::stage_candidate(
    const std::string& node, std::shared_ptr<comm::Channel> channel) {
  candidates_[node] = std::move(channel);
}

void ReconfigCoordinator::resync(const std::string& node,
                                 std::shared_ptr<comm::Channel> channel,
                                 model::AssemblyPlan snapshot,
                                 std::uint64_t resync_epoch) {
  if (!view_.map.has_node(node)) {
    throw std::invalid_argument("resync: undeclared node '" + node + "'");
  }
  Peer peer;
  peer.channel = std::move(channel);
  peer.snapshot = std::move(snapshot);
  peer.epoch = resync_epoch;
  peers_[node] = std::move(peer);
}

void ReconfigCoordinator::attach_standby(
    std::shared_ptr<comm::Channel> channel) {
  standby_ = std::move(channel);
}

const AssemblyPlan& ReconfigCoordinator::node_snapshot(
    const std::string& node) const {
  auto it = peers_.find(node);
  if (it == peers_.end()) {
    throw std::invalid_argument("node_snapshot: unattached node '" + node +
                                "'");
  }
  return it->second.snapshot;
}

bool ReconfigCoordinator::await_reply(const std::string& node,
                                      std::uint64_t txn,
                                      NodeReplyPayload& payload,
                                      std::uint16_t& type,
                                      rtsj::AbsoluteTime deadline) {
  Peer& peer = peers_.at(node);
  auto& clock = rtsj::SteadyClock::instance();
  for (;;) {
    const rtsj::AbsoluteTime now = clock.now();
    if (now >= deadline) return false;
    comm::Frame frame;
    if (!peer.channel->receive(frame, deadline - now)) return false;
    switch (static_cast<FrameType>(frame.type)) {
      case FrameType::DemoteRequest:
        try {
          demote_queue_.push_back(parse_demote(frame));
        } catch (const WireError&) {
        }
        continue;
      case FrameType::Join:
        try {
          const JoinPayload join = parse_join(frame);
          membership_queue_.push_back(
              {true, join.node, join.resync_epoch, std::string()});
        } catch (const WireError&) {
        }
        continue;
      case FrameType::Leave:
        try {
          const LeavePayload leave = parse_leave(frame);
          membership_queue_.push_back({false, leave.node, 0, leave.reason});
        } catch (const WireError&) {
        }
        continue;
      case FrameType::Hello:
        continue;  // attach-time greeting, no state
      case FrameType::PrepareOk:
      case FrameType::PrepareFail:
      case FrameType::Committed:
      case FrameType::Aborted:
        try {
          payload = parse_node_reply(frame);
        } catch (const WireError&) {
          continue;
        }
        if (payload.txn != txn) {
          // A straggler of an earlier transaction (late vote, unsolicited
          // presumed-abort notice): record the epoch, drop the frame —
          // it must never be mistaken for the current transaction's
          // reply.
          peer.epoch = payload.epoch;
          continue;
        }
        type = frame.type;
        peer.epoch = payload.epoch;
        return true;
      default:
        continue;  // not coordinator-bound; skip
    }
  }
}

ReconfigCoordinator::Outcome ReconfigCoordinator::coordinate_reload(
    const model::Architecture& global_target) {
  return reload_under(global_target, view_.map, std::nullopt);
}

ReconfigCoordinator::Outcome ReconfigCoordinator::reshard(
    const model::Architecture& global_target, NodeMap target_map) {
  const validate::MembershipView proposed =
      view_.reshard(std::move(target_map));
  const validate::Report member_report = validate_membership(view_, proposed);
  if (!member_report.ok()) {
    Outcome outcome;
    outcome.report = member_report;
    outcome.reason = "membership validation failed";
    return outcome;
  }
  return reload_under(global_target, proposed.map, proposed);
}

ReconfigCoordinator::Outcome ReconfigCoordinator::admit_node(
    const std::string& node, const model::Architecture& global_target,
    NodeMap target_map) {
  Outcome outcome;
  auto candidate = candidates_.find(node);
  if (candidate == candidates_.end()) {
    outcome.reason = "no staged candidate '" + node + "'";
    return outcome;
  }
  const validate::MembershipView admitted = view_.admit(node);
  outcome.report = validate_membership(view_, admitted);
  if (!outcome.report.ok()) {
    outcome.reason = "membership validation failed";
    return outcome;
  }
  // Admission itself is epoch-advancing and unconditional: the joiner
  // becomes a member holding the empty slice — exactly the baseline the
  // re-shard below diffs its target against.
  view_ = admitted;
  Peer peer;
  peer.channel = std::move(candidate->second);
  peer.snapshot = soleil::snapshot_assembly(
      slice_architecture(global_target, view_.map, node), /*partitions=*/1);
  peers_[node] = std::move(peer);
  candidates_.erase(candidate);
  return reshard(global_target, std::move(target_map));
}

ReconfigCoordinator::Outcome ReconfigCoordinator::drain_node(
    const std::string& node, const model::Architecture& global_target,
    NodeMap drained_map) {
  Outcome outcome;
  if (!view_.map.has_node(node)) {
    outcome.reason = "drain_node: '" + node + "' is not a member";
    return outcome;
  }
  for (const auto& [component, owner] : drained_map.assignment) {
    if (owner == node) {
      outcome.reason = "drained map still assigns '" + component + "' to '" +
                       node + "'";
      return outcome;
    }
  }
  // Step 1: re-shard the departing node's slice away (it stays a member
  // so the two-phase reload still reaches it and empties it).
  outcome = reshard(global_target, std::move(drained_map));
  if (!outcome.committed) return outcome;
  // Step 2: evict the drained member — a pure view change, no slices
  // move. MEMBER-DRAIN-FIRST is satisfied by construction now.
  view_ = view_.evict(node);
  peers_.erase(node);
  return outcome;
}

ReconfigCoordinator::Outcome ReconfigCoordinator::reload_under(
    const model::Architecture& global_target, const NodeMap& map,
    const std::optional<validate::MembershipView>& adopt_on_commit) {
  Outcome outcome;
  outcome.txn = next_txn_++;
  crashed_ = false;  // a new transition = a (re)started coordinator
  staged_view_ = adopt_on_commit;
  txn_map_ = &map;

  // Phase 0: global validation — the full rule engine on the target
  // architecture, plus the DIST-* cut rules under the node map.
  outcome.report = validate::validate(global_target);
  const AssemblyPlan global_plan =
      soleil::snapshot_assembly(global_target, /*partitions=*/1);
  const validate::Report dist_report =
      validate_distribution(global_plan, map);
  for (const auto& d : dist_report.diagnostics()) {
    outcome.report.add(d.severity, d.rule, d.subject, d.message);
  }
  if (!outcome.report.ok()) {
    outcome.reason = "global validation failed";
    staged_view_.reset();
    txn_map_ = nullptr;
    return outcome;
  }

  // Every node must be attached *before* the first PREPARE goes out: a
  // transition partially announced and then dropped would leave the
  // early nodes parked at the rendezvous with nobody to decide.
  for (const std::string& node : map.nodes) {
    if (peers_.find(node) == peers_.end()) {
      outcome.reason = "node '" + node + "' is not attached";
      staged_view_.reset();
      txn_map_ = nullptr;
      return outcome;
    }
  }

  // Phase 1: slice, diff, PREPARE. The staged snapshots become the new
  // baseline only when the whole cluster commits.
  staged_.clear();
  const std::vector<GatewayRoute> routes =
      compute_routes(global_target, map);
  bool any_delta = false;
  std::vector<std::string> participants;
  for (const std::string& node : map.nodes) {
    auto it = peers_.find(node);
    AssemblyPlan target = soleil::snapshot_assembly(
        slice_architecture(global_target, map, node), /*partitions=*/1);
    const reconfig::PlanDelta delta =
        reconfig::diff_plans(it->second.snapshot, target);
    if (!delta.empty()) any_delta = true;
    PrepareReloadPayload payload;
    payload.txn = outcome.txn;
    payload.expect_epoch = it->second.epoch;  // 0 before the first reply
    payload.plan = encode_plan(target);
    payload.delta = encode_delta(delta);
    payload.routes = routes;
    payload.coord_epoch = coord_epoch_;
    staged_[node] = std::move(target);
    participants.push_back(node);
    NodeResult result;
    result.node = node;
    outcome.nodes.push_back(std::move(result));
    if (hooks_ != nullptr && !crashed_ && hooks_->before_prepare &&
        !hooks_->before_prepare(node, outcome.txn)) {
      crashed_ = true;
      outcome.reason = "coordinator crashed mid-PREPARE";
    }
    if (crashed_) continue;
    if (!it->second.channel->send(make_prepare_reload(payload))) {
      outcome.reason = "node '" + node + "' is unreachable";
    }
  }
  if (!any_delta && outcome.reason.empty()) {
    // Cluster-wide no-op: abort the already-sent prepares and say so.
    outcome.reason = "empty delta on every node (no-op reload)";
  }
  decide(outcome, participants);
  if (outcome.committed && staged_view_.has_value()) {
    view_ = std::move(*staged_view_);
  }
  staged_view_.reset();
  txn_map_ = nullptr;
  return outcome;
}

ReconfigCoordinator::Outcome ReconfigCoordinator::coordinate_transition(
    const std::string& mode) {
  Outcome outcome;
  outcome.txn = next_txn_++;
  crashed_ = false;  // a new transition = a (re)started coordinator
  staged_.clear();  // mode transitions do not move snapshots
  staged_view_.reset();
  txn_map_ = &view_.map;

  // All-attached check before the first PREPARE (see coordinate_reload).
  for (const std::string& node : view_.map.nodes) {
    if (peers_.find(node) == peers_.end()) {
      outcome.reason = "node '" + node + "' is not attached";
      txn_map_ = nullptr;
      return outcome;
    }
  }
  std::vector<std::string> participants;
  for (const std::string& node : view_.map.nodes) {
    auto it = peers_.find(node);
    PrepareModePayload payload;
    payload.txn = outcome.txn;
    payload.mode = mode;
    payload.coord_epoch = coord_epoch_;
    participants.push_back(node);
    NodeResult result;
    result.node = node;
    outcome.nodes.push_back(std::move(result));
    if (hooks_ != nullptr && !crashed_ && hooks_->before_prepare &&
        !hooks_->before_prepare(node, outcome.txn)) {
      crashed_ = true;
      outcome.reason = "coordinator crashed mid-PREPARE";
    }
    if (crashed_) continue;
    if (!it->second.channel->send(make_prepare_mode(payload))) {
      outcome.reason = "node '" + node + "' is unreachable";
    }
  }
  decide(outcome, participants);
  txn_map_ = nullptr;
  return outcome;
}

void ReconfigCoordinator::decide(Outcome& outcome,
                                 const std::vector<std::string>& participants) {
  if (crashed_) {
    // The coordinator died during the PREPARE sweep: no decision exists,
    // nothing more is sent or awaited. Prepared nodes presumed-abort on
    // their own; the staged snapshots never become a baseline.
    outcome.committed = false;
    staged_.clear();
    return;
  }
  auto& clock = rtsj::SteadyClock::instance();
  const rtsj::AbsoluteTime prepare_deadline =
      clock.now() + options_.prepare_timeout;

  // Collect every vote — even when the transition is already doomed (a
  // launch failure or a cluster no-op), nodes that prepared must be
  // aborted below and their votes must not linger in the channels.
  bool all_prepared = outcome.reason.empty();
  for (std::size_t i = 0; i < participants.size(); ++i) {
    NodeResult& result = outcome.nodes[i];
    NodeReplyPayload payload;
    std::uint16_t type = 0;
    if (!await_reply(participants[i], outcome.txn, payload, type,
                     prepare_deadline)) {
      all_prepared = false;
      if (outcome.reason.empty()) {
        outcome.reason =
            "straggler: node '" + participants[i] + "' missed the deadline";
      }
      result.detail = "no vote before the prepare deadline";
      continue;
    }
    result.epoch = payload.epoch;
    if (type == static_cast<std::uint16_t>(FrameType::PrepareOk)) {
      result.prepared = true;
    } else {
      all_prepared = false;
      result.detail = payload.reason;
      if (outcome.reason.empty()) {
        outcome.reason = "node '" + participants[i] +
                         "' rejected the prepare: " + payload.reason;
      }
    }
  }

  // Decide.
  DecisionPayload decision;
  decision.txn = outcome.txn;
  decision.coord_epoch = coord_epoch_;
  const FrameType verdict =
      all_prepared ? FrameType::Commit : FrameType::Abort;
  if (!all_prepared) decision.reason = outcome.reason;
  // Decision durable first: the standby's log record goes out before any
  // decision frame, so a coordinator that dies mid-sweep leaves a record
  // the promoted standby can redrive (docs/MEMBERSHIP.md §4).
  stream_decision(outcome, all_prepared, participants);
  for (const std::string& node : participants) {
    if (hooks_ != nullptr && !crashed_ && hooks_->before_decision &&
        !hooks_->before_decision(node, outcome.txn, all_prepared)) {
      crashed_ = true;
    }
    if (crashed_) break;
    peers_.at(node).channel->send(make_decision(verdict, decision));
  }
  if (crashed_) {
    // Died mid-decision sweep: the already-sent frames are out (those
    // nodes apply or release), the rest presumed-abort — the divergence
    // the next transition's delta-agreement votes detect. Nothing more is
    // awaited and no snapshot advances.
    outcome.committed = false;
    if (outcome.reason.empty()) {
      outcome.reason = "coordinator crashed mid-decision";
    }
    staged_.clear();
    return;
  }
  const rtsj::AbsoluteTime decision_deadline =
      clock.now() + options_.decision_timeout;
  for (std::size_t i = 0; i < participants.size(); ++i) {
    NodeResult& result = outcome.nodes[i];
    NodeReplyPayload payload;
    std::uint16_t type = 0;
    if (!await_reply(participants[i], outcome.txn, payload, type,
                     decision_deadline)) {
      if (result.detail.empty()) {
        result.detail = "no decision acknowledgement";
      }
      continue;
    }
    result.epoch = payload.epoch;
    if (all_prepared &&
        type == static_cast<std::uint16_t>(FrameType::Committed)) {
      result.committed = true;
      result.drained = payload.drained;
      result.latency_ns = payload.latency_ns;
    } else if (result.detail.empty()) {
      result.detail = payload.reason;
    }
  }

  outcome.committed = all_prepared;
  for (const NodeResult& result : outcome.nodes) {
    if (!result.committed) outcome.committed = false;
  }
  if (all_prepared) {
    // The COMMIT decision is made the moment it is sent: a node whose
    // acknowledgement merely missed the deadline has still applied (the
    // channel is reliable), so its staged snapshot must advance — or
    // every later reload would diff against a stale baseline and abort
    // on the delta-agreement check forever. Only an explicit ABORTED
    // reply (the lapsed-quiescence edge) proves the node did not apply
    // and keeps its old snapshot.
    for (std::size_t i = 0; i < participants.size(); ++i) {
      NodeResult& result = outcome.nodes[i];
      const bool node_aborted =
          !result.committed && !result.detail.empty() &&
          result.detail != "no decision acknowledgement";
      if (node_aborted) continue;
      auto staged = staged_.find(participants[i]);
      if (staged != staged_.end()) {
        Peer& peer = peers_.at(participants[i]);
        peer.snapshot = std::move(staged->second);
        if (!result.committed) {
          // Epoch unknown until the node is heard from again; 0 skips
          // the stale-epoch check on the next PREPARE.
          peer.epoch = 0;
        }
      }
    }
  }
  staged_.clear();
}

void ReconfigCoordinator::stream_decision(
    const Outcome& outcome, bool commit,
    const std::vector<std::string>& participants) {
  if (standby_ == nullptr) return;
  StandbySyncPayload record;
  record.txn = outcome.txn;
  record.committed = commit ? 1 : 0;
  record.reason = outcome.reason;
  record.coord_epoch = coord_epoch_;
  record.membership_epoch =
      staged_view_.has_value() ? staged_view_->epoch : view_.epoch;
  record.members = participants;
  const NodeMap& map = txn_map_ != nullptr ? *txn_map_ : view_.map;
  for (const auto& [component, owner] : map.assignment) {
    record.assignment.emplace_back(component, owner);
  }
  for (const std::string& node : participants) {
    auto peer = peers_.find(node);
    if (peer == peers_.end()) continue;
    StandbyNodeRecord entry;
    entry.node = node;
    entry.epoch = peer->second.epoch;
    // On commit the staged snapshot is what every node is about to run;
    // on abort the old baseline stands.
    auto staged = staged_.find(node);
    entry.snapshot = encode_plan(commit && staged != staged_.end()
                                     ? staged->second
                                     : peer->second.snapshot);
    record.nodes.push_back(std::move(entry));
  }
  standby_->send(make_standby_sync(record));
}

void ReconfigCoordinator::announce_takeover(const std::string& name,
                                            rtsj::RelativeTime wait) {
  // Sweep every queued frame first: a predecessor that died mid-PREPARE
  // never collected votes, so attach-time greetings, votes, and
  // presumed-abort notices of its transaction may still be queued. The
  // channels are FIFO, so everything stale precedes the HELLO each node
  // sends in reply to the TAKEOVER below — draining now guarantees the
  // wait loop adopts that reply and not a leftover greeting, and that no
  // stale vote can be mistaken for a reply to a reused transaction id.
  for (auto& [node, peer] : peers_) {
    (void)node;
    comm::Frame stale;
    while (peer.channel->receive(stale, rtsj::RelativeTime::zero())) {
      if (stale.type ==
          static_cast<std::uint16_t>(FrameType::DemoteRequest)) {
        try {
          demote_queue_.push_back(parse_demote(stale));
        } catch (const WireError&) {
        }
      }
    }
  }
  TakeoverPayload takeover;
  takeover.coordinator = name;
  takeover.coord_epoch = coord_epoch_;
  for (auto& [node, peer] : peers_) {
    (void)node;
    peer.channel->send(make_takeover(takeover));
  }
  auto& clock = rtsj::SteadyClock::instance();
  for (auto& [node, peer] : peers_) {
    (void)node;
    const rtsj::AbsoluteTime deadline = clock.now() + wait;
    for (;;) {
      const rtsj::AbsoluteTime now = clock.now();
      if (now >= deadline) break;
      comm::Frame frame;
      if (!peer.channel->receive(frame, deadline - now)) break;
      if (frame.type == static_cast<std::uint16_t>(FrameType::Hello)) {
        try {
          peer.epoch = parse_hello(frame).resync_epoch;
        } catch (const WireError&) {
        }
        break;
      }
      if (frame.type ==
          static_cast<std::uint16_t>(FrameType::DemoteRequest)) {
        try {
          demote_queue_.push_back(parse_demote(frame));
        } catch (const WireError&) {
        }
      }
      // Anything else is a straggler of the fenced coordinator's
      // transaction — dropped; the node re-announces itself below.
    }
  }
}

ReconfigCoordinator::Outcome ReconfigCoordinator::redrive_decision(
    std::uint64_t txn, bool commit, const std::string& reason) {
  Outcome outcome;
  outcome.txn = txn;
  outcome.reason = reason;
  if (next_txn_ <= txn) next_txn_ = txn + 1;
  DecisionPayload decision;
  decision.txn = txn;
  decision.reason = reason;
  decision.coord_epoch = coord_epoch_;
  const FrameType verdict = commit ? FrameType::Commit : FrameType::Abort;
  std::vector<std::string> participants;
  for (const std::string& node : view_.map.nodes) {
    auto it = peers_.find(node);
    if (it == peers_.end()) continue;
    participants.push_back(node);
    NodeResult result;
    result.node = node;
    outcome.nodes.push_back(std::move(result));
    it->second.channel->send(make_decision(verdict, decision));
  }
  auto& clock = rtsj::SteadyClock::instance();
  const rtsj::AbsoluteTime deadline =
      clock.now() + options_.decision_timeout;
  for (std::size_t i = 0; i < participants.size(); ++i) {
    NodeResult& result = outcome.nodes[i];
    NodeReplyPayload payload;
    std::uint16_t type = 0;
    if (!await_reply(participants[i], txn, payload, type, deadline)) {
      result.detail = "no decision acknowledgement";
      continue;
    }
    result.epoch = payload.epoch;
    if (commit && type == static_cast<std::uint16_t>(FrameType::Committed)) {
      result.committed = true;
      result.drained = payload.drained;
      result.latency_ns = payload.latency_ns;
    } else {
      // "no such prepared transaction" = the node already handled (or
      // presumed-aborted) the decision — the idempotent absorb.
      result.detail = payload.reason;
    }
  }
  // The verdict was durable before the original coordinator died; the
  // redrive only re-distributes it.
  outcome.committed = commit;
  return outcome;
}

std::optional<ReconfigCoordinator::MembershipRequest>
ReconfigCoordinator::poll_membership_request(rtsj::RelativeTime wait) {
  const auto pop = [this]() -> std::optional<MembershipRequest> {
    if (membership_queue_.empty()) return std::nullopt;
    MembershipRequest request = membership_queue_.front();
    membership_queue_.pop_front();
    return request;
  };
  if (auto request = pop()) return request;
  auto& clock = rtsj::SteadyClock::instance();
  const rtsj::AbsoluteTime deadline = clock.now() + wait;
  for (;;) {
    bool any = false;
    const auto pump = [&](comm::Channel& channel) {
      comm::Frame frame;
      while (channel.receive(frame, rtsj::RelativeTime::zero())) {
        any = true;
        switch (static_cast<FrameType>(frame.type)) {
          case FrameType::Join:
            try {
              const JoinPayload join = parse_join(frame);
              membership_queue_.push_back(
                  {true, join.node, join.resync_epoch, std::string()});
            } catch (const WireError&) {
            }
            break;
          case FrameType::Leave:
            try {
              const LeavePayload leave = parse_leave(frame);
              membership_queue_.push_back(
                  {false, leave.node, 0, leave.reason});
            } catch (const WireError&) {
            }
            break;
          case FrameType::DemoteRequest:
            try {
              demote_queue_.push_back(parse_demote(frame));
            } catch (const WireError&) {
            }
            break;
          default:
            break;  // greetings and stale replies carry no state here
        }
      }
    };
    for (auto& [node, peer] : peers_) {
      (void)node;
      pump(*peer.channel);
    }
    for (auto& [node, channel] : candidates_) {
      (void)node;
      pump(*channel);
    }
    if (auto request = pop()) return request;
    if (clock.now() >= deadline) return std::nullopt;
    if (!any) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
}

std::optional<DemotePayload> ReconfigCoordinator::poll_demote_request(
    rtsj::RelativeTime wait) {
  if (!demote_queue_.empty()) {
    DemotePayload payload = demote_queue_.front();
    demote_queue_.pop_front();
    return payload;
  }
  auto& clock = rtsj::SteadyClock::instance();
  const rtsj::AbsoluteTime deadline = clock.now() + wait;
  for (;;) {
    bool any = false;
    for (auto& [node, peer] : peers_) {
      (void)node;
      comm::Frame frame;
      while (peer.channel->receive(frame, rtsj::RelativeTime::zero())) {
        any = true;
        if (frame.type ==
            static_cast<std::uint16_t>(FrameType::DemoteRequest)) {
          try {
            demote_queue_.push_back(parse_demote(frame));
          } catch (const WireError&) {
          }
        } else if (frame.type ==
                   static_cast<std::uint16_t>(FrameType::Join)) {
          try {
            const JoinPayload join = parse_join(frame);
            membership_queue_.push_back(
                {true, join.node, join.resync_epoch, std::string()});
          } catch (const WireError&) {
          }
        } else if (frame.type ==
                   static_cast<std::uint16_t>(FrameType::Leave)) {
          try {
            const LeavePayload leave = parse_leave(frame);
            membership_queue_.push_back({false, leave.node, 0, leave.reason});
          } catch (const WireError&) {
          }
        }
      }
    }
    if (!demote_queue_.empty()) {
      DemotePayload payload = demote_queue_.front();
      demote_queue_.pop_front();
      return payload;
    }
    if (clock.now() >= deadline) return std::nullopt;
    if (!any) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
}

}  // namespace rtcf::dist
