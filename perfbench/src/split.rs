//! Byte attribution below the leading tag.
//!
//! Every sent message is decoded and its bytes are charged to one part
//! of the MARP message space; `LlInfo` notifications are further split
//! by field with `Wire::encoded_len`. The parts must add up to the
//! kernel's `RunStats::bytes_sent`, and the per-tag subtotals to its
//! `bytes_by_kind`, so a message kind the split cannot decode fails
//! loudly instead of going missing.

use bytes::Bytes;
use marp_agent::AgentEnvelope;
use marp_core::{AgentReply, NodeMsg};
use marp_replica::ClientReply;
use marp_sim::RunStats;
use marp_wire::Wire;

/// The parts bytes are charged to, as `wire.bytes_per_commit.<part>`.
pub const PARTS: [&str; 14] = [
    "client",
    "migrate",
    "migrate_ack",
    "ll_query",
    "ll_info.frame",
    "ll_info.snapshot",
    "ll_info.board",
    "ll_info.ul",
    "update",
    "update_ack",
    "commit",
    "release",
    "sync",
    "read_agent",
];

const CLIENT: usize = 0;
const MIGRATE: usize = 1;
const MIGRATE_ACK: usize = 2;
const LL_QUERY: usize = 3;
const LL_FRAME: usize = 4;
const LL_SNAPSHOT: usize = 5;
const LL_BOARD: usize = 6;
const LL_UL: usize = 7;
const UPDATE: usize = 8;
const UPDATE_ACK: usize = 9;
const COMMIT: usize = 10;
const RELEASE: usize = 11;
const SYNC: usize = 12;
const READ_AGENT: usize = 13;

/// A message decoded in its destination's message space.
pub enum Decoded {
    /// Server-bound traffic.
    Node(NodeMsg),
    /// A reply to a client.
    Reply(ClientReply),
}

impl Decoded {
    /// Decode `msg` in the message space of its destination.
    pub fn decode(msg: &Bytes, to_client: bool) -> Result<Decoded, String> {
        if to_client {
            marp_wire::from_bytes::<ClientReply>(msg)
                .map(Decoded::Reply)
                .map_err(|e| format!("undecodable client reply: {e:?}"))
        } else {
            marp_wire::from_bytes::<NodeMsg>(msg)
                .map(Decoded::Node)
                .map_err(|e| format!("undecodable node message: {e:?}"))
        }
    }

    /// Encode the decoded value again.
    pub fn encode(&self) -> Bytes {
        match self {
            Decoded::Node(msg) => marp_wire::to_bytes(msg),
            Decoded::Reply(reply) => marp_wire::to_bytes(reply),
        }
    }

    /// The request id or agent key the message is about (0 for
    /// anti-entropy traffic).
    pub fn id(&self) -> u64 {
        match self {
            Decoded::Reply(
                ClientReply::ReadOk { id, .. }
                | ClientReply::WriteDone { id, .. }
                | ClientReply::Rejected { id },
            ) => *id,
            Decoded::Node(msg) => match msg {
                NodeMsg::Client(req) => req.id,
                NodeMsg::Agent(env) | NodeMsg::RAgent(env) => match env {
                    AgentEnvelope::Migrate { agent, .. }
                    | AgentEnvelope::MigrateAck { agent, .. }
                    | AgentEnvelope::ToAgent { agent, .. } => agent.key(),
                },
                NodeMsg::Update(m) => m.agent.key(),
                NodeMsg::Commit(m) => m.agent.key(),
                NodeMsg::Release { agent }
                | NodeMsg::LlQuery { agent, .. }
                | NodeMsg::LlQueryKeyed { agent, .. } => agent.key(),
                NodeMsg::Sync(_) => 0,
            },
        }
    }

    /// The message's leading wire tag, derived from the decoded value.
    fn tag(&self) -> usize {
        match self {
            Decoded::Reply(ClientReply::ReadOk { .. }) => 0,
            Decoded::Reply(ClientReply::WriteDone { .. }) => 1,
            Decoded::Reply(ClientReply::Rejected { .. }) => 2,
            Decoded::Node(msg) => match msg {
                NodeMsg::Client(_) => 0,
                NodeMsg::Agent(_) => 1,
                NodeMsg::Update(_) => 2,
                NodeMsg::Commit(_) => 3,
                NodeMsg::Release { .. } => 4,
                NodeMsg::LlQuery { .. } => 5,
                NodeMsg::Sync(_) => 6,
                NodeMsg::RAgent(_) => 7,
                NodeMsg::LlQueryKeyed { .. } => 8,
            },
        }
    }

    /// The handler the message reaches on delivery.
    pub fn handler(&self) -> Handler {
        match self {
            Decoded::Reply(_) => Handler::Client,
            Decoded::Node(msg) => match msg {
                NodeMsg::Client(_) => Handler::Client,
                NodeMsg::Agent(_)
                | NodeMsg::RAgent(_)
                | NodeMsg::Release { .. }
                | NodeMsg::LlQuery { .. }
                | NodeMsg::LlQueryKeyed { .. } => Handler::Agent,
                NodeMsg::Update(_) => Handler::Update,
                NodeMsg::Commit(_) => Handler::Commit,
                NodeMsg::Sync(_) => Handler::Sync,
            },
        }
    }
}

/// Which `MarpNode` entry point a delivered message reaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Handler {
    /// A client request (or, at a client, a reply).
    Client,
    /// Agent-runtime traffic, lock queries and releases.
    Agent,
    /// An UPDATE broadcast.
    Update,
    /// A COMMIT broadcast.
    Commit,
    /// Anti-entropy.
    Sync,
}

/// Bytes sent, charged to [`PARTS`] and to leading tags.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ByteSplit {
    /// Bytes per part, indexed like [`PARTS`].
    pub parts: [u64; PARTS.len()],
    /// Bytes per leading tag, indexed like `RunStats::bytes_by_kind`.
    pub by_tag: [u64; 16],
    /// `LlInfo` notifications and replies sent.
    pub ll_infos: u64,
}

impl ByteSplit {
    /// Charge one sent message of `len` encoded bytes.
    pub fn charge(&mut self, decoded: &Decoded, len: usize) -> Result<(), String> {
        let len = len as u64;
        self.by_tag[decoded.tag()] += len;
        let part = match decoded {
            Decoded::Reply(_) => CLIENT,
            Decoded::Node(msg) => match msg {
                NodeMsg::Client(_) => CLIENT,
                NodeMsg::Agent(AgentEnvelope::Migrate { .. }) => MIGRATE,
                NodeMsg::Agent(AgentEnvelope::MigrateAck { .. }) => MIGRATE_ACK,
                NodeMsg::Agent(AgentEnvelope::ToAgent { payload, .. }) => {
                    match marp_wire::from_bytes::<AgentReply>(payload)
                        .map_err(|e| format!("undecodable agent reply: {e:?}"))?
                    {
                        AgentReply::UpdateAck { .. } => UPDATE_ACK,
                        AgentReply::LlInfo {
                            snapshot,
                            board,
                            ul,
                            ..
                        } => {
                            let fields = [
                                (LL_SNAPSHOT, snapshot.encoded_len() as u64),
                                (LL_BOARD, board.encoded_len() as u64),
                                (LL_UL, ul.encoded_len() as u64),
                            ];
                            let body: u64 = fields.iter().map(|&(_, b)| b).sum();
                            let frame = len
                                .checked_sub(body)
                                .ok_or("LlInfo fields longer than the message")?;
                            for (part, bytes) in fields {
                                self.parts[part] += bytes;
                            }
                            self.parts[LL_FRAME] += frame;
                            self.ll_infos += 1;
                            return Ok(());
                        }
                    }
                }
                NodeMsg::Update(_) => UPDATE,
                NodeMsg::Commit(_) => COMMIT,
                NodeMsg::Release { .. } => RELEASE,
                NodeMsg::LlQuery { .. } | NodeMsg::LlQueryKeyed { .. } => LL_QUERY,
                NodeMsg::Sync(_) => SYNC,
                NodeMsg::RAgent(_) => READ_AGENT,
            },
        };
        self.parts[part] += len;
        Ok(())
    }

    /// Add another split into this one.
    pub fn add(&mut self, other: &ByteSplit) {
        for (a, b) in self.parts.iter_mut().zip(other.parts) {
            *a += b;
        }
        for (a, b) in self.by_tag.iter_mut().zip(other.by_tag) {
            *a += b;
        }
        self.ll_infos += other.ll_infos;
    }

    /// The closure check: the parts sum exactly to the bytes the kernel
    /// counted, and the per-tag subtotals equal its per-kind buckets.
    pub fn closes(&self, stats: &RunStats) -> Result<(), String> {
        let total: u64 = self.parts.iter().sum();
        if total != stats.bytes_sent {
            return Err(format!(
                "byte split sums to {total}, kernel counted {} bytes sent",
                stats.bytes_sent
            ));
        }
        if self.by_tag != stats.bytes_by_kind {
            return Err(format!(
                "per-tag bytes {:?} differ from the kernel's bytes_by_kind {:?}",
                self.by_tag, stats.bytes_by_kind
            ));
        }
        Ok(())
    }
}
