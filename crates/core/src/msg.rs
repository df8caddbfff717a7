//! MARP wire messages.
//!
//! [`NodeMsg`] is the complete message space of a MARP replica node;
//! [`AgentReply`] is the payload space of `ToAgent` envelopes servers
//! send back to agents (UPDATE acknowledgements and LL information).

use crate::lt::LockingTable;
use bytes::Bytes;
use marp_agent::{AgentEnvelope, AgentId};
use marp_replica::{ClientRequest, CommitRecord, LlSnapshot, SyncMsg, UpdatedList, WriteRequest};
use marp_sim::{NodeId, SimTime};

/// The winning agent's UPDATE broadcast: "having obtained the lock,
/// broadcast a message to all the replicas to request the update".
/// Doubles as the validation/reservation round (see `DESIGN.md`).
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateMsg {
    /// The claiming agent.
    pub agent: AgentId,
    /// Attempt counter: acks echo it so a retried claim cannot count
    /// stale acknowledgements from an aborted attempt.
    pub attempt: u32,
    /// Regeneration incarnation of the batch this agent carries. The
    /// home replica bumps it each time it regenerates a lost agent;
    /// servers fence claims whose incarnation is below the highest they
    /// have positively acknowledged for any of the same requests, so a
    /// zombie original and its replacement can never both commit.
    pub incarnation: u32,
    /// Where the agent awaits acknowledgements.
    pub reply_to: NodeId,
    /// The write requests about to be committed (versions not yet
    /// assigned — they are fixed at COMMIT from the quorum's maximum).
    pub requests: Vec<WriteRequest>,
    /// For tie wins: every rival the winner knows about; a server
    /// validates that all agents ranked above the claimant in its LL
    /// appear here.
    pub tie_certificate: Option<Vec<AgentId>>,
}

marp_wire::wire_struct!(UpdateMsg {
    agent,
    attempt,
    incarnation,
    reply_to,
    requests,
    tie_certificate
});

/// The winning agent's COMMIT broadcast, carrying the final records.
#[derive(Debug, Clone, PartialEq)]
pub struct CommitMsg {
    /// The committing agent (its LL entries are removed and it enters
    /// the Updated List).
    pub agent: AgentId,
    /// The committed records, versions assigned.
    pub records: Vec<CommitRecord>,
}

marp_wire::wire_struct!(CommitMsg { agent, records });

/// Full message space of a MARP replica node.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeMsg {
    /// A client request.
    Client(ClientRequest),
    /// Agent-runtime traffic (migrations, acks, agent-addressed mail).
    Agent(AgentEnvelope),
    /// A winner's UPDATE broadcast.
    Update(UpdateMsg),
    /// A winner's COMMIT broadcast.
    Commit(CommitMsg),
    /// A claimant releasing its reservation after a failed validation.
    Release {
        /// The aborting agent.
        agent: AgentId,
    },
    /// A parked agent refreshing its lease and asking for fresh LL info
    /// about object key 0 (the legacy single-key form; agents for other
    /// keys send [`NodeMsg::LlQueryKeyed`] so single-key traffic stays
    /// byte-identical).
    LlQuery {
        /// The asking agent.
        agent: AgentId,
        /// Where it is parked (replies go there).
        reply_to: NodeId,
    },
    /// Anti-entropy.
    Sync(SyncMsg),
    /// Read-agent runtime traffic (the consistent-read extension runs
    /// its agents in a separate runtime with its own envelope space).
    RAgent(AgentEnvelope),
    /// A parked agent refreshing its lease and asking for fresh LL info
    /// about a specific object key (sent only when the key is not 0).
    LlQueryKeyed {
        /// The asking agent.
        agent: AgentId,
        /// The object key whose queue the agent waits on.
        key: u64,
        /// Where it is parked (replies go there).
        reply_to: NodeId,
    },
}

/// Leading wire-tag byte of [`NodeMsg::Sync`] frames — the anti-entropy
/// (gossip reconciliation) channel. The sim kernel buckets sent bytes by
/// this leading byte (`RunStats::bytes_by_kind`), so observability code
/// needs the tag value to attribute that slot without re-decoding frames.
pub const WIRE_TAG_SYNC: u8 = 6;

marp_wire::wire_enum!(NodeMsg {
    Client(req),
    Agent(env),
    Update(msg),
    Commit(msg),
    Release { agent },
    LlQuery { agent, reply_to },
    Sync(msg),
    RAgent(env),
    LlQueryKeyed { agent, key, reply_to },
});

/// Payloads servers address to agents (inside `ToAgent` envelopes).
#[derive(Debug, Clone, PartialEq)]
pub enum AgentReply {
    /// Acknowledgement of an UPDATE.
    UpdateAck {
        /// The acknowledging server.
        node: NodeId,
        /// Echo of the claim's attempt counter.
        attempt: u32,
        /// True when validation passed and the lock is reserved for the
        /// claimant; the paper's plain ack.
        positive: bool,
        /// The server's applied version (the winner commits from the
        /// quorum maximum — "uses the most recent copy").
        store_version: u64,
        /// The server's last update time (the paper's freshness check).
        last_update: SimTime,
        /// True when the claim was refused because it is *superseded*:
        /// its incarnation is below a fence, or every request it
        /// carries has already committed. The agent must release and
        /// dispose — its work belongs to another incarnation.
        fenced: bool,
    },
    /// A server's lock-state report, built by
    /// [`MarpServerState::ll_info`](crate::MarpServerState::ll_info):
    /// the reply to an `LlQuery`, or a change notification pushed to
    /// queued agents on COMMIT.
    LlInfo {
        /// The reporting server.
        node: NodeId,
        /// Its current LL.
        snapshot: LlSnapshot,
        /// Its gossip board contents (empty when gossip is disabled).
        board: LockingTable,
        /// Its Updated List.
        ul: UpdatedList,
    },
}

marp_wire::wire_enum!(AgentReply {
    UpdateAck { node, attempt, positive, store_version, last_update, fenced },
    LlInfo { node, snapshot, board, ul },
});

/// Encode an [`AgentEnvelope`] into the MARP node message space (the
/// `WrapFn` handed to the agent runtime).
pub fn wrap_agent_envelope(envelope: AgentEnvelope) -> Bytes {
    marp_wire::to_bytes(&NodeMsg::Agent(envelope))
}

/// Encode a [`SyncMsg`] into the MARP node message space.
pub fn wrap_sync(msg: SyncMsg) -> Bytes {
    marp_wire::to_bytes(&NodeMsg::Sync(msg))
}

/// Encode a read-agent [`AgentEnvelope`] into the MARP node message
/// space.
pub fn wrap_read_agent_envelope(envelope: AgentEnvelope) -> Bytes {
    marp_wire::to_bytes(&NodeMsg::RAgent(envelope))
}

/// Encode a [`ClientRequest`] into the MARP node message space.
pub fn wrap_client_request(request: ClientRequest) -> Bytes {
    marp_wire::to_bytes(&NodeMsg::Client(request))
}

#[cfg(test)]
mod tests {
    use super::*;
    use marp_replica::Operation;
    use marp_wire::Wire;

    fn roundtrip(msg: NodeMsg) {
        let bytes = marp_wire::to_bytes(&msg);
        assert_eq!(marp_wire::from_bytes::<NodeMsg>(&bytes).unwrap(), msg);
    }

    fn aid(home: u16) -> AgentId {
        AgentId::new(home, SimTime::from_millis(3), 1)
    }

    #[test]
    fn node_msgs_roundtrip() {
        roundtrip(NodeMsg::Client(ClientRequest {
            id: 1,
            op: Operation::Write { key: 2, value: 3 },
        }));
        roundtrip(NodeMsg::Agent(AgentEnvelope::MigrateAck {
            agent: aid(1),
            hop: 2,
            horizon: Default::default(),
        }));
        roundtrip(NodeMsg::Update(UpdateMsg {
            agent: aid(1),
            attempt: 2,
            incarnation: 1,
            reply_to: 4,
            requests: vec![WriteRequest {
                id: 9,
                client: 8,
                key: 7,
                value: 6,
                arrived: SimTime::from_millis(5),
            }],
            tie_certificate: Some(vec![aid(2), aid(3)]),
        }));
        roundtrip(NodeMsg::Commit(CommitMsg {
            agent: aid(1),
            records: vec![CommitRecord {
                version: 1,
                key: 2,
                value: 3,
                agent: aid(1).key(),
                request: 9,
                committed_at: SimTime::from_millis(11),
            }],
        }));
        roundtrip(NodeMsg::Release { agent: aid(1) });
        roundtrip(NodeMsg::LlQuery {
            agent: aid(1),
            reply_to: 2,
        });
        roundtrip(NodeMsg::LlQueryKeyed {
            agent: aid(1),
            key: 6,
            reply_to: 2,
        });
        roundtrip(NodeMsg::Sync(SyncMsg::Pull {
            versions: std::collections::BTreeMap::from([(0, 0)]),
        }));
        roundtrip(NodeMsg::RAgent(AgentEnvelope::MigrateAck {
            agent: aid(4),
            hop: 1,
            horizon: Default::default(),
        }));
    }

    #[test]
    fn agent_replies_roundtrip() {
        let reply = AgentReply::UpdateAck {
            node: 1,
            attempt: 3,
            positive: true,
            store_version: 5,
            last_update: SimTime::from_millis(7),
            fenced: false,
        };
        let bytes = marp_wire::to_bytes(&reply);
        assert_eq!(marp_wire::from_bytes::<AgentReply>(&bytes).unwrap(), reply);

        let mut board = LockingTable::new();
        board.merge(
            0,
            LlSnapshot {
                version: 1,
                taken_at: SimTime::from_millis(1),
                queue: vec![aid(4)],
            },
        );
        let mut ul = UpdatedList::new();
        ul.record(aid(5), SimTime::from_millis(1));
        let reply = AgentReply::LlInfo {
            node: 2,
            snapshot: LlSnapshot {
                version: 2,
                taken_at: SimTime::from_millis(2),
                queue: vec![aid(1), aid(2)],
            },
            board,
            ul,
        };
        let bytes = marp_wire::to_bytes(&reply);
        assert_eq!(marp_wire::from_bytes::<AgentReply>(&bytes).unwrap(), reply);
    }

    /// A `wire_enum!` tag is the variant's position in the macro's list,
    /// so reordering a list would silently change the format. Byte
    /// accounting (`RunStats::bytes_by_kind`) and external decoders key
    /// on these leading bytes.
    #[test]
    fn leading_tag_bytes_are_pinned() {
        fn lead<T: Wire>(value: &T) -> u8 {
            marp_wire::to_bytes(value)[0]
        }
        let ack = AgentEnvelope::MigrateAck {
            agent: aid(1),
            hop: 0,
            horizon: Default::default(),
        };
        let sync = NodeMsg::Sync(SyncMsg::Pull {
            versions: Default::default(),
        });
        let node_msgs = [
            NodeMsg::Client(ClientRequest {
                id: 1,
                op: Operation::Read { key: 0 },
            }),
            NodeMsg::Agent(ack.clone()),
            NodeMsg::Update(UpdateMsg {
                agent: aid(1),
                attempt: 0,
                incarnation: 0,
                reply_to: 0,
                requests: Vec::new(),
                tie_certificate: None,
            }),
            NodeMsg::Commit(CommitMsg {
                agent: aid(1),
                records: Vec::new(),
            }),
            NodeMsg::Release { agent: aid(1) },
            NodeMsg::LlQuery {
                agent: aid(1),
                reply_to: 0,
            },
            sync.clone(),
            NodeMsg::RAgent(ack.clone()),
            NodeMsg::LlQueryKeyed {
                agent: aid(1),
                key: 1,
                reply_to: 0,
            },
        ];
        for (tag, msg) in node_msgs.iter().enumerate() {
            assert_eq!(usize::from(lead(msg)), tag, "{msg:?}");
        }
        assert_eq!(lead(&sync), WIRE_TAG_SYNC);

        let envelopes = [
            AgentEnvelope::Migrate {
                agent: aid(1),
                hop: 0,
                state: Bytes::new(),
            },
            ack,
            AgentEnvelope::ToAgent {
                agent: aid(1),
                payload: Bytes::new(),
            },
        ];
        for (tag, env) in envelopes.iter().enumerate() {
            assert_eq!(usize::from(lead(env)), tag, "{env:?}");
        }

        let replies = [
            AgentReply::UpdateAck {
                node: 0,
                attempt: 0,
                positive: true,
                store_version: 0,
                last_update: SimTime::ZERO,
                fenced: false,
            },
            AgentReply::LlInfo {
                node: 0,
                snapshot: LlSnapshot {
                    version: 0,
                    taken_at: SimTime::ZERO,
                    queue: Vec::new(),
                },
                board: LockingTable::new(),
                ul: UpdatedList::new(),
            },
        ];
        for (tag, reply) in replies.iter().enumerate() {
            assert_eq!(usize::from(lead(reply)), tag, "{reply:?}");
        }
    }

    #[test]
    fn unknown_tags_rejected() {
        let bytes = Bytes::from_static(&[99]);
        assert!(marp_wire::from_bytes::<NodeMsg>(&bytes).is_err());
        assert!(marp_wire::from_bytes::<AgentReply>(&bytes).is_err());
    }

    #[test]
    fn wrappers_produce_decodable_node_msgs() {
        let wrapped = wrap_sync(SyncMsg::Pull {
            versions: std::collections::BTreeMap::new(),
        });
        assert!(matches!(
            marp_wire::from_bytes::<NodeMsg>(&wrapped).unwrap(),
            NodeMsg::Sync(SyncMsg::Pull { versions }) if versions.is_empty()
        ));
        let wrapped = wrap_client_request(ClientRequest {
            id: 4,
            op: Operation::Read { key: 1 },
        });
        assert!(matches!(
            marp_wire::from_bytes::<NodeMsg>(&wrapped).unwrap(),
            NodeMsg::Client(_)
        ));
        let wrapped = wrap_agent_envelope(AgentEnvelope::MigrateAck {
            agent: aid(1),
            hop: 0,
            horizon: Default::default(),
        });
        assert!(matches!(
            marp_wire::from_bytes::<NodeMsg>(&wrapped).unwrap(),
            NodeMsg::Agent(_)
        ));
    }
}
