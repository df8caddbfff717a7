//! Property tests for the MARP message space: round-trips for every
//! message shape and decoder robustness against arbitrary bytes (a
//! malformed packet must never panic a replica).

use bytes::Bytes;
use marp_agent::{AgentEnvelope, AgentId};
use marp_core::lt::LockingTable;
use marp_core::{AgentReply, CommitMsg, NodeMsg, ReadAgent, UpdateAgent, UpdateMsg};
use marp_replica::{
    ClientReply, ClientRequest, CommitRecord, LlSnapshot, Operation, SyncMsg, UpdatedList,
    WriteRequest,
};
use marp_sim::SimTime;
use proptest::prelude::*;

fn arb_agent_id() -> impl Strategy<Value = AgentId> {
    (any::<u16>(), 0u64..1_000_000, any::<u32>())
        .prop_map(|(home, ms, seq)| AgentId::new(home, SimTime::from_millis(ms), seq))
}

fn arb_write_request() -> impl Strategy<Value = WriteRequest> {
    (
        any::<u64>(),
        any::<u16>(),
        any::<u64>(),
        any::<u64>(),
        0u64..1_000_000,
    )
        .prop_map(|(id, client, key, value, ms)| WriteRequest {
            id,
            client,
            key,
            value,
            arrived: SimTime::from_millis(ms),
        })
}

fn arb_commit_record() -> impl Strategy<Value = CommitRecord> {
    (
        1u64..1_000_000,
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        0u64..1_000_000,
    )
        .prop_map(|(version, key, value, agent, request, ms)| CommitRecord {
            version,
            key,
            value,
            agent,
            request,
            committed_at: SimTime::from_millis(ms),
        })
}

fn arb_ll_snapshot() -> impl Strategy<Value = LlSnapshot> {
    (
        any::<u64>(),
        0u64..1_000_000,
        proptest::collection::vec(arb_agent_id(), 0..4),
    )
        .prop_map(|(version, ms, queue)| LlSnapshot {
            version,
            taken_at: SimTime::from_millis(ms),
            queue,
        })
}

fn arb_agent_reply() -> impl Strategy<Value = AgentReply> {
    prop_oneof![
        (
            any::<u16>(),
            any::<u32>(),
            any::<bool>(),
            any::<u64>(),
            0u64..1_000_000,
            any::<bool>(),
        )
            .prop_map(|(node, attempt, positive, store_version, ms, fenced)| {
                AgentReply::UpdateAck {
                    node,
                    attempt,
                    positive,
                    store_version,
                    last_update: SimTime::from_millis(ms),
                    fenced,
                }
            }),
        (
            any::<u16>(),
            arb_ll_snapshot(),
            proptest::collection::vec((any::<u16>(), arb_ll_snapshot()), 0..3),
            proptest::collection::vec((arb_agent_id(), 0u64..1_000_000), 0..3),
        )
            .prop_map(|(node, snapshot, board_snaps, finished)| {
                let mut board = LockingTable::new();
                for (server, snap) in board_snaps {
                    board.merge(server, snap);
                }
                let mut ul = UpdatedList::new();
                for (agent, ms) in finished {
                    ul.record(agent, SimTime::from_millis(ms));
                }
                AgentReply::LlInfo {
                    node,
                    snapshot,
                    board,
                    ul,
                }
            }),
    ]
}

/// An envelope of every shape: a migration with opaque state, its ack,
/// and agent mail carrying an encoded [`AgentReply`].
fn arb_envelope() -> impl Strategy<Value = AgentEnvelope> {
    prop_oneof![
        (
            arb_agent_id(),
            any::<u32>(),
            proptest::collection::vec(any::<u8>(), 0..32),
        )
            .prop_map(|(agent, hop, state)| AgentEnvelope::Migrate {
                agent,
                hop,
                state: Bytes::from(state),
            }),
        (
            arb_agent_id(),
            any::<u32>(),
            proptest::collection::btree_map(any::<u16>(), any::<u64>(), 0..4),
        )
            .prop_map(|(agent, hop, horizon)| AgentEnvelope::MigrateAck {
                agent,
                hop,
                horizon,
            }),
        (arb_agent_id(), arb_agent_reply()).prop_map(|(agent, reply)| AgentEnvelope::ToAgent {
            agent,
            payload: marp_wire::to_bytes(&reply),
        }),
    ]
}

fn arb_node_msg() -> impl Strategy<Value = NodeMsg> {
    prop_oneof![
        (any::<u64>(), any::<u64>()).prop_map(|(id, key)| NodeMsg::Client(ClientRequest {
            id,
            op: Operation::Read { key },
        })),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(id, key, value)| NodeMsg::Client(
            ClientRequest {
                id,
                op: Operation::Write { key, value },
            }
        )),
        (any::<u64>(), any::<u64>()).prop_map(|(id, key)| NodeMsg::Client(ClientRequest {
            id,
            op: Operation::ReadFresh { key },
        })),
        arb_envelope().prop_map(NodeMsg::Agent),
        arb_envelope().prop_map(NodeMsg::RAgent),
        (
            arb_agent_id(),
            any::<u32>(),
            any::<u32>(),
            any::<u16>(),
            proptest::collection::vec(arb_write_request(), 0..4),
            proptest::option::of(proptest::collection::vec(arb_agent_id(), 0..4)),
        )
            .prop_map(
                |(agent, attempt, incarnation, reply_to, requests, tie_certificate)| {
                    NodeMsg::Update(UpdateMsg {
                        agent,
                        attempt,
                        incarnation,
                        reply_to,
                        requests,
                        tie_certificate,
                    })
                }
            ),
        (
            arb_agent_id(),
            proptest::collection::vec(arb_commit_record(), 0..4)
        )
            .prop_map(|(agent, records)| NodeMsg::Commit(CommitMsg { agent, records })),
        arb_agent_id().prop_map(|agent| NodeMsg::Release { agent }),
        (arb_agent_id(), any::<u16>())
            .prop_map(|(agent, reply_to)| NodeMsg::LlQuery { agent, reply_to }),
        (arb_agent_id(), 1u64..1_000_000, any::<u16>()).prop_map(|(agent, key, reply_to)| {
            NodeMsg::LlQueryKeyed {
                agent,
                key,
                reply_to,
            }
        }),
        proptest::collection::btree_map(any::<u64>(), any::<u64>(), 0..4)
            .prop_map(|versions| NodeMsg::Sync(SyncMsg::Pull { versions })),
        proptest::collection::vec(arb_commit_record(), 0..4)
            .prop_map(|records| NodeMsg::Sync(SyncMsg::Push { records })),
    ]
}

proptest! {
    #[test]
    fn node_msgs_roundtrip(msg in arb_node_msg()) {
        let bytes = marp_wire::to_bytes(&msg);
        let back: NodeMsg = marp_wire::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, msg);
    }

    /// Garbage never panics any decoder a replica exposes to the
    /// network.
    #[test]
    fn garbage_never_panics_decoders(raw in proptest::collection::vec(any::<u8>(), 0..256)) {
        let bytes = Bytes::from(raw);
        let _ = marp_wire::from_bytes::<NodeMsg>(&bytes);
        let _ = marp_wire::from_bytes::<AgentReply>(&bytes);
        let _ = marp_wire::from_bytes::<UpdateAgent>(&bytes);
        let _ = marp_wire::from_bytes::<AgentEnvelope>(&bytes);
        let _ = marp_wire::from_bytes::<ClientReply>(&bytes);
        let _ = marp_wire::from_bytes::<ReadAgent>(&bytes);
    }

    /// Truncating a valid message never panics either (it errors).
    #[test]
    fn truncation_never_panics(msg in arb_node_msg(), keep in 0usize..64) {
        let bytes = marp_wire::to_bytes(&msg);
        let truncated = bytes.slice(0..keep.min(bytes.len()));
        let _ = marp_wire::from_bytes::<NodeMsg>(&truncated);
    }

    /// Bit-flipping a valid message never panics (it errors or decodes
    /// to some other valid message — both acceptable; replicas treat
    /// content defensively).
    #[test]
    fn bitflips_never_panic(msg in arb_node_msg(), pos in any::<proptest::sample::Index>(), bit in 0u8..8) {
        let bytes = marp_wire::to_bytes(&msg);
        if bytes.is_empty() {
            return Ok(());
        }
        let mut raw = bytes.to_vec();
        let idx = pos.index(raw.len());
        raw[idx] ^= 1 << bit;
        let _ = marp_wire::from_bytes::<NodeMsg>(&Bytes::from(raw));
    }
}
