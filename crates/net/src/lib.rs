//! Simulated communication substrate for distributed moving-object query
//! processing.
//!
//! The target paper's evaluation platform — mobile devices with uplink
//! (device → server) and downlink (server → device, unicast or geocast)
//! channels — is hardware this reproduction does not have. This crate is the
//! documented substitution: an in-process message fabric with **full message
//! and byte accounting**, which preserves exactly the quantities the paper's
//! evaluation measures (messages per timestamp, bytes, fan-out of geocasts)
//! while abstracting away radio physics that the protocols never observe.
//!
//! Contents:
//!
//! * [`UplinkMsg`] / [`DownlinkMsg`] — the complete wire vocabulary of every
//!   protocol in the workspace, with a deterministic byte-size model,
//! * [`Recipient`] — unicast, geocast (circular zone), broadcast,
//! * [`Uplinks`] / [`Outbox`] — per-tick mailboxes filled by client and
//!   server logic,
//! * [`NetStats`] / [`OpCounters`] — the metric counters every experiment
//!   reports,
//! * [`Protocol`] — the contract a monitoring method implements; the
//!   simulation harness drives it and routes its messages,
//! * [`FaultPlan`] / [`FaultyLink`] — deterministic fault injection (loss,
//!   duplication, delay, device churn, and server-shard crash windows)
//!   layered over the perfect fabric.

#![deny(missing_docs)]

mod downlink;
mod fault;
mod json;
mod msg;
mod proto;
mod stats;
mod wire;

pub use downlink::{
    frame_header_bits, AnswerUpdate, Delivery, DownlinkBuilder, FrameItem, ReplStore,
};
pub use fault::{CrashWindow, FaultError, FaultPlan, FaultPlanBuilder, FaultyLink};
pub use msg::{DownlinkMsg, MsgKind, QuerySpec, Recipient, ShardMsg, ShardMsgKind, UplinkMsg};
pub use proto::{
    run_client_phase, single_server_phase, ClientCtx, ObjReport, Outbox, ProbeService, Protocol,
    Registration, ServerPhase, ShardTask, Uplinks, PAR_MIN_DEVICES,
};
pub use stats::{NetStats, OpCounters, ShardStats};
pub use wire::{
    dequantize, quantize, Wire, LINK_HEADER_BITS, MEMBER_ENTRY_BITS, PARTIAL_ENTRY_BITS,
    QUANT_ERROR, QUANT_SCALE, RECOVER_ENTRY_BITS,
};
