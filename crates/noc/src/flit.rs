//! Flow-control units.
//!
//! Packets are serialized into flits at the network interface. A flit
//! references its packet through a slab slot; payload never moves, only
//! the 16-byte-channel-wide flits do. Each flit also carries a copy of
//! the packet fields the router pipeline reads (priority, class,
//! destination, RC/VA delay), filled once at NI injection, so VC
//! allocation, switch allocation and traversal never touch the slab.

use clognet_proto::{Cycle, NodeId, Packet, Priority, TrafficClass};

/// Slab slot referencing the in-flight [`clognet_proto::Packet`].
pub(crate) type Slot = u32;

/// One flow-control unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Flit {
    /// Cycle at which this flit becomes eligible for allocation in the
    /// router currently buffering it (models the RC/VA pipeline
    /// stages).
    pub eligible: Cycle,
    /// Packet slab slot.
    pub slot: Slot,
    /// RC/VA delay the flit pays at every router (depends on the
    /// class's routing policy).
    pub delay: u32,
    /// Destination node of the packet.
    pub dst: NodeId,
    /// Flit index within the packet (0 = head).
    pub idx: u8,
    /// Total flits in the packet (so `idx + 1 == total` marks the tail).
    pub total: u8,
    /// Packet priority (switch and VC allocation order).
    pub prio: Priority,
    /// Packet traffic class.
    pub class: TrafficClass,
}

impl Flit {
    /// Placeholder filling empty ring-buffer entries.
    pub const EMPTY: Flit = Flit {
        eligible: 0,
        slot: 0,
        delay: 0,
        dst: NodeId(0),
        idx: 0,
        total: 1,
        prio: Priority::Gpu,
        class: TrafficClass::Request,
    };

    /// The head flit of `pkt` (stored in `slot`), with the packet
    /// metadata the pipeline reads.
    pub fn head_of(pkt: &Packet, slot: Slot, delay: u32) -> Flit {
        Flit {
            eligible: 0,
            slot,
            delay,
            dst: pkt.dst,
            idx: 0,
            total: pkt.flits,
            prio: pkt.prio,
            class: pkt.class(),
        }
    }

    /// Head flit of its packet?
    pub fn is_head(&self) -> bool {
        self.idx == 0
    }

    /// Tail flit of its packet? (single-flit packets are both)
    pub fn is_tail(&self) -> bool {
        self.idx + 1 == self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_and_tail_flags() {
        let head = Flit {
            total: 9,
            ..Flit::EMPTY
        };
        let mid = Flit { idx: 4, ..head };
        let tail = Flit { idx: 8, ..head };
        assert!(head.is_head() && !head.is_tail());
        assert!(!mid.is_head() && !mid.is_tail());
        assert!(!tail.is_head() && tail.is_tail());
        let single = Flit {
            idx: 0,
            total: 1,
            ..head
        };
        assert!(single.is_head() && single.is_tail());
    }
}
