//! Per-flow transmit queues with segment-level progress.

use crate::sar::next_segment_type;
use btgs_baseband::PacketType;
use btgs_des::SimTime;
use btgs_traffic::AppPacket;
use std::collections::VecDeque;

/// A segment about to be transmitted: the head packet's next chunk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SegmentPlan {
    /// Baseband packet type carrying the segment.
    pub ty: PacketType,
    /// Payload bytes of the segment.
    pub bytes: u32,
    /// `true` if this segment completes its higher-layer packet.
    pub is_last: bool,
    /// `true` if this segment starts its higher-layer packet.
    pub is_first: bool,
    /// Sequence number of the higher-layer packet being carried.
    pub packet_seq: u64,
    /// Total size of the higher-layer packet being carried.
    pub packet_size: u32,
    /// Arrival time of the higher-layer packet being carried.
    pub packet_arrival: SimTime,
}

/// A transmit queue for one flow.
///
/// Holds higher-layer packets in arrival order and tracks how many bytes of
/// the head packet have already been delivered. Segments are *peeked*
/// non-destructively and only [advanced](FlowQueue::advance) once the
/// receiver acknowledges them, which models the baseband 1-bit ARQ: a lost
/// segment is simply offered again at the next opportunity.
///
/// # Examples
///
/// ```
/// use btgs_piconet::FlowQueue;
/// use btgs_baseband::PacketType;
/// use btgs_traffic::{AppPacket, FlowId};
/// use btgs_des::SimTime;
///
/// let mut q = FlowQueue::new();
/// q.push(AppPacket::new(0, FlowId(1), 176, SimTime::ZERO));
/// let allowed = [PacketType::Dh1, PacketType::Dh3];
/// let seg = q.peek_segment(SimTime::ZERO, &allowed).unwrap();
/// assert_eq!(seg.bytes, 176);
/// assert!(seg.is_last);
/// q.advance(seg.bytes);
/// assert!(q.is_empty());
/// ```
#[derive(Clone, Debug, Default)]
pub struct FlowQueue {
    packets: VecDeque<AppPacket>,
    head_sent: u32,
    /// Total bytes currently queued (minus what was already sent of the
    /// head), maintained incrementally.
    backlog_bytes: u64,
    /// `true` once the current head segment has been transmitted at least
    /// once; a further transmission of the same segment is a retransmission.
    head_attempted: bool,
}

impl FlowQueue {
    /// Creates an empty queue.
    pub fn new() -> FlowQueue {
        FlowQueue::default()
    }

    /// Creates an empty queue pre-sized for `capacity` packets, so pushes
    /// up to that depth never touch the allocator (the scatternet relay
    /// queues rely on this for the zero-alloc steady state).
    pub fn with_capacity(capacity: usize) -> FlowQueue {
        FlowQueue {
            packets: VecDeque::with_capacity(capacity),
            ..FlowQueue::default()
        }
    }

    /// Pre-sizes the queue for at least `additional` further packets.
    pub fn reserve(&mut self, additional: usize) {
        self.packets.reserve(additional);
    }

    /// Enqueues a higher-layer packet.
    ///
    /// # Panics
    ///
    /// Panics if `pkt` arrives before the current tail (queues are FIFO in
    /// arrival order).
    pub fn push(&mut self, pkt: AppPacket) {
        if let Some(tail) = self.packets.back() {
            assert!(
                pkt.arrival >= tail.arrival,
                "packets must be enqueued in arrival order"
            );
        }
        self.backlog_bytes += pkt.size as u64;
        self.packets.push_back(pkt);
    }

    /// Number of queued packets (including the partially-sent head).
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// `true` if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// Remaining backlog in bytes.
    pub fn backlog_bytes(&self) -> u64 {
        self.backlog_bytes
    }

    /// Arrival time of the head packet, if any.
    pub fn head_arrival(&self) -> Option<SimTime> {
        self.packets.front().map(|p| p.arrival)
    }

    /// Bytes of the head packet still to be delivered, if any.
    pub fn head_remaining(&self) -> Option<u32> {
        self.packets.front().map(|p| p.size - self.head_sent)
    }

    /// `true` if data was available for transmission at instant `t` — the
    /// paper's strict rule: the head packet must have arrived no later than
    /// the moment the master starts transmitting.
    pub fn has_data_at(&self, t: SimTime) -> bool {
        matches!(self.head_arrival(), Some(a) if a <= t)
    }

    /// The next segment that would be transmitted at instant `t`, or `None`
    /// if no data is available at `t`. Does not modify the queue.
    ///
    /// # Panics
    ///
    /// Panics if `allowed` contains no data-bearing packet type.
    pub fn peek_segment(&self, t: SimTime, allowed: &[PacketType]) -> Option<SegmentPlan> {
        let head = self.packets.front()?;
        if head.arrival > t {
            return None;
        }
        let remaining = head.size - self.head_sent;
        let ty = next_segment_type(remaining, allowed)
            .expect("allowed set contains no data-bearing packet type");
        let bytes = remaining.min(ty.payload_capacity() as u32);
        Some(SegmentPlan {
            ty,
            bytes,
            is_last: bytes == remaining,
            is_first: self.head_sent == 0,
            packet_seq: head.seq,
            packet_size: head.size,
            packet_arrival: head.arrival,
        })
    }

    /// Acknowledges delivery of `bytes` of the head packet, removing the
    /// packet once complete. Returns the completed packet, if any.
    ///
    /// # Panics
    ///
    /// Panics if the queue is empty or `bytes` exceeds the head's remainder.
    pub fn advance(&mut self, bytes: u32) -> Option<AppPacket> {
        let head = self.packets.front().expect("advance on an empty queue");
        let remaining = head.size - self.head_sent;
        assert!(
            bytes <= remaining,
            "acknowledged {bytes} B but only {remaining} B outstanding"
        );
        self.backlog_bytes -= bytes as u64;
        self.head_sent += bytes;
        self.head_attempted = false;
        if self.head_sent == head.size {
            self.head_sent = 0;
            self.packets.pop_front()
        } else {
            None
        }
    }

    /// `true` if the current head segment was already transmitted (so the
    /// next transmission is an ARQ retransmission).
    pub fn head_attempted(&self) -> bool {
        self.head_attempted
    }

    /// Marks the current head segment as transmitted once.
    pub fn note_attempt(&mut self) {
        self.head_attempted = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btgs_traffic::FlowId;

    const PAPER: [PacketType; 2] = [PacketType::Dh1, PacketType::Dh3];

    fn pkt(seq: u64, size: u32, ms: u64) -> AppPacket {
        AppPacket::new(seq, FlowId(1), size, SimTime::from_millis(ms))
    }

    #[test]
    fn empty_queue() {
        let q = FlowQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert_eq!(q.backlog_bytes(), 0);
        assert_eq!(q.head_arrival(), None);
        assert!(!q.has_data_at(SimTime::from_secs(10)));
        assert!(q.peek_segment(SimTime::ZERO, &PAPER).is_none());
    }

    #[test]
    fn availability_respects_arrival_time() {
        let mut q = FlowQueue::new();
        q.push(pkt(0, 160, 20));
        assert!(!q.has_data_at(SimTime::from_millis(19)));
        assert!(
            q.has_data_at(SimTime::from_millis(20)),
            "arrival instant counts"
        );
        assert!(q.has_data_at(SimTime::from_millis(21)));
        assert!(q.peek_segment(SimTime::from_millis(19), &PAPER).is_none());
        assert!(q.peek_segment(SimTime::from_millis(20), &PAPER).is_some());
    }

    #[test]
    fn single_segment_life_cycle() {
        let mut q = FlowQueue::new();
        q.push(pkt(0, 144, 0));
        let seg = q.peek_segment(SimTime::ZERO, &PAPER).unwrap();
        assert_eq!(seg.ty, PacketType::Dh3);
        assert_eq!(seg.bytes, 144);
        assert!(seg.is_last && seg.is_first);
        assert_eq!(seg.packet_seq, 0);
        assert_eq!(seg.packet_size, 144);
        // Peeking again returns the same segment (non-destructive).
        assert_eq!(q.peek_segment(SimTime::ZERO, &PAPER).unwrap(), seg);
        let done = q.advance(seg.bytes);
        assert_eq!(done.unwrap().seq, 0);
        assert!(q.is_empty());
    }

    #[test]
    fn multi_segment_packet_progress() {
        let mut q = FlowQueue::new();
        q.push(pkt(0, 200, 0)); // DH3(183) + DH1(17)
        let s1 = q.peek_segment(SimTime::ZERO, &PAPER).unwrap();
        assert_eq!(
            (s1.ty, s1.bytes, s1.is_first, s1.is_last),
            (PacketType::Dh3, 183, true, false)
        );
        assert!(q.advance(s1.bytes).is_none(), "packet not yet complete");
        let s2 = q.peek_segment(SimTime::ZERO, &PAPER).unwrap();
        assert_eq!(
            (s2.ty, s2.bytes, s2.is_first, s2.is_last),
            (PacketType::Dh1, 17, false, true)
        );
        let done = q.advance(s2.bytes);
        assert!(done.is_some());
        assert_eq!(q.backlog_bytes(), 0);
    }

    #[test]
    fn arq_retransmission_replays_segment() {
        let mut q = FlowQueue::new();
        q.push(pkt(0, 176, 0));
        let s = q.peek_segment(SimTime::ZERO, &PAPER).unwrap();
        // Segment lost: do NOT advance. The next peek must be identical.
        let again = q.peek_segment(SimTime::ZERO, &PAPER).unwrap();
        assert_eq!(s, again);
        q.advance(s.bytes);
        assert!(q.is_empty());
    }

    #[test]
    fn attempt_tracking_resets_per_segment() {
        let mut q = FlowQueue::new();
        q.push(pkt(0, 200, 0)); // two segments: DH3 + DH1
        assert!(!q.head_attempted());
        q.note_attempt();
        assert!(q.head_attempted(), "second send would be a retransmission");
        // Segment finally delivered: the next segment is a fresh one.
        let s = q.peek_segment(SimTime::ZERO, &PAPER).unwrap();
        q.advance(s.bytes);
        assert!(!q.head_attempted());
    }

    #[test]
    fn fifo_across_packets_and_backlog() {
        let mut q = FlowQueue::new();
        q.push(pkt(0, 176, 0));
        q.push(pkt(1, 144, 20));
        assert_eq!(q.len(), 2);
        assert_eq!(q.backlog_bytes(), 320);
        let s = q.peek_segment(SimTime::from_millis(25), &PAPER).unwrap();
        assert_eq!(s.packet_seq, 0, "head first");
        q.advance(s.bytes);
        let s = q.peek_segment(SimTime::from_millis(25), &PAPER).unwrap();
        assert_eq!(s.packet_seq, 1);
        assert_eq!(q.backlog_bytes(), 144);
    }

    #[test]
    #[should_panic(expected = "arrival order")]
    fn out_of_order_push_panics() {
        let mut q = FlowQueue::new();
        q.push(pkt(0, 10, 20));
        q.push(pkt(1, 10, 10));
    }

    #[test]
    #[should_panic(expected = "empty queue")]
    fn advance_on_empty_panics() {
        let mut q = FlowQueue::new();
        q.advance(1);
    }

    #[test]
    #[should_panic(expected = "outstanding")]
    fn over_advance_panics() {
        let mut q = FlowQueue::new();
        q.push(pkt(0, 10, 0));
        q.advance(11);
    }
}
