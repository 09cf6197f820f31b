//! Store-and-forward output links: a [`Link`], one server (the line)
//! plus a queue under a configurable discipline, and a `FifoLine`, a
//! first-in first-out line that needs no queue.

use crate::packet::Packet;
use crate::scheduler::{Discipline, Scheduler, SchedulerKind};
use crate::time::SimTime;

/// A transmission link with rate, propagation delay and an output queue.
///
/// The queue is a [`SchedulerKind`] enum — discipline dispatch in the
/// per-packet hot path is a match, not a virtual call, and a FIFO link
/// holds its queue inline. A packet's serialization time is computed
/// once, when it enters service, and kept beside it until it departs.
#[derive(Debug)]
pub struct Link {
    rate_bps: f64,
    propagation: SimTime,
    queue: SchedulerKind,
    /// The packet on the line and its service time.
    in_service: Option<(Packet, SimTime)>,
    /// Total busy time (for utilization accounting).
    pub busy_time: SimTime,
}

/// What [`Link::offer`] / [`Link::complete`] tell the engine to do next.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkAction {
    /// Schedule a service-completion event at the given time.
    ScheduleCompletion(SimTime),
    /// Nothing to schedule (link already busy, or queue empty).
    None,
}

impl Link {
    /// Builds a link with the given line rate, propagation delay and
    /// discipline.
    pub fn new(rate_bps: f64, propagation: SimTime, discipline: Discipline) -> Self {
        assert!(
            rate_bps > 0.0 && rate_bps.is_finite(),
            "Link: rate must be positive"
        );
        Self {
            rate_bps,
            propagation,
            queue: discipline.build(),
            in_service: None,
            busy_time: SimTime::ZERO,
        }
    }

    /// Line rate (bit/s).
    pub fn rate_bps(&self) -> f64 {
        self.rate_bps
    }

    /// One-way propagation delay.
    pub fn propagation(&self) -> SimTime {
        self.propagation
    }

    /// Serialization time of `bytes` on this link.
    pub fn serialization(&self, bytes: f64) -> SimTime {
        SimTime::serialization(bytes, self.rate_bps)
    }

    /// Offers a packet at time `now`. If the line is idle the packet goes
    /// straight into service and a completion must be scheduled; otherwise
    /// it queues.
    pub fn offer(&mut self, p: Packet, now: SimTime) -> LinkAction {
        if self.in_service.is_none() {
            self.start(p, now)
        } else {
            self.queue.enqueue(p);
            LinkAction::None
        }
    }

    /// Puts `p` on the line at `now`.
    fn start(&mut self, p: Packet, now: SimTime) -> LinkAction {
        let service = self.serialization(p.size_bytes);
        self.busy_time += service;
        self.in_service = Some((p, service));
        LinkAction::ScheduleCompletion(now + service)
    }

    /// Completes the in-service packet at time `now`; returns the
    /// delivered packet (after propagation, i.e. the caller should treat
    /// `now + propagation` as the arrival instant) and the next action.
    pub fn complete(&mut self, now: SimTime) -> (Packet, LinkAction) {
        let (p, _, action) = self.depart(now);
        (p, action)
    }

    /// [`Link::complete`], also handing back the delivered packet's
    /// service time on this link, so `now` minus it is when its service
    /// began.
    pub fn depart(&mut self, now: SimTime) -> (Packet, SimTime, LinkAction) {
        let (done, service) = self
            .in_service
            .take()
            // lint:allow(unwrap): the event loop only schedules a completion while a packet is in service
            .expect("complete called on idle link");
        let action = match self.queue.dequeue() {
            Some(next) => self.start(next, now),
            None => LinkAction::None,
        };
        (done, service, action)
    }
}

/// A FIFO line whose departures are fixed on arrival. Its service
/// times are known when a packet arrives, so Lindley's recursion,
/// `start = max(arrival, busy_until)`, gives each packet's service start
/// at once: the line needs no queue and no completion event.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct FifoLine {
    busy_until: SimTime,
    /// Busy time of the services that start by the horizon passed to
    /// [`FifoLine::serve`], as [`Link`] counts the services it starts.
    pub(crate) busy_time: SimTime,
    /// Departures by that horizon: the completions a [`Link`] would have
    /// scheduled as events within it.
    pub(crate) departures: u64,
}

impl FifoLine {
    /// Serves a packet that arrives at `arrival` and needs `service` on
    /// the line, and returns when its service starts.
    #[inline]
    pub(crate) fn serve(
        &mut self,
        arrival: SimTime,
        service: SimTime,
        horizon: SimTime,
    ) -> SimTime {
        let start = arrival.max(self.busy_until);
        self.busy_until = start + service;
        if start <= horizon {
            self.busy_time += service;
        }
        if self.busy_until <= horizon {
            self.departures += 1;
        }
        start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::TrafficClass;

    #[test]
    fn fifo_line_follows_lindley_within_its_horizon() {
        // 1 ms and 2 ms services at 1 Mbit/s: a packet that finds the
        // line busy starts when it frees, one that finds it idle at once.
        let horizon = SimTime::from_millis(3.5);
        let mut line = FifoLine::default();
        let starts: Vec<f64> = [(0.0, 125.0), (0.5, 250.0), (4.0, 125.0), (4.2, 125.0)]
            .iter()
            .map(|&(at, bytes)| {
                let service = SimTime::serialization(bytes, 1e6);
                line.serve(SimTime::from_millis(at), service, horizon)
                    .as_millis()
            })
            .collect();
        assert_eq!(starts, [0.0, 1.0, 4.0, 5.0]);
        // Busy time counts the two services that start by 3.5 ms, as a
        // `Link` counts the services it starts; departures the two that
        // end by then (at 1 and 3 ms).
        assert_eq!(line.busy_time, SimTime::from_millis(3.0));
        assert_eq!(line.departures, 2);
    }

    #[test]
    fn idle_link_serves_immediately() {
        let mut l = Link::new(1_000_000.0, SimTime::ZERO, Discipline::Fifo);
        let p = Packet::game(125.0, 0, SimTime::ZERO);
        // 125 B at 1 Mbps = 1 ms.
        match l.offer(p, SimTime::ZERO) {
            LinkAction::ScheduleCompletion(t) => assert_eq!(t, SimTime::from_millis(1.0)),
            other => panic!("expected completion, got {other:?}"),
        }
        assert!(l.in_service.is_some());
        assert_eq!(l.queue.len(), 0);
    }

    #[test]
    fn busy_link_queues() {
        let mut l = Link::new(1_000_000.0, SimTime::ZERO, Discipline::Fifo);
        let _ = l.offer(Packet::game(125.0, 0, SimTime::ZERO), SimTime::ZERO);
        assert_eq!(
            l.offer(Packet::game(125.0, 1, SimTime::ZERO), SimTime::ZERO),
            LinkAction::None
        );
        assert_eq!(l.queue.len(), 1);
        // Completion pulls the queued packet into service.
        let (done, action) = l.complete(SimTime::from_millis(1.0));
        assert_eq!(done.flow, 0);
        match action {
            LinkAction::ScheduleCompletion(t) => assert_eq!(t, SimTime::from_millis(2.0)),
            other => panic!("expected follow-up completion, got {other:?}"),
        }
        let (done2, action2) = l.complete(SimTime::from_millis(2.0));
        assert_eq!(done2.flow, 1);
        assert_eq!(action2, LinkAction::None);
        assert!(l.in_service.is_none());
    }

    #[test]
    fn priority_link_reorders() {
        let mut l = Link::new(1_000_000.0, SimTime::ZERO, Discipline::Priority);
        let _ = l.offer(Packet::elastic(1500.0, SimTime::ZERO), SimTime::ZERO);
        let _ = l.offer(Packet::elastic(1500.0, SimTime::ZERO), SimTime::ZERO);
        let _ = l.offer(Packet::game(100.0, 9, SimTime::ZERO), SimTime::ZERO);
        // The elastic packet in service is not preempted...
        let (first, _) = l.complete(SimTime::from_millis(12.0));
        assert_eq!(first.class, TrafficClass::Elastic);
        // ...but the game packet jumps the remaining elastic one.
        let (second, _) = l.complete(SimTime::from_millis(12.8));
        assert_eq!(second.flow, 9);
    }

    #[test]
    fn depart_hands_back_the_service_time() {
        let mut l = Link::new(1_000_000.0, SimTime::ZERO, Discipline::Fifo);
        let _ = l.offer(Packet::game(125.0, 0, SimTime::ZERO), SimTime::ZERO);
        let _ = l.offer(Packet::game(250.0, 1, SimTime::ZERO), SimTime::ZERO);
        let (first, service, _) = l.depart(SimTime::from_millis(1.0));
        assert_eq!((first.flow, service), (0, SimTime::from_millis(1.0)));
        let (second, service, _) = l.depart(SimTime::from_millis(3.0));
        assert_eq!((second.flow, service), (1, l.serialization(250.0)));
    }

    #[test]
    fn boxed_disciplines_keep_a_fifo_link_small() {
        // Priority and WFQ state sits behind a `Box`, so the FIFO links
        // the topology is mostly made of stay two cache lines wide.
        let size = std::mem::size_of::<Link>();
        assert!(size <= 128, "a link is {size} bytes");
    }

    #[test]
    fn busy_time_tracks_utilization() {
        let mut l = Link::new(1_000_000.0, SimTime::ZERO, Discipline::Fifo);
        let _ = l.offer(Packet::game(250.0, 0, SimTime::ZERO), SimTime::ZERO);
        let _ = l.complete(SimTime::from_millis(2.0));
        assert_eq!(l.busy_time, SimTime::from_millis(2.0));
    }

    #[test]
    #[should_panic(expected = "idle link")]
    fn completing_idle_link_panics() {
        let mut l = Link::new(1e6, SimTime::ZERO, Discipline::Fifo);
        let _ = l.complete(SimTime::ZERO);
    }
}
