//! Output-link service disciplines: FIFO, non-preemptive head-of-line
//! priority, and weighted fair queuing.
//!
//! Section 1 of the paper motivates the whole study with this triad: FIFO
//! lets elastic traffic jeopardize gaming delay, strict priority can
//! starve the elastic class, WFQ reserves a minimum rate for gaming. The
//! analytic model then studies the gaming queue in isolation — and the
//! simulator can verify exactly when that isolation assumption holds.

use crate::packet::{Packet, TrafficClass};
use std::collections::VecDeque;

/// A service discipline: how an output link picks the next packet.
pub trait Scheduler: std::fmt::Debug + Send {
    /// Enqueues a packet.
    fn enqueue(&mut self, p: Packet);
    /// Picks the next packet to serve (non-preemptive: called only when
    /// the link goes idle).
    fn dequeue(&mut self) -> Option<Packet>;
    /// Packets currently queued.
    fn len(&self) -> usize;
    /// Whether the queue is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Plain first-in-first-out across both classes.
#[derive(Debug, Default)]
pub struct Fifo {
    q: VecDeque<Packet>,
}

impl Fifo {
    /// Empty FIFO queue.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for Fifo {
    fn enqueue(&mut self, p: Packet) {
        self.q.push_back(p);
    }

    fn dequeue(&mut self) -> Option<Packet> {
        self.q.pop_front()
    }

    fn len(&self) -> usize {
        self.q.len()
    }
}

/// Non-preemptive head-of-line priority: `Game` always before `Elastic`;
/// a packet in service is never interrupted.
#[derive(Debug, Default)]
pub struct HolPriority {
    game: VecDeque<Packet>,
    elastic: VecDeque<Packet>,
}

impl HolPriority {
    /// Empty priority queue.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for HolPriority {
    fn enqueue(&mut self, p: Packet) {
        match p.class {
            TrafficClass::Game => self.game.push_back(p),
            TrafficClass::Elastic => self.elastic.push_back(p),
        }
    }

    fn dequeue(&mut self) -> Option<Packet> {
        self.game.pop_front().or_else(|| self.elastic.pop_front())
    }

    fn len(&self) -> usize {
        self.game.len() + self.elastic.len()
    }
}

/// Packet-level weighted fair queuing (virtual finish times over the two
/// classes), the scheduler the paper assumes reserves the gaming class
/// its capacity share.
#[derive(Debug)]
pub struct Wfq {
    game: VecDeque<(f64, Packet)>,
    elastic: VecDeque<(f64, Packet)>,
    /// Weight of the game class in (0, 1); elastic gets the complement.
    game_weight: f64,
    virtual_time: f64,
    last_finish_game: f64,
    last_finish_elastic: f64,
}

impl Wfq {
    /// WFQ with the given game-class weight in (0, 1).
    pub fn new(game_weight: f64) -> Self {
        assert!(
            game_weight > 0.0 && game_weight < 1.0,
            "Wfq: game weight must lie strictly in (0,1), got {game_weight}"
        );
        Self {
            game: VecDeque::new(),
            elastic: VecDeque::new(),
            game_weight,
            virtual_time: 0.0,
            last_finish_game: 0.0,
            last_finish_elastic: 0.0,
        }
    }
}

impl Scheduler for Wfq {
    fn enqueue(&mut self, p: Packet) {
        // Start-time fair queuing bookkeeping: finish = max(V, last) +
        // size/weight.
        match p.class {
            TrafficClass::Game => {
                let start = self.virtual_time.max(self.last_finish_game);
                let finish = start + p.size_bytes / self.game_weight;
                self.last_finish_game = finish;
                self.game.push_back((finish, p));
            }
            TrafficClass::Elastic => {
                let start = self.virtual_time.max(self.last_finish_elastic);
                let finish = start + p.size_bytes / (1.0 - self.game_weight);
                self.last_finish_elastic = finish;
                self.elastic.push_back((finish, p));
            }
        }
    }

    fn dequeue(&mut self) -> Option<Packet> {
        let pick_game = match (self.game.front(), self.elastic.front()) {
            (Some((fg, _)), Some((fe, _))) => fg <= fe,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => return None,
        };
        let (finish, p) = if pick_game {
            // lint:allow(unwrap): `pick_game` is only true when `game.front()` matched `Some` above
            self.game.pop_front().unwrap()
        } else {
            // lint:allow(unwrap): this branch is only reached when `elastic.front()` matched `Some` above
            self.elastic.pop_front().unwrap()
        };
        self.virtual_time = self.virtual_time.max(finish);
        Some(p)
    }

    fn len(&self) -> usize {
        self.game.len() + self.elastic.len()
    }
}

/// Which discipline a link should use (config-level enum).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Discipline {
    /// First-in first-out.
    Fifo,
    /// Non-preemptive head-of-line priority for the game class.
    Priority,
    /// Weighted fair queuing with this game-class weight.
    Wfq {
        /// Share of the link reserved for the game class, in (0, 1).
        game_weight: f64,
    },
}

/// A scheduler built from a [`Discipline`], dispatched by enum match.
///
/// The event loop calls `enqueue`/`dequeue` once per packet per hop; with
/// a `Box<dyn Scheduler>` those were virtual calls through a fat pointer.
/// The closed set of disciplines makes an enum the natural representation:
/// the match compiles to a jump the branch predictor resolves, and the
/// compiler can inline the per-variant bodies into the hot loop. The FIFO
/// queue, which every access link uses, lives inline in its
/// [`crate::link::Link`]; the larger priority and WFQ states sit behind a
/// `Box`, so they do not widen every link. [`SchedulerKind`] implements
/// [`Scheduler`], so code written against the trait compiles unchanged.
#[derive(Debug)]
pub enum SchedulerKind {
    /// First-in first-out.
    Fifo(Fifo),
    /// Head-of-line priority.
    Priority(Box<HolPriority>),
    /// Weighted fair queuing.
    Wfq(Box<Wfq>),
}

impl Scheduler for SchedulerKind {
    #[inline]
    fn enqueue(&mut self, p: Packet) {
        match self {
            SchedulerKind::Fifo(q) => q.enqueue(p),
            SchedulerKind::Priority(q) => q.enqueue(p),
            SchedulerKind::Wfq(q) => q.enqueue(p),
        }
    }

    #[inline]
    fn dequeue(&mut self) -> Option<Packet> {
        match self {
            SchedulerKind::Fifo(q) => q.dequeue(),
            SchedulerKind::Priority(q) => q.dequeue(),
            SchedulerKind::Wfq(q) => q.dequeue(),
        }
    }

    #[inline]
    fn len(&self) -> usize {
        match self {
            SchedulerKind::Fifo(q) => q.len(),
            SchedulerKind::Priority(q) => q.len(),
            SchedulerKind::Wfq(q) => q.len(),
        }
    }
}

impl Discipline {
    /// Instantiates the scheduler (enum dispatch; see [`SchedulerKind`]).
    pub fn build(self) -> SchedulerKind {
        match self {
            Discipline::Fifo => SchedulerKind::Fifo(Fifo::new()),
            Discipline::Priority => SchedulerKind::Priority(Box::new(HolPriority::new())),
            Discipline::Wfq { game_weight } => SchedulerKind::Wfq(Box::new(Wfq::new(game_weight))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn game(n: u32) -> Packet {
        Packet::game(100.0, n, SimTime::ZERO)
    }

    fn elastic() -> Packet {
        Packet::elastic(1500.0, SimTime::ZERO)
    }

    #[test]
    fn fifo_preserves_order_across_classes() {
        let mut q = Fifo::new();
        q.enqueue(elastic());
        q.enqueue(game(1));
        q.enqueue(game(2));
        assert_eq!(q.len(), 3);
        assert_eq!(q.dequeue().unwrap().class, TrafficClass::Elastic);
        assert_eq!(q.len(), 2);
        assert_eq!(q.dequeue().unwrap().flow, 1);
        assert_eq!(q.dequeue().unwrap().flow, 2);
        assert!(q.dequeue().is_none());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn priority_serves_game_first() {
        let mut q = HolPriority::new();
        q.enqueue(elastic());
        q.enqueue(elastic());
        q.enqueue(game(7));
        assert_eq!(q.dequeue().unwrap().flow, 7);
        assert_eq!(q.dequeue().unwrap().class, TrafficClass::Elastic);
    }

    #[test]
    fn priority_keeps_fifo_within_class() {
        let mut q = HolPriority::new();
        q.enqueue(game(1));
        q.enqueue(game(2));
        assert_eq!(q.dequeue().unwrap().flow, 1);
        assert_eq!(q.dequeue().unwrap().flow, 2);
    }

    #[test]
    fn wfq_interleaves_by_weight() {
        // Equal sizes, game weight 0.5: strict alternation once both
        // backlogs exist.
        let mut q = Wfq::new(0.5);
        for i in 0..4 {
            q.enqueue(Packet::game(1000.0, i, SimTime::ZERO));
            q.enqueue(Packet::elastic(1000.0, SimTime::ZERO));
        }
        let mut games = 0;
        let mut elastics = 0;
        for _ in 0..4 {
            match q.dequeue().unwrap().class {
                TrafficClass::Game => games += 1,
                TrafficClass::Elastic => elastics += 1,
            }
        }
        assert_eq!(games, 2);
        assert_eq!(elastics, 2);
    }

    #[test]
    fn wfq_favours_heavier_weight() {
        // Game weight 0.8: among the first 10 departures of a saturated
        // mixed backlog of equal-size packets, game should get ~8.
        let mut q = Wfq::new(0.8);
        for i in 0..20 {
            q.enqueue(Packet::game(1000.0, i, SimTime::ZERO));
            q.enqueue(Packet::elastic(1000.0, SimTime::ZERO));
        }
        let games = (0..10)
            .filter(|_| q.dequeue().unwrap().class == TrafficClass::Game)
            .count();
        assert!(
            (7..=9).contains(&games),
            "game departures in first 10: {games}"
        );
    }

    #[test]
    fn wfq_is_work_conserving() {
        let mut q = Wfq::new(0.3);
        q.enqueue(elastic());
        // Only elastic queued → it must be served despite low weight.
        assert_eq!(q.dequeue().unwrap().class, TrafficClass::Elastic);
        assert!(q.dequeue().is_none());
    }

    #[test]
    #[should_panic(expected = "strictly in (0,1)")]
    fn wfq_rejects_degenerate_weight() {
        Wfq::new(1.0);
    }

    #[test]
    fn discipline_builder() {
        assert_eq!(Discipline::Fifo.build().len(), 0);
        assert_eq!(Discipline::Priority.build().len(), 0);
        assert_eq!(Discipline::Wfq { game_weight: 0.6 }.build().len(), 0);
    }
}
