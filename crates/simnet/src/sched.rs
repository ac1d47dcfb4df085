//! One deterministic scheduler for every simulated part.
//!
//! Every protocol part of the workspace is sans-IO: it turns an input into
//! outputs and owns no clock, queue or socket. A [`Sched`] runs such parts
//! over virtual time. It owns what every driver used to re-implement:
//!
//! * the [`EventQueue`]: events run in `(time, seq)` order, so two events
//!   for the same instant run in the order they were scheduled;
//! * the link model ([`Links`]): the modelled LAN ([`MulticastNet`]) or a
//!   fixed per-link delay table, over numbered multicast groups
//!   ([`Group`]);
//! * wire batching: an adjacent run of same-instant wires to one site
//!   reaches the node as one [`Input::Wires`] batch;
//! * the fault rules in force ([`Faults`], the one value both drivers
//!   keep them in, changed through [`Sched::fault`]): loss and jitter for
//!   the links, and which sites are down and which links are cut;
//! * crashes: a crashed site's local work dies with its incarnation, its
//!   timers fire only while it is up, and wires addressed to it are held
//!   (or dropped, per [`Data::held_while_down`]);
//! * partitions: a wire over a cut link is held until the cut heals;
//! * replay: held wires are delivered again [`REPLAY_GAP`] apart, in hold
//!   order.
//!
//! A node is plain data in, plain data out: [`Node::handle`] gets an
//! [`Input`] and pushes [`Output`]s. The simple drivers hand the whole
//! loop to [`Sched::run_until`]; a driver that keeps cross-site knowledge
//! of its own (the transaction cluster) steps with [`Sched::next`] and
//! [`Sched::apply`] and handles its control events itself.
//!
//! # Example
//!
//! ```
//! use otp_simnet::sched::{Data, Input, Links, Node, Output, Outputs, Sched};
//! use otp_simnet::{SimDuration, SimRng, SimTime, SiteId};
//!
//! /// Sends a submitted value to site 1, which reports what it receives.
//! struct Echo;
//! impl Data for Echo {
//!     type Wire = u32;
//!     type Timer = ();
//!     type Work = ();
//!     type Submit = u32;
//!     type Control = ();
//!     type Report = u32;
//! }
//! impl Node for Echo {
//!     type Data = Echo;
//!     fn handle(&mut self, _: SiteId, _: SimTime, input: Input<Echo>, out: &mut Outputs<Echo>) {
//!         match input {
//!             Input::Submit(wire) => out.push(Output::Send { group: 0, to: SiteId::new(1), wire }),
//!             Input::Wires(batch) => out.extend(batch.into_iter().map(|a| Output::Report(a.wire))),
//!             _ => {}
//!         }
//!     }
//! }
//!
//! let hop = SimDuration::from_micros(100);
//! let mut sched: Sched<Echo> = Sched::new(Links::uniform(2, hop), SimRng::seed_from(1));
//! sched.schedule_submit(SimTime::ZERO, SiteId::new(0), 7);
//! let mut seen = Vec::new();
//! sched.run_until(SimTime::from_secs(1), &mut Echo, |site, now, v| seen.push((site, now, v)));
//! assert_eq!(seen, [(SiteId::new(1), SimTime::ZERO + hop, 7)]);
//! ```

use crate::event::EventQueue;
use crate::faults::{Faults, Todo};
use crate::nemesis::NemesisEvent;
use crate::net::{Delivery, MulticastNet, SiteId};
use crate::rng::{DurationDist, SimRng};
use crate::time::{SimDuration, SimTime};

/// Gap between two replayed held wires (and from the replay instant to
/// the first of them), for both drivers: the threaded runtime releases
/// the wires a healed cut or a recovered site held this far apart too.
pub const REPLAY_GAP: SimDuration = SimDuration::from_micros(10);

/// The plain-data vocabulary of one kind of node.
pub trait Data {
    /// What travels between sites.
    type Wire: Clone;
    /// A timer the node arms for itself.
    type Timer;
    /// Local work the node starts; it completes after the scheduler's
    /// work time ([`Sched::with_work_time`]).
    type Work;
    /// A client request addressed to a site.
    type Submit;
    /// A driver command addressed to a site.
    type Control;
    /// What the node tells its driver (a commit, a delivery).
    type Report;

    /// Frame size of `wire` on the modelled network.
    fn wire_size(_wire: &Self::Wire) -> u32 {
        0
    }

    /// Whether `wire`, addressed to a crashed site, is held for its next
    /// incarnation (true) or dropped (false).
    fn held_while_down(_wire: &Self::Wire) -> bool {
        true
    }
}

/// One wire arriving at a site: its sender, its multicast group and the
/// wire.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival<W> {
    /// The sending site.
    pub from: SiteId,
    /// The group the wire was sent in ([`Group`]).
    pub group: u16,
    /// The wire.
    pub wire: W,
}

/// What a node reacts to.
pub enum Input<D: Data> {
    /// An adjacent run of same-instant wires, in arrival order.
    Wires(Vec<Arrival<D::Wire>>),
    /// A timer the site armed fired while it is up (perhaps armed by an
    /// earlier incarnation: a node that must not see those tags its
    /// timers).
    Timer(D::Timer),
    /// Local work of the site's current incarnation completed.
    Done(D::Work),
    /// A client request reached the (live) site.
    Submit(D::Submit),
    /// A driver command.
    Control(D::Control),
}

/// What a node asks for. Outputs are carried out in the order they were
/// pushed.
pub enum Output<D: Data> {
    /// Sends `wire` to `to`, on `group`'s segment.
    Send {
        /// The group whose segment carries the frame.
        group: u16,
        /// The receiver.
        to: SiteId,
        /// The wire.
        wire: D::Wire,
    },
    /// Sends `wire` to every member of `group`.
    Multicast {
        /// The group.
        group: u16,
        /// The wire.
        wire: D::Wire,
    },
    /// Arms `timer` to fire `after` from now.
    Timer {
        /// Delay.
        after: SimDuration,
        /// The timer.
        timer: D::Timer,
    },
    /// Starts local work.
    Work(D::Work),
    /// Tells the driver something.
    Report(D::Report),
}

/// A node's output buffer. Drivers keep one and reuse it ([`Sched::apply`]
/// drains it), so a step allocates nothing for its outputs.
pub type Outputs<D> = Vec<Output<D>>;

/// A sans-IO part the scheduler runs: one or more sites' state, reacting
/// to inputs addressed to site `at`.
pub trait Node {
    /// The node's vocabulary.
    type Data: Data;

    /// Reacts to `input` at site `at`, at virtual time `now`.
    fn handle(
        &mut self,
        at: SiteId,
        now: SimTime,
        input: Input<Self::Data>,
        out: &mut Outputs<Self::Data>,
    );
}

/// A multicast group: its members, and the wire segment its frames
/// occupy on the modelled network.
#[derive(Debug, Clone)]
pub struct Group {
    /// The segment ([`MulticastNet::add_segments`]).
    pub segment: usize,
    /// The members, in delivery order.
    pub members: Vec<SiteId>,
}

/// How a wire travels.
#[derive(Debug)]
pub enum Links {
    /// The modelled LAN: serialization, jitter, loss.
    Net(Box<MulticastNet>),
    /// A fixed delay per directed link `[from][to]`.
    Table(Vec<Vec<SimDuration>>),
}

impl Links {
    /// A table giving every link of `n` sites the same `delay`.
    pub fn uniform(n: usize, delay: SimDuration) -> Self {
        Links::Table(vec![vec![delay; n]; n])
    }
}

enum Event<D: Data> {
    Wire { to: SiteId, arrival: Arrival<D::Wire> },
    Timer { site: SiteId, timer: D::Timer },
    Work { site: SiteId, life: u32, work: D::Work },
    Submit { site: SiteId, submit: D::Submit },
    Control { site: SiteId, control: D::Control },
    Crash { site: SiteId },
    Restore { site: SiteId, control: D::Control },
}

/// What the scheduler keeps per site.
struct SiteState<W> {
    /// Incarnation, bumped at each crash: work carries the one it was
    /// started in.
    life: u32,
    /// Wires held for the site — it was down, or its node was not ready
    /// for them ([`Sched::hold`]) — in hold order.
    held: Vec<Arrival<W>>,
}

/// The deterministic scheduler. See the [module docs](self).
pub struct Sched<D: Data> {
    queue: EventQueue<Event<D>>,
    links: Links,
    groups: Vec<Group>,
    rng: SimRng,
    work_time: DurationDist,
    sites: Vec<SiteState<D::Wire>>,
    /// The fault rules in force: which sites are up, which links are cut,
    /// and the loss and jitter the links apply.
    faults: Faults,
    /// Wires held at a partition cut, with their receiver, in hold order.
    cut: Vec<(SiteId, Arrival<D::Wire>)>,
    popped: u64,
    out: Outputs<D>,
    /// An empty batch [`Sched::next`] fills next; a driver hands a batch it
    /// emptied back with [`Sched::recycle`].
    spare: Vec<Arrival<D::Wire>>,
}

impl<D: Data> Sched<D> {
    /// Bytes one queued event takes, without its key in the queue (time
    /// and sequence number): a wire with its receiver, or a timer, work,
    /// request or command with its site. Every event moves through the
    /// queue's heaps by value, so a size test pins this.
    pub const EVENT_BYTES: usize = std::mem::size_of::<Event<D>>();

    /// A scheduler over `links`, every site up, one multicast group (0) of
    /// all sites on segment 0, drawing from `rng`, with zero work time.
    pub fn new(links: Links, rng: SimRng) -> Self {
        let n = match &links {
            Links::Net(net) => net.config().sites,
            Links::Table(t) => t.len(),
        };
        Sched {
            queue: EventQueue::new(),
            links,
            groups: vec![Group { segment: 0, members: SiteId::all(n).collect() }],
            rng,
            work_time: DurationDist::Fixed(SimDuration::ZERO),
            sites: (0..n).map(|_| SiteState { life: 0, held: Vec::new() }).collect(),
            faults: Faults::new(n),
            cut: Vec::new(),
            popped: 0,
            out: Vec::new(),
            spare: Vec::new(),
        }
    }

    /// Replaces the multicast groups (indexed by [`Output::Multicast`]'s
    /// `group`).
    pub fn with_groups(mut self, groups: Vec<Group>) -> Self {
        self.groups = groups;
        self
    }

    /// Sets how long local work takes, drawn when it starts.
    pub fn with_work_time(mut self, work_time: DurationDist) -> Self {
        self.work_time = work_time;
        self
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// The modelled network.
    ///
    /// # Panics
    ///
    /// Panics when the links are a delay table.
    pub fn net(&self) -> &MulticastNet {
        match &self.links {
            Links::Net(net) => net,
            Links::Table(_) => panic!("a delay table has no network"),
        }
    }

    /// The per-link delays.
    ///
    /// # Panics
    ///
    /// Panics when the links are the modelled network.
    pub fn delays_mut(&mut self) -> &mut Vec<Vec<SimDuration>> {
        match &mut self.links {
            Links::Table(t) => t,
            Links::Net(_) => panic!("the modelled network has no delay table"),
        }
    }

    /// The random stream network draws and work times take from.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Whether `site` is up.
    pub fn is_up(&self, site: SiteId) -> bool {
        !self.faults.is_down(site)
    }

    /// Puts `ev` in force now and returns what it leaves the driver to do
    /// ([`Faults::apply`]): a crash or a recovery the driver carries out
    /// with [`Sched::crash`] or [`Sched::restore`] and its own state. The
    /// wires a cut held that can cross now replay, like
    /// [`Sched::replay_held`].
    pub fn fault(&mut self, ev: &NemesisEvent) -> Todo {
        let todo = self.faults.apply(ev);
        let (free, cut): (Vec<_>, Vec<_>) = std::mem::take(&mut self.cut)
            .into_iter()
            .partition(|(to, a)| !self.faults.cut(a.from, *to));
        self.cut = cut;
        self.replay(free.into_iter());
        todo
    }

    /// `site`'s incarnation: the number of crashes it went through.
    pub fn incarnation(&self, site: SiteId) -> u32 {
        self.sites[site.index()].life
    }

    /// Schedules a client request to `site` at `at`; a site that is down
    /// then never sees it.
    pub fn schedule_submit(&mut self, at: SimTime, site: SiteId, submit: D::Submit) {
        self.queue.schedule(at, Event::Submit { site, submit });
    }

    /// Schedules a driver command to `site` at `at`.
    pub fn schedule_control(&mut self, at: SimTime, site: SiteId, control: D::Control) {
        self.queue.schedule(at, Event::Control { site, control });
    }

    /// Schedules a crash of `site` at `at` ([`Sched::crash`]).
    pub fn schedule_crash(&mut self, at: SimTime, site: SiteId) {
        self.queue.schedule(at, Event::Crash { site });
    }

    /// Schedules the restore of `site` at `at`: the site comes up, the node
    /// gets `control` (to rebuild its state), and then the wires held for
    /// the site replay ([`Sched::replay_held`]). Handled by
    /// [`Sched::run_until`].
    pub fn schedule_restore(&mut self, at: SimTime, site: SiteId, control: D::Control) {
        self.queue.schedule(at, Event::Restore { site, control });
    }

    /// Crashes `site` now: its incarnation ends (pending work dies with
    /// it, pending timers wait for it to be up) and wires addressed to it
    /// are held from now on.
    pub fn crash(&mut self, site: SiteId) {
        self.faults.set_down(site, true);
        self.sites[site.index()].life += 1;
    }

    /// Brings `site` up again. What was held for it stays held until
    /// [`Sched::replay_held`].
    pub fn restore(&mut self, site: SiteId) {
        self.faults.set_down(site, false);
    }

    /// Holds `arrival` for `site` as if it had arrived while the site was
    /// down (a node that is not ready for it yet), until
    /// [`Sched::replay_held`]. For a driver that steps itself:
    /// [`Sched::run_until`] replays a site's held wires once it is up.
    pub fn hold(&mut self, site: SiteId, arrival: Arrival<D::Wire>) {
        self.sites[site.index()].held.push(arrival);
    }

    /// Every held wire with its receiver: those held at a partition cut
    /// first, then those held for down sites, site by site, each in hold
    /// order.
    pub fn held(&self) -> impl Iterator<Item = (SiteId, &Arrival<D::Wire>)> {
        let cut = self.cut.iter().map(|(to, a)| (*to, a));
        let down = SiteId::all(self.sites.len())
            .flat_map(move |s| self.sites[s.index()].held.iter().map(move |a| (s, a)));
        cut.chain(down)
    }

    /// Delivers everything held for `site` again, [`REPLAY_GAP`] apart in
    /// hold order, starting one gap from now.
    pub fn replay_held(&mut self, site: SiteId) {
        let held = std::mem::take(&mut self.sites[site.index()].held);
        self.replay(held.into_iter().map(|a| (site, a)));
    }

    fn replay(&mut self, wires: impl Iterator<Item = (SiteId, Arrival<D::Wire>)>) {
        let now = self.queue.now();
        let mut delay = REPLAY_GAP;
        for (to, arrival) in wires {
            self.queue.schedule(now + delay, Event::Wire { to, arrival });
            delay += REPLAY_GAP;
        }
    }

    /// The wires of `batch` that `to` takes now: a wire to a down site is
    /// held for it (or dropped, [`Data::held_while_down`]), a wire over a
    /// cut link is held until the cut heals ([`Sched::fault`]).
    pub fn admit(&mut self, to: SiteId, batch: Vec<Arrival<D::Wire>>) -> Vec<Arrival<D::Wire>> {
        let down = self.faults.is_down(to);
        if !down && !batch.iter().any(|a| self.faults.cut(a.from, to)) {
            return batch;
        }
        let mut kept = Vec::with_capacity(batch.len());
        for arrival in batch {
            if down {
                if D::held_while_down(&arrival.wire) {
                    self.sites[to.index()].held.push(arrival);
                }
            } else if self.faults.cut(arrival.from, to) {
                self.cut.push((to, arrival));
            } else {
                kept.push(arrival);
            }
        }
        kept
    }

    /// Events popped so far.
    pub fn events(&self) -> u64 {
        self.popped
    }

    /// Takes back a wire batch the driver has emptied, so the next batch
    /// [`Sched::next`] makes reuses its allocation.
    pub fn recycle(&mut self, mut batch: Vec<Arrival<D::Wire>>) {
        batch.clear();
        if batch.capacity() > self.spare.capacity() {
            self.spare = batch;
        }
    }

    /// Pops the next event due by `deadline` and returns the input it
    /// makes for its site. Same-instant wires to one site come as one
    /// batch, not yet [`admitted`](Sched::admit); timers and requests of
    /// a down site and work of a dead incarnation are dropped; a scheduled
    /// crash is carried out; a scheduled restore brings its site up and
    /// comes back as its control. `None` once nothing is due by
    /// `deadline`.
    pub fn next(&mut self, deadline: SimTime) -> Option<(SiteId, Input<D>)> {
        loop {
            let t = self.queue.peek_time().filter(|t| *t <= deadline)?;
            let (_, ev) = self.queue.pop().expect("peeked");
            self.popped += 1;
            match ev {
                Event::Wire { to, arrival } => {
                    let mut batch = std::mem::take(&mut self.spare);
                    batch.push(arrival);
                    while let Some((nt, Event::Wire { to: next, .. })) = self.queue.peek() {
                        if nt != t || *next != to {
                            break;
                        }
                        let Some((_, Event::Wire { arrival, .. })) = self.queue.pop() else {
                            unreachable!("peeked a same-instant wire");
                        };
                        batch.push(arrival);
                        self.popped += 1;
                    }
                    return Some((to, Input::Wires(batch)));
                }
                Event::Timer { site, timer } if self.is_up(site) => {
                    return Some((site, Input::Timer(timer)));
                }
                Event::Work { site, life, work }
                    if self.is_up(site) && self.incarnation(site) == life =>
                {
                    return Some((site, Input::Done(work)));
                }
                Event::Submit { site, submit } if self.is_up(site) => {
                    return Some((site, Input::Submit(submit)));
                }
                Event::Control { site, control } => return Some((site, Input::Control(control))),
                Event::Crash { site } => self.crash(site),
                Event::Restore { site, control } => {
                    self.restore(site);
                    return Some((site, Input::Control(control)));
                }
                Event::Timer { .. } | Event::Work { .. } | Event::Submit { .. } => {}
            }
        }
    }

    /// Carries out `site`'s outputs in order, draining `out`: wires go on
    /// the links, timers are armed, work starts in the site's incarnation
    /// (for a [`with_work_time`](Sched::with_work_time) draw), and
    /// reports go to `report` with the site and the time.
    ///
    /// The outputs may be of another vocabulary than the scheduler's, as
    /// long as wires, timers and work are the same: a node's reports and
    /// controls need not be the driver's.
    pub fn apply<O>(
        &mut self,
        site: SiteId,
        out: &mut Outputs<O>,
        mut report: impl FnMut(SiteId, SimTime, O::Report),
    ) where
        O: Data<Wire = D::Wire, Timer = D::Timer, Work = D::Work>,
    {
        let now = self.queue.now();
        let life = self.sites[site.index()].life;
        for o in out.drain(..) {
            match o {
                Output::Send { group, to, wire } => {
                    let segment = self.groups[group as usize].segment;
                    let at = self.arrival(segment, site, to, D::wire_size(&wire));
                    let arrival = Arrival { from: site, group, wire };
                    self.queue.schedule(at, Event::Wire { to, arrival });
                }
                Output::Multicast { group, wire } => self.multicast(site, group, wire),
                Output::Timer { after, timer } => {
                    self.queue.schedule(now + after, Event::Timer { site, timer });
                }
                Output::Work(work) => {
                    let d = self.work_time.sample(&mut self.rng);
                    self.queue.schedule(now + d, Event::Work { site, life, work });
                }
                Output::Report(r) => report(site, now, r),
            }
        }
    }

    /// When a frame of `size` bytes that `from` sends now on `segment`
    /// reaches `to`: the modelled network's timing under the faults in
    /// force, or the table's delay.
    pub fn arrival(&mut self, segment: usize, from: SiteId, to: SiteId, size: u32) -> SimTime {
        let now = self.queue.now();
        match &mut self.links {
            Links::Net(net) => {
                net.unicast_on(segment, to, size, now, &self.faults, &mut self.rng).arrival
            }
            Links::Table(t) => now + t[from.index()][to.index()],
        }
    }

    /// Schedules `wire`'s arrival at every member of `group`; the last
    /// arrival takes the wire, the others clone it.
    fn multicast(&mut self, from: SiteId, group: u16, wire: D::Wire) {
        let now = self.queue.now();
        let Group { segment, members } = &self.groups[group as usize];
        let size = D::wire_size(&wire);
        let table: Vec<Delivery>;
        let fanout = match &mut self.links {
            Links::Net(net) => {
                net.multicast_to_on(*segment, members, size, now, &self.faults, &mut self.rng)
            }
            Links::Table(t) => {
                let at = |to: SiteId| now + t[from.index()][to.index()];
                table = members.iter().map(|&to| Delivery { to, arrival: at(to) }).collect();
                &table
            }
        };
        if let Some((last, rest)) = fanout.split_last() {
            for d in rest {
                let arrival = Arrival { from, group, wire: wire.clone() };
                self.queue.schedule(d.arrival, Event::Wire { to: d.to, arrival });
            }
            let arrival = Arrival { from, group, wire };
            self.queue.schedule(last.arrival, Event::Wire { to: last.to, arrival });
        }
    }

    /// Runs `node` until nothing is due by `deadline`: each input goes to
    /// [`Node::handle`] (a wire batch once [admitted](Sched::admit)), and
    /// its outputs are carried out at once ([`Sched::apply`]). A site that
    /// is up and holds wires was just restored: they replay once its
    /// restore outputs are out. Returns the number of events popped.
    pub fn run_until<N: Node<Data = D>>(
        &mut self,
        deadline: SimTime,
        node: &mut N,
        mut report: impl FnMut(SiteId, SimTime, D::Report),
    ) -> u64 {
        let start = self.popped;
        let mut out = std::mem::take(&mut self.out);
        while let Some((site, input)) = self.next(deadline) {
            let input = match input {
                Input::Wires(batch) => {
                    let kept = self.admit(site, batch);
                    if kept.is_empty() {
                        continue;
                    }
                    Input::Wires(kept)
                }
                input => input,
            };
            node.handle(site, self.now(), input, &mut out);
            self.apply(site, &mut out, &mut report);
            if self.is_up(site) && !self.sites[site.index()].held.is_empty() {
                self.replay_held(site);
            }
        }
        self.out = out;
        self.popped - start
    }
}

impl<D: Data> std::fmt::Debug for Sched<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sched")
            .field("sites", &self.sites.len())
            .field("now", &self.queue.now())
            .field("pending", &self.queue.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOP: SimDuration = SimDuration::from_micros(100);

    /// Records every input it gets, as text, with its site and time; a
    /// submit of `n` sends wire `n` to site 1, arms timer `n` and starts
    /// work `n`.
    #[derive(Default)]
    struct Probe {
        seen: Vec<(SiteId, SimTime, String)>,
    }

    impl Data for Probe {
        type Wire = u32;
        type Timer = u32;
        type Work = u32;
        type Submit = u32;
        type Control = ();
        type Report = ();
    }

    impl Node for Probe {
        type Data = Probe;

        fn handle(
            &mut self,
            at: SiteId,
            now: SimTime,
            input: Input<Probe>,
            out: &mut Outputs<Probe>,
        ) {
            let what = match input {
                Input::Wires(batch) => {
                    format!("wires {:?}", batch.iter().map(|a| a.wire).collect::<Vec<_>>())
                }
                Input::Timer(t) => format!("timer {t}"),
                Input::Done(w) => format!("done {w}"),
                Input::Submit(n) => {
                    out.push(Output::Send { group: 0, to: SiteId::new(1), wire: n });
                    out.push(Output::Timer { after: SimDuration::from_millis(1), timer: n });
                    out.push(Output::Work(n));
                    format!("submit {n}")
                }
                Input::Control(()) => "control".to_string(),
            };
            self.seen.push((at, now, what));
        }
    }

    fn sched() -> Sched<Probe> {
        Sched::new(Links::uniform(3, HOP), SimRng::seed_from(1))
            .with_work_time(DurationDist::Fixed(SimDuration::from_millis(2)))
    }

    fn run(sched: &mut Sched<Probe>) -> Vec<(SiteId, SimTime, String)> {
        let mut probe = Probe::default();
        sched.run_until(SimTime::from_secs(1), &mut probe, |_, _, ()| {});
        probe.seen
    }

    fn what(seen: &[(SiteId, SimTime, String)]) -> Vec<&str> {
        seen.iter().map(|(_, _, w)| w.as_str()).collect()
    }

    #[test]
    fn ties_run_in_scheduling_order() {
        let mut s = sched();
        let t = SimTime::from_millis(3);
        s.schedule_control(t, SiteId::new(2), ());
        s.schedule_control(SimTime::from_millis(1), SiteId::new(1), ());
        s.schedule_control(t, SiteId::new(0), ());
        s.schedule_control(t, SiteId::new(1), ());
        let order: Vec<(SiteId, SimTime)> =
            run(&mut s).into_iter().map(|(a, t, _)| (a, t)).collect();
        let site = SiteId::new;
        assert_eq!(
            order,
            [(site(1), SimTime::from_millis(1)), (site(2), t), (site(0), t), (site(1), t)]
        );
    }

    #[test]
    fn same_instant_wires_to_one_site_arrive_as_one_batch() {
        let mut s = sched();
        s.schedule_submit(SimTime::ZERO, SiteId::new(0), 4);
        s.schedule_submit(SimTime::ZERO, SiteId::new(2), 5);
        let seen = run(&mut s);
        let wires: Vec<_> = seen.iter().filter(|(_, _, w)| w.starts_with("wires")).collect();
        assert_eq!(wires, [&(SiteId::new(1), SimTime::ZERO + HOP, "wires [4, 5]".to_string())]);
    }

    #[test]
    fn a_dead_incarnations_work_never_reaches_the_node() {
        let mut s = sched();
        let me = SiteId::new(0);
        s.schedule_submit(SimTime::ZERO, me, 1);
        s.schedule_crash(SimTime::from_micros(500), me);
        s.schedule_restore(SimTime::from_micros(600), me, ());
        s.schedule_submit(SimTime::from_micros(700), me, 2);
        let mine: Vec<_> = run(&mut s).into_iter().filter(|(a, _, _)| *a == me).collect();
        let done: Vec<_> = what(&mine).into_iter().filter(|w| w.starts_with("done")).collect();
        assert_eq!(done, ["done 2"]);
    }

    /// Both sites arm a timer for 1 ms: site 0 is down then and never
    /// sees it; site 2 crashed before it and is up again, so it fires.
    #[test]
    fn a_timer_fires_only_while_its_site_is_up() {
        let mut s = sched();
        let (down, back) = (SiteId::new(0), SiteId::new(2));
        s.schedule_submit(SimTime::ZERO, down, 1);
        s.schedule_submit(SimTime::ZERO, back, 3);
        s.schedule_crash(SimTime::from_micros(500), down);
        s.schedule_restore(SimTime::from_millis(2), down, ());
        s.schedule_crash(SimTime::from_micros(200), back);
        s.schedule_restore(SimTime::from_micros(500), back, ());
        let seen = run(&mut s);
        let timers: Vec<_> = seen.iter().filter(|(_, _, w)| w.starts_with("timer")).collect();
        assert_eq!(timers, [&(back, SimTime::from_millis(1), "timer 3".to_string())]);
    }

    #[test]
    fn held_wires_replay_in_hold_order_ten_micros_apart() {
        let mut s = sched();
        let (to, back) = (SiteId::new(1), SimTime::from_millis(5));
        s.schedule_crash(SimTime::ZERO, to);
        for (k, from) in [3, 1, 2].into_iter().zip([0, 2, 0]) {
            s.schedule_submit(SimTime::from_millis(k), SiteId::new(from), k as u32);
        }
        s.schedule_restore(back, to, ());
        let seen = run(&mut s);
        let replayed: Vec<_> = seen.iter().filter(|(a, t, _)| *a == to && *t > back).collect();
        let gap = |k: u64| back + SimDuration::from_micros(10 * k);
        let expected = [(gap(1), "wires [1]"), (gap(2), "wires [2]"), (gap(3), "wires [3]")];
        let got: Vec<_> = replayed.iter().map(|(_, t, w)| (*t, w.as_str())).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn a_cut_link_holds_its_wires_until_the_heal() {
        let net = MulticastNet::new(crate::NetConfig::lan_fast(3));
        let mut s: Sched<Probe> = Sched::new(Links::Net(Box::new(net)), SimRng::seed_from(2));
        s.fault(&NemesisEvent::PartitionHalves { group_a: vec![SiteId::new(1)] });
        s.schedule_submit(SimTime::ZERO, SiteId::new(0), 9);
        let mut probe = Probe::default();
        s.run_until(SimTime::from_millis(50), &mut probe, |_, _, ()| {});
        assert!(probe.seen.iter().all(|(a, _, _)| *a != SiteId::new(1)), "nothing crossed");
        assert_eq!(s.held().count(), 1);
        let healed = s.now();
        assert_eq!(s.fault(&NemesisEvent::Heal), Todo::Nothing);
        s.run_until(SimTime::from_secs(1), &mut probe, |_, _, ()| {});
        let at_1: Vec<_> = probe.seen.iter().filter(|(a, _, _)| *a == SiteId::new(1)).collect();
        assert_eq!(at_1.len(), 1);
        assert_eq!(at_1[0].1, healed + REPLAY_GAP);
    }
}
