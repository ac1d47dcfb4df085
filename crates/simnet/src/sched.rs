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
//! The simulator's clock is the queue's own time. A driver on a wall clock
//! (the threaded runtime) runs one `Sched` per thread over every site, of
//! which only its own is local ([`Sched::with_local`]): it moves the clock
//! forward before each step ([`Sched::advance_to`]), hands the wires its
//! site sends elsewhere to [`Sched::carry`], and schedules the wires it
//! receives at the instant they are due ([`Sched::schedule_wire`]). Its
//! local site, while down, is frozen rather than crashed: what comes due
//! for it waits until it is up again, and its wires to others still leave.
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
use crate::net::{MulticastNet, SiteId};
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
    /// Every link of `sites` sites: `delay` plus a uniform draw from
    /// `[0, jitter)`, the draw stretched by the jitter scale in force, and
    /// a retransmission delay of `max(delay, 500 µs)` each time the loss in
    /// force claims the wire (late, never dropped). The threaded runtime's
    /// links.
    Jittered {
        /// Number of sites.
        sites: usize,
        /// Base one-way delay.
        delay: SimDuration,
        /// Width of the uniform jitter.
        jitter: SimDuration,
    },
}

impl Links {
    /// A table giving every link of `n` sites the same `delay`.
    pub fn uniform(n: usize, delay: SimDuration) -> Self {
        Links::Table(vec![vec![delay; n]; n])
    }
}

/// When a wire sent at `now` over [`Links::Jittered`] arrives.
fn jittered(
    now: SimTime,
    delay: SimDuration,
    jitter: SimDuration,
    faults: &Faults,
    rng: &mut SimRng,
) -> SimTime {
    let mut at = now + delay;
    if !jitter.is_zero() {
        at += jitter.mul_f64(faults.jitter_scale() * rng.uniform_f64());
    }
    let loss = faults.loss(0.0);
    while loss > 0.0 && rng.chance(loss) {
        at += delay.max(SimDuration::from_micros(500));
    }
    at
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
    /// The only site whose wires enter the queue, if not every site's
    /// ([`Sched::with_local`]).
    local: Option<SiteId>,
    /// Wires to other sites than the local one, each with its receiver
    /// and the instant it is due, until [`Sched::carry`].
    carried: Vec<(SiteId, SimTime, Arrival<D::Wire>)>,
    /// The local site's timers, work and requests that came due while it
    /// was down, in due order, until it is up again.
    frozen: Vec<Event<D>>,
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
            Links::Jittered { sites, .. } => *sites,
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
            local: None,
            carried: Vec::new(),
            frozen: Vec::new(),
        }
    }

    /// Makes `site` the only local site: a wire to another site waits for
    /// the driver to carry it ([`Sched::carry`]), and while `site` is down
    /// it is frozen, not crashed: its timers, work and requests that come
    /// due wait, in due order, until it is up again
    /// ([`Sched::set_faults`], [`Sched::restore`]).
    pub fn with_local(mut self, site: SiteId) -> Self {
        self.local = Some(site);
        self
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

    /// Moves the clock forward to `t` ([`EventQueue::advance_to`]), for a
    /// driver on a wall clock: what a step then arms or sends is due
    /// relative to `t`. The simulator never calls it.
    pub fn advance_to(&mut self, t: SimTime) {
        self.queue.advance_to(t);
    }

    /// When the next event is due, if any.
    pub fn next_due(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// The modelled network.
    ///
    /// # Panics
    ///
    /// Panics when the links are not the modelled network.
    pub fn net(&self) -> &MulticastNet {
        match &self.links {
            Links::Net(net) => net,
            _ => panic!("these links are not the modelled network"),
        }
    }

    /// The per-link delays.
    ///
    /// # Panics
    ///
    /// Panics when the links are not a delay table.
    pub fn delays_mut(&mut self) -> &mut Vec<Vec<SimDuration>> {
        match &mut self.links {
            Links::Table(t) => t,
            _ => panic!("these links are not a delay table"),
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
        self.replay_crossing();
        todo
    }

    /// Puts `faults` in force as a whole, for a driver that keeps the rules
    /// elsewhere and copies them in. As with [`Sched::fault`], the wires a
    /// cut held that can cross now replay; a local site that is up again
    /// gets back what came due while it was frozen, now, and the wires
    /// held for it replay after that.
    pub fn set_faults(&mut self, faults: Faults) {
        self.faults = faults;
        self.replay_crossing();
        if let Some(me) = self.local.filter(|&me| self.is_up(me)) {
            self.thaw();
            self.replay_held(me);
        }
    }

    /// Schedules what came due while the local site was frozen back in,
    /// now, in the order it came due.
    fn thaw(&mut self) {
        let now = self.queue.now();
        for ev in self.frozen.drain(..) {
            self.queue.schedule(now, ev);
        }
    }

    /// Replays the wires held at a cut that no longer separates them.
    fn replay_crossing(&mut self) {
        let (free, cut): (Vec<_>, Vec<_>) = std::mem::take(&mut self.cut)
            .into_iter()
            .partition(|(to, a)| !self.faults.cut(a.from, *to));
        self.cut = cut;
        self.replay(free.into_iter());
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

    /// Schedules `arrival` to reach `to` at `at`, or now if `at` has passed
    /// (a wire that came in late over a wall-clock carrier).
    pub fn schedule_wire(&mut self, at: SimTime, to: SiteId, arrival: Arrival<D::Wire>) {
        self.queue.schedule(at.max(self.queue.now()), Event::Wire { to, arrival });
    }

    /// Hands every wire waiting for a site other than the local one to
    /// `send` with its receiver and the instant it is due, in the order
    /// they were sent. A wire `send` gives back is scheduled to be handed
    /// over again `retry` from now (or when it is due, if later).
    pub fn carry(
        &mut self,
        retry: SimDuration,
        mut send: impl FnMut(SiteId, SimTime, Arrival<D::Wire>) -> Option<Arrival<D::Wire>>,
    ) {
        let again = self.queue.now() + retry;
        let mut carried = std::mem::take(&mut self.carried);
        for (to, at, arrival) in carried.drain(..) {
            if let Some(arrival) = send(to, at, arrival) {
                self.queue.schedule(at.max(again), Event::Wire { to, arrival });
            }
        }
        self.carried = carried;
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
    /// [`Sched::replay_held`]; what came due while the local site was
    /// frozen is scheduled again now.
    pub fn restore(&mut self, site: SiteId) {
        self.faults.set_down(site, false);
        if self.local == Some(site) {
            self.thaw();
        }
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
    /// comes back as its control. With a local site, a wire to another
    /// site waits for [`Sched::carry`], and what the frozen local site
    /// would drop waits for it to be up. `None` once nothing is due by
    /// `deadline`.
    pub fn next(&mut self, deadline: SimTime) -> Option<(SiteId, Input<D>)> {
        loop {
            let t = self.queue.peek_time().filter(|t| *t <= deadline)?;
            let (_, ev) = self.queue.pop().expect("peeked");
            self.popped += 1;
            match ev {
                Event::Wire { to, arrival } if self.local.is_some_and(|me| me != to) => {
                    self.carried.push((to, t, arrival));
                }
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
                Event::Timer { site, .. }
                | Event::Work { site, .. }
                | Event::Submit { site, .. }
                    if self.local == Some(site) && !self.is_up(site) =>
                {
                    self.frozen.push(ev);
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
                    send_wire(&mut self.queue, &mut self.carried, self.local, at, to, arrival);
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
            Links::Jittered { delay, jitter, .. } => {
                jittered(now, *delay, *jitter, &self.faults, &mut self.rng)
            }
        }
    }

    /// Schedules `wire`'s arrival at every member of `group`; the last
    /// arrival takes the wire, the others clone it.
    fn multicast(&mut self, from: SiteId, group: u16, wire: D::Wire) {
        let now = self.queue.now();
        let Group { segment, members } = &self.groups[group as usize];
        let (queue, carried, local) = (&mut self.queue, &mut self.carried, self.local);
        let send = |to, at, wire| {
            send_wire(queue, carried, local, at, to, Arrival { from, group, wire });
        };
        let (faults, rng) = (&self.faults, &mut self.rng);
        match &mut self.links {
            Links::Net(net) => {
                let size = D::wire_size(&wire);
                let fanout = net.multicast_to_on(*segment, members, size, now, faults, rng);
                fan_out(fanout.iter().map(|d| (d.to, d.arrival)), wire, send);
            }
            Links::Table(t) => {
                let at = |&to: &SiteId| (to, now + t[from.index()][to.index()]);
                fan_out(members.iter().map(at), wire, send);
            }
            Links::Jittered { delay, jitter, .. } => {
                let at = |&to: &SiteId| (to, jittered(now, *delay, *jitter, faults, rng));
                fan_out(members.iter().map(at), wire, send);
            }
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

/// Sends `wire` to each receiver at its instant, in order: the last takes
/// the wire, the others clone it.
fn fan_out<W: Clone>(
    to: impl ExactSizeIterator<Item = (SiteId, SimTime)>,
    wire: W,
    mut send: impl FnMut(SiteId, SimTime, W),
) {
    let last = to.len().saturating_sub(1);
    let mut wire = Some(wire);
    for (i, (to, at)) in to.enumerate() {
        let wire = if i < last { wire.clone() } else { wire.take() };
        send(to, at, wire.expect("the last receiver takes the wire"));
    }
}

/// Sends `arrival` to `to`, due at `at`: into `queue`, or onto `carried`
/// when `to` is not the `local` site.
fn send_wire<D: Data>(
    queue: &mut EventQueue<Event<D>>,
    carried: &mut Vec<(SiteId, SimTime, Arrival<D::Wire>)>,
    local: Option<SiteId>,
    at: SimTime,
    to: SiteId,
    arrival: Arrival<D::Wire>,
) {
    match local {
        Some(local) if local != to => carried.push((to, at, arrival)),
        _ => queue.schedule(at, Event::Wire { to, arrival }),
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

    /// Pops the next input for `site` and steps the probe with it at the
    /// scheduler's clock, its outputs carried out.
    fn step(s: &mut Sched<Probe>, probe: &mut Probe, deadline: SimTime) -> Option<SiteId> {
        let (site, input) = s.next(deadline)?;
        let mut out = Vec::new();
        probe.handle(site, s.now(), input, &mut out);
        s.apply(site, &mut out, |_, _, ()| {});
        Some(site)
    }

    /// A wall-clock driver advances the clock past the submit's instant
    /// before stepping it: the timer and the work it arms are due relative
    /// to the advanced clock, not to the pop.
    #[test]
    fn what_a_step_arms_is_due_from_the_advanced_clock() {
        let mut s = sched();
        let mut probe = Probe::default();
        s.schedule_submit(SimTime::ZERO, SiteId::new(0), 1);
        let wall = SimTime::from_millis(5);
        s.advance_to(wall);
        assert_eq!(step(&mut s, &mut probe, wall), Some(SiteId::new(0)));
        assert_eq!(probe.seen[0].1, wall, "the step runs at the advanced clock");
        s.run_until(SimTime::from_secs(1), &mut probe, |_, _, ()| {});
        let at = |w: &str| probe.seen.iter().find(|(_, _, x)| x == w).map(|(_, t, _)| *t);
        assert_eq!(at("timer 1"), Some(wall + SimDuration::from_millis(1)));
        assert_eq!(at("done 1"), Some(wall + SimDuration::from_millis(2)));
        assert_eq!(at("wires [1]"), Some(wall + HOP));
    }

    /// A wire that arrives stamped behind the clock is scheduled at the
    /// clock instead of into the past.
    #[test]
    fn a_wire_stamped_behind_the_clock_runs_at_the_clock() {
        let mut s = sched();
        let wall = SimTime::from_millis(5);
        s.advance_to(wall);
        let arrival = Arrival { from: SiteId::new(2), group: 0, wire: 7 };
        s.schedule_wire(SimTime::from_millis(1), SiteId::new(1), arrival);
        let seen = run(&mut s);
        assert_eq!(seen, [(SiteId::new(1), wall, "wires [7]".to_string())]);
    }

    /// With one local site, a wire it sends elsewhere reaches the carrier
    /// with the instant it is due and never enters the queue.
    #[test]
    fn a_wire_to_a_remote_site_goes_to_the_carrier() {
        let me = SiteId::new(0);
        let mut s = sched().with_local(me);
        let mut probe = Probe::default();
        s.schedule_submit(SimTime::ZERO, me, 3);
        step(&mut s, &mut probe, SimTime::ZERO);
        let mut carried = Vec::new();
        s.carry(HOP, |to, at, a| {
            carried.push((to, at, a));
            None
        });
        let wire = Arrival { from: me, group: 0, wire: 3 };
        assert_eq!(carried, [(SiteId::new(1), SimTime::ZERO + HOP, wire)]);
        s.run_until(SimTime::from_secs(1), &mut probe, |_, _, ()| {});
        assert_eq!(what(&probe.seen), ["submit 3", "timer 3", "done 3"]);
        s.carry(HOP, |_, _, _| unreachable!("nothing more was carried"));
    }

    /// A wire the carrier gives back pops again `retry` after the hand-off
    /// (or when it is due, if later) and waits for the carrier again; it
    /// never reaches the local site.
    #[test]
    fn a_wire_given_back_is_carried_again_after_the_retry() {
        let me = SiteId::new(0);
        let mut s = sched().with_local(me);
        let mut probe = Probe::default();
        s.schedule_submit(SimTime::ZERO, me, 3);
        step(&mut s, &mut probe, SimTime::ZERO);
        let retry = SimDuration::from_millis(5);
        s.carry(retry, |_, _, a| Some(a));
        assert_eq!(s.next_due(), Some(SimTime::ZERO + SimDuration::from_millis(1)));
        let mut tries = Vec::new();
        let deadline = SimTime::from_secs(1);
        while let Some((site, input)) = s.next(deadline) {
            let mut out = Vec::new();
            probe.handle(site, s.now(), input, &mut out);
            s.apply(site, &mut out, |_, _, ()| {});
        }
        s.carry(retry, |to, at, a| {
            tries.push((to, at, a.wire));
            None
        });
        assert_eq!(tries, [(SiteId::new(1), SimTime::ZERO + retry, 3)]);
        assert_eq!(what(&probe.seen), ["submit 3", "timer 3", "done 3"]);
    }

    /// While the local site is down, its timer and work that come due wait
    /// for it, and its wire to another site still reaches the carrier;
    /// once it is up again they run in the order they came due.
    #[test]
    fn a_down_local_site_is_frozen_and_its_wires_still_leave() {
        let me = SiteId::new(0);
        let mut s = sched().with_local(me);
        let mut probe = Probe::default();
        s.schedule_submit(SimTime::ZERO, me, 3);
        step(&mut s, &mut probe, SimTime::ZERO);
        s.carry(SimDuration::from_millis(2), |_, _, a| Some(a));
        let mut down = Faults::new(3);
        down.set_down(me, true);
        s.set_faults(down);
        let mut carried = Vec::new();
        let later = SimTime::from_millis(10);
        assert!(s.next(later).is_none(), "nothing runs at a frozen site");
        s.carry(HOP, |to, at, a| {
            carried.push((to, at, a.wire));
            None
        });
        assert_eq!(carried, [(SiteId::new(1), SimTime::from_millis(2), 3)]);
        s.advance_to(later);
        s.set_faults(Faults::new(3));
        s.run_until(SimTime::from_secs(1), &mut probe, |_, _, ()| {});
        let seen: Vec<_> = probe.seen.iter().map(|(_, t, w)| (*t, w.as_str())).collect();
        assert_eq!(seen, [(SimTime::ZERO, "submit 3"), (later, "timer 3"), (later, "done 3")]);
    }
}
