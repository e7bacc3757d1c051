//! Exhaustive bounded check of the thread backend's wake-ups over every
//! interleaving of the threads that use them: the node's handshake
//! (`ThreadNode::notify` / `wait_any`: the generation and `sleepers`),
//! a host's (a progress step publishing / `Host::wait`: the mailboxes
//! and `waiters`), and the executor's ready queue with its
//! announcement.
//!
//! Each actor runs a program transcribed from the real code, one
//! [`Op`] per `SeqCst` access or locked section. Every access these
//! handshakes make is one or the other, so interleaving semantics is
//! exact for them. A spinning thread either re-reads the generation or
//! gives up and parks; a parked thread runs again only after a
//! `notify_all`. The search is breadth-first over a hashed state set,
//! and checks:
//!
//! * **no lost wake-up** — no reachable state has every thread parked
//!   or finished while a parked thread's condition holds: its
//!   completion in its mailbox, or on the CQ of a host no service
//!   thread polls; `!serviced` or a non-empty CQ for a service thread;
//!   a ready task or a completion for an executor;
//! * **no stale-slot delivery** — a completion goes only into the
//!   mailbox of the connection it belongs to, and a closed handle
//!   reaches nothing in the slot a later accept reuses (which also
//!   means no handle is left unpolled after `serviced` flips: a caller
//!   whose completion sits on an unserviced host's CQ is a lost
//!   wake-up);
//! * **no hang** — in a state where nothing can run, every thread but
//!   a service thread still serviced has finished.
//!
//! [`Mutation`] puts back, one at a time, an ordering the real code
//! must not have, and the `*_is_caught` tests show each is found.

use std::collections::HashMap;
use std::time::Instant;

/// Connection slots a host's reactor may have.
const SLOTS: usize = 2;
/// Most actors a scenario has.
const ACTORS: usize = 4;

/// One step of a program: a `SeqCst` access or a locked section of the
/// real code, except the ones marked *local*, which touch only the
/// actor's own variables. A local step commutes with every other
/// thread's steps, so it is taken at once after the step before it
/// ([`settle`]) and no state rests on one.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Op {
    // `Host::wait`, one round.
    /// `seen = node.generation()`.
    ReadSeen,
    /// `poll_always || !serviced()`: whether this round polls.
    LoadServiced,
    /// *Local*: a `poll_always` thread polls every round.
    PollAlways,
    /// `Host::poll` takes the reactor lock and polls one completion off
    /// the CQ (a budget of one); more left is a backlog. A completion
    /// of a connection no longer hosted is dropped, as the reactor
    /// drops orphans.
    PollTake,
    /// Still under the reactor lock: what was taken goes into the
    /// mailbox of the slot it was taken for, then the lock is released.
    PollPublish,
    /// `Host::wake` loads `waiters`.
    LoadWaiters,
    /// *Local*: notify if something was published and `waiters` was
    /// non-zero.
    DecideWake,
    /// `waiters += 1`.
    CountIn,
    /// A caller's `done`: its completion out of its mailbox, under the
    /// mailboxes lock.
    TakeMine,
    /// The service thread's `done`: `serviced` is false.
    ServicedGone,
    /// `waiters -= 1`.
    CountOut,
    /// *Local*: finished if `done` found it, else the next round.
    EndRound,

    // `ThreadNode::notify`.
    /// `generation += 1`.
    Bump,
    /// `sleepers != 0`.
    LoadSleepers,
    /// Under the wake-up lock, `notify_all`: every parked thread wakes.
    WakeAll,

    // `ThreadNode::wait_any`, entered unless `done` found it or the
    // step left a backlog.
    /// Re-read the generation: leave if it moved, else give up and
    /// park. (A re-read that finds it unmoved and spins on changes
    /// nothing, and neither can a spinner give up on a moved generation:
    /// `wait_any` looks once more before it takes the lock.)
    Spin,
    /// Take the wake-up lock, `sleepers += 1`.
    Park,
    /// Load the generation: moved, go on; else wait on the condition
    /// variable, releasing the lock.
    CheckGen,
    /// `sleepers -= 1`, release the lock.
    Unpark,

    /// The deliverer lands completion `k` and notifies.
    Land(usize),
    /// The pool's `Drop`, after its drain: `serviced = false`.
    Unservice,
    /// `ThreadStream::close`: under the reactor lock, the endpoint and
    /// its mailbox leave the slot; the handle forgets its `ConnId`
    /// unless `forget` is false.
    Close { forget: bool },
    /// An accept that reuses the slot, under the reactor lock.
    Accept,
    /// A wait on the closed handle: with its `ConnId` forgotten it
    /// returns at once, touching nothing.
    StaleWait,

    // `Executor::run_threaded`, after `ReadSeen`.
    /// The turn's reactor pump: completions off its CQ.
    TurnCq,
    /// The turn's `run_ready`: pop the queue (its lock), poll the task.
    TurnReady,
    /// *Local*: turn again if that progressed; finished once drained.
    TurnEnd,
    /// `ReadyQueue::wait`, under the queue's lock: a task is ready (no
    /// wait), or announce the node — unless `announce` is false.
    Announce { announce: bool },
    /// Under the queue's lock: withdraw the announcement.
    Unannounce,
    /// *Local*: the next round.
    Repeat,

    /// The waker's thread: under the queue's lock, push the task and
    /// see whether the executor announced a wait (then notify).
    PushWake,
}

/// The thread an actor stands for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Deliverer,
    Caller,
    Service,
    Dropper,
    Closer,
    Executor,
    Waker,
}

/// What a deliverer lands.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Completion {
    /// For the connection the `inc`-th accept put in `slot`.
    Conn { slot: usize, inc: u8 },
    /// For the executor's reactor.
    Exec,
}

/// An ordering the real code must not have.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Mutation {
    /// `notify` loads `sleepers` before it bumps the generation.
    SleepersBeforeBump,
    /// A progress step loads `waiters` before it fills the mailboxes.
    WaitersBeforePublish,
    /// `Host::wait` reads `seen` after its progress step.
    SeenAfterStep,
    /// The pool's `Drop` clears `serviced` without a `notify`.
    DropWithoutNotify,
    /// `run_threaded` parks without announcing it on the ready queue.
    ParkUnannounced,
    /// A closed handle keeps its `ConnId`, as server handles once did.
    HandleKeepsSlot,
}

/// One actor's part: its program and what it waits for.
struct Role {
    kind: Kind,
    program: Vec<Op>,
    /// Where a new round starts.
    round: u8,
    /// The completion a caller waits for.
    awaits: Option<usize>,
}

/// One exploration: the threads on one node and what lands there.
struct Scenario {
    completions: Vec<Completion>,
    roles: Vec<Role>,
    /// Whether a service thread polls the host at the start.
    serviced: bool,
    /// Slots hosting a connection (its first) at the start.
    hosted: usize,
}

// An actor's own variables, as bits.
/// This round takes a progress step.
const POLLS: u16 = 1;
/// The step left a backlog.
const BACKLOG: u16 = 1 << 1;
/// `done` found it (an executor: a task is ready, so no wait).
const FOUND: u16 = 1 << 2;
/// The step published a completion.
const PUBLISHED: u16 = 1 << 3;
/// `waiters` was non-zero.
const WAITERS_SEEN: u16 = 1 << 4;
/// A notify is under way.
const NOTIFY: u16 = 1 << 5;
/// `sleepers` was non-zero.
const SLEEPERS_SEEN: u16 = 1 << 6;
/// The executor's turn progressed.
const PROGRESS: u16 = 1 << 7;
/// The closed handle forgot its `ConnId`.
const FORGOT: u16 = 1 << 8;
/// This actor holds a `seen` it has yet to wait on.
const SEEN: u16 = 1 << 9;
/// The generation moved since this actor read `seen`. Only whether it
/// moved is ever asked, so the search keeps this bit rather than the
/// values, and states that differ only in how far it moved are one.
const MOVED: u16 = 1 << 10;

// The executor's one task, as bits.
/// Polled once: its waker is registered.
const REGISTERED: u8 = 1;
/// The other thread set what the task waits for.
const FIRED: u8 = 1 << 1;
/// Polled after that.
const SAW_WAKE: u8 = 1 << 2;
/// Its completion was pumped.
const SAW_CQE: u8 = 1 << 3;

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
enum Mode {
    #[default]
    Run,
    /// On the condition variable.
    Parked,
    /// Woken by a `notify_all`, waiting for the wake-up lock.
    Woken,
    Done,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
struct Actor {
    pc: u8,
    mode: Mode,
    /// Completions taken off the CQ and not yet published.
    taken: u8,
    flags: u16,
}

impl Actor {
    const DONE: Actor = Actor {
        pc: 0,
        mode: Mode::Done,
        taken: 0,
        flags: 0,
    };

    /// At the start of a round, its variables cleared.
    fn at(pc: u8) -> Actor {
        Actor {
            pc,
            ..Actor::default()
        }
    }
}

/// A hosted connection: which accept put it there, and its mailbox
/// (the completions in it, as a set).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct Slot {
    inc: u8,
    mailbox: u8,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct World {
    sleepers: u8,
    wakeup_held: bool,
    reactor_held: bool,
    waiters: u8,
    serviced: bool,
    /// Host completions landed and not yet polled, as a set.
    cq: u8,
    slots: [Option<Slot>; SLOTS],
    /// Accepts made per slot so far.
    accepts: [u8; SLOTS],
    exec_cq: bool,
    /// Task ids on the ready queue.
    ready: u8,
    /// The executor's announcement.
    parked_on: bool,
    task: u8,
    actors: [Actor; ACTORS],
}

fn bit(k: usize) -> u8 {
    1 << k
}

impl Scenario {
    fn start(&self) -> World {
        let mut w = World {
            sleepers: 0,
            wakeup_held: false,
            reactor_held: false,
            waiters: 0,
            serviced: self.serviced,
            cq: 0,
            slots: [None; SLOTS],
            accepts: [0; SLOTS],
            exec_cq: false,
            // The task was spawned.
            ready: 1,
            parked_on: false,
            task: 0,
            actors: [Actor::default(); ACTORS],
        };
        for slot in 0..self.hosted {
            w.slots[slot] = Some(Slot { inc: 0, mailbox: 0 });
            w.accepts[slot] = 1;
        }
        for (a, actor) in w.actors.iter_mut().enumerate() {
            if a >= self.roles.len() {
                actor.mode = Mode::Done;
            }
        }
        for a in 0..self.roles.len() {
            self.settle(&mut w, a);
        }
        w
    }

    fn slot_of(&self, k: usize) -> (usize, u8) {
        match self.completions[k] {
            Completion::Conn { slot, inc } => (slot, inc),
            Completion::Exec => unreachable!("a host completion"),
        }
    }

    fn task_done(&self, w: &World) -> bool {
        let cqe = !self.completions.contains(&Completion::Exec) || w.task & SAW_CQE != 0;
        w.task & SAW_WAKE != 0 && cqe
    }

    /// Takes actor `a`'s local steps, and the steps its own variables
    /// make do nothing, until it rests on a shared step or finishes.
    fn settle(&self, w: &mut World, a: usize) {
        let role = &self.roles[a];
        let fixed = !self.roles.iter().any(|r| r.kind == Kind::Dropper);
        loop {
            let (done, serviced) = (self.task_done(w), w.serviced);
            let me = &mut w.actors[a];
            if me.mode != Mode::Run {
                return;
            }
            let Some(&op) = role.program.get(me.pc as usize) else {
                *me = Actor::DONE;
                return;
            };
            let f = me.flags;
            let skip = match op {
                Op::PollTake | Op::PollPublish | Op::LoadWaiters => f & POLLS == 0,
                Op::Bump | Op::LoadSleepers => f & NOTIFY == 0,
                Op::WakeAll => f & NOTIFY == 0 || f & SLEEPERS_SEEN == 0,
                Op::Spin | Op::Park | Op::CheckGen | Op::Unpark => f & (FOUND | BACKLOG) != 0,
                Op::Unannounce => f & FOUND != 0,
                Op::StaleWait => f & FORGOT != 0,
                _ => false,
            };
            if skip {
                match op {
                    Op::WakeAll => me.flags &= !(NOTIFY | SLEEPERS_SEEN),
                    Op::Spin => me.flags &= !(SEEN | MOVED),
                    _ => {}
                }
                me.pc += 1;
                continue;
            }
            match op {
                Op::PollAlways => me.flags |= POLLS,
                // Nothing writes `serviced` in a scenario with no drop:
                // reading it is local there.
                Op::LoadServiced if fixed && !serviced => me.flags |= POLLS,
                Op::ServicedGone if fixed && !serviced => me.flags |= FOUND,
                Op::LoadServiced | Op::ServicedGone if fixed => {}
                Op::DecideWake => {
                    let wake = f & PUBLISHED != 0 && f & WAITERS_SEEN != 0;
                    me.flags &= !(PUBLISHED | WAITERS_SEEN);
                    if wake {
                        me.flags |= NOTIFY;
                    }
                }
                Op::TurnEnd if f & PROGRESS != 0 => {
                    // Turn again: the op after `ReadSeen`.
                    me.flags &= !PROGRESS;
                    me.pc = role.round + 1;
                    continue;
                }
                Op::TurnEnd if !done => {}
                Op::EndRound if f & FOUND == 0 => {
                    *me = Actor::at(role.round);
                    continue;
                }
                Op::Repeat => {
                    *me = Actor::at(role.round);
                    continue;
                }
                Op::EndRound | Op::TurnEnd => {
                    *me = Actor::DONE;
                    return;
                }
                _ => return,
            }
            me.pc += 1;
        }
    }

    /// Every state one step of actor `a` leads to from `w`, into `out`;
    /// a violation the step itself commits is an error.
    fn step(&self, w: &World, a: usize, out: &mut Vec<World>) -> Result<(), String> {
        let role = &self.roles[a];
        let me = w.actors[a];
        let mut n = *w;
        match me.mode {
            Mode::Done | Mode::Parked => return Ok(()),
            Mode::Woken => {
                if !w.wakeup_held {
                    n.wakeup_held = true;
                    n.actors[a].mode = Mode::Run;
                    out.push(n);
                }
                return Ok(());
            }
            Mode::Run => {}
        }
        let op = role.program[me.pc as usize];
        n.actors[a].pc += 1;
        let mut emit = |mut n: World| {
            self.settle(&mut n, a);
            out.push(n);
        };
        match op {
            Op::ReadSeen => n.actors[a].flags = n.actors[a].flags & !MOVED | SEEN,
            Op::LoadServiced => {
                if !w.serviced {
                    n.actors[a].flags |= POLLS;
                }
            }
            Op::PollTake => {
                if w.reactor_held {
                    return Ok(());
                }
                n.reactor_held = true;
                if w.cq == 0 {
                    emit(n);
                }
                for k in (0..self.completions.len()).filter(|&k| w.cq & bit(k) != 0) {
                    let mut m = n;
                    m.cq &= !bit(k);
                    let (slot, inc) = self.slot_of(k);
                    if m.slots[slot].is_some_and(|s| s.inc == inc) {
                        m.actors[a].taken |= bit(k);
                    }
                    if m.cq != 0 {
                        m.actors[a].flags |= BACKLOG;
                    }
                    emit(m);
                }
                return Ok(());
            }
            Op::PollPublish => {
                for k in (0..self.completions.len()).filter(|&k| me.taken & bit(k) != 0) {
                    let (slot, inc) = self.slot_of(k);
                    match &mut n.slots[slot] {
                        Some(s) if s.inc == inc => s.mailbox |= bit(k),
                        _ => {
                            return Err(format!(
                                "stale-slot delivery: completion {k} published into slot {slot}, \
                                 which no longer hosts its connection"
                            ))
                        }
                    }
                    n.actors[a].flags |= PUBLISHED;
                }
                n.actors[a].taken = 0;
                n.reactor_held = false;
            }
            Op::LoadWaiters => {
                if w.waiters != 0 {
                    n.actors[a].flags |= WAITERS_SEEN;
                }
            }
            Op::CountIn => n.waiters += 1,
            Op::CountOut => n.waiters -= 1,
            Op::TakeMine => {
                let k = role.awaits.expect("a caller awaits a completion");
                let (slot, _) = self.slot_of(k);
                if let Some(s) = &mut n.slots[slot] {
                    if s.mailbox & bit(k) != 0 {
                        s.mailbox &= !bit(k);
                        n.actors[a].flags |= FOUND;
                    }
                }
            }
            Op::ServicedGone => {
                if !w.serviced {
                    n.actors[a].flags |= FOUND;
                }
            }
            Op::Bump => {
                for b in n.actors.iter_mut().filter(|b| b.flags & SEEN != 0) {
                    b.flags |= MOVED;
                }
            }
            Op::LoadSleepers => {
                if w.sleepers != 0 {
                    n.actors[a].flags |= SLEEPERS_SEEN;
                }
            }
            Op::WakeAll => {
                if w.wakeup_held {
                    return Ok(());
                }
                for b in n.actors.iter_mut().filter(|b| b.mode == Mode::Parked) {
                    b.mode = Mode::Woken;
                }
                n.actors[a].flags &= !(NOTIFY | SLEEPERS_SEEN);
            }
            Op::Spin => {
                if me.flags & MOVED != 0 {
                    let unpark = role.program[me.pc as usize..]
                        .iter()
                        .position(|&op| op == Op::Unpark)
                        .expect("a wait ends in Unpark");
                    n.actors[a].pc = me.pc + unpark as u8 + 1;
                    n.actors[a].flags &= !(SEEN | MOVED);
                }
            }
            Op::Park => {
                if w.wakeup_held {
                    return Ok(());
                }
                n.wakeup_held = true;
                n.sleepers += 1;
            }
            Op::CheckGen => {
                if me.flags & MOVED == 0 {
                    n.actors[a].pc = me.pc;
                    n.actors[a].mode = Mode::Parked;
                    n.wakeup_held = false;
                }
            }
            Op::Unpark => {
                n.sleepers -= 1;
                n.wakeup_held = false;
                n.actors[a].flags &= !(SEEN | MOVED);
            }
            Op::Land(k) => {
                match self.completions[k] {
                    // A connection's completions exist once it does.
                    Completion::Conn { slot, inc } if w.accepts[slot] <= inc => return Ok(()),
                    Completion::Conn { .. } => n.cq |= bit(k),
                    Completion::Exec => n.exec_cq = true,
                }
                n.actors[a].flags |= NOTIFY;
            }
            Op::Unservice => {
                n.serviced = false;
                n.actors[a].flags |= NOTIFY;
            }
            Op::Close { forget } => {
                if w.reactor_held {
                    return Ok(());
                }
                let (slot, _) = self.slot_of(role.awaits.expect("the closer's new handle"));
                n.slots[slot] = None;
                if forget {
                    n.actors[a].flags |= FORGOT;
                }
            }
            Op::Accept => {
                if w.reactor_held {
                    return Ok(());
                }
                let (slot, inc) = self.slot_of(role.awaits.expect("the closer's new handle"));
                assert_eq!(
                    w.accepts[slot], inc,
                    "the accept makes the awaited connection"
                );
                n.slots[slot] = Some(Slot { inc, mailbox: 0 });
                n.accepts[slot] += 1;
            }
            Op::StaleWait => {
                let (slot, inc) = self.slot_of(role.awaits.expect("the closer's new handle"));
                if w.slots[slot].is_some_and(|s| s.inc == inc) {
                    return Err(format!(
                        "stale-slot delivery: a closed handle reached the connection \
                         that reuses slot {slot}"
                    ));
                }
            }
            Op::TurnCq => {
                if w.exec_cq {
                    n.exec_cq = false;
                    n.task |= SAW_CQE;
                    n.actors[a].flags |= PROGRESS;
                }
            }
            Op::TurnReady => {
                if w.ready != 0 {
                    n.ready = 0;
                    n.actors[a].flags |= PROGRESS;
                    if w.task & REGISTERED == 0 {
                        n.task |= REGISTERED;
                    } else if w.task & FIRED != 0 {
                        n.task |= SAW_WAKE;
                    }
                }
            }
            Op::Announce { announce } => {
                if w.ready != 0 {
                    n.actors[a].flags |= FOUND;
                } else {
                    n.parked_on = announce;
                }
            }
            Op::Unannounce => n.parked_on = false,
            Op::PushWake => {
                if w.task & REGISTERED == 0 {
                    return Ok(());
                }
                n.task |= FIRED;
                n.ready += 1;
                if w.parked_on {
                    n.actors[a].flags |= NOTIFY;
                }
            }
            Op::PollAlways | Op::DecideWake | Op::EndRound | Op::TurnEnd | Op::Repeat => {
                unreachable!("local steps are taken in settle")
            }
        }
        emit(n);
        Ok(())
    }

    /// Why parked actor `a` should not be, if it should not.
    fn wanted(&self, w: &World, a: usize) -> Option<&'static str> {
        let role = &self.roles[a];
        match role.kind {
            Kind::Caller | Kind::Closer => {
                let k = role.awaits.expect("a caller awaits a completion");
                let (slot, _) = self.slot_of(k);
                if w.slots[slot].is_some_and(|s| s.mailbox & bit(k) != 0) {
                    Some("its completion is in its mailbox")
                } else if !w.serviced && w.cq & bit(k) != 0 {
                    Some("its completion is on the CQ of a host no service thread polls")
                } else {
                    None
                }
            }
            Kind::Service if !w.serviced => Some("its host is no longer serviced"),
            Kind::Service if w.cq != 0 => Some("its CQ holds a completion"),
            Kind::Executor if w.ready != 0 => Some("a task is ready"),
            Kind::Executor if w.exec_cq => Some("its CQ holds a completion"),
            _ => None,
        }
    }

    /// Checks a state in which no thread can take a step.
    fn check_stuck(&self, w: &World) -> Result<(), String> {
        for (a, actor) in w.actors.iter().enumerate().take(self.roles.len()) {
            let kind = self.roles[a].kind;
            match actor.mode {
                Mode::Done => {}
                Mode::Parked => {
                    if let Some(why) = self.wanted(w, a) {
                        return Err(format!(
                            "lost wake-up: {kind:?} {a} stays parked, but {why}"
                        ));
                    }
                    if kind != Kind::Service {
                        return Err(format!("hang: {kind:?} {a} waits for what never comes"));
                    }
                }
                Mode::Run | Mode::Woken => {
                    return Err(format!("deadlock: {kind:?} {a} waits for a lock"));
                }
            }
        }
        Ok(())
    }

    /// The steps from the start to state `at`, one line each.
    fn trace(&self, states: &[World], parent: &[(u32, u8)], mut at: usize) -> String {
        let mut steps = Vec::new();
        while at != 0 {
            let (from, a) = parent[at];
            let actor = states[from as usize].actors[a as usize];
            let what = match actor.mode {
                Mode::Woken => "(woken) takes the wake-up lock".to_string(),
                _ => format!("{:?}", self.roles[a as usize].program[actor.pc as usize]),
            };
            steps.push(format!("  {:?} {a}: {what}", self.roles[a as usize].kind));
            at = from as usize;
        }
        steps.reverse();
        steps.join("\n")
    }

    /// Explores every reachable state and returns how many there are,
    /// or the first violation and the steps that reach it.
    fn explore(&self) -> Result<usize, String> {
        let start = self.start();
        let mut index: HashMap<World, u32> = HashMap::from([(start, 0)]);
        let mut states = vec![start];
        // Each state's predecessor and the actor that stepped.
        let mut parent = vec![(0u32, 0u8)];
        let mut next = Vec::new();
        let mut at = 0;
        while let Some(&w) = states.get(at) {
            next.clear();
            let mut by = Vec::new();
            for a in 0..self.roles.len() {
                if let Err(e) = self.step(&w, a, &mut next) {
                    return Err(format!("{e}, after\n{}", self.trace(&states, &parent, at)));
                }
                by.resize(next.len(), a as u8);
            }
            if next.is_empty() {
                if let Err(e) = self.check_stuck(&w) {
                    return Err(format!("{e}, after\n{}", self.trace(&states, &parent, at)));
                }
            }
            for (&n, &a) in next.iter().zip(&by) {
                index.entry(n).or_insert_with(|| {
                    states.push(n);
                    parent.push((at as u32, a));
                    states.len() as u32 - 1
                });
            }
            at += 1;
        }
        Ok(states.len())
    }
}

// Programs, transcribed from the real code.

fn notify(m: Option<Mutation>) -> Vec<Op> {
    if m == Some(Mutation::SleepersBeforeBump) {
        vec![Op::LoadSleepers, Op::Bump, Op::WakeAll]
    } else {
        vec![Op::Bump, Op::LoadSleepers, Op::WakeAll]
    }
}

const WAIT_ANY: [Op; 4] = [Op::Spin, Op::Park, Op::CheckGen, Op::Unpark];

/// One round of `Host::wait`; `poll_always` for the service thread.
fn host_round(poll_always: bool, m: Option<Mutation>) -> Vec<Op> {
    let late = m == Some(Mutation::SeenAfterStep);
    let mut p = Vec::new();
    if !late {
        p.push(Op::ReadSeen);
    }
    p.push(if poll_always {
        Op::PollAlways
    } else {
        Op::LoadServiced
    });
    p.push(Op::PollTake);
    if m == Some(Mutation::WaitersBeforePublish) {
        p.extend([Op::LoadWaiters, Op::PollPublish]);
    } else {
        p.extend([Op::PollPublish, Op::LoadWaiters]);
    }
    p.push(Op::DecideWake);
    p.extend(notify(m));
    if late {
        p.push(Op::ReadSeen);
    }
    if poll_always {
        p.push(Op::ServicedGone);
        p.extend(WAIT_ANY);
    } else {
        p.extend([Op::CountIn, Op::TakeMine]);
        p.extend(WAIT_ANY);
        p.push(Op::CountOut);
    }
    p.push(Op::EndRound);
    p
}

fn role(kind: Kind, program: Vec<Op>, awaits: Option<usize>) -> Role {
    Role {
        kind,
        program,
        round: 0,
        awaits,
    }
}

/// Lands `ks` in order, each followed by a `notify`.
fn deliverer(ks: &[usize], m: Option<Mutation>) -> Role {
    let program = ks
        .iter()
        .flat_map(|&k| [vec![Op::Land(k)], notify(m)].concat());
    role(Kind::Deliverer, program.collect(), None)
}

/// A caller waiting for completion `k`.
fn caller(k: usize, m: Option<Mutation>) -> Role {
    role(Kind::Caller, host_round(false, m), Some(k))
}

fn service(m: Option<Mutation>) -> Role {
    role(Kind::Service, host_round(true, m), None)
}

fn dropper(m: Option<Mutation>) -> Role {
    let mut program = vec![Op::Unservice];
    if m != Some(Mutation::DropWithoutNotify) {
        program.extend(notify(m));
    }
    role(Kind::Dropper, program, None)
}

/// Closes the handle in completion `k`'s slot, accepts the connection
/// `k` belongs to into it, waits on the closed handle, then waits for
/// `k` on the new one.
fn closer(k: usize, m: Option<Mutation>) -> Role {
    let forget = m != Some(Mutation::HandleKeepsSlot);
    let mut program = vec![Op::Close { forget }, Op::Accept, Op::StaleWait];
    let round = program.len() as u8;
    program.extend(host_round(false, m));
    Role {
        round,
        ..role(Kind::Closer, program, Some(k))
    }
}

fn executor(m: Option<Mutation>) -> Role {
    let announce = m != Some(Mutation::ParkUnannounced);
    let mut program = vec![
        Op::ReadSeen,
        Op::TurnCq,
        Op::TurnReady,
        Op::TurnEnd,
        Op::Announce { announce },
    ];
    program.extend(WAIT_ANY);
    program.extend([Op::Unannounce, Op::Repeat]);
    role(Kind::Executor, program, None)
}

/// Wakes the executor's task once it is registered.
fn waker(m: Option<Mutation>) -> Role {
    role(Kind::Waker, [vec![Op::PushWake], notify(m)].concat(), None)
}

// Scenarios.

/// Two callers of one caller-polled handle (a pair end), each waiting
/// for a completion of its own.
fn own_host(m: Option<Mutation>) -> Scenario {
    let conn = Completion::Conn { slot: 0, inc: 0 };
    Scenario {
        completions: vec![conn, conn],
        roles: vec![deliverer(&[0, 1], m), caller(0, m), caller(1, m)],
        serviced: false,
        hosted: 1,
    }
}

/// A pool shard: its service thread and callers on two server ends.
fn pool(m: Option<Mutation>) -> Scenario {
    Scenario {
        completions: vec![
            Completion::Conn { slot: 0, inc: 0 },
            Completion::Conn { slot: 1, inc: 0 },
        ],
        roles: vec![
            deliverer(&[0, 1], m),
            service(m),
            caller(0, m),
            caller(1, m),
        ],
        serviced: true,
        hosted: 2,
    }
}

/// A pool shard with one caller, and the pool dropped at any moment:
/// from then on the caller polls the host itself.
fn pool_dropped(m: Option<Mutation>) -> Scenario {
    Scenario {
        completions: vec![Completion::Conn { slot: 0, inc: 0 }],
        roles: vec![deliverer(&[0], m), service(m), caller(0, m), dropper(m)],
        serviced: true,
        hosted: 1,
    }
}

/// A serviced slot closed and reused by an accept while a late
/// completion of the closed connection is on its way, and the pool
/// dropped at any moment.
fn slot_reuse(m: Option<Mutation>) -> Scenario {
    Scenario {
        completions: vec![
            Completion::Conn { slot: 0, inc: 0 },
            Completion::Conn { slot: 0, inc: 1 },
        ],
        roles: vec![deliverer(&[0, 1], m), service(m), closer(1, m), dropper(m)],
        serviced: true,
        hosted: 1,
    }
}

/// `run_threaded` with a completion for its reactor and a waker fired
/// on another thread, beside a caller polling a host of its own on the
/// same node.
fn aio(m: Option<Mutation>) -> Scenario {
    Scenario {
        completions: vec![Completion::Exec, Completion::Conn { slot: 0, inc: 0 }],
        roles: vec![deliverer(&[0, 1], m), executor(m), waker(m), caller(1, m)],
        serviced: false,
        hosted: 1,
    }
}

/// Explores `sc` in the real order and prints its size (quoted in
/// EXPERIMENTS.md).
fn holds(name: &str, sc: Scenario) {
    let start = Instant::now();
    let states = sc.explore().unwrap_or_else(|e| panic!("{name}: {e}"));
    println!("{name}: {states} states in {:.2?}", start.elapsed());
}

/// Explores `sc` with a mutation, which must be found as `expected`.
fn caught(sc: Scenario, expected: &str) {
    let e = sc.explore().expect_err("the mutation went unnoticed");
    assert!(e.starts_with(expected), "expected {expected}, found {e}");
    println!("{e}");
}

#[test]
fn two_callers_polling_their_own_host_lose_no_wake_up() {
    holds("own host, two callers", own_host(None));
}

#[test]
fn a_service_thread_and_two_callers_lose_no_wake_up() {
    holds("pool shard, two callers", pool(None));
}

#[test]
fn no_handle_is_left_unpolled_when_the_pool_drops() {
    holds("pool shard, one caller, drop", pool_dropped(None));
}

#[test]
fn a_reused_slot_gets_no_stale_completion() {
    holds("close, reusing accept, drop", slot_reuse(None));
}

#[test]
fn a_waker_on_another_thread_wakes_the_executor() {
    holds("executor, waker and a caller", aio(None));
}

#[test]
fn notify_loading_sleepers_before_the_bump_is_caught() {
    caught(own_host(Some(Mutation::SleepersBeforeBump)), "lost wake-up");
}

#[test]
fn publishing_after_reading_waiters_is_caught() {
    caught(pool(Some(Mutation::WaitersBeforePublish)), "lost wake-up");
}

#[test]
fn reading_seen_after_the_step_is_caught() {
    caught(own_host(Some(Mutation::SeenAfterStep)), "lost wake-up");
}

#[test]
fn a_drop_without_notify_is_caught() {
    caught(
        pool_dropped(Some(Mutation::DropWithoutNotify)),
        "lost wake-up",
    );
}

#[test]
fn an_executor_parking_unannounced_is_caught() {
    caught(aio(Some(Mutation::ParkUnannounced)), "lost wake-up");
}

#[test]
fn a_closed_handle_keeping_its_slot_is_caught() {
    caught(
        slot_reuse(Some(Mutation::HandleKeepsSlot)),
        "stale-slot delivery",
    );
}
