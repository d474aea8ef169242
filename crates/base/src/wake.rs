//! Park-and-wake: how a waiting actor stops costing a host step per poll.
//!
//! One rule decides whether a step may park, whatever the actor waits on
//! (an empty queue, a GVT round, a barrier release): re-running it at any
//! later grid instant with unchanged shared state must do nothing but bump
//! the actor's own counters. Such a *pure* step, idle or progress, returns
//! a [`Park`] in its [`StepResult`]. A parked actor is not stepped again
//! until something it reads changes.
//!
//! Whoever changes shared state that a parked actor may be waiting on
//! posts a notice here during its own step:
//!
//! * [`notify_all`] — state every parked actor may read (a GVT round
//!   requested, started, drained or published; a reduction published; a
//!   stop);
//! * [`notify_pace`] — state only actors parked with [`Park::pace`] read;
//! * [`notify_actor`] — a message for one actor, observable from `at`.
//!
//! Both runtimes install a board for the duration of a run ([`install`]):
//! the virtual scheduler on its one thread, the thread runtime on every
//! actor thread. Each drains the notices after every step, so a notice
//! takes effect once its step has returned, wherever in the step it was
//! posted. The virtual scheduler re-enters a parked actor at exactly the
//! poll-grid instant where polling would first have observed the change,
//! and credits the skipped polls through [`take_skipped`]. The thread
//! runtime unparks the threads of the actors a notice covers; it skips no
//! poll, so [`take_skipped`] returns zero there. Without a board, outside
//! any run, every call here is a no-op and [`take_skipped`] returns zero.
//!
//! [`StepResult`]: crate::actor::StepResult

use crate::ids::ActorId;
use crate::time::WallNs;
use std::cell::RefCell;

/// A parked actor's wake conditions beyond [`notify_all`] and the
/// [`notify_actor`] notices addressed to it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Park {
    /// Wake at the first poll at or after this instant even if nothing is
    /// notified (a timer).
    pub until: Option<WallNs>,
    /// Also wake on [`notify_pace`].
    pub pace: bool,
}

/// Notices posted since the scheduler last drained the board.
#[derive(Debug, Default)]
pub struct Notices {
    /// [`notify_all`] was called.
    pub all: bool,
    /// [`notify_pace`] was called.
    pub pace: bool,
    /// [`notify_actor`] calls, in call order.
    pub actors: Vec<(ActorId, WallNs)>,
}

#[derive(Default)]
struct Board {
    notices: Notices,
    /// Skipped polls not yet taken, by actor id.
    credit: Vec<u64>,
}

thread_local! {
    static BOARD: RefCell<Option<Board>> = const { RefCell::new(None) };
}

fn with_board<R>(f: impl FnOnce(&mut Board) -> R) -> Option<R> {
    BOARD.with(|cell| cell.borrow_mut().as_mut().map(f))
}

/// Shared state any parked actor may be waiting on has changed.
pub fn notify_all() {
    with_board(|b| b.notices.all = true);
}

/// Shared state that actors parked with [`Park::pace`] read has changed.
pub fn notify_pace() {
    with_board(|b| b.notices.pace = true);
}

/// A message for `actor` becomes observable at `at`.
pub fn notify_actor(actor: ActorId, at: WallNs) {
    with_board(|b| b.notices.actors.push((actor, at)));
}

/// Polls the scheduler skipped for `actor` since it last asked; the actor
/// credits them to its counters as if it had run each one.
pub fn take_skipped(actor: ActorId) -> u64 {
    with_board(|b| b.credit.get_mut(actor.0 as usize).map(std::mem::take)).flatten().unwrap_or(0)
}

/// A runtime's handle on this thread's board; uninstalls it on drop
/// (restoring any board it displaced).
pub struct Installed {
    prev: Option<Board>,
}

/// Install a board for actors with ids below `ids` on this thread.
pub fn install(ids: usize) -> Installed {
    let board = Board { notices: Notices::default(), credit: vec![0; ids] };
    Installed { prev: BOARD.with(|cell| cell.borrow_mut().replace(board)) }
}

impl Installed {
    /// Move the notices posted since the last drain into `out` (replacing
    /// its contents). Returns whether there were any.
    pub fn drain(&self, out: &mut Notices) -> bool {
        with_board(|b| {
            let n = &mut b.notices;
            if !n.all && !n.pace && n.actors.is_empty() {
                return false;
            }
            out.all = std::mem::take(&mut n.all);
            out.pace = std::mem::take(&mut n.pace);
            out.actors.clear();
            std::mem::swap(&mut out.actors, &mut n.actors);
            true
        })
        .unwrap_or(false)
    }

    /// Record `polls` skipped polls for `actor` (see [`take_skipped`]).
    pub fn credit(&self, actor: ActorId, polls: u64) {
        with_board(|b| b.credit[actor.0 as usize] += polls);
    }
}

impl Drop for Installed {
    fn drop(&mut self) {
        let prev = self.prev.take();
        BOARD.with(|cell| *cell.borrow_mut() = prev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn without_a_board_everything_is_a_no_op() {
        notify_all();
        notify_pace();
        notify_actor(ActorId(0), WallNs(5));
        assert_eq!(take_skipped(ActorId(0)), 0);
    }

    #[test]
    fn notices_and_credit_round_trip_until_uninstalled() {
        let board = install(2);
        let mut out = Notices::default();
        assert!(!board.drain(&mut out));
        notify_actor(ActorId(1), WallNs(7));
        notify_pace();
        assert!(board.drain(&mut out));
        assert!(!out.all && out.pace);
        assert_eq!(out.actors, vec![(ActorId(1), WallNs(7))]);
        assert!(!board.drain(&mut out), "draining empties the board");

        board.credit(ActorId(1), 3);
        board.credit(ActorId(1), 2);
        assert_eq!(take_skipped(ActorId(1)), 5);
        assert_eq!(take_skipped(ActorId(1)), 0);
        assert_eq!(take_skipped(ActorId(9)), 0, "unknown ids have no credit");

        drop(board);
        notify_all();
        let again = install(1);
        assert!(!again.drain(&mut out), "a notice without a board is dropped");
    }
}
