//! The calibration kernel: a small discrete-event loop of the benchmark's
//! own, timed between the measured runs so that the host's speed can be
//! factored out of their times.
//!
//! On a shared VM the engine's on-CPU time for the same deterministic run
//! drifts by 30–40 % over minutes as other tenants load the machine.
//! Arithmetic, pointer-chasing and heap kernels move far less than the
//! engine does; this loop, built like the engine (a binary-heap pending
//! set, boxed per-LP state, handlers behind `dyn` dispatch, a hash map of
//! bookkeeping), moves with it. Its code is frozen: it must never be tuned,
//! or the times it calibrates stop being comparable with earlier ones.

use crate::thread_cpu_s;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// LPs of the kernel's model.
const LPS: usize = 16_384;
/// Events processed by one [`run`].
const EVENTS: u64 = 150_000;

/// On-CPU seconds of one [`run`] on the reference host (2 vCPUs of a shared
/// Intel Xeon at 2.0 GHz). Calibrated times are on-CPU times rescaled to
/// the speed at which the kernel takes this long.
pub const REFERENCE_S: f64 = 0.30;

/// Checksum of the LP states after one [`run`]; a different value means the
/// kernel did not run as written.
pub const CHECKSUM: u64 = 0x5DEE_1C4A_2DBD_456E;

trait Handler {
    /// Apply one event with random bits `r` to `state`; returns the
    /// timestamp increment and the raw destination of the event it sends.
    fn handle(&self, state: &mut [u64; 8], r: u64) -> (u64, u32);
}

struct Xor;
struct Rotate;
struct Clamp;
struct Sort;

impl Handler for Xor {
    fn handle(&self, state: &mut [u64; 8], r: u64) -> (u64, u32) {
        state[(r & 7) as usize] ^= r;
        state[0] = state[0].wrapping_add(r >> 3);
        (r % 1000 + 1, (r >> 20) as u32)
    }
}

impl Handler for Rotate {
    fn handle(&self, state: &mut [u64; 8], r: u64) -> (u64, u32) {
        for s in state.iter_mut() {
            *s = s.rotate_left(7) ^ r;
        }
        if r & 1 == 0 {
            (r % 500 + 1, (r >> 24) as u32)
        } else {
            (r % 3000 + 1, state[3] as u32)
        }
    }
}

impl Handler for Clamp {
    fn handle(&self, state: &mut [u64; 8], r: u64) -> (u64, u32) {
        let mut x = r;
        for s in state.iter_mut() {
            if *s > x {
                x = *s - x;
            } else {
                *s = x;
            }
        }
        (x % 2000 + 1, (x >> 17) as u32)
    }
}

impl Handler for Sort {
    fn handle(&self, state: &mut [u64; 8], r: u64) -> (u64, u32) {
        state.sort_unstable();
        state[0] = r;
        (r % 700 + 1, (state[4] >> 9) as u32 ^ r as u32)
    }
}

/// On-CPU seconds of one [`run`], whose checksum must be [`CHECKSUM`].
pub fn timed() -> f64 {
    let (secs, checksum) = run();
    assert_eq!(checksum, CHECKSUM, "calibration kernel checksum");
    secs
}

/// Run the kernel once: process [`EVENTS`] events in timestamp order.
/// Returns its on-CPU seconds and the checksum of the final LP states.
pub fn run() -> (f64, u64) {
    let t0 = thread_cpu_s();
    let handlers: [Box<dyn Handler>; 4] =
        [Box::new(Xor), Box::new(Rotate), Box::new(Clamp), Box::new(Sort)];
    let mut states: Vec<Box<[u64; 8]>> = (0..LPS).map(|i| Box::new([i as u64; 8])).collect();
    let mut pending = BinaryHeap::new();
    let mut sent: HashMap<u64, u32> = HashMap::new();
    for lp in 0..LPS {
        pending.push(Reverse((lp as u64 * 7 % 1000, lp as u32)));
    }
    let mut r = 0x2545_F491_4F6C_DD1Du64;
    for ev in 0..EVENTS {
        let Reverse((t, lp)) = pending.pop().expect("every event sends one");
        r ^= r << 13;
        r ^= r >> 7;
        r ^= r << 17;
        let (dt, dst) = handlers[(r >> 60) as usize & 3].handle(&mut states[lp as usize], r);
        *sent.entry(ev & 0xFFFF).or_insert(0) += 1;
        if ev % 64 == 0 {
            sent.retain(|k, _| k & 3 != 0);
        }
        pending.push(Reverse((t + dt, dst % LPS as u32)));
    }
    let checksum = states
        .iter()
        .flat_map(|s| s.iter())
        .fold(sent.len() as u64, |h, &s| (h ^ s).wrapping_mul(0x100_0000_01B3));
    (thread_cpu_s() - t0, checksum)
}
