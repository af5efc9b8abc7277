//! A fixed reference workload that measures how fast the host runs at
//! the moment, so host times can be given in reference seconds.
//!
//! On a shared host, other tenants change how fast this process runs by
//! tens of percent over minutes, through the caches, memory and cores
//! they share with it. Neither the process CPU clock nor the host's steal
//! time shows it. The benchmark therefore runs this workload just before
//! each repetition and scales that repetition's host times by
//! [`REFERENCE_S`] over the workload's CPU time.
//!
//! The workload is the benchmark's own code on the standard library only,
//! so no change to the repository's crates moves it. It has the two
//! halves of a discrete-event simulator's hot path: an event loop that
//! pops the earliest of many pending events from a binary heap,
//! schedules a follow-up and updates a per-entity table far larger than
//! the core's caches; and an interpreter whose data-dependent branches
//! over a small program stand in for the dispatch through many code paths.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::timing::Stopwatch;

/// CPU seconds of one [`Calibrator::measure`] on the host the bounds
/// were set on (a 2-vCPU Xeon virtual machine) when it ran fast.
pub const REFERENCE_S: f64 = 0.05;

/// Pending events kept in the heap.
const PENDING: usize = 1 << 16;
/// Entries of the per-entity table (8 bytes each).
const ENTITIES: usize = 1 << 22;
/// Events processed per measurement.
const EVENTS: usize = 120_000;
/// Instructions of the interpreted program.
const PROGRAM: usize = 4096;
/// Words of interpreter memory.
const WORDS: usize = 1 << 16;
/// Instructions interpreted per measurement.
const INSTRUCTIONS: usize = 8_000_000;

/// A xorshift generator; the same seed gives the same work.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// The reference workload's buffers, allocated once so that page
/// faults stay out of the measurement.
pub struct Calibrator {
    table: Vec<u64>,
    program: Vec<u8>,
    words: Vec<u64>,
}

impl Calibrator {
    /// Allocates and touches the buffers.
    pub fn new() -> Calibrator {
        let mut rng = Rng(0x2545_F491_4F6C_DD1D);
        Calibrator {
            table: vec![1; ENTITIES],
            program: (0..PROGRAM).map(|_| (rng.next() % 16) as u8).collect(),
            words: vec![0; WORDS],
        }
    }

    /// Process CPU seconds one pass of the reference workload takes now.
    /// Every pass does the same work.
    pub fn measure(&mut self) -> f64 {
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        let mut heap: BinaryHeap<Reverse<(u64, u32)>> = (0..PENDING)
            .map(|i| Reverse((rng.next() % 1_000_000, i as u32)))
            .collect();
        self.words.fill(0);
        let watch = Stopwatch::start();
        let a = self.events(&mut heap, &mut rng);
        let b = self.interpret();
        std::hint::black_box(a ^ b);
        watch.read().cpu_s
    }

    fn events(&mut self, heap: &mut BinaryHeap<Reverse<(u64, u32)>>, rng: &mut Rng) -> u64 {
        let table = &mut self.table;
        let mut acc = 0u64;
        for _ in 0..EVENTS {
            let Reverse((t, id)) = heap.pop().expect("the heap is never empty");
            let slot = (rng.next() as usize) % ENTITIES;
            table[slot] = table[slot].wrapping_add(t ^ u64::from(id));
            acc = acc.wrapping_add(table[(slot * 31 + id as usize) % ENTITIES]);
            heap.push(Reverse((t + 1 + rng.next() % 1_000_000, id)));
        }
        acc
    }

    fn interpret(&mut self) -> u64 {
        let (program, words) = (&self.program, &mut self.words);
        let mut regs = [1u64; 8];
        let mut pc = 0usize;
        let word = |x: u64| (x as usize) % WORDS;
        for _ in 0..INSTRUCTIONS {
            let op = program[pc];
            let a = (pc + op as usize) & 7;
            let b = (pc >> 3) & 7;
            pc = (pc + 1) % PROGRAM;
            match op {
                0 => regs[a] = regs[a].wrapping_add(regs[b]),
                1 => regs[a] = regs[a].wrapping_sub(regs[b] | 1),
                2 => regs[a] = regs[a].wrapping_mul(regs[b] | 3),
                3 => regs[a] ^= regs[b].rotate_left(7),
                4 => regs[a] = words[word(regs[b])],
                5 => words[word(regs[a])] = regs[b],
                6 if regs[a] & 1 == 0 => pc = (pc + (regs[b] as usize & 63)) % PROGRAM,
                7 if regs[a] > regs[b] => regs.swap(a, b),
                8 => regs[a] /= regs[b] | 1,
                9 => regs[a] = u64::from(regs[a].count_ones()).wrapping_add(regs[b]),
                10 if regs[b] % 3 == 0 => regs[a] = regs[a].wrapping_add(17),
                10 => regs[a] = regs[a].wrapping_sub(5),
                11 => regs[a] = words[word(regs[a].wrapping_mul(8))].wrapping_add(regs[b]),
                12 => regs[a] = regs[a].wrapping_shl(regs[b] as u32),
                13 if regs[a] & 7 == 3 => pc = (regs[b] as usize) % PROGRAM,
                14 => words[word(regs[b].wrapping_mul(64))] ^= regs[a],
                _ => regs[a] = regs[b].wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 3,
            }
        }
        regs.iter().fold(0, |x, &r| x ^ r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_pass_does_the_same_work() {
        let mut c = Calibrator::new();
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        let mut heap: BinaryHeap<Reverse<(u64, u32)>> = (0..PENDING)
            .map(|i| Reverse((rng.next() % 1_000_000, i as u32)))
            .collect();
        let first = c.interpret();
        c.words.fill(0);
        assert_eq!(c.interpret(), first);
        c.events(&mut heap, &mut rng);
        assert_eq!(heap.len(), PENDING);
        assert!(c.measure() > 0.0);
    }
}
