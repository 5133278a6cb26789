//! Deterministic event ordering and the time-bucketed event queue.
//!
//! The simulation's determinism rests on one invariant: events fire in
//! ascending `(time, seq)` order, where `seq` is the global insertion
//! counter. This module owns that invariant. [`Scheduled::key`] names the
//! total order (earlier time first, insertion order breaking ties), and
//! [`EventQueue`] keeps one bucket of events per timestamp.
//!
//! A bucket needs no sort. The simulation hands out `seq` in push order,
//! so appending each event to its timestamp's bucket keeps every bucket in
//! ascending `seq` order, whatever times the pushes carry. Popping the
//! front bucket therefore yields exactly the events a single
//! `(time, seq)`-ordered heap would pop next, already in that order.
//!
//! Popping whole timestamps is what the scheduler builds on: because every
//! handler schedules strictly into the future (`time > now` on every
//! path), all events sharing the earliest timestamp are already queued
//! when that timestamp is reached. One thread runs each node event's
//! handler and merges its outcome before the next handler runs; N threads
//! fan a batch's node-local events out as per-node lanes and merge the
//! outcomes afterwards in `seq` order. See [`crate::Simulation::run`] for
//! why the two are identical.

use std::collections::BTreeMap;

/// A queued event: the `(time, seq)` pair that orders it and what it does.
#[derive(Debug, Clone)]
pub struct Scheduled<K> {
    /// Simulated fire time, milliseconds.
    pub time: u64,
    /// Global insertion sequence number — the deterministic tie-break.
    pub seq: u64,
    /// What the event does when it fires.
    pub kind: K,
}

impl<K> Scheduled<K> {
    /// The `(time, seq)` ordering key, ascending: earlier events have
    /// smaller keys, and [`EventQueue`] pops in ascending key order.
    pub fn key(&self) -> (u64, u64) {
        (self.time, self.seq)
    }
}

/// Events bucketed by fire time, each bucket in push order.
///
/// Pushes must carry ascending `seq`s (the simulation's insertion
/// counter); then the queue pops in ascending `(time, seq)` order.
#[derive(Debug)]
pub struct EventQueue<K> {
    buckets: BTreeMap<u64, Vec<Scheduled<K>>>,
    /// Emptied bucket vectors, reused so a running simulation allocates
    /// bucket storage only when it has more timestamps pending than ever
    /// before.
    spare: Vec<Vec<Scheduled<K>>>,
}

impl<K> Default for EventQueue<K> {
    fn default() -> Self {
        Self {
            buckets: BTreeMap::new(),
            spare: Vec::new(),
        }
    }
}

impl<K> EventQueue<K> {
    /// Appends `event` to its timestamp's bucket.
    pub fn push(&mut self, event: Scheduled<K>) {
        self.buckets
            .entry(event.time)
            .or_insert_with(|| self.spare.pop().unwrap_or_default())
            .push(event);
    }

    /// Moves every event of the earliest queued timestamp into `out`,
    /// which is cleared first, in push order. Leaves `out` empty when
    /// the queue is empty.
    pub fn pop_time_batch(&mut self, out: &mut Vec<Scheduled<K>>) {
        out.clear();
        if let Some((_, mut bucket)) = self.buckets.pop_first() {
            std::mem::swap(out, &mut bucket);
            self.spare.push(bucket);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    fn ev(time: u64, seq: u64) -> Scheduled<u32> {
        Scheduled { time, seq, kind: 0 }
    }

    /// The total order: earlier time first, then earlier seq.
    #[test]
    fn time_then_seq_is_the_total_order() {
        assert_eq!(ev(5, 0).key().cmp(&ev(6, 0).key()), Ordering::Less);
        // Equal-time tie-break: insertion order wins.
        assert_eq!(ev(5, 1).key().cmp(&ev(5, 2).key()), Ordering::Less);
        assert_eq!(ev(5, 2).key().cmp(&ev(5, 2).key()), Ordering::Equal);
        // A later seq never beats an earlier time.
        assert_eq!(ev(4, 99).key().cmp(&ev(5, 0).key()), Ordering::Less);
    }

    /// Seeded random interleavings of pushes (ascending `seq`, times at
    /// or after the last popped batch) and pops: every batch holds one
    /// timestamp, and the batches concatenate to the stable `(time, seq)`
    /// sort of everything pushed.
    #[test]
    fn batches_concatenate_to_the_time_seq_sort_of_the_pushes() {
        for seed in 0..64u64 {
            let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            let mut next = |bound: u64| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) % bound
            };
            let mut queue = EventQueue::default();
            let mut pushed = Vec::new();
            let mut popped = Vec::new();
            let mut batch = Vec::new();
            let mut floor = 0;
            let mut seq = 0;
            for _ in 0..400 {
                if next(3) == 0 {
                    queue.pop_time_batch(&mut batch);
                    if let Some(first) = batch.first() {
                        floor = first.time;
                        assert!(
                            batch.iter().all(|e| e.time == floor),
                            "a batch holds one timestamp"
                        );
                    }
                    popped.extend(batch.iter().map(Scheduled::key));
                } else {
                    // Occasionally far ahead, mostly within a few ticks,
                    // so buckets both grow and get emptied and reused.
                    let ahead = if next(8) == 0 { next(1_000) } else { next(6) };
                    queue.push(ev(floor + ahead, seq));
                    pushed.push((floor + ahead, seq));
                    seq += 1;
                }
            }
            loop {
                queue.pop_time_batch(&mut batch);
                let Some(first) = batch.first() else { break };
                let time = first.time;
                assert!(batch.iter().all(|e| e.time == time));
                popped.extend(batch.iter().map(Scheduled::key));
            }
            pushed.sort_by_key(|&(time, _)| time);
            assert_eq!(popped, pushed, "seed {seed}");
        }
    }

    #[test]
    fn an_empty_queue_leaves_out_empty() {
        let mut queue = EventQueue::default();
        let mut batch = vec![ev(3, 0)];
        queue.pop_time_batch(&mut batch);
        assert!(batch.is_empty());
        queue.push(ev(7, 1));
        queue.pop_time_batch(&mut batch);
        assert_eq!(
            batch.iter().map(Scheduled::key).collect::<Vec<_>>(),
            [(7, 1)]
        );
        queue.pop_time_batch(&mut batch);
        assert!(batch.is_empty());
    }
}
