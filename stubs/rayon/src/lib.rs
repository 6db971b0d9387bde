//! Offline stand-in for `rayon` (see `stubs/README.md`).
//!
//! Provides the `par_iter().map(f).collect()`,
//! `par_chunks(n).map(f).collect()` and
//! `par_chunks_mut(n).enumerate().map(f).collect()` shapes the workspace
//! uses, executed on real OS threads via `std::thread::scope` with an
//! order-preserving collect.
//! Work is split into one contiguous chunk per available core; each thread
//! maps its chunk, and the results are stitched back together in input order.

/// The parallel iterator prelude, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::{
        IntoParallelRefIterator, ParallelSlice, ParallelSliceIter, ParallelSliceMut,
    };
}

/// Worker count of a parallel call, like `rayon::current_num_threads`:
/// `RAYON_NUM_THREADS` (read at call time rather than once at pool
/// construction — this stub has no global pool), falling back to the
/// machine's available parallelism. The conformance suite leans on this to
/// re-run block-parallel codecs at 1/2/8 workers and assert identical output.
pub fn current_num_threads() -> usize {
    std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&t| t > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1))
}

/// Map `0..n` across threads, one contiguous index run per worker, and
/// collect the results in index order.
fn map_indices<R: Send, B: FromIterator<R>>(n: usize, f: impl Fn(usize) -> R + Sync) -> B {
    let threads = current_num_threads().min(n.max(1));
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let run = n.div_ceil(threads);
    let f = &f;
    let mut per_run: Vec<Vec<R>> = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .step_by(run)
            .map(|start| {
                scope.spawn(move || (start..(start + run).min(n)).map(f).collect::<Vec<R>>())
            })
            .collect();
        for h in handles {
            per_run.push(h.join().expect("parallel map worker panicked"));
        }
    });
    per_run.into_iter().flatten().collect()
}

/// Conversion into a borrowing "parallel iterator".
pub trait IntoParallelRefIterator<'a> {
    /// Element reference type.
    type Item: Sync + 'a;
    /// Borrow as a parallel iterator.
    fn par_iter(&'a self) -> ParallelSliceIter<'a, Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = T;
    fn par_iter(&'a self) -> ParallelSliceIter<'a, T> {
        ParallelSliceIter { items: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = T;
    fn par_iter(&'a self) -> ParallelSliceIter<'a, T> {
        ParallelSliceIter { items: self }
    }
}

/// Borrowing parallel iterator over a slice.
pub struct ParallelSliceIter<'a, T> {
    items: &'a [T],
}

impl<'a, T: Sync> ParallelSliceIter<'a, T> {
    /// Map each element (in parallel at collect time).
    pub fn map<R, F>(self, f: F) -> ParMap<'a, T, F>
    where
        F: Fn(&'a T) -> R + Sync,
        R: Send,
    {
        ParMap { items: self.items, f }
    }
}

/// Pending parallel map.
pub struct ParMap<'a, T, F> {
    items: &'a [T],
    f: F,
}

impl<'a, T, F, R> ParMap<'a, T, F>
where
    T: Sync,
    F: Fn(&'a T) -> R + Sync,
    R: Send,
{
    /// Run the map across threads and collect results in input order.
    pub fn collect<B: FromIterator<R>>(self) -> B {
        map_indices(self.items.len(), |i| (self.f)(&self.items[i]))
    }
}

/// `par_chunks` on slices, mirroring `rayon::slice::ParallelSlice`.
pub trait ParallelSlice<T: Sync> {
    /// Borrow as a parallel iterator over contiguous runs of `chunk_size`
    /// elements (the last may be shorter). `chunk_size` must be nonzero.
    fn par_chunks(&self, chunk_size: usize) -> ParChunks<'_, T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, chunk_size: usize) -> ParChunks<'_, T> {
        assert!(chunk_size != 0, "chunk_size must not be zero");
        ParChunks { items: self, chunk_size }
    }
}

/// Borrowing parallel iterator over the chunks of a slice.
pub struct ParChunks<'a, T> {
    items: &'a [T],
    chunk_size: usize,
}

impl<'a, T: Sync> ParChunks<'a, T> {
    /// Map each chunk (in parallel at collect time).
    pub fn map<R, F>(self, f: F) -> ParChunksMap<'a, T, F>
    where
        F: Fn(&'a [T]) -> R + Sync,
        R: Send,
    {
        ParChunksMap { chunks: self, f }
    }
}

/// Pending parallel map over chunks.
pub struct ParChunksMap<'a, T, F> {
    chunks: ParChunks<'a, T>,
    f: F,
}

impl<'a, T, F, R> ParChunksMap<'a, T, F>
where
    T: Sync,
    F: Fn(&'a [T]) -> R + Sync,
    R: Send,
{
    /// Run the map across threads and collect results in chunk order.
    pub fn collect<B: FromIterator<R>>(self) -> B {
        let ParChunks { items, chunk_size } = self.chunks;
        map_indices(items.len().div_ceil(chunk_size), |i| {
            (self.f)(&items[i * chunk_size..((i + 1) * chunk_size).min(items.len())])
        })
    }
}

/// `par_chunks_mut` on slices, mirroring `rayon::slice::ParallelSliceMut`.
pub trait ParallelSliceMut<T: Send> {
    /// Borrow as a parallel iterator over contiguous mutable runs of
    /// `chunk_size` elements (the last may be shorter). `chunk_size` must be
    /// nonzero.
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T> {
        assert!(chunk_size != 0, "chunk_size must not be zero");
        ParChunksMut { items: self, chunk_size }
    }
}

/// Mutably borrowing parallel iterator over the chunks of a slice.
pub struct ParChunksMut<'a, T> {
    items: &'a mut [T],
    chunk_size: usize,
}

impl<'a, T: Send> ParChunksMut<'a, T> {
    /// Pair each chunk with its position, like
    /// `IndexedParallelIterator::enumerate`.
    pub fn enumerate(self) -> EnumerateChunksMut<'a, T> {
        EnumerateChunksMut { chunks: self }
    }
}

/// [`ParChunksMut`] yielding `(index, chunk)`.
pub struct EnumerateChunksMut<'a, T> {
    chunks: ParChunksMut<'a, T>,
}

impl<'a, T: Send> EnumerateChunksMut<'a, T> {
    /// Map each `(index, chunk)` (in parallel at collect time).
    pub fn map<R, F>(self, f: F) -> ParChunksMutMap<'a, T, F>
    where
        F: Fn((usize, &'a mut [T])) -> R + Sync + Send,
        R: Send,
    {
        ParChunksMutMap { chunks: self.chunks, f }
    }
}

/// Pending parallel map over enumerated mutable chunks.
pub struct ParChunksMutMap<'a, T, F> {
    chunks: ParChunksMut<'a, T>,
    f: F,
}

impl<'a, T, F, R> ParChunksMutMap<'a, T, F>
where
    T: Send,
    F: Fn((usize, &'a mut [T])) -> R + Sync + Send,
    R: Send,
{
    /// Run the map across threads — one contiguous run of chunks per worker —
    /// and collect results in chunk order.
    pub fn collect<B: FromIterator<R>>(self) -> B {
        let ParChunksMut { items, chunk_size } = self.chunks;
        let f = &self.f;
        let n = items.len().div_ceil(chunk_size);
        let threads = current_num_threads().min(n.max(1));
        if threads <= 1 {
            return items.chunks_mut(chunk_size).enumerate().map(f).collect();
        }
        let run = n.div_ceil(threads);
        let mut per_run: Vec<Vec<R>> = Vec::with_capacity(threads);
        std::thread::scope(|scope| {
            let handles: Vec<_> = items
                .chunks_mut(run * chunk_size)
                .enumerate()
                .map(|(worker, part)| {
                    scope.spawn(move || {
                        part.chunks_mut(chunk_size)
                            .enumerate()
                            .map(|(k, chunk)| f((worker * run + k, chunk)))
                            .collect::<Vec<R>>()
                    })
                })
                .collect();
            for h in handles {
                per_run.push(h.join().expect("parallel map worker panicked"));
            }
        });
        per_run.into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn ordered_parallel_map() {
        let v: Vec<u64> = (0..10_000).collect();
        let out: Vec<u64> = v.par_iter().map(|&x| x * 2).collect();
        assert_eq!(out, (0..10_000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn collects_results() {
        let v = vec![1i32, 2, 3];
        let out: Result<Vec<i32>, ()> = v.par_iter().map(|&x| Ok(x)).collect();
        assert_eq!(out.unwrap(), v);
    }

    #[test]
    fn honours_rayon_num_threads() {
        // Serialized via the env var; value restored so other tests in this
        // binary see the ambient configuration.
        let prev = std::env::var("RAYON_NUM_THREADS").ok();
        std::env::set_var("RAYON_NUM_THREADS", "1");
        let v: Vec<u64> = (0..1000).collect();
        let single: Vec<u64> = v.par_iter().map(|&x| x * 3).collect();
        std::env::set_var("RAYON_NUM_THREADS", "8");
        let eight: Vec<u64> = v.par_iter().map(|&x| x * 3).collect();
        match prev {
            Some(p) => std::env::set_var("RAYON_NUM_THREADS", p),
            None => std::env::remove_var("RAYON_NUM_THREADS"),
        }
        assert_eq!(single, eight);
        assert_eq!(single, (0..1000).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn par_chunks_visits_contiguous_runs_in_order() {
        let v: Vec<u32> = (0..103).collect();
        let sums: Vec<(usize, u32)> =
            v.par_chunks(10).map(|c| (c.len(), c.iter().sum())).collect();
        let want: Vec<(usize, u32)> = v.chunks(10).map(|c| (c.len(), c.iter().sum())).collect();
        assert_eq!(sums, want);
        let none: Vec<usize> = v[..0].par_chunks(4).map(|c| c.len()).collect();
        assert!(none.is_empty());
    }

    #[test]
    fn par_chunks_mut_hands_each_worker_its_own_run() {
        let mut v = vec![0u32; 103];
        let lens: Vec<usize> = v
            .par_chunks_mut(10)
            .enumerate()
            .map(|(i, c)| {
                c.fill(i as u32);
                c.len()
            })
            .collect();
        assert_eq!(lens, [[10; 10].as_slice(), &[3]].concat());
        assert!(v.iter().enumerate().all(|(k, &x)| x as usize == k / 10));
        let failed: Result<(), usize> =
            v.par_chunks_mut(10).enumerate().map(|(i, _)| if i < 4 { Ok(()) } else { Err(i) }).collect();
        assert_eq!(failed, Err(4));
        let none: Vec<usize> = v[..0].par_chunks_mut(4).enumerate().map(|(i, _)| i).collect();
        assert!(none.is_empty());
    }

    #[test]
    fn empty_input() {
        let v: Vec<i32> = Vec::new();
        let out: Vec<i32> = v.par_iter().map(|&x| x).collect();
        assert!(out.is_empty());
    }
}
