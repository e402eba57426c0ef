//! Seeded inputs: the dataset, the query streams and the arrival schedule.
//!
//! Everything here is a pure function of the run's `--seed`, generated by the
//! benchmark's own PRNG, so a change to the repository's workload generators
//! cannot silently change what the benchmark measures. The program under test
//! only ever receives the generated records and queries.

use std::sync::Arc;
use std::time::Duration;

use vaq_authquery::Query;
use vaq_funcdb::{Dataset, Domain, FunctionTemplate, Record};

/// SplitMix64 (Steele, Lea and Flood, 2014): small, fast and well mixed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one seed. Distinct stream names
    /// give independent streams, so e.g. the measured stream is never a
    /// replay of the warmup stream.
    pub fn stream(seed: u64, name: &str) -> Rng {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut rng = Rng(seed ^ h.rotate_left(17));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// Exponentially distributed with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

/// How a workload's queries are shaped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// Top-k / range / KNN 1:1:1 with `lo..=hi` results, drawn Zipf-skewed
    /// from a fixed pool of `pool` queries.
    ZipfPool { pool: usize, lo: usize, hi: usize },
    /// Range / top-k 1:1 with `lo..=hi` results, every query fresh.
    Fresh { lo: usize, hi: usize },
}

/// Skew of the Zipf draw over the query pool.
const ZIPF_EXPONENT: f64 = 1.0;
/// The verifier's score tolerance (`SCORE_EPS` in `vaq_authquery::client`).
/// It counts a score within this distance below a range's lower bound as
/// inside the range, while the server compares exactly. So an honest answer
/// to a range whose bound lies just above an excluded record fails the
/// completeness check: a known defect. The measured streams keep every bound
/// `MIN_BOUND_GAP` away from any score; `edge_range` probes the defect.
pub const VERIFY_TOLERANCE: f64 = 1e-9;
/// Smallest score gap a measured range bound is placed in.
const MIN_BOUND_GAP: f64 = 1e-6;
/// Start positions tried before settling for a narrow gap.
const BOUND_TRIES: usize = 64;

/// `n` records with `dims` attributes uniform in `[0, 1)`.
pub fn dataset(n: usize, dims: usize, seed: u64) -> Dataset {
    let mut rng = Rng::stream(seed, "dataset");
    let records = (0..n)
        .map(|i| Record::new(i as u64, (0..dims).map(|_| rng.unit()).collect()))
        .collect();
    Dataset::new(
        records,
        FunctionTemplate::anonymous(dims),
        Domain::unit(dims),
    )
}

/// The same dataset with `changes` records redrawn: one owner update.
pub fn updated(dataset: &Dataset, changes: usize, rng: &mut Rng) -> Dataset {
    let mut records = dataset.records.clone();
    for _ in 0..changes {
        let i = rng.range(0, records.len() - 1);
        for a in records[i].attrs.iter_mut() {
            *a = rng.unit();
        }
    }
    Dataset::new(records, dataset.template.clone(), dataset.domain.clone())
}

/// Generates queries over one dataset. Range bounds and KNN targets are
/// placed from the dataset's own scores, so every query returns the number
/// of records it was drawn with.
pub struct QueryMaker {
    dataset: Dataset,
    /// In one dimension with positive weights every sort order is the same;
    /// record indices in that order make each query's scores O(n) to list.
    order_1d: Option<Vec<usize>>,
}

impl QueryMaker {
    pub fn new(dataset: &Dataset) -> Self {
        let order_1d = (dataset.dims() == 1).then(|| {
            let mut order: Vec<usize> = (0..dataset.len()).collect();
            order.sort_by(|&a, &b| {
                let (fa, fb) = (&dataset.functions[a], &dataset.functions[b]);
                fa.eval(&[1.0]).total_cmp(&fb.eval(&[1.0]))
            });
            order
        });
        QueryMaker {
            dataset: dataset.clone(),
            order_1d,
        }
    }

    fn sorted_scores(&self, x: &[f64]) -> Vec<f64> {
        match &self.order_1d {
            Some(order) => order
                .iter()
                .map(|&i| self.dataset.functions[i].eval(x))
                .collect(),
            None => {
                let mut s: Vec<f64> = self.dataset.functions.iter().map(|f| f.eval(x)).collect();
                s.sort_by(f64::total_cmp);
                s
            }
        }
    }

    /// One query of `kind` (0 top-k, 1 range, 2 KNN) returning `count` records.
    pub fn make(&self, rng: &mut Rng, kind: usize, count: usize) -> Query {
        let n = self.dataset.len();
        let count = count.clamp(1, n);
        // Weights away from 0 keep scores distinct in one dimension.
        let x: Vec<f64> = (0..self.dataset.dims())
            .map(|_| 0.05 + 0.95 * rng.unit())
            .collect();
        match kind {
            0 => Query::top_k(x, count),
            1 => {
                let s = self.sorted_scores(&x);
                let gap_ok = |start: usize| {
                    let end = start + count - 1;
                    (start == 0 || s[start] - s[start - 1] > MIN_BOUND_GAP)
                        && (end == n - 1 || s[end + 1] - s[end] > MIN_BOUND_GAP)
                };
                let mut start = rng.range(0, n - count);
                for _ in 0..BOUND_TRIES {
                    if gap_ok(start) {
                        break;
                    }
                    start = rng.range(0, n - count);
                }
                let end = start + count - 1;
                let lower = if start == 0 {
                    s[0] - 1e-6
                } else {
                    (s[start - 1] + s[start]) / 2.0
                };
                let upper = if end == n - 1 {
                    s[n - 1] + 1e-6
                } else {
                    (s[end] + s[end + 1]) / 2.0
                };
                Query::range(x, lower, upper)
            }
            _ => {
                let s = self.sorted_scores(&x);
                let target = s[0] + (s[n - 1] - s[0]) * rng.unit();
                Query::knn(x, count, target)
            }
        }
    }

    /// A range over the top few records whose lower bound lies `offset`
    /// above the score of the highest excluded record.
    pub fn edge_range(&self, rng: &mut Rng, offset: f64) -> Query {
        let n = self.dataset.len();
        let x: Vec<f64> = (0..self.dataset.dims())
            .map(|_| 0.05 + 0.95 * rng.unit())
            .collect();
        let s = self.sorted_scores(&x);
        let lowest = n.saturating_sub(9);
        let mut i = rng.range(lowest, n - 2);
        for _ in 0..BOUND_TRIES {
            if s[i + 1] - s[i] > MIN_BOUND_GAP {
                break;
            }
            i = rng.range(lowest, n - 2);
        }
        Query::range(x, s[i] + offset, s[n - 1] + MIN_BOUND_GAP)
    }
}

/// An endless, seeded stream of queries in a workload's mix.
pub struct QueryStream {
    rng: Rng,
    source: Source,
}

enum Source {
    /// Zipf-skewed draws from a shared pool: `cdf[r]` is the probability of
    /// drawing one of the first `r + 1` pool entries.
    Pool {
        pool: Arc<Vec<Query>>,
        cdf: Arc<Vec<f64>>,
    },
    Fresh {
        maker: Arc<QueryMaker>,
        lo: usize,
        hi: usize,
    },
}

/// Builds the query streams of one run; every stream shares the pool.
pub struct Streams {
    seed: u64,
    mix: Mix,
    maker: Arc<QueryMaker>,
    pool: Arc<Vec<Query>>,
    cdf: Arc<Vec<f64>>,
}

impl Streams {
    pub fn new(dataset: &Dataset, mix: Mix, seed: u64) -> Streams {
        let maker = QueryMaker::new(dataset);
        let (pool, cdf) = match mix {
            Mix::ZipfPool { pool, lo, hi } => {
                let mut rng = Rng::stream(seed, "pool");
                let queries = (0..pool)
                    .map(|i| {
                        let count = rng.range(lo, hi);
                        maker.make(&mut rng, i % 3, count)
                    })
                    .collect();
                let weights: Vec<f64> = (1..=pool)
                    .map(|r| 1.0 / (r as f64).powf(ZIPF_EXPONENT))
                    .collect();
                let total: f64 = weights.iter().sum();
                let mut acc = 0.0;
                let cdf = weights
                    .iter()
                    .map(|w| {
                        acc += w / total;
                        acc
                    })
                    .collect();
                (queries, cdf)
            }
            Mix::Fresh { .. } => (Vec::new(), Vec::new()),
        };
        Streams {
            seed,
            mix,
            maker: Arc::new(maker),
            pool: Arc::new(pool),
            cdf: Arc::new(cdf),
        }
    }

    /// The stream called `name`.
    pub fn stream(&self, name: &str) -> QueryStream {
        let source = match self.mix {
            Mix::ZipfPool { .. } => Source::Pool {
                pool: self.pool.clone(),
                cdf: self.cdf.clone(),
            },
            Mix::Fresh { lo, hi } => Source::Fresh {
                maker: self.maker.clone(),
                lo,
                hi,
            },
        };
        QueryStream {
            rng: Rng::stream(self.seed, name),
            source,
        }
    }
}

impl QueryStream {
    pub fn next_query(&mut self) -> Query {
        match &self.source {
            Source::Pool { pool, cdf } => {
                let u = self.rng.unit();
                let rank = cdf.partition_point(|&c| c < u).min(pool.len() - 1);
                pool[rank].clone()
            }
            Source::Fresh { maker, lo, hi } => {
                let kind = (self.rng.next_u64() % 2) as usize;
                let count = self.rng.range(*lo, *hi);
                maker.make(&mut self.rng, kind, count)
            }
        }
    }

    pub fn take(&mut self, count: usize) -> Vec<Query> {
        (0..count).map(|_| self.next_query()).collect()
    }
}

/// Poisson arrivals at `rate` per second over `window`: the offsets from the
/// start of the window at which each request is due.
pub fn arrivals(rate: f64, window: Duration, seed: u64, name: &str) -> Vec<Duration> {
    let mut rng = Rng::stream(seed, name);
    let mut t = 0.0;
    let mut due = Vec::new();
    loop {
        t += rng.exp(1.0 / rate);
        if t >= window.as_secs_f64() {
            return due;
        }
        due.push(Duration::from_secs_f64(t));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_per_name() {
        let data = dataset(40, 2, 3);
        let mix = Mix::ZipfPool {
            pool: 64,
            lo: 2,
            hi: 5,
        };
        let a = Streams::new(&data, mix, 9).stream("measure").take(20);
        let b = Streams::new(&data, mix, 9).stream("measure").take(20);
        let c = Streams::new(&data, mix, 9).stream("warmup").take(20);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn range_queries_select_the_drawn_count() {
        for dims in [1, 2] {
            let data = dataset(200, dims, 5);
            let maker = QueryMaker::new(&data);
            let mut rng = Rng::stream(1, "t");
            for count in [1, 7, 150, 200] {
                let q = maker.make(&mut rng, 1, count);
                let Query::Range {
                    weights,
                    lower,
                    upper,
                } = &q
                else {
                    panic!("not a range query")
                };
                let hits = data
                    .functions
                    .iter()
                    .filter(|f| (*lower..=*upper).contains(&f.eval(weights)))
                    .count();
                assert_eq!(hits, count, "dims {dims}");
            }
        }
    }

    #[test]
    fn edge_range_excludes_the_record_just_below_its_bound() {
        let data = dataset(50, 2, 8);
        let q = QueryMaker::new(&data).edge_range(&mut Rng::stream(2, "e"), 0.5e-9);
        let Query::Range { weights, lower, .. } = &q else {
            panic!("not a range query")
        };
        let below = data
            .functions
            .iter()
            .map(|f| f.eval(weights))
            .filter(|s| s < lower)
            .fold(f64::MIN, f64::max);
        assert!(*lower - below > 0.0 && *lower - below < VERIFY_TOLERANCE);
    }

    #[test]
    fn arrivals_match_the_rate() {
        let due = arrivals(1000.0, Duration::from_secs(2), 4, "a");
        assert!((1800..2200).contains(&due.len()), "{}", due.len());
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
    }
}
