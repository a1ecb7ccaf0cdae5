//! Seeded input generation. Every input the engine sees is derived from
//! the `--seed` argument through this generator, so one seed always gives
//! the same tables, statements and expected answers.

/// SplitMix64: tiny, fast, and good enough to decorrelate benchmark inputs.
pub struct Rng(u64);

impl Rng {
    /// A generator for one named input stream of one seed; distinct
    /// streams of the same seed are independent.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [-1, 1).
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// A dense row-major matrix as plain data (no engine types), the form the
/// reference computations work on.
#[derive(Clone)]
pub struct Dense {
    pub rows: usize,
    pub cols: usize,
    pub data: Vec<f64>,
}

impl Dense {
    pub fn random(rng: &mut Rng, rows: usize, cols: usize) -> Dense {
        Dense {
            rows,
            cols,
            data: (0..rows * cols).map(|_| rng.uniform()).collect(),
        }
    }

    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    pub fn at(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.cols + j]
    }
}
