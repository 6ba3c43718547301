//! Deterministic random number generation.
//!
//! Every stochastic decision in the workspace (corpus synthesis, initial
//! representative selection, peer assignment) flows through a [`DetRng`]
//! seeded from an experiment-level seed, so that any table or figure can be
//! regenerated bit-for-bit. `DetRng` is a ChaCha8 keystream (RFC 8439's
//! block function with 8 rounds, a 64-bit block counter and a 64-bit stream
//! id) keyed by a PCG32 expansion of the seed; bounded draws use a widening
//! multiply with a rejection zone. The streams are this repository's own:
//! the known-answer tests below and the workspace's recorded digests pin
//! them.

/// Words in one ChaCha block.
const BLOCK_WORDS: usize = 16;
/// "expand 32-byte k" — the ChaCha constants.
const CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646E, 0x7962_2D32, 0x6B20_6574];

/// A deterministic, seedable RNG with convenience helpers.
#[derive(Debug, Clone)]
pub struct DetRng {
    key: [u32; 8],
    /// The block the next refill generates (state words 12–13).
    counter: u64,
    /// The stream id (state words 14–15).
    stream: u64,
    block: [u32; BLOCK_WORDS],
    /// Next unread word of `block`; `BLOCK_WORDS` when a refill is due.
    index: usize,
}

impl DetRng {
    /// Creates an RNG from a 64-bit seed: a PCG32 sequence started at
    /// `seed` supplies the eight key words.
    pub fn seed_from_u64(mut seed: u64) -> Self {
        const MUL: u64 = 6364136223846793005;
        const INC: u64 = 11634580027462260723;
        let mut key = [0u32; 8];
        for word in &mut key {
            seed = seed.wrapping_mul(MUL).wrapping_add(INC);
            let xorshifted = (((seed >> 18) ^ seed) >> 27) as u32;
            *word = xorshifted.rotate_right((seed >> 59) as u32);
        }
        Self {
            key,
            counter: 0,
            stream: 0,
            block: [0; BLOCK_WORDS],
            index: BLOCK_WORDS,
        }
    }

    /// Derives an independent child stream, e.g. one per peer or per run:
    /// the same key on stream `stream`, from its first word.
    ///
    /// Streams derived with distinct `stream` values never overlap.
    pub fn derive(&self, stream: u64) -> Self {
        Self {
            stream,
            counter: 0,
            index: BLOCK_WORDS,
            ..self.clone()
        }
    }

    /// The next 32 bits of the keystream.
    pub fn next_u32(&mut self) -> u32 {
        if self.index >= BLOCK_WORDS {
            self.refill();
        }
        let word = self.block[self.index];
        self.index += 1;
        word
    }

    /// The next 64 bits of the keystream: two words, the low one first.
    pub fn next_u64(&mut self) -> u64 {
        let lo = u64::from(self.next_u32());
        lo | (u64::from(self.next_u32()) << 32)
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "below() requires a positive bound");
        self.range(0, bound)
    }

    /// Uniform `f64` in `[0, 1)`, with 53 bits of precision.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[lo, hi)`: the high half of a widening multiply
    /// of one draw by the span, redrawn while the low half falls outside
    /// the largest multiple of the span that fits in 64 bits.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "range() requires lo < hi");
        let span = (hi - lo) as u64;
        let zone = (span << span.leading_zeros()).wrapping_sub(1);
        loop {
            let wide = u128::from(self.next_u64()) * u128::from(span);
            if wide as u64 <= zone {
                return lo + (wide >> 64) as usize;
            }
        }
    }

    /// Returns `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// Chooses a uniformly random element of `slice`.
    ///
    /// # Panics
    /// Panics if `slice` is empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> &'a T {
        &slice[self.below(slice.len())]
    }

    /// Samples an index from an (unnormalized) weight vector.
    ///
    /// # Panics
    /// Panics if all weights are zero or `weights` is empty.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(
            total > 0.0,
            "weighted_index() requires positive total weight"
        );
        let mut target = self.unit() * total;
        for (i, &w) in weights.iter().enumerate() {
            target -= w;
            if target <= 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }

    /// Fisher–Yates shuffles `slice` in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below(i + 1);
            slice.swap(i, j);
        }
    }

    /// Draws `n` distinct indices from `[0, bound)` (reservoir-free, via
    /// partial shuffle). Order of the sample is random.
    ///
    /// # Panics
    /// Panics if `n > bound`.
    pub fn sample_indices(&mut self, bound: usize, n: usize) -> Vec<usize> {
        assert!(n <= bound, "cannot sample {n} of {bound}");
        let mut pool: Vec<usize> = (0..bound).collect();
        for i in 0..n {
            let j = self.range(i, bound.max(i + 1));
            pool.swap(i, j);
        }
        pool.truncate(n);
        pool
    }

    /// Runs the ChaCha8 block function for `counter`, then advances it.
    fn refill(&mut self) {
        let mut state = [0u32; BLOCK_WORDS];
        state[..4].copy_from_slice(&CONSTANTS);
        state[4..12].copy_from_slice(&self.key);
        state[12] = self.counter as u32;
        state[13] = (self.counter >> 32) as u32;
        state[14] = self.stream as u32;
        state[15] = (self.stream >> 32) as u32;
        let input = state;
        for _ in 0..4 {
            // A double round: four column rounds, then four diagonal rounds.
            quarter_round(&mut state, 0, 4, 8, 12);
            quarter_round(&mut state, 1, 5, 9, 13);
            quarter_round(&mut state, 2, 6, 10, 14);
            quarter_round(&mut state, 3, 7, 11, 15);
            quarter_round(&mut state, 0, 5, 10, 15);
            quarter_round(&mut state, 1, 6, 11, 12);
            quarter_round(&mut state, 2, 7, 8, 13);
            quarter_round(&mut state, 3, 4, 9, 14);
        }
        for (word, start) in state.iter_mut().zip(input) {
            *word = word.wrapping_add(start);
        }
        self.block = state;
        self.index = 0;
        self.counter = self.counter.wrapping_add(1);
    }
}

fn quarter_round(state: &mut [u32; BLOCK_WORDS], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::seed_from_u64(7);
        let mut b = DetRng::seed_from_u64(7);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::seed_from_u64(1);
        let mut b = DetRng::seed_from_u64(2);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn derived_streams_are_independent_and_deterministic() {
        let root = DetRng::seed_from_u64(99);
        let mut s1a = root.derive(1);
        let mut s1b = root.derive(1);
        let mut s2 = root.derive(2);
        let a: Vec<u64> = (0..8).map(|_| s1a.next_u64()).collect();
        let b: Vec<u64> = (0..8).map(|_| s1b.next_u64()).collect();
        let c: Vec<u64> = (0..8).map(|_| s2.next_u64()).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = DetRng::seed_from_u64(3);
        for _ in 0..1000 {
            assert!(rng.below(17) < 17);
        }
    }

    #[test]
    fn unit_is_in_unit_interval() {
        let mut rng = DetRng::seed_from_u64(4);
        for _ in 0..1000 {
            let x = rng.unit();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn weighted_index_prefers_heavy_weight() {
        let mut rng = DetRng::seed_from_u64(5);
        let weights = [0.01, 0.01, 10.0];
        let mut counts = [0usize; 3];
        for _ in 0..1000 {
            counts[rng.weighted_index(&weights)] += 1;
        }
        assert!(counts[2] > 900, "heavy index sampled {} times", counts[2]);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = DetRng::seed_from_u64(6);
        let mut v: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_are_distinct_and_bounded() {
        let mut rng = DetRng::seed_from_u64(8);
        let sample = rng.sample_indices(100, 20);
        assert_eq!(sample.len(), 20);
        let set: std::collections::BTreeSet<usize> = sample.iter().copied().collect();
        assert_eq!(set.len(), 20);
        assert!(sample.iter().all(|&i| i < 100));
    }

    /// The first 16 `next_u64` of seeds 0, 7 and `u64::MAX`, then of their
    /// `derive(1)` and `derive(u64::MAX)` children. Recorded from the
    /// generator before it was folded into this module: every seeded corpus,
    /// partition and digest in the workspace rests on these streams.
    const SEEDED: [(u64, [[u64; 16]; 3]); 3] = [
        (
            0,
            [
                [
                    0xb585f767a79a3b6c,
                    0x7746a55fbad8c037,
                    0xb2fb0d3281e2a6e6,
                    0x0f6760a48f9b887c,
                    0xe10d666732024679,
                    0x8cae14cb947eb0bd,
                    0xd438539d6a2e923c,
                    0xef781c7dd2d368ba,
                    0xcdc4a23a7e88e660,
                    0x277fa208e6b31e08,
                    0xe17653a37f1bcc44,
                    0xc54302f2eb1e2f69,
                    0x862878227d4b40a3,
                    0x59cd1a8a9b8ea8e0,
                    0xc3b919ae0d16df22,
                    0xa484c4c693eecc47,
                ],
                [
                    0xc16a7b0fc8d48f13,
                    0xbcf538626f559066,
                    0x970a0ea8f23dcd07,
                    0xe95b6da91414dce4,
                    0x75d9076f69c338b5,
                    0xc94700049e6dc478,
                    0x309899950e0c2dad,
                    0x067b36ecc9a47709,
                    0xafb56e589f670ca1,
                    0x4ed3f1b31fcf1548,
                    0x25a0834bdb363443,
                    0x85559973880062ef,
                    0x056e4813a900edf3,
                    0x3868ed2157fc2deb,
                    0x430397e51cfbe084,
                    0x1a645c00746b5a7e,
                ],
                [
                    0x214511913f3db695,
                    0xe93b90733474a369,
                    0x0f5c12db9f028a6e,
                    0x8c09848ed8c98b38,
                    0xff667dcf27b79724,
                    0xa58de4cbc7f49f01,
                    0xab53dceaa325c946,
                    0xa6d53b2413326fbe,
                    0xf7e70aa194f83dde,
                    0xefcef8d2cd301f07,
                    0x386eb1791abf41fe,
                    0x26602e011693af92,
                    0xa0419e9ba2c1a03c,
                    0x1dfec69d7dd4fb52,
                    0xf9bd4ad2f79925e1,
                    0xd9089700f9e5616a,
                ],
            ],
        ),
        (
            7,
            [
                [
                    0x2865533423d743bb,
                    0x2b0159d32e9b293a,
                    0xb44b70b945249531,
                    0xba0bb7b6093e3ae3,
                    0x99ec1c5f1237db88,
                    0x5bff4da3cf99fe26,
                    0x1543639f3df5b89b,
                    0xd96b0f63416f0a7e,
                    0x5d4d854a5c0fa8cd,
                    0xfd6ed5dc7e482577,
                    0x3342c5af74d0b868,
                    0x625fd98dbc9691bf,
                    0x8570a1f08b203519,
                    0x41dee18fe5a31feb,
                    0x6d386e7a6179c2d6,
                    0x86cb2d553fe58732,
                ],
                [
                    0xfdfad737a8d7aac7,
                    0x025131771b7a4e55,
                    0xb8bb8bdaf784db52,
                    0x8731f03172f8c665,
                    0x0ef31326ad3ed5ba,
                    0x987d84f8719be5d8,
                    0x856369afa133a6a3,
                    0xb08ab0f0bb0e3fa9,
                    0xfc4cfd87923d6cf0,
                    0xba567dd09ae831ba,
                    0x2daa8ec589181794,
                    0x0496795ef6b5fe03,
                    0x0a61cc50233073b6,
                    0x8844c96fc0ef5497,
                    0x7cee1c4edb513186,
                    0xecf40b40565616ea,
                ],
                [
                    0x56eda9e422a03128,
                    0xbd249c977c26284e,
                    0x8d50d9d4c47d2717,
                    0x40cadefcf32707fa,
                    0x63aefa3fbe74e001,
                    0x4491b5db644e6c5e,
                    0x9efa8ee8841fc775,
                    0xe933da4f9ca24818,
                    0x1d4ae43fd38633be,
                    0xb549300215bf2ac2,
                    0x572cae5cdc71dddc,
                    0x7307a426598e3840,
                    0xe09fac724084bbf4,
                    0x1ddd047db4a443b1,
                    0xc40a2881c531e9b9,
                    0x59eecb11194fc0e0,
                ],
            ],
        ),
        (
            u64::MAX,
            [
                [
                    0xaf202386e3a73cae,
                    0x6da0df0397be2dd8,
                    0x617b5f2406581bdc,
                    0x6ed021f89985a597,
                    0xa88ebaf095ebc1c5,
                    0xd0be17fa98a6d734,
                    0x3fcc6212f4cb2dba,
                    0xfb40121139714c65,
                    0x53ebc53e19224173,
                    0xf87a851e3d5d8dbb,
                    0xd2f8ce11317bfdea,
                    0x0518b3123f05931c,
                    0xdc8fba0880f7a7ac,
                    0xbace976c8c5f40dd,
                    0x4ea43376ef94db4c,
                    0x6b31a4f52594a43e,
                ],
                [
                    0x4b6544c4cbf21bc2,
                    0xd34015374be9c4fe,
                    0xfb2d3d39b18dc713,
                    0x7a3bff17c90208e7,
                    0x85f88866155e37a8,
                    0x6863c0ac5277e319,
                    0xb4e51e1650e8e0d3,
                    0xbc1b623e5db8594a,
                    0x52361ec5d722d1fb,
                    0x31e8d5f5b4f9d86a,
                    0x16016bb6647c2c86,
                    0x7034680255ad9513,
                    0xc79922c1cbb3e641,
                    0x1ef0b5f8831ad70a,
                    0x7aaa8d6ebfb45901,
                    0xf1a52141d6ee0e59,
                ],
                [
                    0x34f53d338e5cfc73,
                    0x5f2b40b91bc1114b,
                    0x6b6f2b3e8062e977,
                    0xa1207e48192b88c9,
                    0x476e3307add968c4,
                    0x19ce37fcd43a5057,
                    0xf6dcf3e0aaf9418b,
                    0x12cfebd5204b1438,
                    0x7d70ae1635ba3530,
                    0x3067647aa26f0b85,
                    0x928050f23751645b,
                    0xb0bbdbd7524381fa,
                    0x794a5816edad65ca,
                    0x3a627d65845f8c05,
                    0x8ceb0bb57f69c8dd,
                    0xdba563080350cabb,
                ],
            ],
        ),
    ];

    #[test]
    fn known_answer_streams() {
        let draw = |mut rng: DetRng| -> [u64; 16] { std::array::from_fn(|_| rng.next_u64()) };
        for (seed, [root, first, last]) in SEEDED {
            let rng = DetRng::seed_from_u64(seed);
            assert_eq!(draw(rng.clone()), root, "seed {seed}");
            assert_eq!(draw(rng.derive(1)), first, "seed {seed}, stream 1");
            assert_eq!(
                draw(rng.derive(u64::MAX)),
                last,
                "seed {seed}, stream u64::MAX"
            );
        }
        // A child starts at word 0 of its stream however far its parent got.
        let mut parent = DetRng::seed_from_u64(7);
        for _ in 0..5 {
            parent.next_u32();
        }
        assert_eq!(draw(parent.derive(1)), SEEDED[1].1[1]);
        // `next_u32` reads one word, `next_u64` two (low word first).
        let mut rng = DetRng::seed_from_u64(7);
        let mut words: Vec<u64> = (0..5).map(|_| u64::from(rng.next_u32())).collect();
        words.extend((0..3).map(|_| rng.next_u64()));
        assert_eq!(
            words,
            [
                0x0000000023d743bb,
                0x0000000028655334,
                0x000000002e9b293a,
                0x000000002b0159d3,
                0x0000000045249531,
                0x093e3ae3b44b70b9,
                0x1237db88ba0bb7b6,
                0xcf99fe2699ec1c5f,
            ]
        );
    }

    #[test]
    fn known_answer_draws() {
        let mut rng = DetRng::seed_from_u64(11);
        assert!((0..64).all(|_| rng.below(1) == 0));
        let below: Vec<usize> = (0..64).map(|_| rng.below(17)).collect();
        assert_eq!(
            below,
            [
                7, 11, 15, 12, 16, 2, 15, 0, 4, 6, 14, 7, 8, 0, 15, 15, 16, 7, 14, 6, 10, 9, 1, 10,
                9, 6, 6, 7, 13, 8, 12, 14, 2, 0, 3, 14, 5, 10, 9, 6, 16, 15, 5, 8, 5, 4, 6, 7, 11,
                16, 3, 0, 10, 7, 10, 0, 6, 13, 7, 2, 15, 1, 16, 1,
            ]
        );
        let wide: Vec<usize> = (0..64).map(|_| rng.below(1 << 40)).collect();
        assert_eq!(
            wide,
            [
                68681944992,
                857675082294,
                582515912153,
                133641724152,
                158278527725,
                653578325247,
                289686949362,
                15623570797,
                810754596930,
                705712766569,
                209589977992,
                733156740093,
                293540604146,
                234293704862,
                771628751797,
                897518268787,
                419300863009,
                165025085144,
                980698622284,
                678743598445,
                341421046796,
                158923458642,
                791121459105,
                364024490932,
                553064925380,
                1029848439990,
                844089083818,
                812450678294,
                529669027685,
                937328203699,
                705024763293,
                938983825652,
                820275927345,
                1034545127369,
                500124971569,
                643454290663,
                686826508626,
                443588021453,
                162782151017,
                876825129187,
                218903817516,
                557077562746,
                70594259150,
                685079709450,
                985308812851,
                551521547930,
                45501645881,
                117212005947,
                100537381218,
                1077990730334,
                228454614710,
                1014013220578,
                364660674303,
                930055211030,
                814733530533,
                263024418492,
                533834238910,
                294284609698,
                805277324324,
                934633376490,
                825437411921,
                605143141329,
                319509420205,
                546429422384,
            ]
        );
        let range: Vec<usize> = (0..64).map(|_| rng.range(5, 1000)).collect();
        assert_eq!(
            range,
            [
                779, 896, 973, 666, 719, 939, 18, 878, 950, 948, 981, 646, 683, 209, 545, 345, 970,
                136, 664, 259, 665, 264, 102, 368, 177, 634, 319, 182, 934, 365, 108, 649, 817, 84,
                471, 35, 189, 946, 775, 384, 841, 17, 289, 692, 651, 265, 90, 961, 681, 914, 58,
                555, 806, 952, 467, 567, 222, 89, 602, 582, 322, 445, 343, 139,
            ]
        );
        let unit: Vec<u64> = (0..16).map(|_| rng.unit().to_bits()).collect();
        assert_eq!(
            unit,
            [
                0x3fe1412510ffa051,
                0x3fdcf46b7770857a,
                0x3fce894adf01d9f0,
                0x3fe194023fb2a030,
                0x3fd5da78b41a082a,
                0x3f94cbce82d525c0,
                0x3fe5c77abff2beb9,
                0x3fe4d9e1084e4900,
                0x3fee1abe42440306,
                0x3fdce9b3d02370ca,
                0x3fd5342f6c2ea4f6,
                0x3fe1dae8b1cabe5d,
                0x3f904eb8da63d7a0,
                0x3fe509aa31a8eafb,
                0x3fecc5ce1792833f,
                0x3fd617aefd482690,
            ]
        );
        let mut shuffled: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut shuffled);
        assert_eq!(
            shuffled,
            [
                43, 39, 37, 34, 10, 14, 13, 46, 29, 47, 18, 40, 7, 20, 0, 35, 4, 9, 44, 33, 6, 25,
                49, 11, 32, 3, 28, 23, 19, 36, 17, 15, 41, 2, 21, 42, 5, 45, 1, 30, 12, 22, 27, 26,
                16, 31, 24, 38, 8, 48,
            ]
        );
        assert_eq!(
            rng.sample_indices(100, 20),
            [97, 4, 43, 31, 34, 73, 99, 28, 66, 51, 44, 93, 36, 88, 41, 48, 67, 87, 78, 74,]
        );
        let weights = [0.5, 0.0, 2.0, 1.25, 0.25];
        let picks: Vec<usize> = (0..32).map(|_| rng.weighted_index(&weights)).collect();
        assert_eq!(
            picks,
            [
                2, 0, 2, 2, 3, 3, 2, 3, 2, 3, 2, 3, 3, 2, 4, 0, 3, 2, 3, 2, 2, 3, 2, 2, 0, 3, 0, 2,
                3, 2, 3, 2,
            ]
        );
        assert_eq!(rng.next_u64(), 0xebaffd4dea2be891);
    }
}
