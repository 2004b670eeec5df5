//! Seeded input generation. Everything a workload feeds the program —
//! guest iteration counts, serving payloads, request lines — comes from
//! here and from the `--seed` argument alone, so one seed always gives
//! the same inputs and a held-out seed gives fresh inputs of the same
//! shape.

use vaxd::payload::PAYLOAD_GPA;

/// Most `SOBGTR` spins one served payload runs.
pub const MAX_SPIN: u32 = 4000;
/// Most pages one served payload dirties.
pub const MAX_DIRTY_PAGES: u32 = 32;
/// First page a payload dirties: one page above the payload's own code,
/// so the dirtied pages never overlap the instructions being run.
pub(crate) const DIRTY_BASE_GPA: u32 = PAYLOAD_GPA + 0x1000;

/// SplitMix64: a tiny, well-mixed, portable generator.
#[derive(Debug, Clone)]
pub(crate) struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so different
    /// uses of one seed do not share a sequence.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..=max`.
    pub fn upto(&mut self, max: u32) -> u32 {
        (self.next_u64() % (u64::from(max) + 1)) as u32
    }
}

/// Half-width of the seeded iteration band, in permille of the base.
/// The band is narrow so a guest job's latency moves little with the
/// seed, leaving run-to-run spread to the host.
pub const JITTER_PERMILLE: u32 = 10;

/// `base` moved by a seeded factor within ±[`JITTER_PERMILLE`]: the
/// guest iteration count `vm_edittrans` runs for this seed.
pub fn jittered(base: u32, seed: u64, stream: u64) -> u32 {
    let offset = i64::from(Rng::new(seed, stream).upto(2 * JITTER_PERMILLE));
    let permille = 1000 + offset - i64::from(JITTER_PERMILLE);
    let scaled = i64::from(base) * permille / 1000;
    u32::try_from(scaled.max(1)).unwrap_or(u32::MAX)
}

/// The shape of one served payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PayloadSpec {
    /// `SOBGTR` iterations before the page writes.
    pub spin: u32,
    /// Pages written, one longword each, from [`DIRTY_BASE_GPA`].
    pub pages: u32,
}

/// `n` payload shapes for `seed`. Spins are stratified over
/// `0..=MAX_SPIN` (one uniform draw in each of `n` equal strata, in
/// seeded order), so every seed's pool has nearly the same mean work.
/// Dirtied pages cycle through three classes: read-only (0 pages, a
/// quarter), the maximum (a quarter), and a uniform 1..=31 (half), so
/// first-write materialization cost shows next to fork cost.
pub fn payload_specs(seed: u64, n: usize) -> Vec<PayloadSpec> {
    let mut rng = Rng::new(seed, 1);
    let strata = n as u64;
    let mut spins: Vec<u32> = (0..strata)
        .map(|i| {
            let lo = u64::from(MAX_SPIN + 1) * i / strata;
            let hi = u64::from(MAX_SPIN + 1) * (i + 1) / strata;
            let width = u32::try_from(hi - lo).unwrap_or(1).max(1);
            (lo as u32 + rng.upto(width - 1)).min(MAX_SPIN)
        })
        .collect();
    let mut pages: Vec<u32> = (0..n)
        .map(|i| match i % 4 {
            0 => 0,
            1 => MAX_DIRTY_PAGES,
            _ => 1 + rng.upto(MAX_DIRTY_PAGES - 2),
        })
        .collect();
    shuffle(&mut spins, &mut rng);
    shuffle(&mut pages, &mut rng);
    spins
        .into_iter()
        .zip(pages)
        .map(|(spin, pages)| PayloadSpec { spin, pages })
        .collect()
}

/// Seeded Fisher-Yates shuffle.
fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        let j = rng.upto(i as u32) as usize;
        items.swap(i, j);
    }
}

/// Assembly source of a payload: spin, dirty the pages, print `tag` on
/// the console, halt.
pub fn payload_source(spec: PayloadSpec, tag: &str) -> String {
    let mut src = String::new();
    if spec.spin > 0 {
        src.push_str(&format!(
            "    movl #{}, r0\nspin_l:\n    sobgtr r0, spin_l\n",
            spec.spin
        ));
    }
    if spec.pages > 0 {
        src.push_str(&format!(
            "    movl #{}, r1\n    movl #{DIRTY_BASE_GPA}, r2\ndirty_l:\n    movl r1, (r2)\n    addl2 #512, r2\n    sobgtr r1, dirty_l\n",
            spec.pages
        ));
    }
    for b in tag.bytes() {
        src.push_str(&format!("    mtpr #{b}, #35\n"));
    }
    src.push_str("    halt\n");
    src
}

/// Assembles a payload at [`PAYLOAD_GPA`].
pub fn payload_bytes(spec: PayloadSpec, tag: &str) -> Result<Vec<u8>, vax_asm::AsmError> {
    Ok(vax_asm::assemble_text(&payload_source(spec, tag), PAYLOAD_GPA)?.bytes)
}

/// The endless sequence of payload-pool indices connection `conn`
/// sends, drawn uniformly from a pool of `pool` payloads.
pub fn request_stream(seed: u64, conn: usize, pool: usize) -> impl Iterator<Item = usize> {
    let mut rng = Rng::new(seed, 100 + conn as u64);
    let max = u32::try_from(pool.max(1) - 1).unwrap_or(u32::MAX);
    std::iter::repeat_with(move || rng.upto(max) as usize)
}
