//! Simulated physical memory, with copy-on-write forking.

use crate::fault::MemFault;
use std::sync::Arc;
use vax_arch::va::{PAGE_BYTES, PAGE_SHIFT};

/// Bytes per page, as a `usize` for indexing.
const PAGE: usize = PAGE_BYTES as usize;

/// A bank of simulated physical memory.
///
/// Addresses are 32-bit physical byte addresses starting at 0. References
/// beyond the configured size fail with [`MemFault::NonExistent`], which the
/// CPU surfaces as a machine check — on the paper's virtual VAX, touching
/// nonexistent memory is grounds for halting the VM (§5, "Hardware
/// errors").
///
/// # Copy-on-write forking
///
/// [`PhysMemory::fork`] freezes the current contents into an [`Arc`]'d
/// *base* shared between the parent and every child, and turns each of
/// them into a sparse overlay: a per-page slot table plus an arena that
/// holds only the pages written since the fork. Reads of an untouched
/// page come straight from the shared base; the first write to a page
/// appends a copy of that one page to the arena. A fork copies nothing
/// and allocates one byte of decode-cache marks per 512-byte page; the
/// first write adds the slot table (four bytes per page), and a child
/// that writes *k* pages holds *k* pages of its own. Once frozen, a memory forks
/// through `&self` ([`PhysMemory::fork_frozen`]), so concurrent forks of
/// one parent need no lock. An unforked memory stays dense and pays no
/// overlay cost beyond one well-predicted branch per access.
///
/// # Example
///
/// ```
/// use vax_mem::PhysMemory;
///
/// let mut mem = PhysMemory::new(4096);
/// mem.write_u32(0x10, 0xdead_beef)?;
/// assert_eq!(mem.read_u32(0x10)?, 0xdead_beef);
/// assert_eq!(mem.read_u16(0x10)?, 0xbeef); // little-endian
/// # Ok::<(), vax_mem::MemFault>(())
/// ```
#[derive(Debug, Clone)]
pub struct PhysMemory {
    /// Every byte while unforked; empty once the memory is a
    /// copy-on-write overlay, whose contents live in `cow`.
    bytes: Vec<u8>,
    /// Size in bytes, a whole number of pages.
    size: u32,
    /// The shared frozen base and private pages, once forked.
    cow: Option<Overlay>,
    /// Pages whose contents back decoded-instruction-cache entries. A
    /// write to a marked page is recorded in `dirty_code` so the CPU can
    /// invalidate the stale cache entries before its next decode
    /// (self-modifying code, DMA, VMM pokes — anything that mutates
    /// physical memory funnels through the write methods below).
    code_pages: Vec<bool>,
    /// Marked pages written since the last [`PhysMemory::take_dirty_code_pages`].
    dirty_code: Vec<u32>,
    /// Optional working-set write tracker (profiling / incremental
    /// snapshots). `None` — the default — costs one predictable branch
    /// per write; see [`PhysMemory::enable_write_tracking`].
    tracker: Option<Box<WriteTracker>>,
}

/// The copy-on-write view of a forked memory: a frozen base shared with
/// fork relatives, plus the pages this memory has written since.
#[derive(Debug, Clone)]
struct Overlay {
    /// The frozen base; always the memory's full size.
    base: Arc<Vec<u8>>,
    /// Per page: 0 while shared with `base`; otherwise `n` when the page
    /// lives at arena page `n - 1`. Empty until the first write, so a
    /// fork allocates no table.
    slots: Vec<u32>,
    /// Materialized pages, back to back in materialization order.
    arena: Vec<u8>,
}

impl Overlay {
    fn over(base: Arc<Vec<u8>>) -> Overlay {
        Overlay {
            base,
            slots: Vec::new(),
            arena: Vec::new(),
        }
    }

    /// Page `p`'s slot (0: shared).
    #[inline]
    fn slot(&self, p: usize) -> u32 {
        self.slots.get(p).copied().unwrap_or(0)
    }

    /// Pages materialized into the arena.
    fn resident(&self) -> u32 {
        (self.arena.len() / PAGE) as u32
    }

    /// The effective contents of page `p`.
    #[inline]
    fn page(&self, p: usize) -> &[u8] {
        match self.slot(p) {
            0 => &self.base[p * PAGE..(p + 1) * PAGE],
            s => {
                let start = (s as usize - 1) * PAGE;
                &self.arena[start..start + PAGE]
            }
        }
    }

    /// Page `p`, materialized first if it is still shared.
    #[inline]
    fn page_mut(&mut self, p: usize) -> &mut [u8] {
        let s = match self.slot(p) {
            0 => self.materialize(p),
            s => s,
        };
        let start = (s as usize - 1) * PAGE;
        &mut self.arena[start..start + PAGE]
    }

    /// Appends a private copy of page `p` to the arena; returns its slot.
    #[cold]
    #[inline(never)]
    fn materialize(&mut self, p: usize) -> u32 {
        if self.slots.is_empty() {
            self.slots = vec![0; self.base.len() / PAGE];
        }
        self.arena
            .extend_from_slice(&self.base[p * PAGE..(p + 1) * PAGE]);
        let s = self.resident();
        self.slots[p] = s;
        s
    }

    /// `N` bytes at `i`, resolving the page once unless the access
    /// straddles a page boundary. Out of line, so the dense read path it
    /// sits beside keeps its small frame.
    #[inline(never)]
    fn read<const N: usize>(&self, i: usize) -> [u8; N] {
        let off = i % PAGE;
        let mut out = [0; N];
        if off + N <= PAGE {
            out.copy_from_slice(&self.page(i / PAGE)[off..off + N]);
        } else {
            for (k, b) in out.iter_mut().enumerate() {
                *b = self.page((i + k) / PAGE)[(i + k) % PAGE];
            }
        }
        out
    }

    /// Applies `f` to each page-sized piece of `[i, i+len)`, with the
    /// piece's offset into the range.
    #[inline]
    fn for_each_mut(&mut self, i: usize, len: usize, mut f: impl FnMut(usize, &mut [u8])) {
        let mut done = 0;
        while done < len {
            let at = i + done;
            let off = at % PAGE;
            let n = (PAGE - off).min(len - done);
            f(done, &mut self.page_mut(at / PAGE)[off..off + n]);
            done += n;
        }
    }

    /// The effective contents as one dense buffer.
    fn merged(&self) -> Vec<u8> {
        let mut out = self.base.as_ref().clone();
        for (p, &s) in self.slots.iter().enumerate() {
            if s != 0 {
                out[p * PAGE..(p + 1) * PAGE].copy_from_slice(self.page(p));
            }
        }
        out
    }
}

/// Working-set telemetry state: which pages the guest has written.
///
/// Purely observational — it is written to by the same
/// [`PhysMemory::note_write`] funnel that feeds self-modifying-code
/// tracking and never affects memory contents, so enabling it cannot
/// perturb execution. `dirty` is the *drainable* set (an incremental
/// snapshot consumes it via [`PhysMemory::take_dirty_pages`]); `touched`
/// accumulates for the life of the tracker; `dirty_events` counts
/// page-dirtying transitions monotonically across drains so a sampler
/// can difference it into per-interval dirty rates.
#[derive(Debug, Clone)]
struct WriteTracker {
    touched: Vec<bool>,
    touched_count: u32,
    dirty: Vec<bool>,
    dirty_count: u32,
    dirty_events: u64,
}

impl WriteTracker {
    /// The clean→dirty transition, at most once per page per drain
    /// interval; kept out of line so the per-write fast path in
    /// `note_write` stays one load and one predictable branch.
    #[cold]
    #[inline(never)]
    fn mark_dirty(&mut self, p: usize) {
        self.dirty[p] = true;
        self.dirty_count += 1;
        self.dirty_events += 1;
        if !self.touched[p] {
            self.touched[p] = true;
            self.touched_count += 1;
        }
    }
}

/// Equality is over *effective* memory contents; the decode-cache
/// bookkeeping and the copy-on-write representation are transparent (a
/// freshly forked child equals its parent).
impl PartialEq for PhysMemory {
    fn eq(&self, other: &PhysMemory) -> bool {
        if self.size() != other.size() {
            return false;
        }
        if self.cow.is_none() && other.cow.is_none() {
            return self.bytes == other.bytes;
        }
        (0..self.pages()).all(|p| self.page(p) == other.page(p))
    }
}

impl Eq for PhysMemory {}

impl PhysMemory {
    /// Allocates `size` bytes of zeroed memory, rounded up to a whole page.
    pub fn new(size: u32) -> PhysMemory {
        let rounded = size.div_ceil(PAGE_BYTES) * PAGE_BYTES;
        PhysMemory::from_bytes(vec![0; rounded as usize])
    }

    /// Adopts `bytes` as the memory's contents without copying them,
    /// zero-padded to a whole page — how a snapshot restore builds its
    /// memory straight from the decoded image.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` exceeds the 32-bit physical address space.
    #[allow(clippy::expect_used)]
    pub fn from_bytes(mut bytes: Vec<u8>) -> PhysMemory {
        bytes.resize(bytes.len().div_ceil(PAGE) * PAGE, 0);
        let size = u32::try_from(bytes.len()).expect("memory fits 32-bit physical addresses");
        PhysMemory {
            bytes,
            size,
            cow: None,
            code_pages: vec![false; size as usize / PAGE],
            dirty_code: Vec::new(),
            tracker: None,
        }
    }

    /// Total size in bytes.
    pub fn size(&self) -> u32 {
        self.size
    }

    /// Total size in pages.
    pub fn pages(&self) -> u32 {
        self.size() / PAGE_BYTES
    }

    /// True if the `len`-byte range starting at `pa` is backed by memory.
    pub fn contains(&self, pa: u32, len: u32) -> bool {
        (pa as u64) + (len as u64) <= self.size as u64
    }

    fn check(&self, pa: u32, len: u32) -> Result<usize, MemFault> {
        if self.contains(pa, len) {
            Ok(pa as usize)
        } else {
            Err(MemFault::NonExistent { pa })
        }
    }

    /// Records a write over `[pa, pa+len)` against the code-page marks
    /// and, when enabled, the working-set tracker.
    #[inline]
    fn note_write(&mut self, pa: u32, len: u32) {
        let first = pa >> PAGE_SHIFT;
        let last = (pa + len - 1) >> PAGE_SHIFT;
        for pfn in first..=last {
            if self.code_pages[pfn as usize] {
                self.dirty_code.push(pfn);
            }
        }
        if let Some(t) = &mut self.tracker {
            for pfn in first..=last {
                // Dirty implies touched (drains clear only the dirty
                // side), so an already-dirty page — the overwhelmingly
                // common case — needs no further bookkeeping.
                let p = pfn as usize;
                if !t.dirty[p] {
                    t.mark_dirty(p);
                }
            }
        }
    }

    // ---- copy-on-write fork ----

    /// Freezes the current effective contents into a shareable base and
    /// turns `self` into an overlay over it with no resident pages.
    ///
    /// Cheap (`Arc` clone) when already frozen with nothing written since;
    /// otherwise merges the overlay into a fresh base, `O(size)`.
    fn freeze(&mut self) -> Arc<Vec<u8>> {
        let merged = match &self.cow {
            Some(cow) if cow.arena.is_empty() => return Arc::clone(&cow.base),
            Some(cow) => cow.merged(),
            None => std::mem::take(&mut self.bytes),
        };
        let frozen = Arc::new(merged);
        self.cow = Some(Overlay::over(Arc::clone(&frozen)));
        frozen
    }

    /// A child overlay over `base` with no private pages, clean
    /// decode-cache marks and no write tracker.
    fn child_of(&self, base: Arc<Vec<u8>>) -> PhysMemory {
        PhysMemory {
            bytes: Vec::new(),
            size: self.size,
            cow: Some(Overlay::over(base)),
            code_pages: vec![false; self.pages() as usize],
            dirty_code: Vec::new(),
            tracker: None,
        }
    }

    /// Forks a copy-on-write child sharing every page with `self`.
    ///
    /// Both sides become overlays over a common frozen base: the child
    /// starts with zero private pages, and each side pays one page copy on
    /// its first write to any page. The child's decode-cache write
    /// tracking starts clean (its CPU must start with a cold decode
    /// cache). Freezing costs `O(size)` the first time and after the
    /// parent writes; the child itself costs its slot table.
    pub fn fork(&mut self) -> PhysMemory {
        let base = self.freeze();
        self.child_of(base)
    }

    /// Forks a child exactly like [`PhysMemory::fork`], but from a memory
    /// that is already frozen — forked before, with no page written since
    /// — and so without mutating it. Concurrent forks of one frozen parent
    /// need no lock. `None` when `self` is unforked or holds private
    /// pages: [`PhysMemory::fork`] must freeze it first.
    pub fn fork_frozen(&self) -> Option<PhysMemory> {
        match &self.cow {
            Some(cow) if cow.arena.is_empty() => Some(self.child_of(Arc::clone(&cow.base))),
            _ => None,
        }
    }

    /// True if this memory shares a copy-on-write base with fork
    /// relatives.
    pub fn is_cow(&self) -> bool {
        self.cow.is_some()
    }

    /// Number of `PhysMemory` values (this one included) holding a
    /// reference to the shared copy-on-write base, or `None` when
    /// unforked. A fork-per-request server leaks a child exactly when
    /// this fails to return to its post-freeze baseline after the
    /// request is reaped — the seam the `vaxd` hygiene tests assert on.
    pub fn base_ref_count(&self) -> Option<usize> {
        self.cow.as_ref().map(|cow| Arc::strong_count(&cow.base))
    }

    /// Number of pages privately materialized since the last fork
    /// (0 when unforked).
    pub fn resident_pages(&self) -> u32 {
        self.cow.as_ref().map_or(0, Overlay::resident)
    }

    /// The page numbers privately materialized since the last fork, in
    /// ascending order (empty when unforked). Because materialization
    /// happens on — and only on — the write paths, this is an exact,
    /// independently-derived record of the pages written since the fork;
    /// the working-set oracle tests compare it against
    /// [`PhysMemory::dirty_pages`].
    pub fn resident_page_numbers(&self) -> Vec<u32> {
        self.cow.as_ref().map_or_else(Vec::new, |cow| {
            cow.slots
                .iter()
                .enumerate()
                .filter(|(_, s)| **s != 0)
                .map(|(p, _)| p as u32)
                .collect()
        })
    }

    /// Fraction of pages still shared with the copy-on-write base, in
    /// `[0, 1]` (1.0 right after a fork, 0.0 when unforked or fully
    /// diverged).
    pub fn shared_fraction(&self) -> f64 {
        if self.cow.is_none() || self.pages() == 0 {
            return 0.0;
        }
        1.0 - self.resident_pages() as f64 / self.pages() as f64
    }

    /// The effective contents of page `pfn`, or `None` past the end.
    pub fn page(&self, pfn: u32) -> Option<&[u8]> {
        if pfn >= self.pages() {
            return None;
        }
        self.page_tail(pfn << PAGE_SHIFT)
    }

    // ---- decode-cache write tracking ----

    /// Marks a page as backing decoded-instruction-cache entries; later
    /// writes to it are reported by [`PhysMemory::take_dirty_code_pages`].
    pub fn note_code_page(&mut self, pfn: u32) {
        self.code_pages[pfn as usize] = true;
    }

    /// True if page `pfn` is marked as backing decoded-instruction-cache
    /// entries (false past the end).
    #[inline]
    pub fn is_code_page(&self, pfn: u32) -> bool {
        self.code_pages.get(pfn as usize).copied().unwrap_or(false)
    }

    /// Clears a page's code mark (after its cache entries are dropped).
    pub fn clear_code_page(&mut self, pfn: u32) {
        self.code_pages[pfn as usize] = false;
    }

    /// Clears every code mark and pending dirty notice.
    pub fn clear_all_code_pages(&mut self) {
        self.code_pages.fill(false);
        self.dirty_code.clear();
    }

    /// True if any marked code page has been written since the last drain.
    #[inline]
    pub fn has_dirty_code(&self) -> bool {
        !self.dirty_code.is_empty()
    }

    /// Drains the set of marked pages written since the last call (may
    /// contain duplicates; empty drains allocate nothing).
    pub fn take_dirty_code_pages(&mut self) -> Vec<u32> {
        std::mem::take(&mut self.dirty_code)
    }

    // ---- working-set write tracking ----

    /// Enables working-set telemetry: from now on every write marks its
    /// pages touched and dirty (see [`WriteTracker`]). Re-enabling resets
    /// the tracker. Observational only — contents, faults, and timing on
    /// the simulated clock are unaffected.
    pub fn enable_write_tracking(&mut self) {
        let pages = self.pages() as usize;
        self.tracker = Some(Box::new(WriteTracker {
            touched: vec![false; pages],
            touched_count: 0,
            dirty: vec![false; pages],
            dirty_count: 0,
            dirty_events: 0,
        }));
    }

    /// Disables working-set telemetry and drops its state.
    pub fn disable_write_tracking(&mut self) {
        self.tracker = None;
    }

    /// Whether working-set telemetry is enabled.
    pub fn write_tracking_enabled(&self) -> bool {
        self.tracker.is_some()
    }

    /// Distinct pages written since tracking was enabled or the dirty set
    /// was last drained (0 when tracking is off).
    pub fn dirty_page_count(&self) -> u32 {
        self.tracker.as_ref().map_or(0, |t| t.dirty_count)
    }

    /// Distinct pages written since tracking was enabled (0 when off).
    pub fn touched_page_count(&self) -> u32 {
        self.tracker.as_ref().map_or(0, |t| t.touched_count)
    }

    /// Monotonic count of page-dirtying events — unlike
    /// [`PhysMemory::dirty_page_count`], never reset by a drain — so a
    /// sampler can difference it into per-interval dirty rates.
    #[inline]
    pub fn dirty_page_events(&self) -> u64 {
        self.tracker.as_ref().map_or(0, |t| t.dirty_events)
    }

    /// The current dirty-page set in ascending order, without draining.
    pub fn dirty_pages(&self) -> Vec<u32> {
        self.tracker.as_ref().map_or_else(Vec::new, |t| {
            t.dirty
                .iter()
                .enumerate()
                .filter(|(_, d)| **d)
                .map(|(p, _)| p as u32)
                .collect()
        })
    }

    /// Drains and returns the dirty-page set in ascending order — the
    /// seam an incremental snapshot consumes: pages dirtied after this
    /// call land in the next drain. Touched pages and the monotonic
    /// event count are unaffected.
    pub fn take_dirty_pages(&mut self) -> Vec<u32> {
        match &mut self.tracker {
            None => Vec::new(),
            Some(t) => {
                let pages: Vec<u32> = t
                    .dirty
                    .iter()
                    .enumerate()
                    .filter(|(_, d)| **d)
                    .map(|(p, _)| p as u32)
                    .collect();
                t.dirty.fill(false);
                t.dirty_count = 0;
                pages
            }
        }
    }

    /// The touched-page set (since enable) in ascending order.
    pub fn touched_pages(&self) -> Vec<u32> {
        self.tracker.as_ref().map_or_else(Vec::new, |t| {
            t.touched
                .iter()
                .enumerate()
                .filter(|(_, d)| **d)
                .map(|(p, _)| p as u32)
                .collect()
        })
    }

    /// The bytes from `pa` through the end of its physical page — the
    /// borrow-friendly handle the CPU's I-stream fast path parses
    /// instruction bytes from after translating the fetch page once.
    pub fn page_tail(&self, pa: u32) -> Option<&[u8]> {
        let i = pa as usize;
        match &self.cow {
            // Bounded by the slice it indexes: past the end, the page
            // end is past it too.
            None => self.bytes.get(i..(i / PAGE + 1) * PAGE),
            Some(cow) => self
                .contains(pa, 1)
                .then(|| &cow.page(i / PAGE)[i % PAGE..]),
        }
    }

    /// `N` bytes at `pa`. The dense path checks the range against the
    /// buffer it indexes, so that check is its only one.
    #[inline(always)]
    fn load<const N: usize>(&self, pa: u32) -> Result<[u8; N], MemFault> {
        let i = pa as usize;
        match &self.cow {
            None if u64::from(pa) + N as u64 <= self.bytes.len() as u64 => {
                let mut out = [0; N];
                out.copy_from_slice(&self.bytes[i..i + N]);
                Ok(out)
            }
            Some(cow) if self.contains(pa, N as u32) => Ok(cow.read(i)),
            _ => Err(MemFault::NonExistent { pa }),
        }
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`MemFault::NonExistent`] if `pa` is beyond physical memory.
    pub fn read_u8(&self, pa: u32) -> Result<u8, MemFault> {
        Ok(self.load::<1>(pa)?[0])
    }

    /// Reads a little-endian 16-bit word.
    ///
    /// # Errors
    ///
    /// [`MemFault::NonExistent`] if the range extends beyond memory.
    pub fn read_u16(&self, pa: u32) -> Result<u16, MemFault> {
        self.load(pa).map(u16::from_le_bytes)
    }

    /// Reads a little-endian 32-bit longword.
    ///
    /// # Errors
    ///
    /// [`MemFault::NonExistent`] if the range extends beyond memory.
    pub fn read_u32(&self, pa: u32) -> Result<u32, MemFault> {
        self.load(pa).map(u32::from_le_bytes)
    }

    /// Writes one byte.
    ///
    /// # Errors
    ///
    /// [`MemFault::NonExistent`] if `pa` is beyond physical memory.
    pub fn write_u8(&mut self, pa: u32, v: u8) -> Result<(), MemFault> {
        self.write_bytes(pa, &[v])
    }

    /// Writes a little-endian 16-bit word.
    ///
    /// # Errors
    ///
    /// [`MemFault::NonExistent`] if the range extends beyond memory.
    pub fn write_u16(&mut self, pa: u32, v: u16) -> Result<(), MemFault> {
        self.write_bytes(pa, &v.to_le_bytes())
    }

    /// Writes a little-endian 32-bit longword.
    ///
    /// # Errors
    ///
    /// [`MemFault::NonExistent`] if the range extends beyond memory.
    pub fn write_u32(&mut self, pa: u32, v: u32) -> Result<(), MemFault> {
        self.write_bytes(pa, &v.to_le_bytes())
    }

    /// Copies a slice into memory at `pa`.
    ///
    /// # Errors
    ///
    /// [`MemFault::NonExistent`] if the range extends beyond memory.
    pub fn write_slice(&mut self, pa: u32, data: &[u8]) -> Result<(), MemFault> {
        self.write_bytes(pa, data)
    }

    /// The one store path: bounds check, write notice, then
    /// the dense copy or, when forked, a per-page copy that materializes
    /// each page it touches.
    #[inline(always)]
    fn write_bytes(&mut self, pa: u32, data: &[u8]) -> Result<(), MemFault> {
        let i = self.check(pa, data.len() as u32)?;
        if data.is_empty() {
            return Ok(());
        }
        self.note_write(pa, data.len() as u32);
        match &mut self.cow {
            None => self.bytes[i..i + data.len()].copy_from_slice(data),
            Some(cow) => cow.for_each_mut(i, data.len(), |at, dst| {
                dst.copy_from_slice(&data[at..at + dst.len()]);
            }),
        }
        Ok(())
    }

    /// Copies `len` bytes from `src` to `dst` with `memmove` semantics
    /// (an overlapping copy moves the original bytes), through the one
    /// store path, so code-page marks, the write tracker and the
    /// copy-on-write overlay see it as any other write. It is staged a
    /// page at a time through a stack buffer and allocates nothing.
    ///
    /// # Errors
    ///
    /// [`MemFault::NonExistent`] if either range extends beyond memory;
    /// nothing is written then.
    pub fn copy_within(&mut self, src: u32, dst: u32, len: u32) -> Result<(), MemFault> {
        self.check(src, len)?;
        self.check(dst, len)?;
        let mut buf = [0; PAGE];
        let chunks = len.div_ceil(PAGE_BYTES);
        for c in 0..chunks {
            // From the end when the destination lies above the source,
            // so no chunk reads bytes an earlier chunk wrote.
            let at = PAGE_BYTES * if dst > src { chunks - 1 - c } else { c };
            let buf = &mut buf[..(len - at).min(PAGE_BYTES) as usize];
            self.read_into(src + at, buf)?;
            self.write_bytes(dst + at, buf)?;
        }
        Ok(())
    }

    /// Fills `out` from the bytes at `pa` onward, a page piece at a time.
    fn read_into(&self, pa: u32, out: &mut [u8]) -> Result<(), MemFault> {
        let mut done = 0;
        while done < out.len() {
            let at = pa + done as u32;
            let tail = self.page_tail(at).ok_or(MemFault::NonExistent { pa: at })?;
            let n = tail.len().min(out.len() - done);
            out[done..done + n].copy_from_slice(&tail[..n]);
            done += n;
        }
        Ok(())
    }

    /// Reads `len` bytes starting at `pa`, borrowing when the range lies
    /// in one page or, on a forked memory, entirely in the shared base,
    /// and copying otherwise.
    ///
    /// # Errors
    ///
    /// [`MemFault::NonExistent`] if the range extends beyond memory.
    pub fn read_slice(&self, pa: u32, len: u32) -> Result<std::borrow::Cow<'_, [u8]>, MemFault> {
        use std::borrow::Cow;
        let i = self.check(pa, len)?;
        let end = i + len as usize;
        let Some(cow) = &self.cow else {
            return Ok(Cow::Borrowed(&self.bytes[i..end]));
        };
        if len == 0 {
            return Ok(Cow::Borrowed(&[]));
        }
        let (first, last) = (i / PAGE, (end - 1) / PAGE);
        if first == last {
            return Ok(Cow::Borrowed(&cow.page(first)[i % PAGE..][..len as usize]));
        }
        if (first..=last).all(|p| cow.slot(p) == 0) {
            return Ok(Cow::Borrowed(&cow.base[i..end]));
        }
        let mut out = Vec::with_capacity(len as usize);
        for p in first..=last {
            let page = cow.page(p);
            let from = if p == first { i % PAGE } else { 0 };
            let to = if p == last {
                (end - 1) % PAGE + 1
            } else {
                PAGE
            };
            out.extend_from_slice(&page[from..to]);
        }
        Ok(Cow::Owned(out))
    }

    /// Zero-fills the `len`-byte range at `pa`.
    ///
    /// # Errors
    ///
    /// [`MemFault::NonExistent`] if the range extends beyond memory.
    pub fn zero_range(&mut self, pa: u32, len: u32) -> Result<(), MemFault> {
        let i = self.check(pa, len)?;
        if len == 0 {
            return Ok(());
        }
        self.note_write(pa, len);
        match &mut self.cow {
            None => self.bytes[i..i + len as usize].fill(0),
            Some(cow) => cow.for_each_mut(i, len as usize, |_, dst| dst.fill(0)),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_rounds_to_pages() {
        assert_eq!(PhysMemory::new(1).size(), PAGE_BYTES);
        assert_eq!(PhysMemory::new(PAGE_BYTES + 1).pages(), 2);
        assert_eq!(PhysMemory::new(0).size(), 0);
    }

    #[test]
    fn little_endian_round_trip() {
        let mut m = PhysMemory::new(4096);
        m.write_u32(100, 0x0403_0201).unwrap();
        assert_eq!(m.read_u8(100).unwrap(), 0x01);
        assert_eq!(m.read_u8(103).unwrap(), 0x04);
        assert_eq!(m.read_u16(101).unwrap(), 0x0302);
        assert_eq!(m.read_u32(100).unwrap(), 0x0403_0201);
    }

    #[test]
    fn nonexistent_reference_faults() {
        let mut m = PhysMemory::new(512);
        assert!(matches!(
            m.read_u8(512),
            Err(MemFault::NonExistent { pa: 512 })
        ));
        assert!(m.read_u32(510).is_err()); // straddles the end
        assert!(m.write_u32(510, 0).is_err());
        assert!(m.read_u32(508).is_ok());
        // Wrap-around must not panic or succeed.
        assert!(m.read_u32(u32::MAX - 1).is_err());
    }

    #[test]
    fn code_page_write_tracking() {
        let mut m = PhysMemory::new(4 * PAGE_BYTES);
        m.note_code_page(1);
        // Writes to unmarked pages are not reported.
        m.write_u32(0, 7).unwrap();
        assert!(!m.has_dirty_code());
        // Any write flavor touching a marked page is.
        m.write_u8(PAGE_BYTES, 1).unwrap();
        assert!(m.has_dirty_code());
        assert_eq!(m.take_dirty_code_pages(), vec![1]);
        assert!(!m.has_dirty_code());
        // A straddling write reports both touched pages.
        m.note_code_page(2);
        m.write_u32(2 * PAGE_BYTES - 2, 0xffff_ffff).unwrap();
        assert_eq!(m.take_dirty_code_pages(), vec![1, 2]);
        // Clearing the mark stops reporting.
        m.clear_code_page(1);
        m.write_u16(PAGE_BYTES + 8, 3).unwrap();
        assert!(!m.has_dirty_code());
        m.write_slice(2 * PAGE_BYTES, &[1, 2, 3]).unwrap();
        m.zero_range(2 * PAGE_BYTES, 4).unwrap();
        assert_eq!(m.take_dirty_code_pages(), vec![2, 2]);
        m.clear_all_code_pages();
        m.write_u8(2 * PAGE_BYTES, 9).unwrap();
        assert!(!m.has_dirty_code());
    }

    #[test]
    fn equality_ignores_tracking_state() {
        let mut a = PhysMemory::new(PAGE_BYTES);
        let b = PhysMemory::new(PAGE_BYTES);
        a.note_code_page(0);
        a.write_u8(0, 0).unwrap(); // dirty notice, same contents
        assert_eq!(a, b);
        a.write_u8(0, 1).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn page_tail_spans_to_page_end() {
        let m = PhysMemory::new(2 * PAGE_BYTES);
        assert_eq!(m.page_tail(0).unwrap().len(), PAGE_BYTES as usize);
        assert_eq!(m.page_tail(10).unwrap().len(), (PAGE_BYTES - 10) as usize);
        assert_eq!(m.page_tail(2 * PAGE_BYTES - 1).unwrap().len(), 1);
        assert!(m.page_tail(2 * PAGE_BYTES).is_none());
    }

    #[test]
    fn slices() {
        let mut m = PhysMemory::new(512);
        m.write_slice(8, &[1, 2, 3, 4]).unwrap();
        assert_eq!(&*m.read_slice(8, 4).unwrap(), &[1, 2, 3, 4]);
        m.zero_range(8, 2).unwrap();
        assert_eq!(&*m.read_slice(8, 4).unwrap(), &[0, 0, 3, 4]);
        assert!(m.write_slice(510, &[0; 4]).is_err());
    }

    #[test]
    fn fork_shares_until_written() {
        let mut parent = PhysMemory::new(8 * PAGE_BYTES);
        parent.write_u32(0x10, 0xaaaa_bbbb).unwrap();
        parent.write_u32(3 * PAGE_BYTES, 0x1234_5678).unwrap();
        let mut child = parent.fork();
        assert!(parent.is_cow() && child.is_cow());
        assert_eq!(parent.resident_pages(), 0);
        assert_eq!(child.resident_pages(), 0);
        assert_eq!(child, parent);
        assert_eq!(child.read_u32(0x10).unwrap(), 0xaaaa_bbbb);
        assert_eq!(child.read_u32(3 * PAGE_BYTES).unwrap(), 0x1234_5678);

        // Child write diverges one page; parent view unchanged.
        child.write_u32(0x10, 0xdead_beef).unwrap();
        assert_eq!(child.resident_pages(), 1);
        assert_eq!(child.read_u32(0x10).unwrap(), 0xdead_beef);
        assert_eq!(child.read_u32(0x14).unwrap(), 0, "rest of page copied");
        assert_eq!(parent.read_u32(0x10).unwrap(), 0xaaaa_bbbb);
        assert_eq!(parent.resident_pages(), 0);

        // Parent write after fork does not leak into the child.
        parent.write_u32(3 * PAGE_BYTES, 7).unwrap();
        assert_eq!(child.read_u32(3 * PAGE_BYTES).unwrap(), 0x1234_5678);
        assert!(child.shared_fraction() > 0.8);
    }

    #[test]
    fn base_ref_count_tracks_fork_lifecycle() {
        let mut parent = PhysMemory::new(2 * PAGE_BYTES);
        assert_eq!(parent.base_ref_count(), None, "unforked has no base");
        let a = parent.fork();
        assert_eq!(parent.base_ref_count(), Some(2));
        assert_eq!(a.base_ref_count(), Some(2));
        let b = parent.fork();
        assert_eq!(parent.base_ref_count(), Some(3));
        drop(a);
        drop(b);
        assert_eq!(
            parent.base_ref_count(),
            Some(1),
            "reaped children release the base"
        );
    }

    #[test]
    fn fork_twice_reuses_frozen_base() {
        let mut parent = PhysMemory::new(4 * PAGE_BYTES);
        parent.write_u8(0, 42).unwrap();
        let a = parent.fork();
        let b = parent.fork();
        assert_eq!(a.read_u8(0).unwrap(), 42);
        assert_eq!(b.read_u8(0).unwrap(), 42);
        // Forking a diverged overlay re-freezes the merged contents.
        parent.write_u8(PAGE_BYTES, 9).unwrap();
        let c = parent.fork();
        assert_eq!(c.read_u8(0).unwrap(), 42);
        assert_eq!(c.read_u8(PAGE_BYTES).unwrap(), 9);
        assert_eq!(a.read_u8(PAGE_BYTES).unwrap(), 0, "older fork unaffected");
    }

    #[test]
    fn forked_reads_cross_residency_boundaries() {
        let mut parent = PhysMemory::new(4 * PAGE_BYTES);
        parent
            .write_slice(PAGE_BYTES - 2, &[0x11, 0x22, 0x33, 0x44])
            .unwrap();
        let mut child = parent.fork();
        // Make page 1 resident in the child, leave page 0 shared.
        child.write_u8(PAGE_BYTES + 100, 1).unwrap();
        // A straddling read mixes base (page 0) and overlay (page 1).
        assert_eq!(child.read_u32(PAGE_BYTES - 2).unwrap(), 0x4433_2211);
        assert_eq!(child.read_u16(PAGE_BYTES - 1).unwrap(), 0x3322);
        let cow = child.read_slice(PAGE_BYTES - 2, 4).unwrap();
        assert_eq!(&*cow, &[0x11, 0x22, 0x33, 0x44]);
        assert!(
            matches!(cow, std::borrow::Cow::Owned(_)),
            "mixed range copies"
        );
        // A straddling write materializes both pages atomically.
        child.write_u32(2 * PAGE_BYTES - 2, 0xffff_ffff).unwrap();
        assert_eq!(child.read_u32(2 * PAGE_BYTES - 2).unwrap(), 0xffff_ffff);
        assert_eq!(parent.read_u32(2 * PAGE_BYTES - 2).unwrap(), 0);
    }

    #[test]
    fn page_view_matches_effective_contents() {
        let mut parent = PhysMemory::new(2 * PAGE_BYTES);
        parent.write_u8(5, 7).unwrap();
        let mut child = parent.fork();
        assert_eq!(child.page(0).unwrap()[5], 7, "shared page via base");
        child.write_u8(5, 8).unwrap();
        assert_eq!(child.page(0).unwrap()[5], 8, "resident page via overlay");
        assert_eq!(parent.page(0).unwrap()[5], 7);
        assert!(child.page(2).is_none());
        // page_tail picks the right source per page.
        assert_eq!(child.page_tail(5).unwrap()[0], 8);
        assert_eq!(parent.page_tail(5).unwrap()[0], 7);
    }

    #[test]
    fn write_tracking_off_by_default_and_reports_nothing() {
        let mut m = PhysMemory::new(4 * PAGE_BYTES);
        m.write_u32(0, 1).unwrap();
        assert!(!m.write_tracking_enabled());
        assert_eq!(m.dirty_page_count(), 0);
        assert_eq!(m.touched_page_count(), 0);
        assert_eq!(m.dirty_page_events(), 0);
        assert!(m.dirty_pages().is_empty());
        assert!(m.take_dirty_pages().is_empty());
        assert!(m.touched_pages().is_empty());
    }

    #[test]
    fn write_tracking_counts_distinct_pages_and_drains() {
        let mut m = PhysMemory::new(4 * PAGE_BYTES);
        m.enable_write_tracking();
        m.write_u8(0, 1).unwrap(); // page 0
        m.write_u8(4, 2).unwrap(); // page 0 again — still one page
        m.write_u16(PAGE_BYTES - 1, 0xabcd).unwrap(); // straddles pages 0-1
        m.write_u32(3 * PAGE_BYTES, 9).unwrap(); // page 3
        assert_eq!(m.dirty_pages(), vec![0, 1, 3]);
        assert_eq!(m.dirty_page_count(), 3);
        assert_eq!(m.touched_page_count(), 3);
        assert_eq!(m.dirty_page_events(), 3);
        // Drain: dirty resets, touched and the monotonic count survive.
        assert_eq!(m.take_dirty_pages(), vec![0, 1, 3]);
        assert_eq!(m.dirty_page_count(), 0);
        assert_eq!(m.touched_page_count(), 3);
        assert_eq!(m.dirty_page_events(), 3);
        // Re-dirtying a touched page counts as a fresh event post-drain.
        m.write_u8(0, 3).unwrap();
        assert_eq!(m.dirty_pages(), vec![0]);
        assert_eq!(m.dirty_page_events(), 4);
        assert_eq!(m.touched_pages(), vec![0, 1, 3]);
        m.disable_write_tracking();
        assert_eq!(m.dirty_page_count(), 0);
    }

    #[test]
    fn write_tracking_covers_slice_and_zero_paths() {
        let mut m = PhysMemory::new(4 * PAGE_BYTES);
        m.enable_write_tracking();
        m.write_slice(PAGE_BYTES - 4, &[1; 8]).unwrap(); // pages 0-1
        m.zero_range(2 * PAGE_BYTES, PAGE_BYTES).unwrap(); // page 2
        m.write_slice(0, &[]).unwrap(); // empty: no pages
        m.zero_range(0, 0).unwrap();
        assert_eq!(m.dirty_pages(), vec![0, 1, 2]);
    }

    #[test]
    fn write_tracking_matches_fork_residency_oracle() {
        // The CoW overlay materializes a page on — and only on — its
        // first write, independently of the tracker: the two mechanisms
        // must name exactly the same pages.
        let mut m = PhysMemory::new(8 * PAGE_BYTES);
        m.write_u32(0x10, 0xdead_beef).unwrap(); // pre-fork write, not counted
        let _child = m.fork();
        m.enable_write_tracking();
        m.write_u8(PAGE_BYTES, 1).unwrap();
        m.write_u32(5 * PAGE_BYTES + 12, 0).unwrap(); // same-value write counts
        m.write_slice(7 * PAGE_BYTES - 2, &[1, 2, 3]).unwrap();
        assert_eq!(m.dirty_pages(), m.resident_page_numbers());
        assert_eq!(m.dirty_pages(), vec![1, 5, 6, 7]);
    }

    #[test]
    fn fork_children_start_with_tracking_off() {
        let mut m = PhysMemory::new(2 * PAGE_BYTES);
        m.enable_write_tracking();
        m.write_u8(0, 1).unwrap();
        let mut child = m.fork();
        assert!(!child.write_tracking_enabled());
        child.write_u8(PAGE_BYTES, 1).unwrap();
        assert_eq!(child.dirty_page_count(), 0);
        // The parent keeps tracking across the fork.
        assert!(m.write_tracking_enabled());
        assert_eq!(m.touched_pages(), vec![0]);
    }

    #[test]
    fn fork_frozen_needs_a_frozen_clean_parent() {
        let mut parent = PhysMemory::new(4 * PAGE_BYTES);
        parent.write_u8(7, 3).unwrap();
        assert!(parent.fork_frozen().is_none(), "unforked: freeze first");
        let first = parent.fork();
        let second = parent.fork_frozen().expect("frozen and clean");
        assert_eq!(second, first);
        assert_eq!(second.read_u8(7).unwrap(), 3);
        assert_eq!(parent.base_ref_count(), Some(3));
        assert_eq!(second.resident_pages(), 0);
        drop((first, second));
        assert_eq!(parent.base_ref_count(), Some(1));
        parent.write_u8(PAGE_BYTES, 1).unwrap();
        assert!(parent.fork_frozen().is_none(), "private pages: refreeze");
    }

    #[test]
    fn from_bytes_adopts_and_pads_to_a_page() {
        let m = PhysMemory::from_bytes(vec![9; PAGE_BYTES as usize + 3]);
        assert_eq!(m.pages(), 2);
        assert_eq!(m.read_u8(PAGE_BYTES + 2).unwrap(), 9);
        assert_eq!(m.read_u8(PAGE_BYTES + 3).unwrap(), 0);
        assert!(!m.is_cow());
    }

    #[test]
    fn forked_range_reads_borrow_from_one_store() {
        let mut parent = PhysMemory::new(8 * PAGE_BYTES);
        let mut child = parent.fork();
        let shared = child.read_slice(PAGE_BYTES - 4, 2 * PAGE_BYTES).unwrap();
        assert!(matches!(shared, std::borrow::Cow::Borrowed(_)));
        // A range within one private page borrows from it.
        child.write_u8(2 * PAGE_BYTES + 1, 1).unwrap();
        let one = child.read_slice(2 * PAGE_BYTES, PAGE_BYTES).unwrap();
        assert!(matches!(one, std::borrow::Cow::Borrowed(_)));
        assert_eq!(one[1], 1);
        // Private pages 6 and 5 sit out of order in the arena: copied.
        child.write_u8(6 * PAGE_BYTES, 6).unwrap();
        child.write_u8(5 * PAGE_BYTES, 5).unwrap();
        let two = child.read_slice(5 * PAGE_BYTES, 2 * PAGE_BYTES).unwrap();
        assert!(matches!(two, std::borrow::Cow::Owned(_)));
        assert_eq!((two[0], two[PAGE_BYTES as usize]), (5, 6));
        assert_eq!(child.resident_page_numbers(), vec![2, 5, 6]);
    }

    #[test]
    fn copy_within_is_memmove_dense_and_forked() {
        let pattern: Vec<u8> = (0..8 * PAGE_BYTES)
            .map(|i| (i * 7 + i / 251) as u8)
            .collect();
        for (src, dst, len) in [
            (10, 700, 300),
            (700, 10, 300),
            (100, 101, 1200),
            (1301, 100, 1200),
            (PAGE_BYTES - 3, 3 * PAGE_BYTES + 5, 2 * PAGE_BYTES + 9),
            (40, 40, 64),
        ] {
            let mut want = pattern.clone();
            want.copy_within(src as usize..(src + len) as usize, dst as usize);
            let mut dense = PhysMemory::from_bytes(pattern.clone());
            dense.copy_within(src, dst, len).unwrap();
            assert_eq!(dense, PhysMemory::from_bytes(want.clone()));
            let mut parent = PhysMemory::from_bytes(pattern.clone());
            let mut child = parent.fork();
            // One private page, same bytes: the arena and base mix.
            child.write_u8(dst, pattern[dst as usize]).unwrap();
            child.copy_within(src, dst, len).unwrap();
            assert_eq!(child, PhysMemory::from_bytes(want));
            assert_eq!(parent, PhysMemory::from_bytes(pattern.clone()));
        }
    }

    #[test]
    fn copy_within_notes_writes_and_checks_both_ranges() {
        let mut m = PhysMemory::new(4 * PAGE_BYTES);
        m.write_u8(0, 9).unwrap();
        m.note_code_page(2);
        assert!(m.is_code_page(2) && !m.is_code_page(1) && !m.is_code_page(99));
        m.enable_write_tracking();
        m.copy_within(0, 2 * PAGE_BYTES - 1, 2).unwrap();
        assert_eq!(m.take_dirty_code_pages(), vec![2]);
        assert_eq!(m.dirty_pages(), vec![1, 2]);
        assert_eq!(m.read_u8(2 * PAGE_BYTES - 1).unwrap(), 9);
        // Either range past the end faults before any byte moves.
        assert!(m.copy_within(0, 4 * PAGE_BYTES - 1, 2).is_err());
        assert!(m.copy_within(4 * PAGE_BYTES - 1, 0, 2).is_err());
        assert_eq!(m.read_u8(0).unwrap(), 9);
        assert_eq!(m.dirty_pages(), vec![1, 2]);
    }
}
