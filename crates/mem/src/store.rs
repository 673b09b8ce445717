//! The functional byte storage behind [`Sram`](crate::Sram) and
//! [`SharedMemory`](crate::SharedMemory).
//!
//! A memory has a *logical size* — what the guest, the address map and the
//! fault model see — and a *host backing* that covers only the prefix
//! written so far. The simulated memory starts all-zero, so an in-range
//! read past the backing returns 0 and a write past it grows the backing
//! in [`GROW_STEP`] steps. A 64-row problem in a 1 MB RAM therefore holds
//! a few KB of host memory, not 1 MB. Out-of-range accesses behave as a
//! fully backed array would: the plain accessors panic (a simulator wiring
//! bug), `read_u32_checked` returns `None`, `corrupt_word` returns `false`.

/// Host backing grows in steps of this many bytes (one page).
pub const GROW_STEP: usize = 4096;

/// Zero-initialised byte-addressable memory of a fixed logical size whose
/// host backing covers only the bytes written so far (see the module docs).
#[derive(Debug, Clone)]
pub struct ByteStore {
    data: Vec<u8>,
    size: u32,
}

impl ByteStore {
    /// An all-zero memory of `size` bytes with no host backing yet.
    pub fn new(size: u32) -> Self {
        ByteStore { data: Vec::new(), size }
    }

    /// A memory of `size` bytes whose first `data.len()` bytes are `data`
    /// and whose remainder is zero. `data` becomes the backing as-is, so a
    /// recycled buffer must be cleared and refilled by the caller.
    pub fn from_vec(data: Vec<u8>, size: u32) -> Self {
        assert!(
            data.len() <= size as usize,
            "backing of {} bytes exceeds the {size}-byte logical size",
            data.len()
        );
        ByteStore { data, size }
    }

    /// Logical size in bytes.
    #[inline]
    pub fn size(&self) -> u32 {
        self.size
    }

    /// Bytes of host backing (at most [`ByteStore::size`]).
    pub fn backed_len(&self) -> usize {
        self.data.len()
    }

    /// Consume the memory and hand back its backing (the written prefix).
    pub fn into_vec(self) -> Vec<u8> {
        self.data
    }

    /// The `N` bytes at `addr`, or `None` when any of them falls outside
    /// the logical size. The backed case is a single slice bounds check.
    #[inline]
    fn get<const N: usize>(&self, addr: u32) -> Option<[u8; N]> {
        let a = addr as usize;
        match self.data.get(a..a + N) {
            Some(b) => Some(b.try_into().expect("N-byte slice")),
            None => self.get_past_backing(a),
        }
    }

    #[cold]
    fn get_past_backing<const N: usize>(&self, a: usize) -> Option<[u8; N]> {
        (a + N <= self.size as usize)
            .then(|| std::array::from_fn(|i| self.data.get(a + i).copied().unwrap_or(0)))
    }

    #[inline]
    fn bytes<const N: usize>(&self, addr: u32) -> [u8; N] {
        match self.get(addr) {
            Some(b) => b,
            None => panic!("{N}-byte read at {addr:#x} outside {}-byte memory", self.size),
        }
    }

    #[inline]
    fn put<const N: usize>(&mut self, addr: u32, bytes: [u8; N]) {
        let a = addr as usize;
        if a + N > self.data.len() {
            self.grow(a + N);
        }
        self.data[a..a + N].copy_from_slice(&bytes);
    }

    #[cold]
    fn grow(&mut self, end: usize) {
        let size = self.size as usize;
        assert!(end <= size, "write ending at {end:#x} outside {size}-byte memory");
        self.data.resize(end.next_multiple_of(GROW_STEP).min(size), 0);
    }

    /// Read one byte.
    #[inline]
    pub fn read_u8(&self, addr: u32) -> u8 {
        self.bytes::<1>(addr)[0]
    }

    /// Write one byte.
    #[inline]
    pub fn write_u8(&mut self, addr: u32, value: u8) {
        self.put(addr, [value]);
    }

    /// Read a little-endian 16-bit halfword.
    #[inline]
    pub fn read_u16(&self, addr: u32) -> u16 {
        u16::from_le_bytes(self.bytes(addr))
    }

    /// Write a little-endian 16-bit halfword.
    #[inline]
    pub fn write_u16(&mut self, addr: u32, value: u16) {
        self.put(addr, value.to_le_bytes());
    }

    /// Read a little-endian 32-bit word. Panics out of range (a simulator
    /// wiring bug, not a guest-program condition).
    #[inline]
    pub fn read_u32(&self, addr: u32) -> u32 {
        u32::from_le_bytes(self.bytes(addr))
    }

    /// Read a little-endian 32-bit word, or `None` when any byte of it
    /// falls outside the memory. Guest-programmable agents (the HHT
    /// engines, whose base addresses come from software-written MMRs) use
    /// this so bad programming reads open-bus instead of crashing the
    /// simulator.
    #[inline]
    pub fn read_u32_checked(&self, addr: u32) -> Option<u32> {
        self.get(addr).map(u32::from_le_bytes)
    }

    /// Write a little-endian 32-bit word.
    #[inline]
    pub fn write_u32(&mut self, addr: u32, value: u32) {
        self.put(addr, value.to_le_bytes());
    }

    /// Flip bit `bit % 32` of the word at `addr` (fault injection: a soft
    /// error). Returns `false` without touching memory when the word is out
    /// of range.
    pub fn corrupt_word(&mut self, addr: u32, bit: u8) -> bool {
        let Some(w) = self.read_u32_checked(addr) else { return false };
        self.write_u32(addr, w ^ (1 << (bit % 32)));
        true
    }

    /// Read an `f32` (bit pattern of the word at `addr`).
    #[inline]
    pub fn read_f32(&self, addr: u32) -> f32 {
        f32::from_bits(self.read_u32(addr))
    }

    /// Write an `f32`.
    #[inline]
    pub fn write_f32(&mut self, addr: u32, value: f32) {
        self.write_u32(addr, value.to_bits());
    }

    /// Copy a `u32` slice into memory starting at `addr`.
    pub fn load_words(&mut self, addr: u32, words: &[u32]) {
        for (i, w) in words.iter().enumerate() {
            self.write_u32(addr + 4 * i as u32, *w);
        }
    }

    /// Copy an `f32` slice into memory starting at `addr`.
    pub fn load_f32s(&mut self, addr: u32, values: &[f32]) {
        for (i, v) in values.iter().enumerate() {
            self.write_f32(addr + 4 * i as u32, *v);
        }
    }

    /// Read `n` consecutive `f32`s starting at `addr`.
    pub fn read_f32s(&self, addr: u32, n: usize) -> Vec<f32> {
        (0..n).map(|i| self.read_f32(addr + 4 * i as u32)).collect()
    }

    /// Read `n` consecutive `u32`s starting at `addr`.
    pub fn read_u32s(&self, addr: u32, n: usize) -> Vec<u32> {
        (0..n).map(|i| self.read_u32(addr + 4 * i as u32)).collect()
    }
}
