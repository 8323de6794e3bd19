//! CRC engines.
//!
//! Two engines are provided:
//!
//! * [`Crc32`] — a reflected CRC-32 over the IEEE 802.3 polynomial
//!   ([`Crc32::ieee`]) or Castagnoli ([`Crc32::castagnoli`]), sliced eight
//!   bytes at a time over compile-time tables. The paper's CRC Bitstream
//!   Read-Back block uses this over frame data.
//! * [`ConfigCrc`] — the configuration-logic CRC that protects the bitstream
//!   itself: like the 7-series hardware, it absorbs 37 bits per register
//!   write (5-bit register address ∥ 32-bit data) into a CRC-32C and is
//!   checked by writing the expected value to the `CRC` register.

/// Reflected IEEE 802.3 polynomial.
pub const POLY_IEEE: u32 = 0xEDB8_8320;
/// Reflected Castagnoli (CRC-32C) polynomial, used by the config logic.
pub const POLY_CASTAGNOLI: u32 = 0x82F6_3B78;

/// Slicing tables: `[0]` is the byte-wise table (eight bit steps of the
/// index), and `[k][i]` advances `[k - 1][i]` over one more zero byte.
type Tables = [[u32; 256]; 8];

/// `n` reflected bit steps of `crc` with zero input.
const fn bit_steps(mut crc: u32, poly: u32, n: u32) -> u32 {
    let mut i = 0;
    while i < n {
        crc = if crc & 1 != 0 {
            (crc >> 1) ^ poly
        } else {
            crc >> 1
        };
        i += 1;
    }
    crc
}

const fn slicing_tables(poly: u32) -> Tables {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        t[0][i] = bit_steps(i as u32, poly, 8);
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static IEEE_TABLES: Tables = slicing_tables(POLY_IEEE);
static CASTAGNOLI_TABLES: Tables = slicing_tables(POLY_CASTAGNOLI);

/// A reflected CRC-32, sliced over compile-time tables.
#[derive(Clone)]
pub struct Crc32 {
    tables: &'static Tables,
    state: u32,
}

impl Crc32 {
    const fn with_tables(tables: &'static Tables) -> Self {
        Crc32 {
            tables,
            state: 0xFFFF_FFFF,
        }
    }

    /// The IEEE 802.3 (zlib/Ethernet) CRC-32.
    pub const fn ieee() -> Self {
        Self::with_tables(&IEEE_TABLES)
    }

    /// The Castagnoli CRC-32C.
    pub const fn castagnoli() -> Self {
        Self::with_tables(&CASTAGNOLI_TABLES)
    }

    /// Resets the running state.
    pub fn reset(&mut self) {
        self.state = 0xFFFF_FFFF;
    }

    /// Absorbs bytes: eight per step, then the tail byte by byte. Kept
    /// small enough to inline into byte-at-a-time callers (the streaming
    /// decoder).
    #[inline]
    pub fn update(&mut self, data: &[u8]) {
        let (octets, tail) = data.split_at(data.len() & !7);
        if !octets.is_empty() {
            self.update_octets(octets);
        }
        let t = &self.tables[0];
        let mut crc = self.state;
        for &b in tail {
            crc = (crc >> 8) ^ t[((crc ^ b as u32) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// Slice-by-8 over a whole number of 8-byte groups.
    fn update_octets(&mut self, data: &[u8]) {
        let t = self.tables;
        let mut crc = self.state;
        for c in data.chunks_exact(8) {
            let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
            let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        self.state = crc;
    }

    /// Absorbs one 32-bit word (little-endian byte order) in one step.
    #[inline]
    pub fn update_word(&mut self, word: u32) {
        let t = self.tables;
        let x = self.state ^ word;
        self.state = t[3][(x & 0xFF) as usize]
            ^ t[2][((x >> 8) & 0xFF) as usize]
            ^ t[1][((x >> 16) & 0xFF) as usize]
            ^ t[0][(x >> 24) as usize];
    }

    /// The finalised (bit-inverted) CRC of everything absorbed so far.
    /// Does not reset the state.
    pub fn value(&self) -> u32 {
        !self.state
    }

    /// The raw (un-inverted) running state, for checkpointing.
    pub const fn raw_state(&self) -> u32 {
        self.state
    }

    /// Overwrites the raw running state, restoring a checkpoint taken with
    /// [`Crc32::raw_state`]. The tables follow from the polynomial, so only
    /// the state travels.
    pub fn set_raw_state(&mut self, state: u32) {
        self.state = state;
    }
}

impl std::fmt::Debug for Crc32 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let poly = if std::ptr::eq(self.tables, &IEEE_TABLES) {
            "ieee"
        } else {
            "castagnoli"
        };
        f.debug_struct("Crc32")
            .field("poly", &poly)
            .field("state", &self.state)
            .finish()
    }
}

/// The config CRC's 5-bit address step: five bit steps of the index.
static CONFIG_ADDR_TABLE: [u32; 32] = {
    let mut t = [0u32; 32];
    let mut i = 0;
    while i < 32 {
        t[i] = bit_steps(i as u32, POLY_CASTAGNOLI, 5);
        i += 1;
    }
    t
};

/// The configuration-logic CRC: a bitwise CRC-32C over 37-bit units of
/// `(register_address[4:0] ∥ data[31:0])`, absorbed data-bit-0 first, the
/// way the 7-series configuration CRC is specified.
///
/// The [`Builder`](crate::Builder) computes it while emitting packets, and
/// the [`Parser`](crate::Parser) recomputes it while consuming them; writing
/// the expected value to the `CRC` register compares the two. The `RCRC`
/// command resets the running value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigCrc {
    state: u32,
}

impl Default for ConfigCrc {
    fn default() -> Self {
        Self::new()
    }
}

impl ConfigCrc {
    /// Creates a reset engine (state zero, like post-`RCRC` hardware).
    pub fn new() -> Self {
        ConfigCrc { state: 0 }
    }

    /// Resets the running value (the `RCRC` command).
    pub fn reset(&mut self) {
        self.state = 0;
    }

    /// Absorbs one register write: 32 data bits (LSB first) then the 5-bit
    /// register address (LSB first). Bits absorbed LSB first are bytes in
    /// little-endian order through the byte-wise table, then the address
    /// through a 5-bit table: the same CRC as 37 single bit steps.
    pub fn absorb(&mut self, reg_addr: u32, data: u32) {
        let bytes = &CASTAGNOLI_TABLES[0];
        let mut crc = self.state;
        for b in data.to_le_bytes() {
            crc = (crc >> 8) ^ bytes[((crc ^ b as u32) & 0xFF) as usize];
        }
        self.state = (crc >> 5) ^ CONFIG_ADDR_TABLE[((crc ^ reg_addr) & 0x1F) as usize];
    }

    /// The current running value.
    pub fn value(&self) -> u32 {
        self.state
    }

    /// Rebuilds an engine mid-stream from a running value captured with
    /// [`ConfigCrc::value`] (the state *is* the value; nothing else
    /// persists).
    pub const fn from_value(state: u32) -> Self {
        ConfigCrc { state }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checksum(mut crc: Crc32, data: &[u8]) -> u32 {
        crc.update(data);
        crc.value()
    }

    #[test]
    fn ieee_check_value() {
        // The canonical CRC-32 check: CRC32("123456789") = 0xCBF43926.
        assert_eq!(checksum(Crc32::ieee(), b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn castagnoli_check_value() {
        // The canonical CRC-32C check: CRC32C("123456789") = 0xE3069283.
        assert_eq!(checksum(Crc32::castagnoli(), b"123456789"), 0xE306_9283);
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut c = Crc32::ieee();
        c.update(&data[..10]);
        c.update(&data[10..]);
        assert_eq!(c.value(), checksum(Crc32::ieee(), data));
    }

    #[test]
    fn update_word_is_little_endian_bytes() {
        let mut a = Crc32::ieee();
        a.update_word(0x0403_0201);
        let mut b = Crc32::ieee();
        b.update(&[1, 2, 3, 4]);
        assert_eq!(a.value(), b.value());
    }

    #[test]
    fn value_does_not_reset() {
        let mut c = Crc32::ieee();
        c.update(b"abc");
        let v1 = c.value();
        assert_eq!(c.value(), v1);
        c.update(b"d");
        assert_ne!(c.value(), v1);
    }

    /// The configuration CRC as specified: 37 single bit steps.
    fn absorb_bit_serial(state: &mut u32, reg_addr: u32, data: u32) {
        let bits = (0..32).map(|i| (data >> i) & 1);
        for bit in bits.chain((0..5).map(|i| (reg_addr >> i) & 1)) {
            *state = bit_steps(*state ^ bit, POLY_CASTAGNOLI, 1);
        }
    }

    #[test]
    fn config_crc_tables_match_the_bit_serial_form() {
        let mut crc = ConfigCrc::new();
        let mut oracle = 0;
        let mut x = 0x9E37_79B9u32;
        for i in 0..4096u32 {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            crc.absorb(i, x);
            absorb_bit_serial(&mut oracle, i, x);
            assert_eq!(crc.value(), oracle, "write {i}");
        }
    }

    #[test]
    fn config_crc_detects_single_bit_flip() {
        let mut a = ConfigCrc::new();
        let mut b = ConfigCrc::new();
        a.absorb(2, 0x1234_5678);
        b.absorb(2, 0x1234_5678 ^ 0x10);
        assert_ne!(a.value(), b.value());
    }

    #[test]
    fn config_crc_is_address_sensitive() {
        let mut a = ConfigCrc::new();
        let mut b = ConfigCrc::new();
        a.absorb(2, 0xAAAA_AAAA);
        b.absorb(3, 0xAAAA_AAAA);
        assert_ne!(a.value(), b.value());
    }

    #[test]
    fn config_crc_reset_restores_initial_state() {
        let mut a = ConfigCrc::new();
        a.absorb(1, 99);
        a.reset();
        assert_eq!(a, ConfigCrc::new());
    }
}
