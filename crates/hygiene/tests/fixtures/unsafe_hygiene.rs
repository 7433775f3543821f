//! Unsafe-hygiene fixture: two `#[allow(unsafe_code)]` lifts, each with a
//! `// SAFETY:` comment. Clean in an allowlisted file, both flagged
//! anywhere else.

pub fn first(p: *const u8) -> u8 {
    // SAFETY: fixture; the caller proved `p` valid for reads.
    #[allow(unsafe_code)]
    unsafe {
        *p
    }
}

pub fn second(p: *const u8) -> u8 {
    // SAFETY: fixture; the caller proved `p` valid for reads.
    #[allow(unsafe_code)]
    unsafe {
        *p
    }
}
