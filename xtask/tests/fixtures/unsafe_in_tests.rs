//! Stale-allowlist fixture: `unsafe` appears only in comments, strings
//! and test code, so an allowlist entry for this file grants nothing.

/// Reads a value; nothing here is unsafe.
pub fn read(x: &u32) -> (u32, &'static str) {
    (*x, "unsafe")
}

#[cfg(test)]
mod tests {
    #[test]
    fn reads_through_a_raw_pointer() {
        let x = 7u32;
        // SAFETY: `x` is a live local for the whole read.
        assert_eq!(unsafe { *std::ptr::addr_of!(x) }, 7);
    }
}
