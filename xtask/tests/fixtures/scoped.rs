//! Stale-scope fixture: one live function and one that only test code
//! defines.

pub fn live() -> u32 {
    1
}

#[cfg(test)]
mod tests {
    fn test_only() {}
}
