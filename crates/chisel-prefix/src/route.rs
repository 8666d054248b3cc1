use std::fmt;

use crate::{NextHop, Prefix};

/// A routing-table entry: a prefix bound to a next hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RouteEntry {
    /// The destination prefix.
    pub prefix: Prefix,
    /// The next hop packets matching this prefix are forwarded to.
    pub next_hop: NextHop,
}

impl RouteEntry {
    /// Creates a route entry.
    pub fn new(prefix: Prefix, next_hop: NextHop) -> Self {
        RouteEntry { prefix, next_hop }
    }
}

impl fmt::Display for RouteEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {}", self.prefix, self.next_hop)
    }
}

/// One BGP route update: the event type shared by trace generators, the
/// MRT codec, the engine's update windows and the journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteUpdate {
    /// BGP `announce(p, len, h)`: insert the prefix or update its next hop.
    Announce(Prefix, NextHop),
    /// BGP `withdraw(p, len)`: remove the prefix if present (no-op
    /// otherwise).
    Withdraw(Prefix),
}

impl RouteUpdate {
    /// The prefix this update targets.
    #[inline]
    pub fn prefix(&self) -> Prefix {
        match *self {
            RouteUpdate::Announce(p, _) => p,
            RouteUpdate::Withdraw(p) => p,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_reads_like_a_route() {
        let e = RouteEntry::new("10.0.0.0/8".parse().unwrap(), NextHop::new(3));
        assert_eq!(e.to_string(), "10.0.0.0/8 -> nh3");
    }
}
