//! The driver-owned routing index: a keyed router's choice, maintained
//! incrementally instead of rescanned on every arrival.
//!
//! [`RouteIndex`] holds one [`RouteKey`] per server in a fixed-size
//! tournament tree: every internal node stores the winner — the smaller
//! `(key, index)` — of its two children, so the root is the router's
//! choice. Changing one server's key replays its leaf-to-root path,
//! O(log n); reading the choice is O(1). The tree, the key table and the
//! changed-server list are all sized at construction, so steady-state
//! routing never allocates.

use crate::router::{RouteKey, Router, ServerView};

/// Marks a padding leaf (the tree's width is a power of two).
const NONE: u32 = u32::MAX;

/// A keyed router's choice over a fleet, updated per changed server.
///
/// The owner reports every rewritten view with
/// [`mark_changed`](RouteIndex::mark_changed); [`choose`](RouteIndex::choose)
/// re-keys just those servers and returns the server with the smallest
/// `(key, index)` — exactly what the router's scanning
/// [`route`](Router::route) returns over the same views, by the
/// [`Router::route_key`] contract.
#[derive(Debug, Clone)]
pub struct RouteIndex {
    keys: Vec<RouteKey>,
    /// Winners: node `k` has children `2k` and `2k + 1`; leaves sit at
    /// `[width, width + n)`, and the root is node 1.
    tree: Vec<u32>,
    width: usize,
    /// Servers whose views changed since the last `choose`, deduplicated
    /// through `pending`, so it never outgrows the fleet.
    changed: Vec<u32>,
    pending: Vec<bool>,
}

impl RouteIndex {
    /// Indexes `views` under `router`'s keys. Returns `None` if the router
    /// is not keyed (its [`Router::route_key`] returns `None`) or there are
    /// no views.
    ///
    /// # Panics
    ///
    /// Panics if the router keys some views but not others, or the fleet
    /// has more than `u32::MAX - 1` servers.
    pub fn new(router: &dyn Router, views: &[ServerView]) -> Option<Self> {
        router.route_key(views.first()?)?;
        let n = views.len();
        assert!(n < NONE as usize, "fleet too large to index");
        let width = n.next_power_of_two();
        let mut index = Self {
            keys: views.iter().map(|v| key_of(router, v)).collect(),
            tree: vec![NONE; 2 * width],
            width,
            changed: Vec::with_capacity(n),
            pending: vec![false; n],
        };
        for i in 0..n {
            index.tree[width + i] = i as u32;
        }
        for node in (1..width).rev() {
            index.tree[node] = index.winner(2 * node);
        }
        Some(index)
    }

    /// Records that `server`'s view changed; its key is recomputed at the
    /// next [`choose`](RouteIndex::choose). Idempotent between choices.
    pub fn mark_changed(&mut self, server: usize) {
        if !self.pending[server] {
            self.pending[server] = true;
            self.changed.push(server as u32);
        }
    }

    /// Re-keys every server marked since the last call from its view in
    /// `views`, then returns the server with the smallest `(key, index)`.
    ///
    /// `router` and `views` must be the ones the index was built with:
    /// the same router configuration, and one view per server in index
    /// order.
    pub fn choose(&mut self, router: &dyn Router, views: &[ServerView]) -> usize {
        for k in 0..self.changed.len() {
            let server = self.changed[k] as usize;
            self.pending[server] = false;
            self.keys[server] = key_of(router, &views[server]);
            self.replay(server);
        }
        self.changed.clear();
        self.tree[1] as usize
    }

    /// Recomputes the winners on `server`'s leaf-to-root path, stopping
    /// early once a node's winner is unchanged and is not `server` (its
    /// ancestors then see exactly the inputs they saw before).
    fn replay(&mut self, server: usize) {
        let mut node = (self.width + server) / 2;
        while node > 0 {
            let before = self.tree[node];
            let after = self.winner(2 * node);
            if after == before && after as usize != server {
                return;
            }
            self.tree[node] = after;
            node /= 2;
        }
    }

    /// The winner between sibling nodes `left` and `left + 1`. Every server
    /// under `left` has a smaller index than every server under its
    /// sibling, so a key tie goes left.
    fn winner(&self, left: usize) -> u32 {
        let (a, b) = (self.tree[left], self.tree[left + 1]);
        if b == NONE || (a != NONE && self.keys[a as usize] <= self.keys[b as usize]) {
            a
        } else {
            b
        }
    }
}

fn key_of(router: &dyn Router, view: &ServerView) -> RouteKey {
    router.route_key(view).unwrap_or_else(|| {
        panic!(
            "router {} keyed some servers but not server {}",
            router.name(),
            view.index
        )
    })
}
