//! Property-based tests: the Berkeley protocol invariants hold under
//! arbitrary access interleavings (spasm-testkit).

use spasm_cache::{
    AccessKind, BState, CacheConfig, CoherenceController, Outcome, ProtocolKind, Supplier,
};
use spasm_testkit::{check, gens, prop_assert, prop_assert_eq, Gen};

/// Raw (node, block, write) accesses.
fn ops(p: usize, blocks: u64) -> Gen<Vec<(usize, u64, bool)>> {
    gens::vecs(
        gens::tuple3(gens::usizes(0..p), gens::u64s(0..blocks), gens::bools()),
        0..200,
    )
}

fn kind_of(write: bool) -> AccessKind {
    if write {
        AccessKind::Write
    } else {
        AccessKind::Read
    }
}

fn small_cc(p: usize) -> CoherenceController {
    CoherenceController::new(
        p,
        CacheConfig {
            size_bytes: 256, // 4 sets x 2 ways: evictions happen
            assoc: 2,
            block_bytes: 32,
        },
    )
}

/// Checks the protocol's global invariants. Plain `assert!`s: the
/// harness catches the panic and shrinks the access history.
fn check_invariants(cc: &CoherenceController, blocks: u64) {
    for block in 0..blocks {
        let holders: Vec<usize> = (0..cc.nodes())
            .filter(|&n| cc.cache(n).peek(block).is_some())
            .collect();
        let entry = cc.directory().get(block).copied().unwrap_or_default();
        // 1. Directory presence equals actual residency.
        let dir_sharers: Vec<usize> = entry.sharers().collect();
        assert_eq!(holders, dir_sharers, "presence mismatch for block {block}");
        // 2. At most one owned copy, and the directory knows who owns it.
        let owners: Vec<usize> = holders
            .iter()
            .copied()
            .filter(|&n| cc.cache(n).peek(block).unwrap().is_owned())
            .collect();
        assert!(owners.len() <= 1, "multiple owners of block {block}");
        assert_eq!(entry.owner(), owners.first().copied());
        // 3. A Dirty copy is exclusive.
        for &n in &holders {
            if cc.cache(n).peek(block) == Some(BState::Dirty) {
                assert_eq!(holders.len(), 1, "Dirty block {block} is shared");
            }
        }
        // 4. Non-owner copies are Valid.
        for &n in &holders {
            if entry.owner() != Some(n) {
                assert_eq!(cc.cache(n).peek(block), Some(BState::Valid));
            }
        }
    }
}

#[test]
fn berkeley_invariants_hold() {
    check("berkeley_invariants_hold", &ops(4, 16), |history| {
        let mut cc = small_cc(4);
        for &(node, block, write) in history {
            cc.access(node, block, kind_of(write));
        }
        check_invariants(&cc, 16);
        Ok(())
    });
}

/// After any history, a write by node n leaves n as the exclusive
/// Dirty owner.
#[test]
fn write_always_ends_exclusive() {
    check(
        "write_always_ends_exclusive",
        &gens::tuple3(ops(4, 16), gens::usizes(0..4), gens::u64s(0..16)),
        |(history, node, block)| {
            let (node, block) = (*node, *block);
            let mut cc = small_cc(4);
            for &(n, b, write) in history {
                cc.access(n, b, kind_of(write));
            }
            cc.access(node, block, AccessKind::Write);
            assert_eq!(cc.cache(node).peek(block), Some(BState::Dirty));
            assert_eq!(cc.directory().get(block).unwrap().owner(), Some(node));
            for other in 0..4 {
                if other != node {
                    assert_eq!(cc.cache(other).peek(block), None);
                }
            }
            Ok(())
        },
    );
}

/// The controller is deterministic: identical histories give identical
/// outcomes.
#[test]
fn controller_deterministic() {
    check("controller_deterministic", &ops(4, 16), |history| {
        let mut a = small_cc(4);
        let mut b = small_cc(4);
        for &(node, block, write) in history {
            let kind = kind_of(write);
            prop_assert_eq!(a.access(node, block, kind), b.access(node, block, kind));
        }
        Ok(())
    });
}

/// Hits never lie: an access reported Hit leaves every other node's
/// state untouched (no hidden invalidations).
#[test]
fn hits_are_local() {
    check(
        "hits_are_local",
        &gens::tuple3(ops(3, 8), gens::usizes(0..3), gens::u64s(0..8)),
        |(history, node, block)| {
            let (node, block) = (*node, *block);
            let mut cc = small_cc(3);
            for &(n, b, write) in history {
                cc.access(n, b, kind_of(write));
            }
            let before: Vec<_> = (0..3).map(|n| cc.cache(n).peek(block)).collect();
            let outcome = cc.access(node, block, AccessKind::Read);
            if outcome == spasm_cache::Outcome::Hit {
                let after: Vec<_> = (0..3).map(|n| cc.cache(n).peek(block)).collect();
                prop_assert_eq!(before, after);
            }
            Ok(())
        },
    );
}

/// An access changes only the caches its outcome names — the accessor's,
/// the invalidated ones, and a supplying or downgraded owner — under
/// both protocols: there is no hidden cross-node coupling.
#[test]
fn access_changes_only_the_caches_its_outcome_names() {
    check(
        "access_changes_only_the_caches_its_outcome_names",
        &gens::tuple3(
            ops(4, 24),
            gens::tuple3(gens::usizes(0..4), gens::u64s(0..24), gens::bools()),
            gens::bools(),
        ),
        |(history, (node, block, write), wbor)| {
            let (node, block) = (*node, *block);
            let protocol = if *wbor {
                ProtocolKind::WriteBackOnRead
            } else {
                ProtocolKind::Berkeley
            };
            let config = CacheConfig {
                size_bytes: 256,
                assoc: 2,
                block_bytes: 32,
            };
            let mut cc = CoherenceController::with_protocol(4, config, protocol);
            for &(n, b, w) in history {
                cc.access(n, b, kind_of(w));
            }
            let before: Vec<_> = (0..4).map(|n| cc.cache(n).clone()).collect();
            let outcome = cc.access(node, block, kind_of(*write));
            let after: Vec<_> = (0..4).map(|n| cc.cache(n).clone()).collect();
            let mut allowed = vec![node];
            match &outcome {
                Outcome::Hit => {}
                Outcome::UpgradeHit { invalidated } => allowed.extend(invalidated),
                Outcome::Miss {
                    supplier,
                    invalidated,
                    downgrade_writeback,
                    ..
                } => {
                    allowed.extend(invalidated);
                    if let Supplier::Owner(o) = supplier {
                        allowed.push(*o);
                    }
                    if let Some(wb) = downgrade_writeback {
                        allowed.push(wb.from);
                    }
                }
            }
            for n in 0..4 {
                prop_assert!(
                    allowed.contains(&n) || before[n] == after[n],
                    "cache[{n}] changed but outcome {outcome:?} does not name it"
                );
            }
            prop_assert!(
                before[node].stats() != after[node].stats(),
                "cache[{node}] made an access yet its counters did not move"
            );
            Ok(())
        },
    );
}
