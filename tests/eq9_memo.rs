//! Differential test of the world's Eq. 9 verdict memo.
//!
//! `SurfaceWorld::distance_to_output` serves a block's Eq. 9 verdict from
//! its memo slot until a hop moves a cell within the catalogue's Eq. 9
//! radius of it, or until a hop that is not one ring-certified relocation
//! starts a new memo generation.
//! The reference is a `SurfaceWorld` freshly built on the same occupancy:
//! its memo is empty and its oracle has no history, so every answer it
//! gives comes from the planner.  Random walks of hops drive the
//! long-lived world through configurations the election would not pick,
//! and after every hop every block's distance must agree with the fresh
//! world's, and so must the path-completion flag, which the long-lived
//! world re-evaluates only after hops that touch the oriented graph `G`.
//! A walk keeps hopping its current mover while it can, as an
//! election's journeys do, so hops pass each block at every distance,
//! inside and outside the radius.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sb_bench::sweep::Family;
use smart_surface::core::SurfaceWorld;
use smart_surface::grid::BlockId;

/// Hops per walk: long enough for blocks to leave and re-enter each
/// other's windows many times, short enough for a debug build.
const WALK_HOPS: u32 = 120;

/// Asks every block's distance on `world` and on a fresh world built on
/// the same occupancy, asserts they agree, and returns the blocks with a
/// finite distance.
fn assert_agrees_with_fresh(
    world: &mut SurfaceWorld,
    blocks: &[BlockId],
    at: &str,
) -> Vec<BlockId> {
    let mut fresh = SurfaceWorld::standard(world.config().clone());
    assert_eq!(world.path_complete(), fresh.path_complete(), "{at}");
    let mut finite = Vec::new();
    for &block in blocks {
        let memoised = world.distance_to_output(block);
        let reference = fresh.distance_to_output(block);
        assert_eq!(
            memoised,
            reference,
            "{at}: block {block} at {:?}\n{}",
            world.position_of(block),
            world.ascii_with_ids()
        );
        if !memoised.is_infinite() {
            finite.push(block);
        }
    }
    finite
}

/// Walks `family` at `blocks`/`seed` for up to [`WALK_HOPS`] hops,
/// checking every block against a fresh world after every hop.  Each hop
/// moves the previous mover again while its distance is finite, and
/// otherwise a seeded random block with a finite distance.  Returns the
/// memo hits.
fn random_walk(family: Family, blocks: usize, seed: u64) -> u64 {
    let mut world = SurfaceWorld::standard(family.build(blocks, seed));
    let ids = world.grid().block_ids_sorted();
    let mut rng = SmallRng::seed_from_u64(seed);
    let name = family.name();
    let mut finite = assert_agrees_with_fresh(&mut world, &ids, &format!("{name} N={blocks}"));
    let mut mover = None;
    for hop in 1..=WALK_HOPS {
        if finite.is_empty() {
            break;
        }
        let block = match mover.filter(|b| finite.contains(b)) {
            Some(b) => b,
            None => finite[rng.gen_range(0..finite.len())],
        };
        mover = Some(block);
        assert!(
            world.hop_towards_output(block, hop).moved,
            "{name} N={blocks} seed {seed}: block {block} has a finite distance but cannot hop"
        );
        let at = format!("{name} N={blocks} seed {seed} after hop {hop}");
        finite = assert_agrees_with_fresh(&mut world, &ids, &at);
    }
    world.metrics().eq9_memo_hits
}

#[test]
fn memo_agrees_with_a_fresh_world_on_random_walks_of_every_family() {
    for family in Family::ALL {
        for blocks in [16, 32] {
            let hits: u64 = (0..2).map(|seed| random_walk(family, blocks, seed)).sum();
            if family != Family::Minimal {
                assert!(hits > 0, "{}: the walks never hit the memo", family.name());
            }
        }
    }
}

#[test]
fn memo_agrees_with_a_fresh_world_on_high_aspect_and_sparse_wide() {
    // The two families whose thin strips put cut vertices next to most
    // blocks, where kept verdicts rest on cut-vertex probes.
    for family in [Family::HighAspect, Family::SparseWide] {
        for blocks in [32, 64] {
            for seed in 0..3 {
                random_walk(family, blocks, seed);
            }
        }
    }
}
