//! Differential oracles: every traversal kernel must tell the same story.
//!
//! Four implementations answer "what does this ray hit": the while-while
//! stack traversal, the stackless restart-trail traversal, the 4-wide BVH,
//! and a brute-force loop over every triangle. For closest-hit queries
//! they must agree **exactly** — same `t` bits, same triangle index —
//! because the Möller–Trumbore `t` of a given (ray, triangle) pair is
//! independent of traversal order and the shared tie-break rule
//! ([`rip_bvh::Hit::closer_than`]) picks the same winner among equal-`t`
//! candidates. Any-hit queries are compared on hit/miss (kernels
//! legitimately stop at different first intersections).
//!
//! On top of the scalar agreement checks, the batch oracles pin the
//! ray-stream layer: every [`TraversalKernel`]'s batch entry points must be
//! **bit-exact** — hits *and* statistics — with its own per-ray calls
//! ([`assert_batch_matches_scalar`]), and tracing a Morton-sorted stream
//! then un-sorting the results must reproduce the unsorted run bit for bit
//! ([`assert_batch_morton_exact`]).

use rip_bvh::{
    stackless, Bvh, RayBatch, StacklessKernel, SteppableKernel, TraversalKernel, TraversalKind,
    WhileWhileKernel, WideBvh, WideKernel,
};
use rip_math::{Ray, Triangle};

/// A scene prepared for differential checking: one binary BVH plus the
/// wide BVH collapsed from it.
pub struct DiffOracle {
    /// The binary tree (drives the stack, stackless and brute-force paths).
    pub bvh: Bvh,
    /// The 4-wide tree sharing the binary tree's triangle storage.
    pub wide: WideBvh,
}

/// The per-kernel closest-hit answers for one ray, for diagnostics.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClosestAnswers {
    /// (triangle index, t) from the while-while stack traversal.
    pub stack: Option<(u32, f32)>,
    /// … from the stackless restart-trail traversal.
    pub stackless: Option<(u32, f32)>,
    /// … from the 4-wide traversal.
    pub wide: Option<(u32, f32)>,
    /// … from the brute-force reference.
    pub brute: Option<(u32, f32)>,
}

impl DiffOracle {
    /// Builds both acceleration structures over `tris`.
    pub fn new(tris: &[Triangle]) -> Self {
        let bvh = Bvh::build(tris);
        let wide = WideBvh::from_binary(&bvh);
        DiffOracle { bvh, wide }
    }

    /// Collects every kernel's closest-hit answer for `ray`.
    pub fn closest_answers(&self, ray: &Ray) -> ClosestAnswers {
        let kind = TraversalKind::ClosestHit;
        ClosestAnswers {
            stack: self
                .bvh
                .intersect(ray, kind)
                .hit
                .map(|h| (h.tri_index, h.t)),
            stackless: stackless::traverse(&self.bvh, ray, kind)
                .hit
                .map(|h| (h.tri_index, h.t)),
            wide: self
                .wide
                .intersect(&self.bvh, ray, kind)
                .hit
                .map(|h| (h.tri_index, h.t)),
            brute: self.bvh.intersect_brute_force(ray, kind),
        }
    }

    /// Checks exact four-way closest-hit agreement for `ray`.
    pub fn check_closest(&self, ray: &Ray) -> Result<(), String> {
        let a = self.closest_answers(ray);
        let key = |h: Option<(u32, f32)>| h.map(|(i, t)| (i, t.to_bits()));
        let reference = key(a.brute);
        for (name, answer) in [
            ("stack", key(a.stack)),
            ("stackless", key(a.stackless)),
            ("wide", key(a.wide)),
        ] {
            if answer != reference {
                return Err(format!(
                    "closest-hit divergence for {ray:?}: {name} kernel disagrees \
                     with brute force — {a:?}"
                ));
            }
        }
        Ok(())
    }

    /// Checks four-way any-hit (hit/miss) agreement for `ray`.
    pub fn check_any(&self, ray: &Ray) -> Result<(), String> {
        let kind = TraversalKind::AnyHit;
        let reference = self.bvh.intersect_brute_force(ray, kind).is_some();
        for (name, answer) in [
            ("stack", self.bvh.intersect(ray, kind).hit.is_some()),
            (
                "stackless",
                stackless::traverse(&self.bvh, ray, kind).hit.is_some(),
            ),
            (
                "wide",
                self.wide.intersect(&self.bvh, ray, kind).hit.is_some(),
            ),
        ] {
            if answer != reference {
                return Err(format!(
                    "any-hit divergence for {ray:?}: {name} said {answer}, \
                     brute force said {reference}"
                ));
            }
        }
        Ok(())
    }

    /// Checks both query kinds for `ray`.
    pub fn check_ray(&self, ray: &Ray) -> Result<(), String> {
        self.check_closest(ray)?;
        self.check_any(ray)
    }
}

/// The repo's four traversal kernels as trait objects over one oracle's
/// trees, in a fixed order (while-while, stackless, wide4, steppable).
pub fn kernels<'a>(oracle: &'a DiffOracle) -> Vec<Box<dyn TraversalKernel + 'a>> {
    vec![
        Box::new(WhileWhileKernel::new(&oracle.bvh)),
        Box::new(StacklessKernel::new(&oracle.bvh)),
        Box::new(WideKernel::new(&oracle.wide, &oracle.bvh)),
        Box::new(SteppableKernel::new(&oracle.bvh)),
    ]
}

/// Asserts two traversal results are bit-exact: the same hit (`t`
/// bits, triangle and leaf) and the same traversal statistics.
pub fn assert_results_bit_exact(
    context: &str,
    got: &rip_bvh::TraversalResult,
    want: &rip_bvh::TraversalResult,
) {
    assert_eq!(
        got.hit.map(|h| (h.tri_index, h.leaf, h.t.to_bits())),
        want.hit.map(|h| (h.tri_index, h.leaf, h.t.to_bits())),
        "{context}: hit differs"
    );
    assert_eq!(got.stats, want.stats, "{context}: statistics differ");
}

/// Asserts that every kernel's batch entry points are bit-exact — hits
/// (same `t` bits, triangle and leaf) *and* traversal statistics — with
/// its own per-ray calls, for both query kinds.
pub fn assert_batch_matches_scalar(label: &str, tris: &[Triangle], rays: &[Ray]) {
    let oracle = DiffOracle::new(tris);
    let batch = RayBatch::from_rays(rays);
    for kernel in &mut kernels(&oracle) {
        for kind in [TraversalKind::ClosestHit, TraversalKind::AnyHit] {
            let batched = kernel.trace_batch(&batch, kind);
            assert_eq!(batched.len(), batch.len(), "one result per ray");
            for (i, b) in batched.iter().enumerate() {
                let scalar = kernel.trace(&rays[i], kind);
                assert_results_bit_exact(
                    &format!(
                        "[{label}] {} ray {i} ({kind:?}) batch-vs-scalar",
                        kernel.name()
                    ),
                    b,
                    &scalar,
                );
            }
        }
    }
}

/// Metamorphic batch oracle: tracing the Morton-sorted stream and
/// un-sorting the per-ray results must reproduce the unsorted batch run
/// bit for bit (hits and statistics), for every kernel and query kind —
/// sorting may only change throughput, never any answer.
pub fn assert_batch_morton_exact(label: &str, tris: &[Triangle], rays: &[Ray]) {
    let oracle = DiffOracle::new(tris);
    let batch = RayBatch::from_rays(rays);
    let (sorted, perm) = batch.morton_sorted(&oracle.bvh.bounds());
    for kernel in &mut kernels(&oracle) {
        for kind in [TraversalKind::ClosestHit, TraversalKind::AnyHit] {
            let base = kernel.trace_batch(&batch, kind);
            let unsorted = perm.unsort(&kernel.trace_batch(&sorted, kind));
            for (i, (b, u)) in base.iter().zip(&unsorted).enumerate() {
                assert_results_bit_exact(
                    &format!(
                        "[{label}] {} ray {i} ({kind:?}) morton-roundtrip",
                        kernel.name()
                    ),
                    u,
                    b,
                );
            }
        }
    }
}

/// Builds an oracle over `tris` and asserts four-way agreement on every
/// ray, panicking with full context on the first divergence.
pub fn assert_kernels_agree(label: &str, tris: &[Triangle], rays: &[Ray]) {
    let oracle = DiffOracle::new(tris);
    for (i, ray) in rays.iter().enumerate() {
        if let Err(e) = oracle.check_ray(ray) {
            panic!("[{label}] ray {i}: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rip_math::Vec3;

    #[test]
    fn oracle_smoke_on_a_single_triangle() {
        let oracle = DiffOracle::new(&[Triangle::new(Vec3::ZERO, Vec3::X, Vec3::Y)]);
        let hit = Ray::new(Vec3::new(0.2, 0.2, -1.0), Vec3::Z);
        let miss = Ray::new(Vec3::new(5.0, 5.0, -1.0), Vec3::Z);
        oracle.check_ray(&hit).unwrap();
        oracle.check_ray(&miss).unwrap();
        let a = oracle.closest_answers(&hit);
        assert_eq!(a.stack, a.brute);
        assert!(a.brute.is_some());
    }
}
