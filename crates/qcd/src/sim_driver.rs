//! The distributed Wilson-Dslash driver for the discrete-event simulator.
//!
//! Reproduces the paper's §5.1 measurement structure (Listing 1): per
//! iteration, every rank's thread team packs boundary half-spinors, the
//! master posts the nonblocking halo exchange, all threads compute the
//! internal volume (with `PROGRESS` hints for the iprobe approach), the
//! master waits for the exchange, and the team applies the boundary
//! contributions. The master thread of rank 0 records the paper's
//! per-phase split: internal compute / post / wait / misc (Table 1).
//!
//! Compute costs come from the real geometry ([`crate::lattice`]) and the
//! machine profile; message sizes are the spin-projected face payloads the
//! real QPhiX implementation exchanges.

use std::cell::RefCell;
use std::rc::Rc;

use approaches::{Approach, Comm, CommReq};
use destime::Nanos;
use mpisim::{Bytes, Dtype, ReduceOp};
use simnet::MachineProfile;
use team::Team;

use crate::lattice::{Decomposition, Dims, DSLASH_FLOPS_PER_SITE};

/// Per-iteration phase split as measured by thread 0 of rank 0 (Table 1).
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimes {
    pub internal: Nanos,
    pub post: Nanos,
    pub wait: Nanos,
    pub misc: Nanos,
    pub total: Nanos,
}

impl PhaseTimes {
    pub fn add(&mut self, o: &PhaseTimes) {
        self.internal += o.internal;
        self.post += o.post;
        self.wait += o.wait;
        self.misc += o.misc;
        self.total += o.total;
    }

    pub fn scaled(&self, inv: f64) -> PhaseTimes {
        let f = |x: Nanos| (x as f64 * inv).round() as Nanos;
        PhaseTimes {
            internal: f(self.internal),
            post: f(self.post),
            wait: f(self.wait),
            misc: f(self.misc),
            total: f(self.total),
        }
    }
}

/// Experiment configuration.
#[derive(Clone, Debug)]
pub struct DslashConfig {
    pub lattice: Dims,
    /// Simulated cluster nodes (ranks = nodes × profile.ranks_per_node).
    pub nodes: usize,
    pub iterations: usize,
    /// Number of `PROGRESS` insertion points in the internal-volume loop.
    pub progress_hints: usize,
}

/// Aggregated result of a Dslash run.
#[derive(Clone, Debug)]
pub struct DslashReport {
    pub approach: Approach,
    pub nodes: usize,
    pub ranks: usize,
    /// Mean per-iteration split on rank 0.
    pub phases: PhaseTimes,
    /// Sustained TFLOP/s over the whole job.
    pub tflops: f64,
    /// Largest per-direction message in bytes.
    pub max_face_bytes: usize,
}

/// Run the strong-scaling Wilson-Dslash benchmark under one approach.
pub fn run_dslash(profile: MachineProfile, approach: Approach, cfg: &DslashConfig) -> DslashReport {
    let ranks = cfg.nodes * profile.ranks_per_node;
    let decomp = Rc::new(Decomposition::new(cfg.lattice, ranks));
    let cfg = Rc::new(cfg.clone());
    let profile2 = profile.clone();
    let decomp2 = decomp.clone();
    let cfg2 = cfg.clone();
    let (outs, elapsed) = approaches::run_approach(ranks, profile, approach, false, move |comm| {
        let decomp = decomp2.clone();
        let cfg = cfg2.clone();
        let profile = profile2.clone();
        async move { rank_driver(comm, decomp, cfg, profile).await }
    });
    let phases = outs[0];
    let global_flops = cfg.lattice.volume() as f64 * DSLASH_FLOPS_PER_SITE * cfg.iterations as f64;
    let tflops = global_flops / elapsed as f64 / 1e3;
    let max_face_bytes = (0..4)
        .filter(|&d| decomp.is_partitioned(d))
        .map(|d| decomp.face_bytes(d))
        .max()
        .unwrap_or(0);
    DslashReport {
        approach,
        nodes: cfg.nodes,
        ranks,
        phases,
        tflops,
        max_face_bytes,
    }
}

async fn rank_driver(
    comm: Comm,
    decomp: Rc<Decomposition>,
    cfg: Rc<DslashConfig>,
    profile: MachineProfile,
) -> PhaseTimes {
    let env = comm.env().clone();
    let team_size = (profile.cores_per_rank - comm.approach().dedicated_cores()).max(1);
    let team = Team::new(env.clone(), team_size);
    // Per-core costs (compute_share divides by team size).
    let interior_core_ns = profile.compute_ns_f32(decomp.interior_flops(), 1);
    let boundary_core_ns = profile.compute_ns_f32(decomp.boundary_flops(), 1);
    let pack_core_ns = profile.copy_ns(decomp.pack_bytes(), 1);
    // The halo partners: (dim, dir, neighbor, bytes).
    let my_rank = comm.rank();
    let halo: Vec<(usize, isize, usize, usize)> = (0..4)
        .filter(|&d| decomp.is_partitioned(d))
        .flat_map(|d| {
            [1isize, -1]
                .into_iter()
                .map(move |dir| (d, dir, 0usize, 0usize))
        })
        .map(|(d, dir, _, _)| {
            (
                d,
                dir,
                decomp.neighbor(my_rank, d, dir),
                decomp.face_bytes(d),
            )
        })
        .collect();

    let times: Rc<RefCell<PhaseTimes>> = Rc::new(RefCell::new(PhaseTimes::default()));
    let iters = cfg.iterations;
    let hints = cfg.progress_hints.max(1);

    let comm2 = comm.clone();
    let times2 = times.clone();
    let halo = Rc::new(halo);
    team.parallel(move |ctx| {
        let comm = comm2.clone();
        let times = times2.clone();
        let halo = halo.clone();
        async move {
            let env = ctx.env().clone();
            for _ in 0..iters {
                let t_iter = env.now();
                // Phase 1: boundary pack (all threads).
                ctx.compute_share(pack_core_ns).await;
                ctx.barrier().await;
                // Phase 2: master posts the nonblocking exchange.
                let mut reqs: Vec<CommReq> = Vec::new();
                let mut t_post = 0;
                if ctx.is_master() {
                    let t0 = env.now();
                    for &(dim, dir, peer, bytes) in halo.iter() {
                        let tag = (dim * 2 + usize::from(dir < 0)) as u32;
                        // Receive the face coming from the opposite side.
                        let rtag = (dim * 2 + usize::from(dir > 0)) as u32;
                        reqs.push(comm.irecv(Some(peer), Some(rtag)).await);
                        reqs.push(comm.isend(peer, tag, Bytes::synthetic(bytes)).await);
                    }
                    t_post = env.now() - t0;
                }
                // Phase 3: internal volume, with PROGRESS points.
                let t_int0 = env.now();
                for _ in 0..hints {
                    ctx.compute_share(interior_core_ns / hints as u64).await;
                    if ctx.is_master() {
                        comm.progress_hint().await;
                    }
                }
                let t_internal = env.now() - t_int0;
                // Phase 4: master completes the exchange.
                let mut t_wait = 0;
                if ctx.is_master() {
                    let t0 = env.now();
                    comm.waitall(&reqs).await;
                    t_wait = env.now() - t0;
                }
                ctx.barrier().await;
                // Phase 5: boundary contributions.
                ctx.compute_share(boundary_core_ns).await;
                ctx.barrier().await;
                if ctx.is_master() {
                    let total = env.now() - t_iter;
                    let mut t = times.borrow_mut();
                    t.post += t_post;
                    t.internal += t_internal;
                    t.wait += t_wait;
                    t.misc += total - t_post - t_internal - t_wait;
                    t.total += total;
                }
            }
        }
    })
    .await;
    let acc = *times.borrow();
    acc.scaled(1.0 / iters as f64)
}

/// One full solver iteration modelled on top of Dslash (Fig 11): two
/// Dslash applications (the even/odd matrix-vector product), BLAS-1 work,
/// and two global reductions.
pub fn run_solver(profile: MachineProfile, approach: Approach, cfg: &DslashConfig) -> DslashReport {
    let ranks = cfg.nodes * profile.ranks_per_node;
    let decomp = Rc::new(Decomposition::new(cfg.lattice, ranks));
    let cfg = Rc::new(cfg.clone());
    let profile2 = profile.clone();
    let decomp2 = decomp.clone();
    let cfg2 = cfg.clone();
    let (_, elapsed) = approaches::run_approach(ranks, profile, approach, false, move |comm| {
        let decomp = decomp2.clone();
        let cfg = cfg2.clone();
        let profile = profile2.clone();
        async move {
            let env = comm.env().clone();
            let team_size = (profile.cores_per_rank - comm.approach().dedicated_cores()).max(1);
            let team = Team::new(env.clone(), team_size);
            // BLAS-1 work per solver iteration: ~6 vector ops of 24 floats
            // per site (memory bound — charge at copy bandwidth).
            let blas_bytes = decomp.local_volume() * 24 * 4 * 6;
            let blas_core_ns = profile.copy_ns(blas_bytes, 1);
            let interior_core_ns = profile.compute_ns_f32(decomp.interior_flops(), 1);
            let boundary_core_ns = profile.compute_ns_f32(decomp.boundary_flops(), 1);
            let pack_core_ns = profile.copy_ns(decomp.pack_bytes(), 1);
            let my_rank = comm.rank();
            let halo: Vec<(usize, isize, usize, usize)> = (0..4)
                .filter(|&d| decomp.is_partitioned(d))
                .flat_map(|d| [1isize, -1].into_iter().map(move |dir| (d, dir)))
                .map(|(d, dir)| {
                    (
                        d,
                        dir,
                        decomp.neighbor(my_rank, d, dir),
                        decomp.face_bytes(d),
                    )
                })
                .collect();
            let halo = Rc::new(halo);
            let comm2 = comm.clone();
            let iters = cfg.iterations;
            team.parallel(move |ctx| {
                let comm = comm2.clone();
                let halo = halo.clone();
                async move {
                    for _ in 0..iters {
                        // Two Dslash applications per solver iteration.
                        for _ in 0..2 {
                            ctx.compute_share(pack_core_ns).await;
                            ctx.barrier().await;
                            let mut reqs = Vec::new();
                            if ctx.is_master() {
                                for &(dim, dir, peer, bytes) in halo.iter() {
                                    let tag = (dim * 2 + usize::from(dir < 0)) as u32;
                                    let rtag = (dim * 2 + usize::from(dir > 0)) as u32;
                                    reqs.push(comm.irecv(Some(peer), Some(rtag)).await);
                                    reqs.push(comm.isend(peer, tag, Bytes::synthetic(bytes)).await);
                                }
                            }
                            ctx.compute_share(interior_core_ns).await;
                            if ctx.is_master() {
                                comm.waitall(&reqs).await;
                            }
                            ctx.barrier().await;
                            ctx.compute_share(boundary_core_ns).await;
                            ctx.barrier().await;
                        }
                        // BLAS-1 + two global reductions (inner product,
                        // norm) by the master.
                        ctx.compute_share(blas_core_ns).await;
                        ctx.barrier().await;
                        if ctx.is_master() {
                            for _ in 0..2 {
                                let _ = comm
                                    .allreduce(Bytes::synthetic(16), Dtype::F64, ReduceOp::Sum)
                                    .await;
                            }
                        }
                        ctx.barrier().await;
                    }
                }
            })
            .await;
        }
    });
    // Count Dslash + BLAS flops (2 dslash + ~48 flops/site of BLAS-1).
    let flops_per_iter = cfg.lattice.volume() as f64 * (2.0 * DSLASH_FLOPS_PER_SITE + 48.0);
    let tflops = flops_per_iter * cfg.iterations as f64 / elapsed as f64 / 1e3;
    DslashReport {
        approach,
        nodes: cfg.nodes,
        ranks,
        phases: PhaseTimes::default(),
        tflops,
        max_face_bytes: 0,
    }
}

/// Fig 12 variant: thread-groups issue the halo exchange concurrently
/// (`MPI_THREAD_MULTIPLE` from the application). Each group leader posts
/// and waits the faces of its direction subset.
pub fn run_dslash_thread_groups(
    profile: MachineProfile,
    approach: Approach,
    cfg: &DslashConfig,
    n_groups: usize,
) -> DslashReport {
    let ranks = cfg.nodes * profile.ranks_per_node;
    let decomp = Rc::new(Decomposition::new(cfg.lattice, ranks));
    let cfg = Rc::new(cfg.clone());
    let profile2 = profile.clone();
    let decomp2 = decomp.clone();
    let cfg2 = cfg.clone();
    let (_, elapsed) = approaches::run_approach(
        ranks,
        profile,
        approach,
        true, // concurrent MPI calls from application threads
        move |comm| {
            let decomp = decomp2.clone();
            let cfg = cfg2.clone();
            let profile = profile2.clone();
            async move {
                let env = comm.env().clone();
                let team_size =
                    (profile.cores_per_rank - comm.approach().dedicated_cores()).max(n_groups);
                let team = Team::new(env.clone(), team_size);
                let interior_core_ns = profile.compute_ns_f32(decomp.interior_flops(), 1);
                let boundary_core_ns = profile.compute_ns_f32(decomp.boundary_flops(), 1);
                let pack_core_ns = profile.copy_ns(decomp.pack_bytes(), 1);
                let my_rank = comm.rank();
                let halo: Vec<(usize, isize, usize, usize)> = (0..4)
                    .filter(|&d| decomp.is_partitioned(d))
                    .flat_map(|d| [1isize, -1].into_iter().map(move |dir| (d, dir)))
                    .map(|(d, dir)| {
                        (
                            d,
                            dir,
                            decomp.neighbor(my_rank, d, dir),
                            decomp.face_bytes(d),
                        )
                    })
                    .collect();
                let halo = Rc::new(halo);
                let comm2 = comm.clone();
                let iters = cfg.iterations;
                // Per-group barriers (the thread-groups library [33] gives
                // each group its own synchronization domain).
                let base = team_size / n_groups;
                let extra = team_size % n_groups;
                let group_barriers: Rc<Vec<destime::sync::SimBarrier>> = Rc::new(
                    (0..n_groups)
                        .map(|g| destime::sync::SimBarrier::new(base + usize::from(g < extra)))
                        .collect(),
                );
                team.parallel(move |ctx| {
                    let comm = comm2.clone();
                    let halo = halo.clone();
                    let group_barriers = group_barriers.clone();
                    async move {
                        let group = ctx.group(n_groups);
                        let gbar = group_barriers[group.gid].clone();
                        for _ in 0..iters {
                            ctx.compute_share(pack_core_ns).await;
                            ctx.barrier().await;
                            // Group leaders post their direction subset
                            // concurrently (THREAD_MULTIPLE issuing).
                            let mut reqs = Vec::new();
                            if group.is_leader() {
                                for &(dim, dir, peer, bytes) in halo.iter() {
                                    // Groups own whole directions: face
                                    // arrival times differ per dimension
                                    // (intra-node X vs wire-bound T), so
                                    // early groups reach their boundary
                                    // work first — the pipelining the
                                    // thread-groups library exposes.
                                    if dim % group.n_groups != group.gid {
                                        continue;
                                    }
                                    let tag = (dim * 2 + usize::from(dir < 0)) as u32;
                                    let rtag = (dim * 2 + usize::from(dir > 0)) as u32;
                                    reqs.push(comm.irecv(Some(peer), Some(rtag)).await);
                                    reqs.push(comm.isend(peer, tag, Bytes::synthetic(bytes)).await);
                                }
                            }
                            ctx.compute_share(interior_core_ns).await;
                            // Each group completes *its own* faces and
                            // immediately processes its share of the
                            // boundary — fine-grained pipelining across
                            // groups instead of one global wait.
                            if group.is_leader() && !reqs.is_empty() {
                                comm.waitall(&reqs).await;
                            }
                            gbar.wait().await;
                            ctx.compute(boundary_core_ns / n_groups as u64 / group.members as u64)
                                .await;
                            ctx.barrier().await;
                        }
                    }
                })
                .await;
            }
        },
    );
    let global_flops = cfg.lattice.volume() as f64 * DSLASH_FLOPS_PER_SITE * cfg.iterations as f64;
    let tflops = global_flops / elapsed as f64 / 1e3;
    DslashReport {
        approach,
        nodes: cfg.nodes,
        ranks,
        phases: PhaseTimes::default(),
        tflops,
        max_face_bytes: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::lattice_32x256;

    fn small_cfg() -> DslashConfig {
        // Small lattice so the 4-node faces are large *eager* messages:
        // the regime where baseline posting pays the internal copy and the
        // paper's >99% post-time reduction shows (Table 1 at high node
        // counts).
        DslashConfig {
            lattice: crate::lattice::Dims([16, 16, 16, 32]),
            nodes: 4,
            iterations: 3,
            progress_hints: 4,
        }
    }

    #[test]
    fn offload_cuts_post_time_by_99_percent() {
        // Table 1's "Post Time Reduction >99%" column.
        let base = run_dslash(MachineProfile::xeon(), Approach::Baseline, &small_cfg());
        let offl = run_dslash(MachineProfile::xeon(), Approach::Offload, &small_cfg());
        assert!(
            offl.phases.post * 20 < base.phases.post,
            "offload post {}ns vs baseline post {}ns",
            offl.phases.post,
            base.phases.post
        );
    }

    /// Compute-rich configuration (the paper's actual lattice at small
    /// node count): rendezvous faces fully overlappable with compute.
    fn table1_cfg() -> DslashConfig {
        DslashConfig {
            lattice: lattice_32x256(),
            nodes: 4,
            iterations: 3,
            progress_hints: 4,
        }
    }

    #[test]
    fn offload_cuts_wait_time() {
        // In the compute-dominated regime the offload thread finishes the
        // rendezvous during internal compute; baseline does it all inside
        // MPI_Waitall (Table 1's Wait Time Reduction column).
        let base = run_dslash(MachineProfile::xeon(), Approach::Baseline, &table1_cfg());
        let offl = run_dslash(MachineProfile::xeon(), Approach::Offload, &table1_cfg());
        assert!(
            offl.phases.wait * 4 < base.phases.wait,
            "offload wait {}ns vs baseline {}ns",
            offl.phases.wait,
            base.phases.wait
        );
    }

    #[test]
    fn offload_internal_compute_slightly_slower() {
        // One fewer compute core: internal compute slows by ~1/cores
        // (Table 1's 1–5% column).
        let base = run_dslash(MachineProfile::xeon(), Approach::Baseline, &small_cfg());
        let offl = run_dslash(MachineProfile::xeon(), Approach::Offload, &small_cfg());
        assert!(offl.phases.internal > base.phases.internal);
        let slowdown = offl.phases.internal as f64 / base.phases.internal as f64;
        assert!(
            slowdown < 1.15,
            "internal slowdown {slowdown} should be a few percent"
        );
    }

    #[test]
    fn offload_beats_baseline_in_total_time() {
        let base = run_dslash(MachineProfile::xeon(), Approach::Baseline, &table1_cfg());
        let offl = run_dslash(MachineProfile::xeon(), Approach::Offload, &table1_cfg());
        assert!(
            offl.phases.total < base.phases.total,
            "offload total {} vs baseline {}",
            offl.phases.total,
            base.phases.total
        );
        assert!(offl.tflops > base.tflops);
    }

    #[test]
    fn solver_runs_and_reports_tflops() {
        let r = run_solver(MachineProfile::xeon(), Approach::Offload, &small_cfg());
        assert!(r.tflops > 0.0);
    }

    #[test]
    fn thread_groups_variant_runs_under_offload_and_baseline() {
        let cfg = DslashConfig {
            iterations: 2,
            ..small_cfg()
        };
        for a in [Approach::Baseline, Approach::Offload] {
            let r = run_dslash_thread_groups(MachineProfile::xeon(), a, &cfg, 4);
            assert!(r.tflops > 0.0, "{}", a.name());
        }
    }
}
