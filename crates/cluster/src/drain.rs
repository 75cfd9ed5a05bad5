//! COW capture scheduling: snapshot arm, background drain, retroactive
//! disk batches.
//!
//! The §5.2 split taken one step further: the freeze window covers only
//! *arming* per-pod memory snapshots (O(non-memory state)); pages
//! materialize in the background at the [`Deadline::CkptDrain`] firing
//! while resumed guests race the drain with writes, paying the bounded
//! pre-image copy cost the [`crate::ops::OpReport`] records as
//! `cow_copied_bytes`.

use des::SimTime;

use cruz::error::CruzError;
use cruz::store::PreparedPut;
use zap::ArmedPodCheckpoint;

use crate::fault::ProtocolPoint;
use crate::runtime::{Deadline, Timers};
use crate::state::World;

impl World {
    /// COW capture, arm phase: freeze covers only arming the memory
    /// snapshots and serializing the image skeletons (registers, sockets,
    /// pipes, shm) — O(non-memory state) instead of O(image bytes). Pages
    /// drain in the background at the [`Deadline::CkptDrain`] firing.
    pub(crate) fn begin_local_checkpoint_cow(&mut self, node: usize, op: u64) {
        let pods = self.job_pods_on_node(op, node);
        let mut armed: Vec<(String, ArmedPodCheckpoint)> = Vec::new();
        let mut arm_bytes: u64 = 0;
        let mut page_bytes: u64 = 0;
        for p in &pods {
            let Some(pod_id) = p.pod_id else { continue };
            let slot = &mut self.nodes[node];
            match slot
                .zap
                .checkpoint_pod_arm(&mut slot.kernel, pod_id, self.now)
            {
                Ok(a) => {
                    arm_bytes += a.arm_bytes();
                    page_bytes += a.pending_page_bytes();
                    armed.push((p.name.clone(), a));
                }
                Err(e) => {
                    for (_, a) in armed {
                        a.cancel();
                    }
                    self.fail_op(op, CruzError::Zap(e));
                    return;
                }
            }
        }
        let t_arm = self.now + self.params.extract_time(arm_bytes);
        // Arming pins the page set, so the drain length is known now even
        // though page *contents* are only materialized at the drain event —
        // after resumed guests have raced it with writes.
        let t_drain = t_arm + self.params.extract_time(page_bytes);
        if let Some(o) = self.ops.get_mut(&op) {
            o.pending_arm.insert(node, (t_arm, armed));
            o.local_ops.insert(node, (self.now, t_arm));
        }
        self.arm(t_arm.into(), Deadline::AgentLocalDone { node, op });
        self.arm(t_drain.into(), Deadline::CkptDrain { node, op });
    }

    /// COW capture, drain phase: materialize each armed snapshot (the
    /// frozen-instant memory, reconstructed from preserved pre-images where
    /// resumed guests overwrote pages), encode/chunk it, and hand it to the
    /// disk. The write-out is submitted retroactively at arm time so it
    /// overlaps the background encode exactly as the eager path overlaps
    /// capture; the batch can never complete before its last ready time,
    /// which is at or after this event.
    pub(crate) fn on_ckpt_drain(&mut self, node: usize, op: u64) {
        if !self.nodes[node].alive {
            return;
        }
        let (job, t_arm, armed, aborted) = {
            let Some(o) = self.ops.get_mut(&op) else {
                return;
            };
            let Some((t_arm, armed)) = o.pending_arm.remove(&node) else {
                return;
            };
            (o.job.clone(), t_arm, armed, o.aborted)
        };
        if aborted {
            // A failed drain (or any abort while draining) discards the
            // epoch exactly like a stop-the-world abort: drop the snapshots
            // without materializing anything. Arming re-baselined dirty
            // tracking without a completed prepare, so the job's remembered
            // page digests are stale.
            self.digest_caches.remove(&job);
            for (_, a) in armed {
                a.cancel();
            }
            return;
        }
        // Fault plan: die mid-drain — pods already resumed, pages still
        // flowing to the store. The armed snapshots die with the node.
        if self.maybe_crash(node, ProtocolPoint::CowDrain) {
            self.digest_caches.remove(&job);
            for (_, a) in armed {
                a.cancel();
            }
            return;
        }
        let dedup = self.params.store.dedup;
        let store = self.store(&job);
        let mut cache = self.digest_caches.remove(&job).unwrap_or_default();
        let mut images: Vec<(String, PreparedPut)> = Vec::new();
        let mut batch: Vec<(SimTime, u64)> = Vec::new();
        let mut total: u64 = 0;
        let mut copied: u64 = 0;
        for (pod_name, a) in armed {
            let (img, pre_copied, dirty) = a.drain_with_dirty();
            copied += pre_copied;
            if dedup {
                let (sealed, cuts) = img.seal_with_page_cuts();
                let hints = cruz::pagecache::page_hints(&img, &cuts, &dirty);
                // Hash/encode fans out across the store's worker pool
                // (`params.store.threads`); clean pages skip it via the
                // digest cache. Byte-identical at every width.
                let prepared = store.prepare_sealed_hinted(
                    &sealed,
                    &hints,
                    &self.params.store,
                    &pod_name,
                    &mut cache,
                );
                let pod_base = total;
                for (raw_end, stored) in prepared.novel_writes() {
                    let ready = t_arm + self.params.extract_time(pod_base + raw_end);
                    batch.push((ready, stored));
                }
                total += sealed.bytes().len() as u64;
                batch.push((
                    t_arm + self.params.extract_time(total),
                    prepared.manifest_len(),
                ));
                images.push((pod_name, PreparedPut::Chunked(prepared)));
            } else {
                let sealed = img.seal();
                total += sealed.bytes().len() as u64;
                images.push((pod_name, PreparedPut::Sealed(sealed)));
            }
        }
        self.digest_caches.insert(job, cache);
        let durable_at = if dedup {
            self.nodes[node]
                .kernel
                .disk
                .submit_write_batch(t_arm, &batch)
        } else {
            self.nodes[node]
                .kernel
                .disk
                .submit_write(t_arm + self.params.extract_time(total), total)
        };
        if let Some(fault) = self.nodes[node].kernel.disk.take_write_fault() {
            self.apply_ckpt_disk_fault(op, fault, images);
            return;
        }
        if let Some(o) = self.ops.get_mut(&op) {
            o.pending_ckpt.insert(node, images);
            *o.cow_copied.entry(node).or_insert(0) += copied;
        }
        self.arm(durable_at.into(), Deadline::AgentDurable { node, op });
    }
}
