//! Job specifications, placement, and the world's job-management surface
//! (the LSF-integration analogue).

use simnet::addr::IpAddr;
use simos::proc::ProcState;
use simos::program::Program;
use zap::image::{MacMode, PodImage};
use zap::pod::{PodId, Vpid};
use zap::PodConfig;

use cruz::error::CruzError;

use crate::events::Event;
use crate::state::{ClusterError, World};

/// One pod of a job: where it runs and what it executes.
#[derive(Debug, Clone)]
pub struct PodSpec {
    /// Pod name (unique within the job; keys checkpoint images).
    pub name: String,
    /// The pod's externally routable IP.
    pub ip: IpAddr,
    /// VIF MAC configuration.
    pub mac_mode: MacMode,
    /// Node index the pod initially runs on.
    pub node: usize,
    /// Guest programs to spawn inside the pod.
    pub programs: Vec<Program>,
}

/// A distributed job: a set of pods plus the node hosting the coordinator.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Job name.
    pub name: String,
    /// The pods.
    pub pods: Vec<PodSpec>,
    /// Node the checkpoint coordinator runs on (as in the paper, distinct
    /// from the application nodes).
    pub coordinator_node: usize,
}

/// Live placement of one pod.
#[derive(Debug, Clone)]
pub struct PodPlacement {
    /// Pod name.
    pub name: String,
    /// The pod's IP (stable across migration).
    pub ip: IpAddr,
    /// MAC configuration.
    pub mac_mode: MacMode,
    /// Node currently hosting the pod.
    pub node: usize,
    /// The pod's id on that node (`None` while not instantiated, e.g.
    /// between crash and restart).
    pub pod_id: Option<PodId>,
}

/// Runtime state of a launched job.
#[derive(Debug, Clone)]
pub struct JobRuntime {
    /// The job name.
    pub name: String,
    /// Current placements.
    pub placements: Vec<PodPlacement>,
    /// Coordinator node.
    pub coordinator_node: usize,
}

impl JobRuntime {
    /// Placements hosted on `node`.
    pub fn pods_on_node(&self, node: usize) -> Vec<&PodPlacement> {
        self.placements.iter().filter(|p| p.node == node).collect()
    }

    /// The distinct nodes hosting at least one pod.
    pub fn app_nodes(&self) -> Vec<usize> {
        let mut nodes: Vec<usize> = self.placements.iter().map(|p| p.node).collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    /// Looks up a placement by pod name.
    pub fn placement(&self, name: &str) -> Option<&PodPlacement> {
        self.placements.iter().find(|p| p.name == name)
    }

    /// Mutable lookup by pod name.
    pub fn placement_mut(&mut self, name: &str) -> Option<&mut PodPlacement> {
        self.placements.iter_mut().find(|p| p.name == name)
    }
}

impl World {
    // ---- job management --------------------------------------------------

    /// Launches a job: creates its pods and spawns their programs.
    ///
    /// # Errors
    ///
    /// [`ClusterError::JobExists`], [`ClusterError::BadNode`] or Zap errors.
    pub fn launch_job(&mut self, spec: &JobSpec) -> Result<(), ClusterError> {
        if self.jobs.contains_key(&spec.name) {
            return Err(ClusterError::JobExists);
        }
        if spec.coordinator_node >= self.nodes.len() {
            return Err(ClusterError::BadNode(spec.coordinator_node));
        }
        let mut placements = Vec::new();
        for pod in &spec.pods {
            if pod.node >= self.nodes.len() {
                return Err(ClusterError::BadNode(pod.node));
            }
            let slot = &mut self.nodes[pod.node];
            let pod_id = slot.zap.create_pod(
                &mut slot.kernel,
                PodConfig {
                    name: format!("{}:{}", spec.name, pod.name),
                    ip: pod.ip,
                    mac_mode: pod.mac_mode,
                },
            )?;
            for prog in &pod.programs {
                slot.zap.spawn_in_pod(&mut slot.kernel, pod_id, prog)?;
            }
            placements.push(PodPlacement {
                name: pod.name.clone(),
                ip: pod.ip,
                mac_mode: pod.mac_mode,
                node: pod.node,
                pod_id: Some(pod_id),
            });
        }
        self.jobs.insert(
            spec.name.clone(),
            JobRuntime {
                name: spec.name.clone(),
                placements,
                coordinator_node: spec.coordinator_node,
            },
        );
        for pod in &spec.pods {
            self.postprocess(pod.node);
        }
        if self.params.recovery.enabled {
            self.enable_recovery(&spec.name)?;
        }
        Ok(())
    }

    /// True once every process of every pod of the job has exited.
    pub fn job_finished(&self, job: &str) -> bool {
        let Some(jr) = self.jobs.get(job) else {
            return false;
        };
        jr.placements.iter().all(|p| match p.pod_id {
            Some(pid) => self.nodes[p.node]
                .zap
                .pod_finished(&self.nodes[p.node].kernel, pid),
            None => false,
        })
    }

    /// The exit code of a pod process, if it has exited.
    pub fn pod_exit_code(&self, job: &str, pod: &str, vpid: Vpid) -> Option<u64> {
        let jr = self.jobs.get(job)?;
        let p = jr.placement(pod)?;
        let node = &self.nodes[p.node];
        let real = node.zap.real_pid(p.pod_id?, vpid)?;
        match node.kernel.process(real)?.state {
            ProcState::Zombie(code) => Some(code),
            _ => None,
        }
    }

    /// Reads guest memory of a pod process (host-side observation; used by
    /// benchmarks to sample progress counters).
    pub fn peek_guest(
        &self,
        job: &str,
        pod: &str,
        vpid: Vpid,
        addr: u64,
        len: usize,
    ) -> Option<Vec<u8>> {
        let jr = self.jobs.get(job)?;
        let p = jr.placement(pod)?;
        let node = &self.nodes[p.node];
        let real = node.zap.real_pid(p.pod_id?, vpid)?;
        node.kernel.read_guest(real, addr, len).ok()
    }

    // ---- live migration (single pod, peers untouched) ----------------------

    /// Migrates one pod to `dst` while the rest of the job keeps running —
    /// the §4.2 scenario (remote endpoints need not be under Zap control).
    /// The pod is frozen, checkpointed, torn down at the source, and
    /// restored+resumed at the destination after the modelled transfer
    /// time.
    ///
    /// # Errors
    ///
    /// [`ClusterError::NoSuchJob`]/[`ClusterError::BadNode`]; Zap errors.
    pub fn migrate_pod(&mut self, job: &str, pod: &str, dst: usize) -> Result<(), ClusterError> {
        if dst >= self.nodes.len() {
            return Err(ClusterError::BadNode(dst));
        }
        if self.job_busy(job) {
            return Err(ClusterError::JobBusy);
        }
        let (src, pod_id, ip) = {
            let jr = self.jobs.get(job).ok_or(ClusterError::NoSuchJob)?;
            let p = jr.placement(pod).ok_or(ClusterError::NoSuchJob)?;
            (p.node, p.pod_id.ok_or(ClusterError::NoSuchJob)?, p.ip)
        };
        // Freeze & extract at the source now; drop traffic meanwhile.
        {
            let slot = &mut self.nodes[src];
            slot.kernel.net.filter_mut().add_drop_rule(ip);
        }
        let image = {
            let slot = &mut self.nodes[src];
            let img = slot
                .zap
                .checkpoint_pod(&mut slot.kernel, pod_id, self.now)?;
            slot.zap.destroy_pod(&mut slot.kernel, pod_id)?;
            slot.kernel.net.filter_mut().remove_drop_rule(ip);
            img
        };
        let bytes = image.encoded_len() as u64;
        // Source disk write, then destination disk read (via the shared fs).
        let t_extract = self.params.extract_time(bytes);
        let w = self.nodes[src]
            .kernel
            .disk
            .submit_write(self.now + t_extract, bytes);
        if self.nodes[src].kernel.disk.take_write_fault().is_some() {
            // The spool write failed or tore: the transfer never reaches the
            // destination and the pod (already torn down at the source) is
            // lost. The job manager sees a migration failure; with recovery
            // enabled the heartbeat plane restarts the job from its last
            // committed epoch.
            if let Some(jr) = self.jobs.get_mut(job) {
                if let Some(p) = jr.placement_mut(pod) {
                    p.pod_id = None;
                }
            }
            self.migration_failures.push((
                job.to_string(),
                pod.to_string(),
                CruzError::Protocol("injected disk fault tore the migration spool"),
            ));
            self.postprocess(src);
            return Ok(());
        }
        let r = self.nodes[dst].kernel.disk.submit_read(w, bytes);
        self.arm(
            r,
            Event::MigrateFinish {
                job: job.to_owned(),
                pod: pod.to_owned(),
                dst,
                image: Box::new(image),
            },
        );
        *self.migrations.entry(job.to_owned()).or_insert(0) += 1;
        self.postprocess(src);
        Ok(())
    }

    pub(crate) fn on_migrate_finish(&mut self, job: &str, pod: &str, dst: usize, image: &PodImage) {
        if let Some(m) = self.migrations.get_mut(job) {
            *m = m.saturating_sub(1);
        }
        if !self.nodes[dst].alive {
            return;
        }
        let slot = &mut self.nodes[dst];
        let pod_id = match slot.zap.restart_pod(&mut slot.kernel, image, self.now) {
            Ok(id) => id,
            Err(e) => {
                // The destination refused the restore; the pod stays where
                // it was and the failure is reported, not panicked.
                self.migration_failures
                    .push((job.to_string(), pod.to_string(), CruzError::Zap(e)));
                return;
            }
        };
        let resumed = slot.zap.resume_pod(&mut slot.kernel, pod_id, self.now);
        if let Err(e) = resumed {
            // The pod restored but will not run; report it alongside the
            // refused-restore failures so the migration's caller can see.
            self.migration_failures
                .push((job.to_string(), pod.to_string(), CruzError::Zap(e)));
        }
        if let Some(jr) = self.jobs.get_mut(job) {
            if let Some(p) = jr.placement_mut(pod) {
                p.node = dst;
                p.pod_id = Some(pod_id);
            }
        }
        self.postprocess(dst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::addr::MacAddr;

    fn runtime() -> JobRuntime {
        JobRuntime {
            name: "j".into(),
            coordinator_node: 9,
            placements: vec![
                PodPlacement {
                    name: "a".into(),
                    ip: IpAddr::from_octets([10, 0, 1, 1]),
                    mac_mode: MacMode::Dedicated(MacAddr::from_index(1)),
                    node: 0,
                    pod_id: None,
                },
                PodPlacement {
                    name: "b".into(),
                    ip: IpAddr::from_octets([10, 0, 1, 2]),
                    mac_mode: MacMode::Dedicated(MacAddr::from_index(2)),
                    node: 2,
                    pod_id: None,
                },
                PodPlacement {
                    name: "c".into(),
                    ip: IpAddr::from_octets([10, 0, 1, 3]),
                    mac_mode: MacMode::Dedicated(MacAddr::from_index(3)),
                    node: 0,
                    pod_id: None,
                },
            ],
        }
    }

    #[test]
    fn placement_queries() {
        let r = runtime();
        assert_eq!(r.app_nodes(), vec![0, 2]);
        assert_eq!(r.pods_on_node(0).len(), 2);
        assert_eq!(r.pods_on_node(1).len(), 0);
        assert!(r.placement("b").is_some());
        assert!(r.placement("zzz").is_none());
    }
}
