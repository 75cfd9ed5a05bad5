//! Job specifications, placement, and the world's job-management surface
//! (the LSF-integration analogue).

use simnet::addr::IpAddr;
use simos::proc::ProcState;
use simos::program::Program;
use zap::image::MacMode;
use zap::pod::{PodId, Vpid};
use zap::PodConfig;

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

    /// Evicts a job from its nodes: destroys each of its pods on a live
    /// node and unbinds every placement from its pod, keeping its node for
    /// a later [`World::start_restart`]. The job stays known and resumes
    /// from any committed epoch — the paper's §1 grid scenario, where a
    /// suspended job's nodes go to other work.
    ///
    /// # Errors
    ///
    /// [`ClusterError::NoSuchJob`], [`ClusterError::JobBusy`] while an
    /// operation is in flight, or a Zap error from a pod that refused
    /// teardown: the pods before it are destroyed, and no placement is
    /// unbound.
    pub fn evict_job(&mut self, job: &str) -> Result<(), ClusterError> {
        if self.job_busy(job) {
            return Err(ClusterError::JobBusy);
        }
        let live: Vec<(usize, PodId)> = self
            .jobs
            .get(job)
            .ok_or(ClusterError::NoSuchJob)?
            .placements
            .iter()
            .filter_map(|p| {
                let pod_id = p.pod_id?;
                self.nodes[p.node].alive().then_some((p.node, pod_id))
            })
            .collect();
        for (node, pod_id) in live {
            let slot = &mut self.nodes[node];
            slot.zap.destroy_pod(&mut slot.kernel, pod_id)?;
            self.postprocess(node);
        }
        let jr = self.jobs.get_mut(job).ok_or(ClusterError::NoSuchJob)?;
        for p in jr.placements.iter_mut() {
            p.pod_id = None;
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
