//! Helpers shared by the system-level property suites.

use cruz_repro::cluster::World;

/// Property (d): placements and Zap agree. On every live node, a
/// placement's pod id names a pod that node's Zap holds, and every pod a
/// Zap holds is named by exactly one placement. Returns the first
/// disagreement.
pub fn placement_disagreement(w: &World, job: &str) -> Option<String> {
    let placements = &w.job(job)?.placements;
    for n in (0..w.node_count()).filter(|&n| w.node_alive(n)) {
        let held = w.zap(n).pod_ids();
        let here = || placements.iter().filter(move |p| p.node == n);
        for p in here() {
            if p.pod_id.is_some_and(|id| !held.contains(&id)) {
                return Some(format!(
                    "{} names {:?}, gone from node {n}",
                    p.name, p.pod_id
                ));
            }
        }
        for id in held {
            let named = here().filter(|p| p.pod_id == Some(id)).count();
            if named != 1 {
                return Some(format!(
                    "node {n} holds {id:?}, named by {named} placements"
                ));
            }
        }
    }
    None
}
