//! Resource naming and discovery (the NWS name service).

use std::collections::BTreeMap;
use std::fmt;

/// What a series measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Metric {
    /// CPU availability by the Eq. 1 load-average method.
    CpuAvailabilityLoad,
    /// CPU availability by the Eq. 2 vmstat method.
    CpuAvailabilityVmstat,
    /// CPU availability by the NWS hybrid method.
    CpuAvailabilityHybrid,
    /// Raw 1-minute load average.
    LoadAverage,
    /// Achieved probe throughput on a network path (bytes/second).
    NetworkBandwidth,
    /// Small-message round-trip latency on a network path (seconds).
    NetworkLatency,
}

impl Metric {
    /// Canonical name fragment, NWS-style (`cpu.avail.<method>`).
    pub fn name(&self) -> &'static str {
        match self {
            Metric::CpuAvailabilityLoad => "cpu.avail.load",
            Metric::CpuAvailabilityVmstat => "cpu.avail.vmstat",
            Metric::CpuAvailabilityHybrid => "cpu.avail.hybrid",
            Metric::LoadAverage => "cpu.load1",
            Metric::NetworkBandwidth => "net.bandwidth",
            Metric::NetworkLatency => "net.latency",
        }
    }

    /// All metrics, in registration order.
    pub fn all() -> [Metric; 6] {
        [
            Metric::CpuAvailabilityLoad,
            Metric::CpuAvailabilityVmstat,
            Metric::CpuAvailabilityHybrid,
            Metric::LoadAverage,
            Metric::NetworkBandwidth,
            Metric::NetworkLatency,
        ]
    }
}

impl fmt::Display for Metric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Opaque handle to a registered resource series.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ResourceId(pub u64);

/// Metadata recorded for a registered resource.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceInfo {
    /// The handle.
    pub id: ResourceId,
    /// Host the series is measured on.
    pub host: String,
    /// What it measures.
    pub metric: Metric,
}

impl ResourceInfo {
    /// The fully qualified NWS-style name, e.g. `thing1/cpu.avail.hybrid`.
    pub fn full_name(&self) -> String {
        format!("{}/{}", self.host, self.metric.name())
    }
}

/// The name service: registers `(host, metric)` pairs and answers lookups.
///
/// Handles are dense and sequential in registration order — the id *is*
/// the index into the resource table, which is what lets the
/// [`Memory`](crate::Memory) address its segments by id directly.
#[derive(Debug, Default)]
pub struct Registry {
    resources: Vec<ResourceInfo>,
    /// Host, then metric: a `&str` lookup borrows, no key is built.
    by_name: BTreeMap<String, BTreeMap<Metric, ResourceId>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a resource, returning its handle. Re-registering the same
    /// `(host, metric)` returns the existing handle (idempotent, like the
    /// NWS name server).
    pub fn register(&mut self, host: impl Into<String>, metric: Metric) -> ResourceId {
        let host = host.into();
        if let Some(id) = self.lookup(&host, metric) {
            return id;
        }
        let id = ResourceId(self.resources.len() as u64);
        self.by_name
            .entry(host.clone())
            .or_default()
            .insert(metric, id);
        self.resources.push(ResourceInfo { id, host, metric });
        id
    }

    /// Looks a resource up by `(host, metric)`.
    pub fn lookup(&self, host: &str, metric: Metric) -> Option<ResourceId> {
        self.by_name.get(host)?.get(&metric).copied()
    }

    /// Metadata for a handle.
    pub fn info(&self, id: ResourceId) -> Option<&ResourceInfo> {
        self.resources.get(id.0 as usize)
    }

    /// All registered resources, ordered by id.
    pub fn resources(&self) -> impl Iterator<Item = &ResourceInfo> {
        self.resources.iter()
    }

    /// Number of registered resources.
    pub fn len(&self) -> usize {
        self.resources.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.resources.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let mut r = Registry::new();
        let id = r.register("thing1", Metric::CpuAvailabilityHybrid);
        assert_eq!(r.lookup("thing1", Metric::CpuAvailabilityHybrid), Some(id));
        assert_eq!(r.lookup("thing1", Metric::LoadAverage), None);
        assert_eq!(r.lookup("thing2", Metric::CpuAvailabilityHybrid), None);
        let info = r.info(id).expect("registered");
        assert_eq!(info.full_name(), "thing1/cpu.avail.hybrid");
    }

    #[test]
    fn unregistered_names_are_none_and_ids_are_dense_in_registration_order() {
        let mut r = Registry::new();
        let ids: Vec<ResourceId> = [
            ("b", Metric::LoadAverage),
            ("a", Metric::NetworkLatency),
            ("b", Metric::CpuAvailabilityLoad),
            ("a", Metric::NetworkLatency), // again: no new id
            ("c", Metric::CpuAvailabilityHybrid),
        ]
        .into_iter()
        .map(|(host, metric)| r.register(host, metric))
        .collect();
        let dense = [0, 1, 2, 1, 3].map(ResourceId);
        assert_eq!(ids, dense, "ids follow registration, not name, order");
        assert_eq!(r.lookup("zardoz", Metric::LoadAverage), None);
        assert_eq!(r.lookup("", Metric::LoadAverage), None);
        assert_eq!(
            r.lookup("a", Metric::LoadAverage),
            None,
            "host yes, metric no"
        );
        assert_eq!(r.lookup("c", Metric::CpuAvailabilityLoad), None);
        let listed: Vec<ResourceId> = r.resources().map(|info| info.id).collect();
        assert_eq!(listed, [0, 1, 2, 3].map(ResourceId));
        assert_eq!(r.info(ResourceId(3)).expect("registered").host, "c");
        assert!(r.info(ResourceId(4)).is_none());
    }

    #[test]
    fn registration_is_idempotent() {
        let mut r = Registry::new();
        let a = r.register("h", Metric::LoadAverage);
        let b = r.register("h", Metric::LoadAverage);
        assert_eq!(a, b);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn per_host_enumeration() {
        let mut r = Registry::new();
        for m in Metric::all() {
            r.register("a", m);
        }
        r.register("b", Metric::LoadAverage);
        assert_eq!(r.len(), Metric::all().len() + 1);
        assert!(!r.is_empty());
    }

    #[test]
    fn metric_names_are_distinct() {
        let mut names: Vec<&str> = Metric::all().iter().map(|m| m.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), Metric::all().len());
    }
}
