//! Event scopes: filtered subscriptions over runtime events (§4.1).
//!
//! The ORCA service's event scope is a **disjunction of subscopes**; an
//! event is delivered when it matches at least one registered subscope, and
//! is delivered exactly once with the keys of *all* matching subscopes.
//! Within one subscope, filter conditions on the *same* attribute are
//! disjunctive (`application A or application B`) while conditions on
//! *different* attributes are conjunctive (`application A and composite
//! type composite1`). Composite-type filters use the recursive containment
//! relation over the graph store — the paper's Figure 5 API, whose SQL
//! equivalent needs a recursive CTE (see [`crate::sqlbase`]).

use sps_model::GraphStore;

/// Empty-means-unconstrained disjunctive filter.
fn passes(filter: &[String], value: &str) -> bool {
    filter.is_empty() || filter.iter().any(|f| f == value)
}

macro_rules! filter_method {
    ($(#[$doc:meta])* $method:ident, $field:ident) => {
        $(#[$doc])*
        pub fn $method(mut self, value: &str) -> Self {
            self.$field.push(value.to_string());
            self
        }
    };
}

/// Subscope over operator-level metrics (paper Figure 5's
/// `OperatorMetricScope`).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OperatorMetricScope {
    pub key: String,
    pub metrics: Vec<String>,
    pub operator_types: Vec<String>,
    pub operator_instances: Vec<String>,
    pub composite_types: Vec<String>,
    pub composite_instances: Vec<String>,
    pub applications: Vec<String>,
}

impl OperatorMetricScope {
    pub fn new(key: &str) -> Self {
        OperatorMetricScope {
            key: key.to_string(),
            ..Default::default()
        }
    }

    filter_method!(
        /// Only metrics with this name (`addOperatorMetric`).
        add_metric,
        metrics
    );
    filter_method!(
        /// Only operators of this kind (`addOperatorTypeFilter`).
        add_operator_type,
        operator_types
    );
    filter_method!(
        /// Only this operator instance.
        add_operator_instance,
        operator_instances
    );
    filter_method!(
        /// Only operators residing (recursively) in a composite of this type
        /// (`addCompositeTypeFilter`).
        add_composite_type,
        composite_types
    );
    filter_method!(
        /// Only operators residing (recursively) in this composite instance.
        add_composite_instance,
        composite_instances
    );
    filter_method!(
        /// Only events from this application (`addApplicationFilter`).
        add_application,
        applications
    );

    /// Does an operator-metric observation match this subscope?
    pub fn matches(&self, app_name: &str, graph: &GraphStore, op_name: &str, metric: &str) -> bool {
        if !passes(&self.applications, app_name) || !passes(&self.metrics, metric) {
            return false;
        }
        let Some(op) = graph.operator(op_name) else {
            return false;
        };
        if !passes(&self.operator_types, &op.kind) || !passes(&self.operator_instances, op_name) {
            return false;
        }
        if !self.composite_types.is_empty()
            && !self
                .composite_types
                .iter()
                .any(|t| graph.op_in_composite_type(op_name, t))
        {
            return false;
        }
        if !self.composite_instances.is_empty()
            && !self
                .composite_instances
                .iter()
                .any(|c| graph.op_in_composite_instance(op_name, c))
        {
            return false;
        }
        true
    }
}

/// Subscope over operator-port metrics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OperatorPortMetricScope {
    pub key: String,
    pub metrics: Vec<String>,
    pub operator_instances: Vec<String>,
    pub ports: Vec<usize>,
    pub applications: Vec<String>,
}

impl OperatorPortMetricScope {
    pub fn new(key: &str) -> Self {
        OperatorPortMetricScope {
            key: key.to_string(),
            ..Default::default()
        }
    }

    filter_method!(add_metric, metrics);
    filter_method!(add_operator_instance, operator_instances);
    filter_method!(add_application, applications);

    pub fn add_port(mut self, port: usize) -> Self {
        self.ports.push(port);
        self
    }

    pub fn matches(&self, app_name: &str, op_name: &str, port: usize, metric: &str) -> bool {
        passes(&self.applications, app_name)
            && passes(&self.metrics, metric)
            && passes(&self.operator_instances, op_name)
            && (self.ports.is_empty() || self.ports.contains(&port))
    }
}

/// Subscope over PE-level metrics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PeMetricScope {
    pub key: String,
    pub metrics: Vec<String>,
    pub applications: Vec<String>,
}

impl PeMetricScope {
    pub fn new(key: &str) -> Self {
        PeMetricScope {
            key: key.to_string(),
            ..Default::default()
        }
    }

    filter_method!(add_metric, metrics);
    filter_method!(add_application, applications);

    pub fn matches(&self, app_name: &str, metric: &str) -> bool {
        passes(&self.applications, app_name) && passes(&self.metrics, metric)
    }
}

/// Subscope over PE failures (paper Figure 5's `PEFailureScope`).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PeFailureScope {
    pub key: String,
    pub applications: Vec<String>,
    /// Crash-reason classes (`operatorFault`, `killed`, `hostFailure`).
    pub reasons: Vec<String>,
}

impl PeFailureScope {
    pub fn new(key: &str) -> Self {
        PeFailureScope {
            key: key.to_string(),
            ..Default::default()
        }
    }

    filter_method!(
        /// Only failures of PEs belonging to this application
        /// (`addApplicationFilter`).
        add_application,
        applications
    );
    filter_method!(
        /// Only this crash-reason class.
        add_reason,
        reasons
    );

    pub fn matches(&self, app_name: &str, reason_class: &str) -> bool {
        passes(&self.applications, app_name) && passes(&self.reasons, reason_class)
    }
}

/// Subscope over ORCA-service job submission/cancellation events (§4.4).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct JobEventScope {
    pub key: String,
    pub applications: Vec<String>,
    pub config_ids: Vec<String>,
}

impl JobEventScope {
    pub fn new(key: &str) -> Self {
        JobEventScope {
            key: key.to_string(),
            ..Default::default()
        }
    }

    filter_method!(add_application, applications);
    filter_method!(add_config, config_ids);

    pub fn matches(&self, app_name: &str, config_id: Option<&str>) -> bool {
        passes(&self.applications, app_name)
            && (self.config_ids.is_empty()
                || config_id.is_some_and(|c| self.config_ids.iter().any(|f| f == c)))
    }
}

/// Subscope over user-generated events (§4.1 command tool).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct UserEventScope {
    pub key: String,
    pub names: Vec<String>,
}

impl UserEventScope {
    pub fn new(key: &str) -> Self {
        UserEventScope {
            key: key.to_string(),
            ..Default::default()
        }
    }

    filter_method!(add_name, names);

    pub fn matches(&self, name: &str) -> bool {
        passes(&self.names, name)
    }
}

/// Any registrable subscope.
#[derive(Clone, Debug, PartialEq)]
pub enum EventScope {
    OperatorMetric(OperatorMetricScope),
    OperatorPortMetric(OperatorPortMetricScope),
    PeMetric(PeMetricScope),
    PeFailure(PeFailureScope),
    JobEvent(JobEventScope),
    UserEvent(UserEventScope),
}

impl EventScope {
    pub fn key(&self) -> &str {
        match self {
            EventScope::OperatorMetric(s) => &s.key,
            EventScope::OperatorPortMetric(s) => &s.key,
            EventScope::PeMetric(s) => &s.key,
            EventScope::PeFailure(s) => &s.key,
            EventScope::JobEvent(s) => &s.key,
            EventScope::UserEvent(s) => &s.key,
        }
    }
}

/// What is being held against the registered subscopes: a borrowed
/// description of one observation, one variant per [`EventScope`] kind, its
/// fields in the order that kind's `matches` takes them.
#[derive(Clone, Copy)]
pub(crate) enum Subject<'a> {
    /// `(application, its graph, operator instance, metric)`.
    OperatorMetric(&'a str, &'a GraphStore, &'a str, &'a str),
    /// `(application, operator instance, port, metric)`.
    OperatorPortMetric(&'a str, &'a str, usize, &'a str),
    /// `(application, metric)`.
    PeMetric(&'a str, &'a str),
    /// `(application, crash-reason class)`.
    PeFailure(&'a str, &'a str),
    /// `(application, configuration id)`.
    JobEvent(&'a str, Option<&'a str>),
    /// `(event name)`.
    UserEvent(&'a str),
}

/// The ORCA service's event scope: its registered subscopes, in
/// registration order.
#[derive(Default)]
pub(crate) struct ScopeSet(Vec<EventScope>);

impl ScopeSet {
    pub(crate) fn register(&mut self, scope: EventScope) {
        self.0.push(scope);
    }

    /// Keys of every registered subscope the subject matches, in
    /// registration order; empty means the event is out of scope. This is
    /// the one place scopes are matched. It is a linear scan whose static
    /// side (the filters) is fixed per operator instance, which is what a
    /// compiled lookup table would replace. Nothing is allocated until a
    /// subscope matches.
    pub(crate) fn matching(&self, subject: Subject<'_>) -> Vec<String> {
        use {EventScope as E, Subject as S};
        let matches = |scope: &&EventScope| match (*scope, subject) {
            (E::OperatorMetric(s), S::OperatorMetric(app, graph, op, metric)) => {
                s.matches(app, graph, op, metric)
            }
            (E::OperatorPortMetric(s), S::OperatorPortMetric(app, op, port, metric)) => {
                s.matches(app, op, port, metric)
            }
            (E::PeMetric(s), S::PeMetric(app, metric)) => s.matches(app, metric),
            (E::PeFailure(s), S::PeFailure(app, reason_class)) => s.matches(app, reason_class),
            (E::JobEvent(s), S::JobEvent(app, config_id)) => s.matches(app, config_id),
            (E::UserEvent(s), S::UserEvent(name)) => s.matches(name),
            _ => false,
        };
        self.0
            .iter()
            .filter(matches)
            .map(|s| s.key().to_string())
            .collect()
    }
}

impl From<OperatorMetricScope> for EventScope {
    fn from(s: OperatorMetricScope) -> Self {
        EventScope::OperatorMetric(s)
    }
}
impl From<OperatorPortMetricScope> for EventScope {
    fn from(s: OperatorPortMetricScope) -> Self {
        EventScope::OperatorPortMetric(s)
    }
}
impl From<PeMetricScope> for EventScope {
    fn from(s: PeMetricScope) -> Self {
        EventScope::PeMetric(s)
    }
}
impl From<PeFailureScope> for EventScope {
    fn from(s: PeFailureScope) -> Self {
        EventScope::PeFailure(s)
    }
}
impl From<JobEventScope> for EventScope {
    fn from(s: JobEventScope) -> Self {
        EventScope::JobEvent(s)
    }
}
impl From<UserEventScope> for EventScope {
    fn from(s: UserEventScope) -> Self {
        EventScope::UserEvent(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sps_model::adl::{Adl, AdlOperator, AdlPe};
    use sps_model::value::ParamMap;

    /// Graph mirroring the paper's Figure 2: Split/Merge operators inside
    /// two instances of composite1, plus top-level sources/sinks.
    fn figure2_graph() -> GraphStore {
        let mk = |name: &str, kind: &str, comp: Option<&str>| AdlOperator {
            name: name.into(),
            kind: kind.into(),
            composite_path: comp
                .map(|c| vec![(c.to_string(), "composite1".to_string())])
                .unwrap_or_default(),
            params: ParamMap::new(),
            inputs: 1,
            outputs: 1,
            custom_metrics: vec![],
            pe: 0,
            restartable: true,
            checkpointable: true,
        };
        let operators = vec![
            mk("op1", "Beacon", None),
            mk("c1.op3", "Split", Some("c1")),
            mk("c1.op6", "Merge", Some("c1")),
            mk("c2.op3", "Split", Some("c2")),
            mk("c2.op4", "Work", Some("c2")),
            mk("op7", "Sink", None),
        ];
        let adl = Adl {
            app_name: "Figure2".into(),
            pes: vec![AdlPe {
                index: 0,
                operators: operators.iter().map(|o| o.name.clone()).collect(),
                host_pool: None,
                host_exlocate: None,
            }],
            operators,
            streams: vec![],
            imports: vec![],
            exports: vec![],
            host_pools: vec![],
        };
        GraphStore::from_adl(&adl)
    }

    /// The paper's Figure 5 scope: queueSize metrics from Split/Merge
    /// operators inside composite1 instances.
    fn figure5_scope() -> OperatorMetricScope {
        OperatorMetricScope::new("opMetricScope")
            .add_composite_type("composite1")
            .add_operator_type("Split")
            .add_operator_type("Merge")
            .add_metric("queueSize")
    }

    #[test]
    fn figure5_scope_matches_exactly_the_paper_set() {
        let g = figure2_graph();
        let s = figure5_scope();
        // Matches: Split/Merge inside composite1 instances, metric queueSize.
        assert!(s.matches("Figure2", &g, "c1.op3", "queueSize"));
        assert!(s.matches("Figure2", &g, "c1.op6", "queueSize"));
        assert!(s.matches("Figure2", &g, "c2.op3", "queueSize"));
        // Non-matches: wrong operator type, outside composite, wrong metric.
        assert!(!s.matches("Figure2", &g, "c2.op4", "queueSize")); // Work
        assert!(!s.matches("Figure2", &g, "op1", "queueSize")); // top level Beacon
        assert!(!s.matches("Figure2", &g, "c1.op3", "nTuplesProcessed"));
        assert!(!s.matches("Figure2", &g, "ghost", "queueSize"));
    }

    #[test]
    fn same_attribute_filters_are_disjunctive() {
        let g = figure2_graph();
        let s = OperatorMetricScope::new("k")
            .add_operator_instance("op1")
            .add_operator_instance("op7");
        assert!(s.matches("Figure2", &g, "op1", "anything"));
        assert!(s.matches("Figure2", &g, "op7", "anything"));
        assert!(!s.matches("Figure2", &g, "c1.op3", "anything"));
    }

    #[test]
    fn different_attribute_filters_are_conjunctive() {
        let g = figure2_graph();
        let s = OperatorMetricScope::new("k")
            .add_application("Figure2")
            .add_operator_type("Split")
            .add_composite_instance("c1");
        assert!(s.matches("Figure2", &g, "c1.op3", "m"));
        assert!(!s.matches("Figure2", &g, "c2.op3", "m")); // wrong instance
        assert!(!s.matches("OtherApp", &g, "c1.op3", "m")); // wrong app
        assert!(!s.matches("Figure2", &g, "c1.op6", "m")); // wrong type
    }

    #[test]
    fn empty_scope_matches_everything_known() {
        let g = figure2_graph();
        let s = OperatorMetricScope::new("k");
        assert!(s.matches("AnyApp", &g, "op1", "anyMetric"));
        // ... but still requires the operator to exist in the graph.
        assert!(!s.matches("AnyApp", &g, "ghost", "m"));
    }

    #[test]
    fn pe_failure_scope_filters() {
        let s = PeFailureScope::new("failureScope").add_application("Figure2");
        assert!(s.matches("Figure2", "killed"));
        assert!(s.matches("Figure2", "hostFailure"));
        assert!(!s.matches("Other", "killed"));
        let s = PeFailureScope::new("k").add_reason("hostFailure");
        assert!(s.matches("Any", "hostFailure"));
        assert!(!s.matches("Any", "killed"));
    }

    #[test]
    fn pe_metric_scope_filters() {
        let s = PeMetricScope::new("k")
            .add_metric("nTupleBytesProcessed")
            .add_application("A");
        assert!(s.matches("A", "nTupleBytesProcessed"));
        assert!(!s.matches("A", "other"));
        assert!(!s.matches("B", "nTupleBytesProcessed"));
    }

    #[test]
    fn port_metric_scope_filters() {
        let s = OperatorPortMetricScope::new("k")
            .add_operator_instance("op")
            .add_port(1)
            .add_metric("queueSize");
        assert!(s.matches("A", "op", 1, "queueSize"));
        assert!(!s.matches("A", "op", 0, "queueSize"));
        assert!(!s.matches("A", "other", 1, "queueSize"));
        // No port filter = all ports.
        let s = OperatorPortMetricScope::new("k");
        assert!(s.matches("A", "x", 7, "m"));
    }

    #[test]
    fn job_event_scope_filters() {
        let s = JobEventScope::new("k").add_application("TrendCalc");
        assert!(s.matches("TrendCalc", None));
        assert!(!s.matches("Other", None));
        let s = JobEventScope::new("k").add_config("replica0");
        assert!(s.matches("Any", Some("replica0")));
        assert!(!s.matches("Any", Some("replica1")));
        assert!(!s.matches("Any", None));
    }

    #[test]
    fn user_event_scope_filters() {
        let s = UserEventScope::new("k").add_name("reload");
        assert!(s.matches("reload"));
        assert!(!s.matches("other"));
        assert!(UserEventScope::new("k").matches("anything"));
    }

    #[test]
    fn scope_enum_key_and_from() {
        let scopes: Vec<EventScope> = vec![
            OperatorMetricScope::new("a").into(),
            OperatorPortMetricScope::new("b").into(),
            PeMetricScope::new("c").into(),
            PeFailureScope::new("d").into(),
            JobEventScope::new("e").into(),
            UserEventScope::new("f").into(),
        ];
        let keys: Vec<&str> = scopes.iter().map(|s| s.key()).collect();
        assert_eq!(keys, vec!["a", "b", "c", "d", "e", "f"]);
    }

    #[test]
    fn scope_set_matches_every_kind_in_registration_order() {
        let g = figure2_graph();
        // A filtering subscope of each kind, then an unconstrained one of
        // each kind in the opposite order: every subject below overlaps two
        // registrations that are not adjacent.
        let op = OperatorMetricScope::new("op-split").add_operator_type("Split");
        let port = OperatorPortMetricScope::new("port-1").add_port(1);
        let pe = PeMetricScope::new("pe-cpu").add_metric("cpu");
        let fail = PeFailureScope::new("fail-host").add_reason("hostFailure");
        let job = JobEventScope::new("job-r0").add_config("replica0");
        let user = UserEventScope::new("user-go").add_name("go");
        let mut set = ScopeSet::default();
        set.register(op.clone().into());
        set.register(port.clone().into());
        set.register(pe.clone().into());
        set.register(fail.clone().into());
        set.register(job.clone().into());
        set.register(user.clone().into());
        set.register(UserEventScope::new("user-any").into());
        set.register(JobEventScope::new("job-any").into());
        set.register(PeFailureScope::new("fail-any").into());
        set.register(PeMetricScope::new("pe-any").into());
        set.register(OperatorPortMetricScope::new("port-any").into());
        set.register(OperatorMetricScope::new("op-any").into());

        // (subject, the filtering subscope's own verdict, the two keys)
        let rows = [
            (
                Subject::OperatorMetric("A", &g, "c1.op3", "m"),
                op.matches("A", &g, "c1.op3", "m"),
                ["op-split", "op-any"],
            ),
            (
                Subject::OperatorMetric("A", &g, "op1", "m"),
                op.matches("A", &g, "op1", "m"),
                ["op-split", "op-any"],
            ),
            (
                Subject::OperatorPortMetric("A", "x", 1, "m"),
                port.matches("A", "x", 1, "m"),
                ["port-1", "port-any"],
            ),
            (
                Subject::OperatorPortMetric("A", "x", 0, "m"),
                port.matches("A", "x", 0, "m"),
                ["port-1", "port-any"],
            ),
            (
                Subject::PeMetric("A", "cpu"),
                pe.matches("A", "cpu"),
                ["pe-cpu", "pe-any"],
            ),
            (
                Subject::PeMetric("A", "mem"),
                pe.matches("A", "mem"),
                ["pe-cpu", "pe-any"],
            ),
            (
                Subject::PeFailure("A", "hostFailure"),
                fail.matches("A", "hostFailure"),
                ["fail-host", "fail-any"],
            ),
            (
                Subject::PeFailure("A", "killed"),
                fail.matches("A", "killed"),
                ["fail-host", "fail-any"],
            ),
            (
                Subject::JobEvent("A", Some("replica0")),
                job.matches("A", Some("replica0")),
                ["job-r0", "job-any"],
            ),
            (
                Subject::JobEvent("A", None),
                job.matches("A", None),
                ["job-r0", "job-any"],
            ),
            (
                Subject::UserEvent("go"),
                user.matches("go"),
                ["user-go", "user-any"],
            ),
            (
                Subject::UserEvent("stop"),
                user.matches("stop"),
                ["user-go", "user-any"],
            ),
        ];
        for (i, (subject, filtered_in, keys)) in rows.into_iter().enumerate() {
            // Rows alternate: the filtering subscope accepts, then rejects.
            assert_eq!(filtered_in, i % 2 == 0, "row {i}");
            let expected = if filtered_in { &keys[..] } else { &keys[1..] };
            assert_eq!(set.matching(subject), expected, "row {i}");
        }
        // An operator the graph lacks is in no operator-metric subscope, not
        // even the unconstrained one.
        let ghost = Subject::OperatorMetric("A", &g, "ghost", "m");
        assert!(set.matching(ghost).is_empty());
    }
}
