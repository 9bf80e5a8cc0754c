//! Property-based tests over the whole stack: XML round-tripping, ontology
//! subsumption laws, matchmaker symmetries, SOAP envelopes, advertisement
//! serialization, histogram percentiles and Bully-election safety under
//! arbitrary crash patterns.

use proptest::prelude::*;
use std::ops::ControlFlow;
use whisper_election::{BullyConfig, BullyNode, ElectionProtocol};
use whisper_ontology::{MatchDegree, Ontology};
use whisper_p2p::{Advertisement, GroupId, PeerId, QosSpec, SemanticAdv};
use whisper_simnet::{Histogram, SimDuration, SimTime};
use whisper_soap::{Envelope, Fault, FaultCode, HeaderBlock};
use whisper_xml::{parse, scan_start_tags, Element, Node, QName};

// ---------- generators ----------

fn name_strategy() -> impl Strategy<Value = String> {
    "[A-Za-z_][A-Za-z0-9_.-]{0,8}"
}

fn text_strategy() -> impl Strategy<Value = String> {
    // includes XML-hostile characters
    proptest::collection::vec(
        prop_oneof![
            Just('a'),
            Just('<'),
            Just('>'),
            Just('&'),
            Just('"'),
            Just('\''),
            Just(' '),
            Just('\n'),
            Just('é'),
            Just('語'),
        ],
        0..20,
    )
    .prop_map(|cs| cs.into_iter().collect())
}

/// An element named `name`, half the time in a namespace it declares for
/// itself under a prefix (the one spelling of a namespace that parses back
/// to the tree it was built as).
fn named(name: String, ns: Option<(String, String)>, attrs: Vec<(String, String)>) -> Element {
    let mut e = match ns {
        Some((prefix, uri)) => {
            let mut e = Element::with_ns(name, uri.as_str());
            e.prefix = Some(prefix.as_str().into());
            e.declare_ns(&prefix, uri);
            e
        }
        None => Element::new(name),
    };
    for (k, v) in attrs {
        e.set_attr(k, v);
    }
    e
}

fn ns_strategy() -> impl Strategy<Value = Option<(String, String)>> {
    proptest::option::of(("[a-zé]{1,3}", "urn:[a-z&é]{1,6}"))
}

fn leaf_element() -> impl Strategy<Value = Element> {
    (
        name_strategy(),
        ns_strategy(),
        proptest::collection::vec((name_strategy(), text_strategy()), 0..3),
        proptest::option::of(text_strategy()),
    )
        .prop_map(|(name, ns, attrs, text)| {
            let mut e = named(name, ns, attrs);
            if let Some(t) = text {
                if !t.is_empty() {
                    e.push_text(t);
                }
            }
            e
        })
}

/// Content that is not an element or text: kept verbatim by the parser,
/// so it must not contain its own terminator.
fn misc_node() -> impl Strategy<Value = Node> {
    prop_oneof![
        "[a-z<&é -]{0,8}".prop_map(|c| Node::Comment(c.replace("--", "-"))),
        "[a-z<>&é ]{0,6}]{0,2}>?".prop_map(|c| Node::CData(c.replace("]]>", "]]"))),
        (name_strategy(), "[a-z<é][a-z<é ?]{0,6}").prop_map(|(target, data)| {
            Node::ProcessingInstruction {
                target,
                data: data.replace("?>", "?"),
            }
        }),
    ]
}

fn element_strategy() -> impl Strategy<Value = Element> {
    leaf_element().prop_recursive(3, 24, 4, |inner| {
        (
            name_strategy(),
            ns_strategy(),
            proptest::collection::vec((name_strategy(), text_strategy()), 0..3),
            proptest::collection::vec(
                prop_oneof![inner.prop_map(Node::Element), misc_node()],
                0..4,
            ),
        )
            .prop_map(|(name, ns, attrs, children)| {
                let mut e = named(name, ns, attrs);
                e.children = children;
                e
            })
    })
}

/// Any of the three bodies, under header blocks with and without the
/// SOAP processing attributes.
fn envelope_strategy() -> impl Strategy<Value = Envelope> {
    let body = prop_oneof![
        element_strategy().prop_map(Envelope::request),
        (text_strategy(), proptest::option::of(leaf_element())).prop_map(|(reason, detail)| {
            let fault = Fault::new(FaultCode::Receiver, reason);
            Envelope::fault(match detail {
                Some(d) => fault.with_detail(d),
                None => fault,
            })
        }),
        Just(Envelope::empty()),
    ];
    let header = (
        leaf_element(),
        any::<bool>(),
        proptest::option::of(text_strategy()),
    )
        .prop_map(|(content, required, role)| {
            let block = HeaderBlock::new(content);
            let block = if required { block.required() } else { block };
            match role {
                Some(role) => block.for_role(role),
                None => block,
            }
        });
    (body, proptest::collection::vec(header, 0..3))
        .prop_map(|(env, headers)| headers.into_iter().fold(env, Envelope::with_header))
}

/// A random DAG ontology: class `i` gets parents drawn from `0..i`.
fn ontology_strategy() -> impl Strategy<Value = Ontology> {
    proptest::collection::vec(
        proptest::collection::vec(any::<prop::sample::Index>(), 0..3),
        1..24,
    )
    .prop_map(|parent_picks| {
        let mut o = Ontology::new("urn:prop");
        for (i, picks) in parent_picks.iter().enumerate() {
            let existing: Vec<_> = o.class_ids().collect();
            let mut parents = Vec::new();
            if i > 0 {
                for pick in picks {
                    let p = existing[pick.index(existing.len())];
                    if !parents.contains(&p) {
                        parents.push(p);
                    }
                }
            }
            o.add_class(&format!("C{i}"), &parents)
                .expect("fresh name, acyclic by construction");
        }
        o
    })
}

// ---------- XML ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn xml_print_parse_round_trip(e in element_strategy()) {
        let text = e.to_xml();
        let back = parse(&text).expect("own output must parse");
        prop_assert_eq!(&e, &back);
        // the length pass and the appending writer are `to_xml` too
        prop_assert_eq!(e.xml_len(), text.len());
        let mut appended = String::from("before");
        e.write_xml(&mut appended);
        prop_assert_eq!(appended, format!("before{text}"));
    }

    #[test]
    fn xml_escape_unescape_identity(s in text_strategy()) {
        prop_assert_eq!(whisper_xml::unescape(&whisper_xml::escape_text(&s)), s.clone());
        prop_assert_eq!(whisper_xml::unescape(&whisper_xml::escape_attr(&s)), s);
    }

    /// The run-copying escapes are the character-by-character definition.
    #[test]
    fn xml_escapes_equal_their_char_by_char_definition(
        runs in proptest::collection::vec(prop_oneof![text_strategy(), "\\PC{0,24}", "[\t\r\n\"<>&]{0,4}"], 0..4)
    ) {
        let s = runs.concat();
        let by_char = |attr: bool| {
            let mut out = String::new();
            for c in s.chars() {
                match c {
                    '&' => out.push_str("&amp;"),
                    '<' => out.push_str("&lt;"),
                    '>' => out.push_str("&gt;"),
                    '"' if attr => out.push_str("&quot;"),
                    '\n' if attr => out.push_str("&#10;"),
                    '\t' if attr => out.push_str("&#9;"),
                    '\r' if attr => out.push_str("&#13;"),
                    _ => out.push(c),
                }
            }
            out
        };
        prop_assert_eq!(whisper_xml::escape_text(&s), by_char(false));
        prop_assert_eq!(whisper_xml::escape_attr(&s), by_char(true));
    }

    #[test]
    fn qname_clark_round_trip(ns in proptest::option::of("[a-z:/.]{1,12}"), local in name_strategy()) {
        let q = match ns {
            Some(ns) => QName::with_ns(ns, local),
            None => QName::new(local),
        };
        prop_assert_eq!(QName::from_clark(&q.to_clark()), Some(q));
    }

    #[test]
    fn soap_envelope_round_trip(payload in element_strategy()) {
        let env = Envelope::request(payload);
        let back = Envelope::parse(&env.to_xml_string()).expect("valid envelope");
        prop_assert_eq!(env, back);
    }

    /// Writing an envelope around its borrowed payload, and taking a
    /// parsed one apart by move, are the tree-building routes they replace.
    #[test]
    fn soap_wire_text_is_the_element_trees(env in envelope_strategy()) {
        let text = env.to_xml_string();
        prop_assert_eq!(&text, &env.to_element().to_xml());
        prop_assert_eq!(env.wire_size(), text.len());
        let tree = parse(&text).expect("own output must parse");
        prop_assert_eq!(Envelope::parse(&text), Envelope::from_element(&tree));
    }
}

// ---------- ontology laws ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn subsumption_is_a_partial_order(o in ontology_strategy()) {
        let ids: Vec<_> = o.class_ids().collect();
        // reflexive
        for &a in &ids {
            prop_assert!(o.is_subclass_of(a, a));
        }
        // antisymmetric (DAG: no distinct mutual subsumption)
        for &a in &ids {
            for &b in &ids {
                if a != b && o.is_subclass_of(a, b) {
                    prop_assert!(!o.is_subclass_of(b, a), "cycle {:?} <-> {:?}", a, b);
                }
            }
        }
        // transitive
        for &a in &ids {
            for &b in &ids {
                if a == b || !o.is_subclass_of(a, b) { continue; }
                for &c in &ids {
                    if o.is_subclass_of(b, c) {
                        prop_assert!(o.is_subclass_of(a, c), "{:?}izin {:?} izin {:?}", a, b, c);
                    }
                }
            }
        }
    }

    #[test]
    fn ancestors_agree_with_subsumption(o in ontology_strategy()) {
        for a in o.class_ids() {
            let anc = o.ancestors(a);
            for b in o.class_ids() {
                let in_anc = anc.contains(&b);
                let subsumes = a != b && o.is_subclass_of(a, b);
                prop_assert_eq!(in_anc, subsumes);
            }
        }
    }

    #[test]
    fn lca_is_a_common_subsumer_of_maximal_depth(o in ontology_strategy()) {
        let ids: Vec<_> = o.class_ids().collect();
        for &a in &ids {
            for &b in &ids {
                if let Some(l) = o.lca(a, b) {
                    prop_assert!(o.is_subclass_of(a, l));
                    prop_assert!(o.is_subclass_of(b, l));
                    // no strictly deeper common subsumer exists
                    for &c in &ids {
                        if o.is_subclass_of(a, c) && o.is_subclass_of(b, c) {
                            prop_assert!(o.depth(c) <= o.depth(l));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn match_degree_duality(o in ontology_strategy()) {
        // Subsume(a, b) <=> PlugIn(b, a); Exact <=> identity; Fail symmetric.
        let ids: Vec<_> = o.class_ids().collect();
        for &a in &ids {
            for &b in &ids {
                let ab = o.match_concepts(a, b);
                let ba = o.match_concepts(b, a);
                match ab {
                    MatchDegree::Exact => prop_assert_eq!(a, b),
                    MatchDegree::Subsume => prop_assert_eq!(ba, MatchDegree::PlugIn),
                    MatchDegree::PlugIn => prop_assert_eq!(ba, MatchDegree::Subsume),
                    MatchDegree::Fail => prop_assert_eq!(ba, MatchDegree::Fail),
                }
            }
        }
    }

    #[test]
    fn similarity_is_symmetric_and_bounded(o in ontology_strategy()) {
        let ids: Vec<_> = o.class_ids().collect();
        for &a in &ids {
            for &b in &ids {
                let s = o.similarity(a, b);
                prop_assert!((0.0..=1.0).contains(&s), "similarity {}", s);
                prop_assert_eq!(s, o.similarity(b, a));
                if a == b {
                    prop_assert_eq!(s, 1.0);
                }
            }
        }
    }

    #[test]
    fn ontology_xml_round_trip(o in ontology_strategy()) {
        let text = o.to_xml().to_xml();
        let back = Ontology::from_xml(&parse(&text).expect("valid xml")).expect("valid ontology");
        prop_assert_eq!(o, back);
    }
}

// ---------- advertisements ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn semantic_advertisement_round_trip(
        group in 0u64..1000,
        name in name_strategy(),
        concepts in proptest::collection::vec(name_strategy(), 1..5),
        qos in proptest::option::of((0u64..100_000, 0.0f64..=1.0, 0.0f64..10.0)),
    ) {
        let q = |l: &str| QName::with_ns("urn:prop", l);
        let adv = Advertisement::Semantic(SemanticAdv {
            group: GroupId::new(group),
            name,
            action: q(&concepts[0]),
            inputs: concepts.iter().skip(1).map(|c| q(c)).collect(),
            outputs: vec![q(&concepts[0])],
            qos: qos.map(|(latency_us, reliability, cost)| QosSpec { latency_us, reliability, cost }),
        });
        let back = Advertisement::parse(&adv.to_xml_string()).expect("valid adv");
        prop_assert_eq!(adv, back);
    }
}

// ---------- histograms ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn histogram_percentiles_are_monotone_and_anchored(
        mut samples in proptest::collection::vec(0u64..1_000_000, 1..200)
    ) {
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(SimDuration::from_micros(s));
        }
        samples.sort_unstable();
        prop_assert_eq!(h.min(), Some(SimDuration::from_micros(samples[0])));
        prop_assert_eq!(
            h.max(),
            Some(SimDuration::from_micros(*samples.last().expect("non-empty")))
        );
        prop_assert_eq!(h.percentile(0.0), h.min());
        prop_assert_eq!(h.percentile(100.0), h.max());
        let mut prev = SimDuration::ZERO;
        for p in [10.0, 25.0, 50.0, 75.0, 90.0, 99.0] {
            let v = h.percentile(p).expect("non-empty");
            prop_assert!(v >= prev, "percentiles must be monotone");
            prev = v;
        }
        // mean is within [min, max]
        let mean = h.mean().expect("non-empty");
        prop_assert!(mean >= h.min().expect("min") && mean <= h.max().expect("max"));
    }
}

// ---------- bully election safety ----------

/// A deterministic synchronous pump for a set of BullyNodes with a subset
/// of dead peers: messages deliver instantly, timers fire in order. Models
/// the asynchronous system conservatively enough for safety checking.
fn pump_bully(n: usize, dead: &[usize], initiators: &[usize]) -> Vec<Option<PeerId>> {
    let peers: Vec<PeerId> = (1..=n as u64).map(PeerId::new).collect();
    let mut nodes: Vec<BullyNode> = peers
        .iter()
        .map(|&p| BullyNode::new(p, peers.iter().copied(), BullyConfig::default()))
        .collect();
    let is_dead = |i: usize| dead.contains(&i);

    let mut now = SimTime::ZERO + SimDuration::from_secs(10);
    let mut inbox: Vec<(usize, PeerId, whisper_election::ElectionMsg)> = Vec::new();
    let mut timers: Vec<(SimTime, usize, u64)> = Vec::new();

    fn handle_output(
        i: usize,
        out: whisper_election::Output,
        inbox: &mut Vec<(usize, PeerId, whisper_election::ElectionMsg)>,
        timers: &mut Vec<(SimTime, usize, u64)>,
        now: SimTime,
    ) {
        for (to, msg) in out.sends {
            let to_idx = (to.value() - 1) as usize;
            inbox.push((to_idx, PeerId::new(i as u64 + 1), msg));
        }
        for t in out.timers {
            timers.push((now + t.delay, i, t.token));
        }
    }

    for &initiator in initiators {
        let out = nodes[initiator].start_election(now);
        handle_output(initiator, out, &mut inbox, &mut timers, now);
    }

    for _ in 0..100_000 {
        if let Some((to, from, msg)) = inbox.pop() {
            if !is_dead(to) {
                let out = nodes[to].on_message(from, msg, now);
                handle_output(to, out, &mut inbox, &mut timers, now);
            }
            continue;
        }
        // no messages in flight: fire the earliest timer
        if timers.is_empty() {
            break;
        }
        timers.sort_by_key(|(at, _, _)| *at);
        let (at, i, token) = timers.remove(0);
        if at > now {
            now = at;
        }
        if !is_dead(i) {
            let out = nodes[i].on_timer(token, now);
            handle_output(i, out, &mut inbox, &mut timers, now);
        }
    }
    nodes
        .iter()
        .enumerate()
        .map(|(i, nd)| if is_dead(i) { None } else { nd.coordinator() })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bully_elects_the_highest_live_peer_under_any_crash_pattern(
        n in 2usize..10,
        dead_picks in proptest::collection::vec(any::<prop::sample::Index>(), 0..5),
        init_picks in proptest::collection::vec(any::<prop::sample::Index>(), 1..4),
    ) {
        let mut dead: Vec<usize> = dead_picks.iter().map(|p| p.index(n)).collect();
        dead.sort_unstable();
        dead.dedup();
        let live: Vec<usize> = (0..n).filter(|i| !dead.contains(i)).collect();
        prop_assume!(!live.is_empty());
        // several peers may detect the failure and start elections at once
        let mut initiators: Vec<usize> =
            init_picks.iter().map(|p| live[p.index(live.len())]).collect();
        initiators.sort_unstable();
        initiators.dedup();
        let expected = PeerId::new(*live.last().expect("non-empty") as u64 + 1);

        let beliefs = pump_bully(n, &dead, &initiators);
        for &i in &live {
            prop_assert_eq!(
                beliefs[i],
                Some(expected),
                "live node {} should settle on the highest live peer; beliefs: {:?}, dead: {:?}",
                i, beliefs, dead
            );
        }
    }
}

// ---------- full-stack smoke property ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn any_seed_any_size_serves_a_request(seed in 0u64..1000, n in 1usize..6) {
        let mut net = whisper::WhisperNet::student_scenario(n, seed);
        net.run_for(SimDuration::from_secs(3));
        let client = net.client_ids()[0];
        net.submit_student_request(client, "u1005");
        net.run_for(SimDuration::from_secs(3));
        let s = net.client_stats(client);
        prop_assert_eq!(s.completed, 1);
        prop_assert_eq!(s.faults, 0);
    }
}

// ---------- ring election safety ----------

/// Synchronous pump for RingNodes with updated membership (the dead peers
/// removed, as the failure detector would have done).
fn pump_ring(n: usize, dead: &[usize], initiator: usize) -> Vec<Option<PeerId>> {
    use whisper_election::RingNode;
    let all: Vec<PeerId> = (1..=n as u64).map(PeerId::new).collect();
    let live: Vec<usize> = (0..n).filter(|i| !dead.contains(i)).collect();
    let mut nodes: Vec<RingNode> = all
        .iter()
        .map(|&p| {
            let mut r = RingNode::new(p, all.iter().copied());
            for &d in dead {
                r.remove_member(all[d]);
            }
            r
        })
        .collect();
    let now = SimTime::ZERO;
    let mut inbox: Vec<(usize, PeerId, whisper_election::ElectionMsg)> = Vec::new();
    let out = nodes[initiator].start_election(now);
    for (to, msg) in out.sends {
        inbox.push(((to.value() - 1) as usize, all[initiator], msg));
    }
    for _ in 0..100_000 {
        let Some((to, from, msg)) = inbox.pop() else {
            break;
        };
        if dead.contains(&to) {
            continue;
        }
        let out = nodes[to].on_message(from, msg, now);
        for (dest, m) in out.sends {
            inbox.push(((dest.value() - 1) as usize, all[to], m));
        }
    }
    live.iter().map(|&i| nodes[i].coordinator()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ring_elects_the_highest_live_peer_with_updated_membership(
        n in 2usize..10,
        dead_picks in proptest::collection::vec(any::<prop::sample::Index>(), 0..4),
        init_pick in any::<prop::sample::Index>(),
    ) {
        let mut dead: Vec<usize> = dead_picks.iter().map(|p| p.index(n)).collect();
        dead.sort_unstable();
        dead.dedup();
        let live: Vec<usize> = (0..n).filter(|i| !dead.contains(i)).collect();
        prop_assume!(live.len() >= 2, "a lone survivor self-elects trivially");
        let initiator = live[init_pick.index(live.len())];
        let expected = PeerId::new(*live.last().expect("non-empty") as u64 + 1);
        let beliefs = pump_ring(n, &dead, initiator);
        for (li, b) in live.iter().zip(&beliefs) {
            prop_assert_eq!(
                *b,
                Some(expected),
                "live node {} disagrees; beliefs {:?}, dead {:?}",
                li, beliefs, dead
            );
        }
    }

    /// Workflow QoS aggregation is monotone: degrading any leaf can only
    /// worsen the aggregate.
    #[test]
    fn qos_composition_is_monotone(
        lat in proptest::collection::vec(1u64..10_000, 2..6),
        rel in proptest::collection::vec(0.5f64..1.0, 2..6),
        degrade_pick in any::<prop::sample::Index>(),
    ) {
        use whisper::composition::QosExpr;
        use whisper_p2p::QosSpec;
        let n = lat.len().min(rel.len());
        let task = |i: usize, slow: bool| {
            QosExpr::task(QosSpec {
                latency_us: lat[i] * if slow { 10 } else { 1 },
                reliability: if slow { rel[i] * 0.5 } else { rel[i] },
                cost: 1.0,
            })
        };
        let victim = degrade_pick.index(n);
        let base = QosExpr::seq((0..n).map(|i| task(i, false)).collect());
        let worse = QosExpr::seq((0..n).map(|i| task(i, i == victim)).collect());
        let (qb, qw) = (base.aggregate(), worse.aggregate());
        prop_assert!(qw.latency_us >= qb.latency_us);
        prop_assert!(qw.reliability <= qb.reliability);
    }
}

// ---------- robustness: parsers never panic ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes must never panic any of the stack's parsers — they
    /// face network input.
    #[test]
    fn parsers_never_panic_on_arbitrary_input(s in "\\PC*") {
        let _ = whisper_xml::parse(&s);
        let _ = whisper_xml::parse_document(&s);
        let _ = scan_start_tags(&s, |_, _| ControlFlow::Continue(()));
        let _ = Envelope::parse(&s);
        let _ = Envelope::peek_body(&s);
        let _ = whisper_wsdl::ServiceDescription::parse(&s);
        let _ = Advertisement::parse(&s);
        let _ = whisper_xml::unescape(&s);
    }

    /// XML-shaped junk (angle brackets, quotes, ampersands) as well.
    #[test]
    fn parsers_never_panic_on_xmlish_junk(
        parts in proptest::collection::vec(
            prop_oneof![
                Just("<".to_string()),
                Just(">".to_string()),
                Just("</".to_string()),
                Just("/>".to_string()),
                Just("<a".to_string()),
                Just("='".to_string()),
                Just("=\"".to_string()),
                Just("&".to_string()),
                Just(";".to_string()),
                Just("<![CDATA[".to_string()),
                Just("]]>".to_string()),
                Just("<!--".to_string()),
                Just("-->".to_string()),
                Just("<?".to_string()),
                Just("?>".to_string()),
                Just("xmlns:p".to_string()),
                Just("p:q".to_string()),
                "[a-z ]{0,6}".prop_map(|s| s),
            ],
            0..30,
        )
    ) {
        let s: String = parts.concat();
        let _ = whisper_xml::parse(&s);
        let _ = scan_start_tags(&s, |_, _| ControlFlow::Continue(()));
        let _ = Envelope::parse(&s);
        let _ = Envelope::peek_body(&s);
        let _ = Advertisement::parse(&s);
        let _ = whisper_wsdl::ServiceDescription::parse(&s);
    }
}

// ---------- WSDL round trip over generated descriptions ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn wsdl_round_trip_over_generated_descriptions(
        svc_name in "[A-Za-z][A-Za-z0-9]{0,10}",
        ifaces in proptest::collection::vec(
            (
                "[A-Za-z][A-Za-z0-9]{0,8}",
                proptest::collection::vec(
                    (
                        "[A-Za-z][A-Za-z0-9]{0,8}",
                        "[a-z:/.]{1,10}",
                        "[A-Za-z][A-Za-z0-9]{0,8}",
                        proptest::collection::vec(
                            ("[A-Za-z][A-Za-z0-9]{0,6}", "[A-Za-z][A-Za-z0-9]{0,8}"),
                            0..3,
                        ),
                    ),
                    0..3,
                ),
            ),
            0..3,
        ),
    ) {
        use whisper_wsdl::{Interface, Operation, ServiceDescription};
        let mut svc = ServiceDescription::new(&svc_name, "urn:prop");
        for (iname, ops) in &ifaces {
            let mut iface = Interface::new(iname.clone());
            for (oname, ns, action, parts) in ops {
                let mut op = Operation::new(oname.clone(), QName::with_ns(ns.clone(), action.clone()));
                for (label, concept) in parts {
                    op = op
                        .with_input(label.clone(), QName::with_ns(ns.clone(), concept.clone()))
                        .with_output(label.clone(), QName::with_ns(ns.clone(), concept.clone()));
                }
                iface = iface.with_operation(op);
            }
            svc = svc.with_interface(iface);
        }
        let text = svc.to_xml_string();
        let back = ServiceDescription::parse(&text).expect("own output parses");
        prop_assert_eq!(svc, back);
    }
}

// ---------- semantic-match memo equivalence ----------

#[derive(Debug, Clone)]
enum MemoOp {
    Insert { adv: usize, lifetime_us: u64 },
    Advance { delta_us: u64 },
    Expire,
    FailGroup { group: u64 },
    Query,
}

fn memo_op_strategy() -> impl Strategy<Value = MemoOp> {
    prop_oneof![
        (0..8usize, 50..2_000u64)
            .prop_map(|(adv, lifetime_us)| MemoOp::Insert { adv, lifetime_us }),
        (1..500u64).prop_map(|delta_us| MemoOp::Advance { delta_us }),
        Just(MemoOp::Expire),
        (1..5u64).prop_map(|group| MemoOp::FailGroup { group }),
        Just(MemoOp::Query),
        Just(MemoOp::Query),
    ]
}

fn policy_strategy() -> impl Strategy<Value = whisper::SelectionPolicy> {
    use whisper::SelectionPolicy::*;
    prop_oneof![
        Just(SemanticThenQos),
        Just(QosOnly),
        Just(Adaptive),
        Just(Random),
        Just(FirstFound),
    ]
}

/// A mixed pool of acceptable and unacceptable advertisements against the
/// student-management `StudentInformation` operation, spread over four
/// groups so failed-group exclusion bites.
fn memo_adv_pool() -> Vec<SemanticAdv> {
    use whisper_ontology::samples::UNIVERSITY_NS;
    let q = |l: &str| QName::with_ns(UNIVERSITY_NS, l);
    let combos = [
        ("StudentInformation", "StudentID", "StudentInfo"),
        (
            "StudentTranscriptRetrieval",
            "StudentID",
            "StudentTranscript",
        ),
        ("StudentInformation", "Identifier", "StudentInfo"),
        ("InformationRetrieval", "StudentID", "StudentInfo"), // action too general
        ("StudentInformation", "NationalID", "StudentInfo"),  // unsatisfiable input
        ("EnrollmentUpdate", "StudentID", "StudentInfo"),     // unrelated action
        ("StudentInformation", "StudentID", "Record"),        // output too general
        ("StudentInformation", "StudentID", "StudentInfo"),
    ];
    combos
        .iter()
        .enumerate()
        .map(|(i, (action, input, output))| SemanticAdv {
            group: GroupId::new((i % 4 + 1) as u64),
            name: format!("adv{i}"),
            action: q(action),
            inputs: vec![q(input)],
            outputs: vec![q(output)],
            qos: (i % 2 == 0).then(|| QosSpec {
                latency_us: 100 * (i as u64 + 1),
                reliability: 0.9 + 0.01 * i as f64,
                cost: 0.5,
            }),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The proxy's epoch-keyed semantic-match memo is invisible: under any
    /// interleaving of inserts, expiries, time passage and group failures,
    /// the memoized path picks exactly what a from-scratch matching pass
    /// would (including identical RNG consumption for the Random policy).
    #[test]
    fn memoized_semantic_match_equals_uncached_selection(
        ops in proptest::collection::vec(memo_op_strategy(), 1..40),
        policy in policy_strategy(),
        seed in any::<u64>(),
    ) {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        use whisper::matchmaker;
        use whisper::QosMonitor;
        use whisper_p2p::{AdvFilter, AdvKind, DiscoveryCache};

        let onto = whisper_ontology::samples::university_ontology();
        let req = whisper_wsdl::samples::student_management()
            .operation("StudentInformation")
            .unwrap()
            .resolve(&onto)
            .unwrap();
        let pool = memo_adv_pool();
        let monitor = QosMonitor::default();
        let filter = AdvFilter::of_kind(AdvKind::Semantic);

        let mut cache = DiscoveryCache::new();
        let mut memo = matchmaker::SemanticMatchCache::new();
        let mut now = SimTime::ZERO;
        let mut failed: Vec<GroupId> = Vec::new();
        // Lockstep RNGs: the property includes "both paths draw the same
        // amount of randomness", so a stale memo shows up as divergence.
        let mut rng_memo = SmallRng::seed_from_u64(seed);
        let mut rng_plain = SmallRng::seed_from_u64(seed);

        for op in ops {
            match op {
                MemoOp::Insert { adv, lifetime_us } => {
                    cache.insert(
                        Advertisement::Semantic(pool[adv].clone()),
                        now + SimDuration::from_micros(lifetime_us),
                    );
                }
                MemoOp::Advance { delta_us } => {
                    now += SimDuration::from_micros(delta_us);
                }
                MemoOp::Expire => {
                    cache.expire(now);
                }
                MemoOp::FailGroup { group } => {
                    let g = GroupId::new(group);
                    if !failed.contains(&g) {
                        failed.push(g);
                    }
                }
                MemoOp::Query => {
                    // memoized path, exactly as the proxy runs it
                    let epoch = cache.epoch();
                    let (ranked, _hit) =
                        memo.get_or_build("StudentInformation", epoch, &failed, now, || {
                            let mut earliest = SimTime::from_micros(u64::MAX);
                            let ranked = matchmaker::rank_candidates(
                                &onto,
                                &req,
                                cache
                                    .iter_live(&filter, now)
                                    .map(|(a, expires)| {
                                        if expires < earliest {
                                            earliest = expires;
                                        }
                                        a
                                    })
                                    .filter_map(Advertisement::as_semantic)
                                    .filter(|a| !failed.contains(&a.group)),
                            );
                            (ranked, earliest)
                        });
                    let memo_pick =
                        matchmaker::select_from_ranked(ranked, policy, &mut rng_memo, &monitor)
                            .map(|i| ranked[i].adv.group);

                    // reference path: full matching from scratch
                    let candidates: Vec<SemanticAdv> = cache
                        .lookup(&filter, now)
                        .into_iter()
                        .filter_map(Advertisement::as_semantic)
                        .filter(|a| !failed.contains(&a.group))
                        .cloned()
                        .collect();
                    let plain_pick = matchmaker::select_candidate(
                        &onto,
                        &req,
                        &candidates,
                        policy,
                        &mut rng_plain,
                        &monitor,
                    )
                    .map(|i| candidates[i].group);

                    prop_assert_eq!(memo_pick, plain_pick);
                }
            }
        }
    }
}
